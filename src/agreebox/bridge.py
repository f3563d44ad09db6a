"""Conversion between boxes and ontological models, and the locality test.

An instruction set is a hidden state prescribing one output per input per
party: a pair (alpha, beta) with alpha in A^X and beta in B^Y.  Weights
P over instruction sets reproduce a box through

    p(ab|xy) = sum of P(alpha, beta) over alpha[x] = a, beta[y] = b,

a linear system M P = C whose 0/1 matrix M depends only on the shape.
Every valid no-signaling box admits a solution with sum P = 1, but the
weights may be negative; nonnegative solvability is exactly locality.
box_to_model returns the deterministic free-variables-zero solution,
is_local settles nonnegativity by exact LP and returns either the convex
decomposition or a separating (Bell-type) functional as certificate.
Both refuse a box with a row not summing to 1, solve M (den P) = num on
ints and build each weight once, as Fraction(v_k, d * den) from simplexq's
ints v over d.  is_local prices its
functional through the cores of bell_local_bound, a best response, and
bell_value, on ints; the price is kept per process, the value on each
box is not.
Its LPs on one shape share a tree of pivot paths (simplexq), so a box
whose path an earlier box took is solved on the rhs column alone.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import getitem

from .boxes import Box, _in_shape, make_box, row_labels
from .classical import OntologicalModel
from .errors import BudgetError, PreconditionError, ShapeError
from .rationals import rat
from .simplexq import LinearSolver, feasible_nonneg

# the largest instruction system built; checked before any state is enumerated
MAX_STATES = 4096


def instruction_states(nA, nB, nX, nY):
    count = nA**nX * nB**nY
    if count > MAX_STATES:
        raise BudgetError(f"{count} instruction states exceed the limit {MAX_STATES}")
    return tuple(
        (alpha, beta)
        for alpha in product(range(nA), repeat=nX)
        for beta in product(range(nB), repeat=nY)
    )


@lru_cache(maxsize=None)
def _shape_system(nA, nB, nX, nY):
    """(states, labels, M, paths, priced): the shape's instruction system,
    the tree of pivot paths its LPs took, and its Bell functionals keyed (L, Y)."""
    states = instruction_states(nA, nB, nX, nY)
    labels = row_labels(nA, nB, nX, nY)
    M = tuple(
        tuple(1 if (alpha[x] == a and beta[y] == b) else 0 for alpha, beta in states)
        for (a, b, x, y) in labels
    )
    return states, labels, M, {}, {}


@lru_cache(maxsize=None)
def _shape_solver(nA, nB, nX, nY):
    return LinearSolver(_shape_system(nA, nB, nX, nY)[2])


def _numerators(box: Box, labels):
    """The box's nums in label order; PreconditionError names a row not summing to 1."""
    c = [box.num[key] for key in labels]
    k = box.nA * box.nB
    for i in range(0, len(c), k):
        if (total := sum(c[i:i + k])) != box.den:
            raise PreconditionError(f"row (x, y) = {labels[i][2:]} sums to {Fraction(total, box.den)}")
    return c


def model_to_box(model: OntologicalModel) -> Box:
    """Read the box off the model: p(ab|xy) = mass of the cell intersection."""
    nX = len(model.partsA)
    nY = len(model.partsB)
    if set(model.partsA) != set(range(nX)) or set(model.partsB) != set(range(nY)):
        raise ShapeError("partitions must be indexed by contiguous inputs from 0")
    sizes_a = {len(cells) for cells in model.partsA.values()}
    sizes_b = {len(cells) for cells in model.partsB.values()}
    if len(sizes_a) != 1 or len(sizes_b) != 1:
        raise ShapeError("every input must have the same number of output cells")
    nA, nB = sizes_a.pop(), sizes_b.pop()
    entries = {}
    for x, y, a, b in product(range(nX), range(nY), range(nA), range(nB)):
        cell = model.partsA[x][a] & model.partsB[y][b]
        entries[(a, b, x, y)] = sum(model.measure[w] for w in cell)
    return make_box(nA, nB, nX, nY, entries)


def box_to_model(box: Box) -> OntologicalModel:
    """Deterministic quasi-probability model over instruction sets.

    The solution of M P = C picks free variables zero under the fixed
    lexicographic pivot order, so equal boxes give equal models.  The
    measure is signed whenever the particular solution has a negative
    weight; is_local() decides whether some unsigned solution exists.
    """
    states, labels, *_ = _shape_system(box.nA, box.nB, box.nX, box.nY)
    solver = _shape_solver(box.nA, box.nB, box.nX, box.nY)
    # solved as M (den P) = num on ints, like is_local: P = v / (d den)
    solved = solver.solve(_numerators(box, labels))
    if solved is None:
        raise PreconditionError("instruction system inconsistent: the box is not no-signaling")
    v, d = solved
    dd = d * box.den
    if sum(v) != dd:
        raise RuntimeError("solution mass is not 1; normalization row violated")
    # mass and signs are read off the ints, and the cells partition the states
    partsA = {x: tuple(frozenset(k for k, (alpha, _) in enumerate(states) if alpha[x] == a)
                       for a in range(box.nA)) for x in range(box.nX)}
    partsB = {y: tuple(frozenset(k for k, (_, beta) in enumerate(states) if beta[y] == b)
                       for b in range(box.nB)) for y in range(box.nY)}
    return OntologicalModel(len(v), tuple(Fraction(vk, dd) for vk in v), partsA, partsB,
                            any(vk * dd < 0 for vk in v))


# ---------------------------------------------------------------------------
# locality

@dataclass(frozen=True)
class BellCertificate:
    """A linear functional on box entries separating the box from the
    local set: every deterministic strategy scores <= local_bound, the
    box scores box_value > local_bound."""

    coeffs: dict  # (a, b, x, y) -> Fraction
    local_bound: Fraction
    box_value: Fraction


# the most Bell functionals is_local keeps priced for one shape, each
# under (L, Y) (the 390 nonlocal valid k/8 boxes share two); past it, a new
# functional of that shape is priced on every call and not kept
MAX_PRICED = 256


@dataclass(frozen=True)
class LocalityVerdict:
    local: bool
    weights: tuple  # ((state, weight), ...) over instruction states; None if nonlocal
    certificate: BellCertificate  # None if local


def is_local(box: Box) -> LocalityVerdict:
    """Exact LP feasibility of nonnegative M P = C, with certificate.

    A nonlocal verdict's Bell functional is cleared to ints Y / L and
    rechecked before it is returned: its value on the box must exceed the
    best deterministic score, the bound bell_local_bound computes.
    """
    # solved as M (den P) = num on ints; its Farkas vectors are those of M P = C
    shape = (box.nA, box.nB, box.nX, box.nY)
    states, labels, M, paths, priced = _shape_system(*shape)
    ok, v, d = feasible_nonneg(M, _numerators(box, labels), paths)
    if ok:
        # den P = v / d: each weight is one Fraction
        dd = d * box.den
        weights = tuple((states[k], Fraction(vk, dd)) for k, vk in enumerate(v) if vk)
        return LocalityVerdict(True, weights, None)
    # the functional v / d in lowest terms is Y / L; it is priced and
    # evaluated on ints, through the cores of bell_local_bound and
    # bell_value: its keys are row_labels, so none is checked.  Its price
    # depends on the shape, L and Y alone, so it is kept; its value on this
    # box is computed and checked every time
    g = gcd(d, *v)
    L = d // g
    Y = tuple([vi // g for vi in v])
    price = priced.get((L, Y))
    if price is None:
        terms = tuple((key, yi) for key, yi in zip(labels, Y) if yi)
        best = _local_bound(terms, *shape)
        coeffs = {key: Fraction(yi, L) for key, yi in terms}
        price = (terms, best, coeffs, Fraction(best, L))
        if len(priced) < MAX_PRICED:
            priced[L, Y] = price
    terms, best, coeffs, bound = price
    value = _value_num(box, terms)
    if value <= best * box.den:
        raise RuntimeError("Bell certificate does not separate the box")
    # a copy, so that no caller shares the kept dict
    return LocalityVerdict(False, None, BellCertificate(
        dict(coeffs), bound, Fraction(value, box.den * L)))


# ---------------------------------------------------------------------------
# Bell functionals on boxes

def bell_value(box: Box, coeffs) -> Fraction:
    """sum_k c_k p(k) for coeffs {(a, b, x, y): int or Fraction}, missing keys 0."""
    for key in coeffs:
        if not _in_shape(key, box.nA, box.nB, box.nX, box.nY):
            raise ShapeError(f"coefficient key outside the box's shape: {key!r}")
    return Fraction(_value_num(box, coeffs.items()), box.den)


def _value_num(box: Box, items):
    """bell_value times den, on (key, weight) pairs whose keys are in the shape."""
    return sum(w * box.num[key] for key, w in items)


def bell_local_bound(coeffs, nA, nB, nX, nY):
    """Maximum of the functional over all deterministic strategies: for each
    of Alice's alpha, Bob's best response b maximizes sum_x c(alpha[x], b, x, y)."""
    for key in coeffs:
        if not _in_shape(key, nA, nB, nX, nY):
            raise ShapeError(f"coefficient key outside the shape: {key!r}")
    return _local_bound(coeffs.items(), nA, nB, nX, nY)


def _local_bound(items, nA, nB, nX, nY):
    """bell_local_bound on (key, weight) pairs whose keys are in the shape."""
    cols = [[[[0] * nA for _ in range(nX)] for _ in range(nB)] for _ in range(nY)]
    for (a, b, x, y), w in items:
        cols[y][b][x][a] = w  # Bob's column (y, b), indexed by x then alpha[x]
    return max(sum(max([sum(map(getitem, col, alpha)) for col in by]) for by in cols)
               for alpha in product(range(nA), repeat=nX))


def correlator_functional(weights) -> dict:
    """Functional sum_xy w_xy * c_xy as coefficients on binary box entries."""
    coeffs = {}
    for (x, y), w in weights.items():
        w = rat(w)
        for a in range(2):
            for b in range(2):
                coeffs[(a, b, x, y)] = w * (1 if a == b else -1)
    return coeffs

