"""Partition models, certainty towers, and an exhaustive agreement check.

A (classical) ontological model is a finite state space with a rational
probability measure and, for each party and each input, a partition of the
states labeled by outputs.  Signed measures are representable (they arise
when converting nonlocal boxes) but every epistemic operation here demands
an honest unsigned measure.

The tower mirrors the box-side certainty hierarchy on the state space.
Alice's information is her input-0 partition; given an event pair
(E_A, E_B) and candidate values qA, qB,

    A_0 = { w : P(E_B | cell_A(w)) = qA },     B_0 symmetric,
    A_{n+1} = { w in A_n : P(B_n | cell_A(w)) = 1 },   B_{n+1} symmetric,

iterated simultaneously until both sides repeat.  Common certainty of
(qA, qB) holds at w* when w* survives in A_N and B_N.  The agreement
property asserts that for perfectly correlated events this forces qA = qB;
verify_agreement_theorem() checks that exhaustively over all small models.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations, product
from math import factorial, gcd
from typing import NamedTuple

from .errors import ParseError, PreconditionError, StructuralError
from .rationals import json_doc, json_text, rat, rat_str

ZERO = Fraction(0)

# enumeration never runs beyond these, whatever the caller asks for
HARD_OMEGA_CAP = 6
HARD_DENOM_CAP = 4
# the first enumerated instance and every CROSS_CHECK_STRIDE-th one after it
# are recomputed by the reference tower
CROSS_CHECK_STRIDE = 97


@dataclass(frozen=True)
class OntologicalModel:
    """States 0..omega_count-1 with measure and per-input output partitions.

    partsA[x] is a tuple of frozensets, indexed by Alice's output label;
    partsB[y] likewise.  Cells may be empty (an output that never occurs).
    signed is True iff some state carries negative mass.
    """

    omega_count: int
    measure: tuple
    partsA: dict
    partsB: dict
    signed: bool


def make_model(measure, partsA, partsB) -> OntologicalModel:
    measure = tuple(rat(m) for m in measure)
    n = len(measure)
    if sum(measure, ZERO) != 1:
        raise StructuralError("measure does not sum to 1")
    norm_a = {x: tuple(frozenset(c) for c in cells) for x, cells in partsA.items()}
    norm_b = {y: tuple(frozenset(c) for c in cells) for y, cells in partsB.items()}
    for side, parts in (("A", norm_a), ("B", norm_b)):
        for inp, cells in parts.items():
            seen = set()
            for c in cells:
                if c & seen:
                    raise StructuralError(f"parts{side}[{inp}] cells overlap")
                seen |= c
            if seen != set(range(n)):
                raise StructuralError(f"parts{side}[{inp}] does not cover the states")
    signed = any(m < 0 for m in measure)
    return OntologicalModel(n, measure, norm_a, norm_b, signed)


class EventPair(NamedTuple):
    EA: frozenset
    EB: frozenset


def mass(model: OntologicalModel, states) -> Fraction:
    return sum((model.measure[w] for w in states), ZERO)


def conditional_mass(model: OntologicalModel, event, given) -> Fraction:
    """P(event | given); raises on a null conditioning set."""
    den = mass(model, given)
    if den == 0:
        raise PreconditionError("conditioning on a null state set")
    return mass(model, set(event) & set(given)) / den


def perfectly_correlated(model: OntologicalModel, events: EventPair) -> bool:
    """True iff the symmetric difference of the events carries no mass."""
    return mass(model, events.EA ^ events.EB) == 0


def _check_tower_preconditions(model: OntologicalModel):
    if model.signed:
        raise PreconditionError("tower requires an unsigned measure")
    if 0 not in model.partsA or 0 not in model.partsB:
        raise PreconditionError("tower requires input-0 partitions for both parties")
    for ia, ca in enumerate(model.partsA[0]):
        for ib, cb in enumerate(model.partsB[0]):
            joint = ca & cb
            if joint and mass(model, joint) == 0:
                raise PreconditionError(
                    f"null join cell: A cell {ia} with B cell {ib}, "
                    f"states {sorted(joint)}"
                )


class TowerResult(NamedTuple):
    """Levels (A_0, B_0) .. (A_{N+1}, B_{N+1}) as frozenset pairs."""

    levels: tuple
    N: int

    @property
    def A_N(self):
        return self.levels[self.N][0]

    @property
    def B_N(self):
        return self.levels[self.N][1]


def tower(model: OntologicalModel, events: EventPair, qA, qB) -> TowerResult:
    """Iterate the certainty tower to stabilization.

    Nonempty cells all have positive mass once the null-join precondition
    holds, so every conditional below is defined.
    """
    _check_tower_preconditions(model)
    qA, qB = rat(qA), rat(qB)

    def level0(cells, event, q):
        out = set()
        for cell in cells:
            if cell and conditional_mass(model, event, cell) == q:
                out |= cell
        return frozenset(out)

    def certain_of(cells, current, target):
        out = set()
        for cell in cells:
            if cell and cell <= current and mass(model, cell & target) == mass(model, cell):
                out |= cell
        return frozenset(out)

    A = level0(model.partsA[0], events.EB, qA)
    B = level0(model.partsB[0], events.EA, qB)
    levels = [(A, B)]
    while True:
        A_next = certain_of(model.partsA[0], A, B)
        B_next = certain_of(model.partsB[0], B, A)
        levels.append((A_next, B_next))
        if (A_next, B_next) == (A, B):
            return TowerResult(tuple(levels), len(levels) - 2)
        A, B = A_next, B_next


def common_certainty_at(model, events, qA, qB, omega_star: int) -> bool:
    result = tower(model, events, qA, qB)
    return omega_star in result.A_N and omega_star in result.B_N


# ---------------------------------------------------------------------------
# exhaustive verification over all small models
#
# The enumeration works on integer masses (numerators over a common
# denominator) and bitmask state sets, so the inner loop does no rational
# arithmetic at all; conditionals are compared by cross-multiplication.
# Each measure gets a table of the mass of all 2^n state sets, built once,
# so every mass in the loop is one list lookup; the nonempty join cells and
# their masses are listed once per partition pair, before the event loops.
# Only nondecreasing mass vectors are enumerated, and for each only one
# pair of partitions with no zero-mass cell per orbit of the permutations
# that fix the masses.  The event E skips its zero-mass bits and runs over
# one of each complementary pair; each instance is counted once per
# rearrangement of the masses, times the size of its pair's orbit, times
# the 4^z pairs (E_A, E_B) that differ from (E, E) only on the z zero-mass
# states, times 2 for the complement (see verify_agreement_theorem).  A
# deterministic subsample of the enumerated instances, the first included,
# is re-run through the public tower() above as a self-check of the fast
# path.

@dataclass(frozen=True)
class AgreementCheckReport:
    bound_omega: int
    denominator_bound: int
    instances: int
    certainty_instances: int
    violations: int
    complete: bool
    max_iterations: int


def _set_partitions(n):
    """Partitions of range(n) as tuples of cell bitmasks, cells numbered by
    least state, in restricted-growth-string order."""
    partitions = [()]
    for w in range(n):
        bit = 1 << w
        grown = []
        for blocks in partitions:
            # state w joins each existing cell in turn, then opens a new one
            grown += [blocks[:i] + (c | bit,) + blocks[i + 1:] for i, c in enumerate(blocks)]
            grown.append(blocks + (bit,))
        partitions = grown
    return partitions


def _measures(n, dmax):
    """Nondecreasing mass vectors on n states with sum d <= dmax and gcd 1,
    one per sorted measure, in order of d, then lexicographic."""

    def rising(total, parts, least):
        if parts == 1:
            yield (total,)
            return
        for first in range(least, total // parts + 1):
            for rest in rising(total - first, parts - 1, first):
                yield (first,) + rest

    for d in range(1, dmax + 1):
        for masses in rising(d, n, 0):
            if gcd(*masses) == 1:
                yield masses


def _stabilizer(masses):
    """The state permutations that fix the masses, identity first.

    Each is given as its action on state sets: a list mapping every bitmask
    to the bitmask of its image.  With the masses sorted, these are the
    permutations within each run of equal masses.
    """
    runs, start = [], 0
    for w in range(1, len(masses) + 1):
        if w == len(masses) or masses[w] != masses[start]:
            runs.append(range(start, w))
            start = w
    group = []
    for choice in product(*(permutations(run) for run in runs)):
        table = [0]
        for image in chain.from_iterable(choice):
            table += [t | 1 << image for t in table]
        group.append(table)
    return group


def _pair_orbits(partitions, group):
    """One (blocksA, blocksB, orbit size) per orbit of group on partition pairs.

    blocksA runs over one partition per orbit of group; blocksB then runs
    over one partition per orbit of the stabilizer H of blocksA, since two
    pairs with first entry blocksA share a group orbit exactly when H maps
    one second entry to the other.  The pair orbit has |orbit of blocksA| *
    |H-orbit of blocksB| members.  Representatives are the members listed
    first in partitions.
    """
    index = {frozenset(p): i for i, p in enumerate(partitions)}
    # each non-identity element as a permutation of partition indices
    moves = [
        [index[frozenset([g[c] for c in p])] for p in partitions]
        for g in group[1:]
    ]
    seen_a = set()
    for ia, blocksA in enumerate(partitions):
        if ia in seen_a:
            continue
        orbit_a = {move[ia] for move in moves}
        orbit_a.add(ia)
        seen_a |= orbit_a
        fixing = [move for move in moves if move[ia] == ia]
        seen_b = set()
        for ib, blocksB in enumerate(partitions):
            if ib in seen_b:
                continue
            orbit_b = {move[ib] for move in fixing}
            orbit_b.add(ib)
            seen_b |= orbit_b
            yield blocksA, blocksB, len(orbit_a) * len(orbit_b)


def _subset_masses(masses):
    """Integer mass of every state set, indexed by its bitmask (2^n entries)."""
    table = [0]
    for m in masses:
        table += [t + m for t in table]
    return table


def _level0(M, blocks, E, num, den):
    out = 0
    for cell in blocks:
        cm = M[cell]
        if cm and M[E & cell] * den == num * cm:
            out |= cell
    return out


def _bit_tower(M, blocksA, blocksB, EA, EB, qa_num, qa_den, qb_num, qb_den):
    A = _level0(M, blocksA, EB, qa_num, qa_den)
    B = _level0(M, blocksB, EA, qb_num, qb_den)
    iters = 0
    while True:
        A2 = 0
        for cell in blocksA:
            if cell & A == cell and M[B & cell] == M[cell]:
                A2 |= cell
        B2 = 0
        for cell in blocksB:
            if cell & B == cell and M[A & cell] == M[cell]:
                B2 |= cell
        iters += 1
        if (A2, B2) == (A, B):
            return A, B, iters
        A, B = A2, B2


def _bits_to_set(bits, n):
    return frozenset(w for w in range(n) if bits >> w & 1)


def _cross_check(n, masses, blocksA, blocksB, EA, EB, qa, qb, expect_A, expect_B):
    d = sum(masses)
    model = make_model(
        [Fraction(k, d) for k in masses],
        {0: [_bits_to_set(c, n) for c in blocksA]},
        {0: [_bits_to_set(c, n) for c in blocksB]},
    )
    events = EventPair(_bits_to_set(EA, n), _bits_to_set(EB, n))
    result = tower(model, events, qa, qb)
    if (result.A_N, result.B_N) != (_bits_to_set(expect_A, n), _bits_to_set(expect_B, n)):
        raise RuntimeError("fast enumeration disagrees with the reference tower")


def verify_agreement_theorem(bound_omega: int, denominator_bound: int) -> AgreementCheckReport:
    """Check the agreement property on every small model.

    Enumerates all models up to the bounds (clamped to the documented
    budget of |Omega| <= 6 and denominators <= 4), all pairs of canonical
    partitions with non-null join, and all perfectly correlated event
    pairs; for each join cell it computes the only candidate values
    qA = P(E_B | cell_A), qB = P(E_A | cell_B) and runs the tower.  Every
    instance with common certainty must have qA = qB; the count of
    violations is returned (and must be zero).

    Permuting the states maps the instances of a model one-to-one onto
    those of the permuted model with the same outcome (partitions, events,
    join cells and the null-join test move with the states, and the tower
    commutes with the move).  So only measures with nondecreasing masses
    are enumerated, and for each only one partition pair per orbit of G,
    the group of state permutations that fix the sorted masses (those
    within runs of equal masses).  A partition with a zero-mass cell makes
    a null join with every partition, so only partitions without one take
    part; G preserves masses, so it keeps them among themselves.  Every
    instance of a representative pair counts n!/prod(multiplicity!) times,
    once per distinct arrangement of the masses, times the size of the
    pair's orbit under G, times 4^z * 2.  The tower reads only masses, so
    with the z zero-mass states in the low bits, E runs over multiples of
    2^z and (E, E) stands for all 4^z pairs (E ^ S, E ^ T), S and T sets of
    zero-mass states.  The complement of E in the positive-mass states
    gives the same level-0 sets at 1 - qA, 1 - qB, hence the same tower,
    certainty and violation test; it holds state n - 1, the heaviest, when
    E does not, so E runs below 2^(n-1).  The weight multiplies the
    instance, certainty and violation counts.  max_iterations is a maximum
    over the enumerated instances and takes no weight, since a folded
    instance has the same tower.  Bounds below 1 raise ValueError.
    """
    if bound_omega < 1 or denominator_bound < 1:
        raise ValueError(
            f"bounds must be at least 1, got {bound_omega} and {denominator_bound}"
        )
    omega = min(bound_omega, HARD_OMEGA_CAP)
    dmax = min(denominator_bound, HARD_DENOM_CAP)
    complete = omega == bound_omega and dmax == denominator_bound

    stride = CROSS_CHECK_STRIDE  # a local in the innermost loop
    enumerated = 0  # unweighted; the cross-check stride counts these
    instances = certainty = violations = 0
    max_iters = 0
    for n in range(1, omega + 1):
        partitions = _set_partitions(n)
        for masses in _measures(n, dmax):
            group = _stabilizer(masses)
            # n!/prod(multiplicity!) distinct arrangements of the masses
            weight = factorial(n) // len(group)
            M = _subset_masses(masses)
            # a zero-mass cell makes a null join with any partition
            live = [p for p in partitions if all(M[c] for c in p)]
            # the z zero-mass states are the low bits of E
            z = masses.count(0)
            for blocksA, blocksB, orbit_size in _pair_orbits(live, group):
                joins = [
                    (ca, cb, M[ca], M[cb])
                    for ca in blocksA
                    for cb in blocksB
                    if ca & cb
                ]
                if any(M[ca & cb] == 0 for ca, cb, _, _ in joins):
                    continue  # null join, outside the framework
                # (E ^ S, E ^ T) for S, T sets of zero-mass states, and the
                # complement of E in the positive-mass states, which holds
                # state n - 1
                pair_weight = weight * orbit_size << (2 * z + 1)
                for E in range(0, 1 << (n - 1), 1 << z):
                    for ca, cb, mA, mB in joins:
                        qa_num = M[E & ca]
                        qb_num = M[E & cb]
                        A, B, iters = _bit_tower(
                            M, blocksA, blocksB, E, E, qa_num, mA, qb_num, mB
                        )
                        max_iters = max(max_iters, iters)
                        enumerated += 1
                        instances += pair_weight
                        if (enumerated - 1) % stride == 0:
                            _cross_check(
                                n, masses, blocksA, blocksB, E, E,
                                Fraction(qa_num, mA), Fraction(qb_num, mB),
                                A, B,
                            )
                        if A & B & ca & cb:
                            certainty += pair_weight
                            if qa_num * mB != qb_num * mA:
                                violations += pair_weight
    return AgreementCheckReport(
        omega, dmax, instances, certainty, violations, complete, max_iters
    )


# ---------------------------------------------------------------------------
# JSON round trip

def model_doc(model: OntologicalModel) -> dict:
    return {
        "omega": model.omega_count,
        "P": [rat_str(m) for m in model.measure],
        "partsA": {
            str(x): [sorted(c) for c in cells] for x, cells in model.partsA.items()
        },
        "partsB": {
            str(y): [sorted(c) for c in cells] for y, cells in model.partsB.items()
        },
        "signed": model.signed,
    }


def model_to_json(model: OntologicalModel) -> str:
    return json_text(model_doc(model))


def _parts_from_doc(side, parts) -> dict:
    """A model document's partsA or partsB as {input: [cell, ...]}."""
    out, names = {}, {}  # input -> its cells, input -> the key that named it
    for key, cells in parts.items():
        # ASCII digits: int() reads "+0" and " 0 " as 0 too; "00" names 0
        if not (key.isascii() and key.isdigit()):
            raise ParseError(f"bad parts{side} input key {key!r}")
        x = int(key)
        if x in names:
            raise StructuralError(f"parts{side} keys {names[x]!r} and {key!r} both name input {x}")
        # JSON integers: true == 1 would name state 1 and be written back as true
        if any(type(w) is not int for c in cells for w in c):
            raise ParseError(f"parts{side}[{key}] has a state that is not an integer")
        names[x], out[x] = key, [frozenset(c) for c in cells]
    return out


def model_from_json(text: str) -> OntologicalModel:
    doc = json_doc(text)
    try:
        measure = [rat(m) for m in doc["P"]]
        partsA, partsB = (_parts_from_doc(side, doc[f"parts{side}"]) for side in "AB")
        omega = doc.get("omega", len(measure))
        signed = doc.get("signed", False)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad model document: {exc}") from exc
    # a JSON integer only: int() would read true as 1 and "2" as 2
    if type(omega) is not int:
        raise ParseError("model document field omega is not an integer")
    if type(signed) is not bool:
        raise ParseError("model document field signed is not a boolean")
    model = make_model(measure, partsA, partsB)
    if len(measure) != omega:
        raise StructuralError("omega does not match the measure length")
    # a missing field is taken to agree with the measure
    if "signed" in doc and signed != model.signed:
        raise StructuralError("signed does not match the sign of the measure")
    return model
