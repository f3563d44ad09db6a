"""Independent answers that the benchmark checks the program's outputs against.

Nothing here imports agreebox.  Each check restates the definition it
tests directly on a plain table: no-signaling, Fine's theorem for the
2x2x2x2 shape, the certainty hierarchy of the two observers, the family
table forms and their caption constraints, the coarse-graining used by
the reduction, and the deterministic-strategy bound of a Bell functional.
A program bug therefore cannot hide behind the same bug in its oracle.
"""

from fractions import Fraction
from itertools import product
from typing import NamedTuple

ZERO = Fraction(0)
ONE = Fraction(1)


class Raw(NamedTuple):
    """A box as plain data: p maps (a, b, x, y) to a Fraction."""

    nA: int
    nB: int
    nX: int
    nY: int
    p: dict

    @property
    def shape(self):
        return (self.nA, self.nB, self.nX, self.nY)

    def keys(self):
        return product(range(self.nA), range(self.nB), range(self.nX), range(self.nY))


def raw_from_rows(rows):
    """2x2x2x2 box from {(x, y): [p00, p01, p10, p11]}."""
    p = {}
    for (x, y), row in rows.items():
        for a, b in product(range(2), repeat=2):
            p[(a, b, x, y)] = Fraction(row[2 * a + b])
    return Raw(2, 2, 2, 2, p)


def raw_to_doc(raw):
    """The box JSON document the CLI reads: rows keyed "x,y", [a][b] strings."""
    rows = {}
    for x, y in product(range(raw.nX), range(raw.nY)):
        rows[f"{x},{y}"] = [
            [str(raw.p[(a, b, x, y)]) for b in range(raw.nB)] for a in range(raw.nA)
        ]
    return {"nA": raw.nA, "nB": raw.nB, "nX": raw.nX, "nY": raw.nY, "p": rows}


def raw_from_doc(doc):
    nA, nB, nX, nY = (int(doc[k]) for k in ("nA", "nB", "nX", "nY"))
    p = {}
    for key, grid in doc["p"].items():
        x, y = (int(v) for v in key.split(","))
        for a, row in enumerate(grid):
            for b, value in enumerate(row):
                p[(a, b, x, y)] = Fraction(value)
    return Raw(nA, nB, nX, nY, p)


# ---------------------------------------------------------------------------
# validity

def ns_violations(raw):
    """Every failed box invariant, as short strings; empty means valid."""
    bad = []
    missing = [k for k in raw.keys() if k not in raw.p]
    if missing:
        return [f"missing entry {missing[0]}"]
    for key in raw.keys():
        if not ZERO <= raw.p[key] <= ONE:
            bad.append(f"entry {key} out of [0,1]")
    for x, y in product(range(raw.nX), range(raw.nY)):
        total = sum(raw.p[(a, b, x, y)] for a in range(raw.nA) for b in range(raw.nB))
        if total != 1:
            bad.append(f"row {(x, y)} sums to {total}")
    for b, y in product(range(raw.nB), range(raw.nY)):
        margs = {sum(raw.p[(a, b, x, y)] for a in range(raw.nA)) for x in range(raw.nX)}
        if len(margs) > 1:
            bad.append(f"Alice signals to Bob at (b,y)={(b, y)}")
    for a, x in product(range(raw.nA), range(raw.nX)):
        margs = {sum(raw.p[(a, b, x, y)] for b in range(raw.nB)) for y in range(raw.nY)}
        if len(margs) > 1:
            bad.append(f"Bob signals to Alice at (a,x)={(a, x)}")
    return bad


# ---------------------------------------------------------------------------
# 2x2x2x2 facts

def correlator(raw, x, y):
    """p(a = b | xy) - p(a != b | xy) for binary outputs."""
    return sum(
        raw.p[(a, b, x, y)] * (1 if a == b else -1) for a, b in product(range(2), repeat=2)
    )


def fine_local(raw):
    """Fine's theorem: a 2x2x2x2 no-signaling box is local iff all eight
    CHSH inequalities |sum_xy c_xy - 2 c_x'y'| <= 2 hold."""
    if raw.shape != (2, 2, 2, 2):
        raise ValueError("Fine's theorem covers the 2x2x2x2 shape only")
    cs = {(x, y): correlator(raw, x, y) for x, y in product(range(2), repeat=2)}
    total = sum(cs.values())
    return all(abs(total - 2 * c) <= 2 for c in cs.values())


def perfectly_correlated(raw, x, y):
    return all(
        raw.p[(a, b, x, y)] == 0
        for a in range(raw.nA)
        for b in range(raw.nB)
        if a != b
    )


def correlator_gap(raw):
    """c01 - c10 under perfect correlation at (0,0) and (1,1), else None."""
    if not (perfectly_correlated(raw, 0, 0) and perfectly_correlated(raw, 1, 1)):
        return None
    return correlator(raw, 0, 1) - correlator(raw, 1, 0)


# ---------------------------------------------------------------------------
# the two families, restated from their table forms

def family_rows(family, r, s, t, u, one=1):
    """Rows [p00, p01, p10, p11] by (x, y); with one=d and integer
    parameters k the rows come out scaled by d."""
    if family == "ccd":
        return {
            (0, 0): [r, 0, 0, one - r],
            (0, 1): [r - s, s, t + s - r, one - t - s],
            (1, 0): [t - u, u, r - t + u, one - r - u],
            (1, 1): [t, 0, 0, one - t],
        }
    if family == "sd":
        return {
            (0, 0): [s, t, one - s - u - t, u],
            (0, 1): [0, s + t, r, one - s - t - r],
            (1, 0): [one - u - t, u + t + r - one, 0, one - r],
            (1, 1): [r, 0, 0, one - r],
        }
    raise ValueError(family)


def family_raw(family, r, s, t, u):
    return raw_from_rows(family_rows(family, r, s, t, u))


def caption_ok(family, r, s, t, u):
    """The caption constraints under which the family carries its
    disagreement: r > 0 and s - u != r - t for CCD; s > 0, s + t != 0 and
    u + t != 1 for SD."""
    if family == "ccd":
        return r > 0 and s - u != r - t
    return s > 0 and s + t != 0 and u + t != 1


# ---------------------------------------------------------------------------
# certainty hierarchy

def _cond(num, den):
    return None if den == 0 else num / den


class Hierarchy(NamedTuple):
    qA: Fraction  # None when undefined
    qB: Fraction
    alphas: tuple
    betas: tuple
    ccd: bool
    sd: bool


def hierarchy(raw):
    """qA = p(b=1 | a=0, x=0, y=1), qB = p(a=1 | b=0, x=1, y=0), the
    certainty levels alpha_n / beta_n iterated to a fixed point, and the
    CCD and SD verdicts anchored at the witness (a, b, x, y) = (0, 0, 0, 0)."""
    p = raw.p
    A, B = range(raw.nA), range(raw.nB)

    def q_alice(a):  # p(b=1 | a, x=0, y=1)
        return _cond(p[(a, 1, 0, 1)], sum(p[(a, b, 0, 1)] for b in B))

    def q_bob(b):  # p(a=1 | b, x=1, y=0)
        return _cond(p[(1, b, 1, 0)], sum(p[(a, b, 1, 0)] for a in A))

    qA, qB = q_alice(0), q_bob(0)
    alpha = tuple(a for a in A if qA is not None and q_alice(a) == qA)
    beta = tuple(b for b in B if qB is not None and q_bob(b) == qB)
    alphas, betas = [alpha], [beta]
    while True:
        cur_a, cur_b = alphas[-1], betas[-1]
        next_a = tuple(
            a for a in cur_a
            if _cond(sum(p[(a, b, 0, 0)] for b in cur_b), sum(p[(a, b, 0, 0)] for b in B)) == 1
        )
        next_b = tuple(
            b for b in cur_b
            if _cond(sum(p[(a, b, 0, 0)] for a in cur_a), sum(p[(a, b, 0, 0)] for a in A)) == 1
        )
        alphas.append(next_a)
        betas.append(next_b)
        if (next_a, next_b) == (cur_a, cur_b):
            break
    ccd = sd = False
    if qA is not None and qB is not None:
        premise = perfectly_correlated(raw, 1, 1) and p[(0, 0, 0, 0)] > 0
        ccd = premise and qA != qB and 0 in alphas[-2] and 0 in betas[-2]
        sd = premise and qA == 1 and qB == 0
    return Hierarchy(qA, qB, tuple(alphas), tuple(betas), ccd, sd)


# ---------------------------------------------------------------------------
# reduction

def coarse_grain(raw, a_group, b_group):
    """The effective 2x2x2x2 box: on input 0 output 0 means "in the group",
    on input 1 output 1 means "source output 1"."""

    def eff_a(x, a):
        return (0 if a in a_group else 1) if x == 0 else (1 if a == 1 else 0)

    def eff_b(y, b):
        return (0 if b in b_group else 1) if y == 0 else (1 if b == 1 else 0)

    p = {k: ZERO for k in product(range(2), repeat=4)}
    for a, b, x, y in raw.keys():
        if x < 2 and y < 2:
            p[(eff_a(x, a), eff_b(y, b), x, y)] += raw.p[(a, b, x, y)]
    return Raw(2, 2, 2, 2, p)


# ---------------------------------------------------------------------------
# locality certificates

def strategies(nA, nB, nX, nY):
    """Every deterministic strategy (alpha, beta), alpha in A^X, beta in B^Y."""
    return [
        (alpha, beta)
        for alpha in product(range(nA), repeat=nX)
        for beta in product(range(nB), repeat=nY)
    ]


def resum(weights, shape):
    """The box that weights over deterministic strategies reproduce."""
    nA, nB, nX, nY = shape
    p = {k: ZERO for k in product(range(nA), range(nB), range(nX), range(nY))}
    for (alpha, beta), w in weights:
        for x, y in product(range(nX), range(nY)):
            p[(alpha[x], beta[y], x, y)] += w
    return Raw(nA, nB, nX, nY, p)


def functional_value(coeffs, raw):
    return sum((w * raw.p[key] for key, w in coeffs.items()), ZERO)


def local_bound(coeffs, shape):
    """Largest value of the functional on any deterministic strategy."""
    _, _, nX, nY = shape
    return max(
        sum(
            (coeffs.get((alpha[x], beta[y], x, y), ZERO) for x in range(nX) for y in range(nY)),
            ZERO,
        )
        for alpha, beta in strategies(*shape)
    )
