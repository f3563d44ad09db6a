"""Generators for the box families used throughout the package.

Two four-parameter families matter most.  The CCD form parametrizes every
two-input two-output no-signaling box exhibiting common certainty of
disagreement, and the SD form does the same for singular disagreement.
Both are written in the conventional frame (observed event at x = y = 0
with outputs a = b = 0, reasoned-about events at output 1 of x = 1 and
y = 1).  The caption constraints under which the disagreement actually
occurs are checked separately by caption_violations(); the generators
substitute parameters blindly so that near-boundary and degenerate points
can be studied too.
"""

from fractions import Fraction
from itertools import product

from .boxes import Box, make_box, row_labels
from .rationals import over_common_den, rat

ZERO = Fraction(0)


def pr_box() -> Box:
    """Extremal no-signaling box, in the frame a xor b = (x xor 1) * y.

    Perfectly correlated except at (x, y) = (0, 1), where it perfectly
    anticorrelates.  This is the standard PR box with Alice's inputs
    swapped so its disagreement sits at the conventional labels.
    """
    return Box(2, 2, 2, 2, 2, {(a, b, x, y): int((a ^ b) == ((x ^ 1) * y))
                               for a, b, x, y in product(range(2), repeat=4)})


def uniform_box(nA: int = 2, nB: int = 2, nX: int = 2, nY: int = 2) -> Box:
    w = Fraction(1, nA * nB)
    entries = {
        (a, b, x, y): w
        for a, b, x, y in product(range(nA), range(nB), range(nX), range(nY))
    }
    return make_box(nA, nB, nX, nY, entries)


# the keys (a, b, x, y) of a 2222 box in box_from_rows' order: one line per
# input pair (x, y), outputs (a, b) within it
_KEYS_2222 = row_labels(2, 2, 2, 2)


def _box_2222(D, nums) -> Box:
    """The 2222 box whose entries, in _KEYS_2222 order, are nums over D."""
    return Box(2, 2, 2, 2, D, dict(zip(_KEYS_2222, nums)))


def ccd_table_box(r, s, t, u) -> Box:
    """Instantiate the CCD form.  Rows are [p(00), p(01), p(10), p(11)].

    The free entries are r = p(00|00), s = p(01|01), t = p(00|11) and
    u = p(01|10); everything else is forced by normalization, no-signaling
    and the zero pattern of the form.  Out-of-range parameters produce a
    box that fails validate(), not an exception.
    """
    D, params = over_common_den([rat(r), rat(s), rat(t), rat(u)])
    return _box_2222(D, _ccd_nums(D, *params))


def _ccd_nums(D, r, s, t, u):
    """The 16 entries of the CCD form, in _KEYS_2222 order, as ints over D,
    from r, s, t and u given as ints over D."""
    return (
        r, 0, 0, D - r,                    # (x, y) = (0, 0)
        r - s, s, t + s - r, D - t - s,    # (0, 1)
        t - u, u, r - t + u, D - r - u,    # (1, 0)
        t, 0, 0, D - t,                    # (1, 1)
    )


def sd_table_box(r, s, t, u) -> Box:
    """Instantiate the SD form.  Here s = p(00|00), t = p(01|00),
    u = p(11|00) and r = p(00|11)."""
    D, params = over_common_den([rat(r), rat(s), rat(t), rat(u)])
    return _box_2222(D, _sd_nums(D, *params))


def _sd_nums(D, r, s, t, u):
    """The 16 entries of the SD form as ints over D, like _ccd_nums."""
    return (
        s, t, D - s - u - t, u,            # (x, y) = (0, 0)
        0, s + t, r, D - s - t - r,        # (0, 1)
        D - u - t, u + t + r - D, 0, D - r,  # (1, 0)
        r, 0, 0, D - r,                    # (1, 1)
    )


def caption_violations(kind: str, r, s, t, u) -> list:
    """Which of the family's disagreement constraints fail for these params.

    Empty list means the instantiated box is guaranteed the corresponding
    disagreement (given it validates as a box at all).
    """
    r, s, t, u = rat(r), rat(s), rat(t), rat(u)
    bad = []
    if kind == "ccd":
        if not r > 0:
            bad.append("r>0 violated")
        if s - u == r - t:
            bad.append("s-u!=r-t violated")
    elif kind == "sd":
        if not s > 0:
            bad.append("s>0 violated")
        if s + t == 0:
            bad.append("s+t!=0 violated")
        if u + t == 1:
            bad.append("u+t!=1 violated")
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return bad


# ---------------------------------------------------------------------------
# deterministic strategies (the vertices of the local set for 2x2 shapes)

def strategy_box(a0: int, a1: int, b0: int, b1: int) -> Box:
    """The deterministic box answering a_x = (a0, a1)[x], b_y = (b0, b1)[y]."""
    return mix_strategies([((a0, a1, b0, b1), 1)])


def deterministic_strategies():
    """All 16 deterministic response tuples (a0, a1, b0, b1), lexicographic."""
    return list(product(range(2), repeat=4))


def mix_strategies(weighted) -> Box:
    """Convex mixture of deterministic strategies given as ((a0,a1,b0,b1), w)."""
    entries = {k: ZERO for k in product(range(2), repeat=4)}
    for (a0, a1, b0, b1), w in weighted:
        w = rat(w)
        for x, y in product(range(2), repeat=2):
            entries[((a0, a1)[x], (b0, b1)[y], x, y)] += w
    return make_box(2, 2, 2, 2, entries)
