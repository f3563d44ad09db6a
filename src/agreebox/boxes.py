"""Bipartite no-signaling boxes with exact rational entries.

A box is a family of conditional distributions p(ab|xy) over output pairs
(a, b) given input pairs (x, y).  Outputs and inputs are 0-based contiguous
integers.  Validity means nonnegative entries, exact normalization per
input pair, and both no-signaling conditions:

    sum_a p(ab|xy) independent of x   (Alice cannot signal to Bob),
    sum_b p(ab|xy) independent of y   (Bob cannot signal to Alice).

All arithmetic is exact; there is no tolerance anywhere in this module.
A Box stores its entries in one integer form, num[key] = den * p(key),
reduced by the gcd of den and every num, so den is the least common
denominator and equal boxes compare equal.  make_box and box_from_json
turn rational entries into this form.  Validation, marginals and
conditionals sum and compare the ints, and build a Fraction only for a
returned value or a violation message.  A box whose den or some num
reaches 10**MAX_DIGITS is refused with ParseError, so every such value
prints.
The conventional frame used by the analysis modules puts the observed
event at inputs x = y = 0, outputs a = b = 0, and the events the parties
reason about at output 1 of inputs x = 1 and y = 1.  Boxes that arrive in
a different frame can be moved into this one with relabel().
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from typing import NamedTuple

from .errors import ParseError, ShapeError, StructuralError
from .rationals import _TOO_LONG, MAX_DIGITS, json_doc, json_text, over_common_den, rat, rat_str


@dataclass(frozen=True, repr=False)
class Box:
    """Immutable box: p(a, b | x, y) = num[(a, b, x, y)] / den, in lowest terms."""

    nA: int
    nB: int
    nX: int
    nY: int
    den: int
    num: dict  # (a, b, x, y) -> int

    def __post_init__(self):
        g = gcd(self.den, *self.num.values())
        if g != 1:
            object.__setattr__(self, "den", self.den // g)
            object.__setattr__(self, "num", {k: v // g for k, v in self.num.items()})
        # an entry's numerator and denominator are at most its num and den;
        # under this bound every sum of entries, and every ratio of two such
        # sums, stays below Python's 4,300-digit int-to-str limit
        if self.den >= _TOO_LONG or max(map(abs, self.num.values()), default=0) >= _TOO_LONG:
            raise ParseError(
                f"box entries need more than {MAX_DIGITS} digits over a common denominator"
            )

    @property
    def table(self) -> dict:
        """(a, b, x, y) -> the exact probability, as a Fraction."""
        return {k: Fraction(v, self.den) for k, v in self.num.items()}

    def __repr__(self):
        shape = f"nA={self.nA!r}, nB={self.nB!r}, nX={self.nX!r}, nY={self.nY!r}"
        return f"Box({shape}, table={self.table!r})"

    def p(self, a: int, b: int, x: int, y: int) -> Fraction:
        return Fraction(self.num[(a, b, x, y)], self.den)

    def _num_a(self, a: int, x: int, y: int) -> int:
        return sum(self.num[(a, b, x, y)] for b in range(self.nB))

    def _num_b(self, b: int, x: int, y: int) -> int:
        return sum(self.num[(a, b, x, y)] for a in range(self.nA))

    def marginal_a(self, a: int, x: int, y: int) -> Fraction:
        """p(a|x), evaluated on the (x, y) row."""
        return Fraction(self._num_a(a, x, y), self.den)

    def marginal_b(self, b: int, x: int, y: int) -> Fraction:
        """p(b|y), evaluated on the (x, y) row."""
        return Fraction(self._num_b(b, x, y), self.den)


def _in_shape(key, nA, nB, nX, nY) -> bool:
    """True iff key is an (a, b, x, y) tuple of four ints in range."""
    try:
        a, b, x, y = key
        inside = 0 <= a < nA and 0 <= b < nB and 0 <= x < nX and 0 <= y < nY
    except (TypeError, ValueError):  # not four comparable indices
        return False
    return (inside and isinstance(key, tuple) and isinstance(a, int) and isinstance(b, int)
            and isinstance(x, int) and isinstance(y, int))


def make_box(nA: int, nB: int, nX: int, nY: int, entries) -> Box:
    """Build a Box from any mapping (a,b,x,y) -> rational-like value.

    Raises ShapeError if a cardinality is below 1, and StructuralError if
    an entry is missing or a key is not a tuple of four ints in range.
    """
    table = {}
    outside = None
    for key, value in entries.items():
        # every key is outside a shape with a cardinality below 1, so the
        # ShapeError comes before any value is read
        if not _in_shape(key, nA, nB, nX, nY):
            outside = key
            break
        table[key] = rat(value)
    return _integer_box(nA, nB, nX, nY, table, outside, list(table.values()), range(len(table)))


def _integer_box(nA, nB, nX, nY, keys, outside, qs, picks) -> Box:
    """The Box whose entry at keys[i] is qs[picks[i]]: the one place where
    rational entries become a Box's integer form, for make_box and
    box_from_json.  keys are distinct, and outside is the first key found
    outside the shape, or None.

    Raises ShapeError if a cardinality is below 1, then StructuralError for
    outside, then for the first missing entry.
    """
    if min(nA, nB, nX, nY) < 1:
        raise ShapeError("cardinalities must be positive")
    if outside is not None:
        raise StructuralError(f"key {outside!r} is not an (a, b, x, y) tuple of ints in range")
    missing = nA * nB * nX * nY - len(keys)
    if missing:
        # every key is in range, so the first gap is within len(keys) + 1 keys;
        # nested loops, as product() would first copy each range into a tuple
        present = set(keys)
        first = next(
            (a, b, x, y)
            for a in range(nA) for b in range(nB) for x in range(nX) for y in range(nY)
            if (a, b, x, y) not in present
        )
        raise StructuralError(f"missing {missing} entries, first: {first}")
    den, nums = over_common_den(qs)
    return Box(nA, nB, nX, nY, den, dict(zip(keys, map(nums.__getitem__, picks))))


def box_from_rows(rows) -> Box:
    """Build a box from {(x, y): flat row} with rows laid out by a then b.

    Rows are square: nA = nB outputs, read off the row length.  A 2x2 row
    reads [p(00), p(01), p(10), p(11)].
    """
    if not rows:
        raise StructuralError("no rows")
    nX = 1 + max(x for x, _ in rows)
    nY = 1 + max(y for _, y in rows)
    lengths = {len(row) for row in rows.values()}
    n = max(lengths)
    nA = nB = int(round(n**0.5))
    if len(lengths) != 1 or nA * nB != n:
        raise StructuralError(f"rows need one square length, got lengths {sorted(lengths)}")
    entries = {}
    for (x, y), row in rows.items():
        for a in range(nA):
            for b in range(nB):
                entries[(a, b, x, y)] = row[a * nB + b]
    return make_box(nA, nB, nX, nY, entries)


# ---------------------------------------------------------------------------
# validation

class ValidationResult(NamedTuple):
    ok: bool
    structural: tuple  # missing pieces; nonempty means not even checkable
    violations: tuple  # named constraint violations with indices


@lru_cache(maxsize=None)
def row_labels(nA, nB, nX, nY):
    """Entry keys row by row: (x, y), then a, then b; the order of the LP's rows."""
    return tuple(
        (a, b, x, y)
        for x in range(nX)
        for y in range(nY)
        for a in range(nA)
        for b in range(nB)
    )


def _violations(box: Box, vals):
    """Yield the message of each violated constraint, in validate's order;
    vals are the box's numerators in row_labels order."""
    nA, nB, nX, nY = box.nA, box.nB, box.nX, box.nY
    den, num = box.den, box.num

    # integer sums against den; a Fraction is built only to name a violation
    def q(n):
        return rat_str(Fraction(n, den))

    # keys outside the shape are range checked, but in no sum below
    if len(num) != len(vals) or min(vals, default=0) < 0 or max(vals, default=0) > den:
        for key in sorted(key for key, n in num.items() if not 0 <= n <= den):
            yield f"entry out of [0,1] at (a,b,x,y)={key}: {q(num[key])}"
    # row i holds inputs[i]; Alice's marginals are contiguous runs of nB
    # entries, Bob's every nB-th entry
    k = nA * nB
    inputs = list(product(range(nX), range(nY)))
    rows = [vals[i * k:(i + 1) * k] for i in range(len(inputs))]
    for (x, y), row in zip(inputs, rows):
        if (total := sum(row)) != den:
            yield f"normalization at (x,y)=({x},{y}): sum={q(total)}"
    # A -> B: Bob's marginal must not depend on Alice's input.  Each row's
    # marginals are compared whole with those of its x = 0 row first, and
    # named one by one only if some differ
    bob = [[sum(row[b::nB]) for b in range(nB)] for row in rows]
    if bob != bob[:nY] * nX:
        for b in range(nB):
            for y in range(nY):
                for x in range(1, nX):
                    ref, got = bob[y][b], bob[x * nY + y][b]
                    if got != ref:
                        yield (f"no-signaling A->B at (b,y)=({b},{y}): "
                               f"x=0 gives {q(ref)}, x={x} gives {q(got)}")
    # B -> A: Alice's marginal must not depend on Bob's input; each row is
    # compared whole with the y = 0 row of its x first
    alice = [[sum(row[a * nB:(a + 1) * nB]) for a in range(nA)] for row in rows]
    if alice != [alice[x * nY] for x in range(nX) for _ in range(nY)]:
        for a in range(nA):
            for x in range(nX):
                for y in range(1, nY):
                    ref, got = alice[x * nY][a], alice[x * nY + y][a]
                    if got != ref:
                        yield (f"no-signaling B->A at (a,x)=({a},{x}): "
                               f"y=0 gives {q(ref)}, y={y} gives {q(got)}")


def validate(box: Box) -> ValidationResult:
    """Check every box invariant exactly and name each violated constraint."""
    num = box.num
    try:
        vals = [num[key] for key in row_labels(box.nA, box.nB, box.nX, box.nY)]
    except KeyError:
        return ValidationResult(False, tuple(
            f"missing entry (a,b,x,y)={key}"
            for key in product(range(box.nA), range(box.nB), range(box.nX), range(box.nY))
            if key not in num
        ), ())
    violations = tuple(_violations(box, vals))
    return ValidationResult(not violations, (), violations)


# ---------------------------------------------------------------------------
# conditionals

def conditional(box: Box, target, given) -> Fraction | None:
    """Conditional probability of one party's output given the other's.

    target is (party, output) with party "A" or "B"; given is
    (other party's output, x, y).  For target ("B", b) this is
    p(b | a, x, y) = p(ab|xy) / p(a|x); conditioning on a null event
    returns None rather than raising.
    """
    party, out = target
    other, x, y = given
    if not (0 <= x < box.nX and 0 <= y < box.nY):
        raise ShapeError(f"input out of range: given={given}")
    if party == "B":
        if not (0 <= out < box.nB and 0 <= other < box.nA):
            raise ShapeError(f"output out of range: target={target} given={given}")
        return cond_event_b(box, (out,), other, x, y)
    if party == "A":
        if not (0 <= out < box.nA and 0 <= other < box.nB):
            raise ShapeError(f"output out of range: target={target} given={given}")
        return cond_event_a(box, (out,), other, x, y)
    raise ShapeError(f"party must be 'A' or 'B', got {party!r}")


def cond_event_b(box: Box, bs, a: int, x: int, y: int) -> Fraction | None:
    """p(b in bs | a, x, y), the certainty probe used by the hierarchy."""
    marg = box._num_a(a, x, y)
    if marg == 0:
        return None
    return Fraction(sum(box.num[(a, b, x, y)] for b in bs), marg)


def cond_event_a(box: Box, as_, b: int, x: int, y: int) -> Fraction | None:
    """p(a in as_ | b, x, y)."""
    marg = box._num_b(b, x, y)
    if marg == 0:
        return None
    return Fraction(sum(box.num[(a, b, x, y)] for a in as_), marg)


# ---------------------------------------------------------------------------
# correlators

def is_perfectly_correlated(box: Box, x: int, y: int) -> bool:
    """True iff p(a,b|x,y) = 0 whenever a != b."""
    return all(
        box.num[(a, b, x, y)] == 0
        for a in range(box.nA)
        for b in range(box.nB)
        if a != b
    )


def correlators(box: Box) -> dict:
    """c[x, y] = p(a=b|xy) - p(a!=b|xy) for a binary-output box."""
    if box.nA != 2 or box.nB != 2:
        raise ShapeError("correlators are defined for binary outputs only")
    n = box.num
    c = {}
    for x in range(box.nX):
        for y in range(box.nY):
            agree = n[0, 0, x, y] + n[1, 1, x, y]
            differ = n[0, 1, x, y] + n[1, 0, x, y]
            c[(x, y)] = Fraction(agree - differ, box.den)
    return c


# ---------------------------------------------------------------------------
# relabeling

class RelabelFrame(NamedTuple):
    """A joint relabeling of inputs and (per-input) outputs.

    sigma_x, sigma_y permute inputs; pi_a[x] permutes Alice's outputs at
    original input x, pi_b[y] likewise for Bob.  The relabeled box q is
    defined by q(pi_a[x](a), pi_b[y](b) | sigma_x(x), sigma_y(y)) = p(a,b|x,y).
    """

    sigma_x: tuple
    sigma_y: tuple
    pi_a: tuple  # tuple of per-input output permutations, indexed by original x
    pi_b: tuple

    def is_identity(self) -> bool:
        perms = (self.sigma_x, self.sigma_y, *self.pi_a, *self.pi_b)
        return all(list(p) == sorted(p) for p in perms)


def relabel(box: Box, frame: RelabelFrame) -> Box:
    return Box(box.nA, box.nB, box.nX, box.nY, box.den, _relabeled_num(box, frame))


def _relabeled_num(box: Box, frame: RelabelFrame) -> dict:
    """The num of relabel(box, frame), without building its Box."""
    pi_a, pi_b, sigma_x, sigma_y = frame.pi_a, frame.pi_b, frame.sigma_x, frame.sigma_y
    return {(pi_a[x][a], pi_b[y][b], sigma_x[x], sigma_y[y]): v
            for (a, b, x, y), v in box.num.items()}


def all_frames(box: Box):
    """Every distinct relabeling frame, identity first.

    For the 2x2x2x2 shape this yields 2*2*4*4 = 64 frames (per-input output
    permutations are chosen independently for each input).
    """
    for f in product(
        permutations(range(box.nX)),
        permutations(range(box.nY)),
        product(permutations(range(box.nA)), repeat=box.nX),
        product(permutations(range(box.nB)), repeat=box.nY),
    ):
        yield RelabelFrame(*f)


# ---------------------------------------------------------------------------
# JSON round trip

def box_doc(box: Box) -> dict:
    # a box has few distinct entries: format each once
    text = {n: rat_str(Fraction(n, box.den)) for n in set(box.num.values())}
    rows = {}
    for x in range(box.nX):
        for y in range(box.nY):
            rows[f"{x},{y}"] = [
                [text[box.num[(a, b, x, y)]] for b in range(box.nB)]
                for a in range(box.nA)
            ]
    return {"nA": box.nA, "nB": box.nB, "nX": box.nX, "nY": box.nY, "p": rows}


def box_to_json(box: Box) -> str:
    return json_text(box_doc(box))


def box_from_json(text: str) -> Box:
    doc = json_doc(text)
    shape = []
    try:
        for field in ("nA", "nB", "nX", "nY"):
            n = doc[field]
            # a JSON integer only: int() would read true as 1 and "2" as 2
            if type(n) is not int:
                raise ParseError(f"box document field {field} is not an integer")
            shape.append(n)
        rows = doc["p"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"box document missing field: {exc}") from exc
    if not isinstance(rows, dict):
        raise ParseError("box document field p is not an object")
    nA, nB, nX, nY = shape
    picks = []  # the index in qs of each entry's value, in document order
    qs = []  # the parsed values: a box repeats few distinct entries
    index = {}  # entry text or JSON integer -> its index in qs
    names = {}  # (x, y) -> the key that named it, in document order
    outside = None  # the first entry key outside the shape
    for key, grid in rows.items():
        # "x,y" in ASCII decimal digits; leading zeros are read, so "01,1"
        # names (1, 1) too and meets "1,1" as a twin below
        xs, _, ys = key.partition(",")
        if not (xs.isascii() and xs.isdigit() and ys.isascii() and ys.isdigit()):
            raise ParseError(f"bad input-pair key {key!r}")
        try:
            x, y = int(xs), int(ys)
        except ValueError as exc:  # more digits than int() reads
            raise ParseError(f"bad input-pair key {key!r}") from exc
        if (x, y) in names:
            raise StructuralError(f"input-pair keys {names[x, y]!r} and {key!r} both name ({x}, {y})")
        names[x, y] = key
        if not isinstance(grid, list) or len(grid) != nA:
            raise StructuralError(f"row {key}: expected {nA} output rows")
        # x and y are the only indices that can leave the shape; the shape
        # is checked after every row is read, and its error comes first
        if outside is None and (x >= nX or y >= nY):
            outside = (0, 0, x, y)
        for a, row in enumerate(grid):
            if not isinstance(row, list) or len(row) != nB:
                raise StructuralError(f"row {key}, a={a}: expected {nB} entries")
            for value in row:
                # a bool is never memoized: true == 1, and true must stay refused
                if type(value) is str or type(value) is int:
                    i = index.get(value)
                    if i is None:
                        i = index[value] = len(qs)
                        qs.append(rat(value))
                else:
                    i = len(qs)
                    qs.append(rat(value))
                picks.append(i)
    keys = [(a, b, x, y) for x, y in names for a in range(nA) for b in range(nB)]
    return _integer_box(nA, nB, nX, nY, keys, outside, qs, picks)
