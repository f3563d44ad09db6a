"""Box representation, validation, conditionals, correlators, relabeling."""

import json
import tracemalloc
from dataclasses import fields
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agreebox as ab
from agreebox.families import _box_2222, _ccd_nums, _sd_nums


def weights_strategy():
    return st.lists(st.integers(0, 8), min_size=16, max_size=16).filter(any)


def local_box_from(weights):
    total = sum(weights)
    pairs = [
        (strat, F(w, total))
        for strat, w in zip(ab.deterministic_strategies(), weights)
        if w
    ]
    return ab.mix_strategies(pairs)


# ---------------------------------------------------------------------------
# validation

def test_pr_box_is_valid():
    result = ab.validate(ab.pr_box())
    assert result.ok and not result.violations and not result.structural


def test_uniform_box_is_valid():
    assert ab.validate(ab.uniform_box()).ok
    assert ab.validate(ab.uniform_box(3, 3, 2, 2)).ok


def test_signaling_box_reports_no_signaling_violation():
    # p(00|00) = 1 but p(00|01) = 0, remaining mass spread uniformly:
    # Alice's output-0 marginal depends on y, Bob's output-0 marginal on x.
    entries = {}
    for a, b, x, y in product(range(2), repeat=4):
        if (x, y) == (0, 0):
            entries[(a, b, x, y)] = F(1) if (a, b) == (0, 0) else F(0)
        elif (x, y) == (0, 1):
            entries[(a, b, x, y)] = F(0) if (a, b) == (0, 0) else F(1, 3)
        else:
            entries[(a, b, x, y)] = F(1, 4)
    box = ab.make_box(2, 2, 2, 2, entries)
    result = ab.validate(box)
    assert not result.ok
    assert any("no-signaling" in v for v in result.violations)
    assert any("A->B" in v for v in result.violations)
    assert any("B->A" in v for v in result.violations)


def test_normalization_violation_is_named():
    entries = {k: F(1, 4) for k in product(range(2), repeat=4)}
    entries[(0, 0, 0, 0)] = F(1, 2)
    box = ab.make_box(2, 2, 2, 2, entries)
    result = ab.validate(box)
    assert not result.ok
    assert any("normalization at (x,y)=(0,0)" in v for v in result.violations)


def test_negative_entry_is_named():
    box = ab.ccd_table_box(0, 0, F(1, 2), 0)  # forces p(10|10) = -1/2
    result = ab.validate(box)
    assert not result.ok
    assert any("out of [0,1]" in v for v in result.violations)


@pytest.mark.parametrize("rows", [
    {},
    {(0, 0): [F(1, 2), 0, 0, F(1, 2)], (0, 1): [1, 0, 0]},
    {(0, 0): [F(1, 2), 0, 0, F(1, 2)], (0, 1): [1, 0, 0, 0, 0]},
    {(0, 0): [1, 0, 0]},
], ids=["empty", "short", "long", "not-square"])
def test_rows_without_one_square_length_are_structural(rows):
    with pytest.raises(ab.StructuralError):
        ab.box_from_rows(rows)


def test_missing_entry_is_structural():
    with pytest.raises(ab.StructuralError):
        ab.make_box(2, 2, 2, 2, {(0, 0, 0, 0): 1})


def pr_entries_with(key):
    """The PR box's entries with (0, 0, 0, 0) swapped for key."""
    entries = dict(ab.pr_box().table)
    entries[key] = entries.pop((0, 0, 0, 0))
    return entries


@pytest.mark.parametrize("shape, entries", [
    ((2, 2, 2, 2), {(0, 0, 0): 1}),
    ((2, 2, 2, 2), {(0, 0, 0, 0, 0): 1}),
    ((2, 2, 2, 2), {0: 1}),
    ((2, 2, 2, 2), {("0", 0, 0, 0): 1}),
    ((2, 2, 2, 2), {(0, 2, 0, 0): 1}),
    ((1, 1, 1, 1), {(0.5, 0, 0, 0): 1}),
    ((2, 2, 2, 2), pr_entries_with((0.5, 0, 0, 0))),
], ids=["3-tuple", "5-tuple", "int", "str-index", "out-of-range", "float-index", "pr-float-index"])
def test_a_key_that_is_not_four_ints_is_structural(shape, entries):
    with pytest.raises(ab.StructuralError, match="not an \\(a, b, x, y\\) tuple of ints in range"):
        ab.make_box(*shape, entries)


@pytest.mark.parametrize("shape, entries, error", [
    ((0, 2, 2, 2), {(9, 9, 9, 9): "x"}, ab.ShapeError),
    ((2, 2, 2, 2), {(9, 9, 9, 9): 1, (0, 0, 0, 0): "x"}, ab.StructuralError),
    ((2, 2, 2, 2), {(0, 0, 0, 0): "x", (9, 9, 9, 9): 1}, ab.ParseError),
    ((2, 2, 2, 2), {(0, 0, 0, 0): 1, (9, 9, 9, 9): 1}, ab.StructuralError),
], ids=["shape-first", "key-before-value", "value-before-key", "key-before-missing"])
def test_make_box_reports_the_first_fault(shape, entries, error):
    # the shape, then each entry in turn, key before value, then the gaps
    with pytest.raises(error):
        ab.make_box(*shape, entries)


def test_missing_entries_are_counted_without_listing_them():
    tracemalloc.start()
    try:
        with pytest.raises(ab.StructuralError) as err:
            ab.make_box(1, 1, 1000, 1000, {(0, 0, 0, 0): 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "missing 999999 entries, first: (0, 0, 0, 1)"
    assert peak < 10 * 2**20


def test_missing_entries_of_a_huge_shape_are_found_without_copying_ranges():
    tracemalloc.start()
    try:
        with pytest.raises(ab.StructuralError) as err:
            ab.make_box(2, 2, 10**12, 2, {(0, 0, 0, 0): 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "missing 7999999999999 entries, first: (0, 0, 0, 1)"
    assert peak < 2**20


def test_structural_beats_constraints_in_validate():
    box = ab.pr_box()
    broken = ab.Box(2, 2, 2, 2, box.den, {k: v for k, v in box.num.items() if k != (0, 0, 0, 0)})
    result = ab.validate(broken)
    assert not result.ok and result.structural and not result.violations


# exact violation tuples: validate compares the integer form, and its
# messages must still name these rationals byte for byte

def test_validate_violations_are_pinned():
    out_of_range = ab.ccd_table_box(0, 0, F(1, 2), 0)
    assert ab.validate(out_of_range).violations == (
        "entry out of [0,1] at (a,b,x,y)=(1, 0, 1, 0): -1/2",
    )

    entries = {k: F(1, 4) for k in product(range(2), repeat=4)}
    entries[(0, 0, 0, 0)] = F(1, 2)
    assert ab.validate(ab.make_box(2, 2, 2, 2, entries)).violations == (
        "normalization at (x,y)=(0,0): sum=5/4",
        "no-signaling A->B at (b,y)=(0,0): x=0 gives 3/4, x=1 gives 1/2",
        "no-signaling B->A at (a,x)=(0,0): y=0 gives 3/4, y=1 gives 1/2",
    )

    # at x = 1 (y = 1) every row puts all its mass on b = 0 (a = 0)
    bob_signals = ab.make_box(2, 2, 2, 2, {
        (a, b, x, y): F(1, 4) if x == 0 else F(1 - b, 2)
        for a, b, x, y in product(range(2), repeat=4)
    })
    assert ab.validate(bob_signals).violations == tuple(
        f"no-signaling A->B at (b,y)=({b},{y}): x=0 gives 1/2, x=1 gives {1 - b}"
        for b in range(2) for y in range(2)
    )
    alice_signals = ab.make_box(2, 2, 2, 2, {
        (a, b, x, y): F(1, 4) if y == 0 else F(1 - a, 2)
        for a, b, x, y in product(range(2), repeat=4)
    })
    assert ab.validate(alice_signals).violations == tuple(
        f"no-signaling B->A at (a,x)=({a},{x}): y=0 gives 1/2, y=1 gives {1 - a}"
        for a in range(2) for x in range(2)
    )

    table = dict(ab.uniform_box(3, 2, 2, 2).table)
    table[(2, 1, 1, 1)] = F(-1, 6)
    table[(0, 0, 1, 0)] = F(7, 6)
    assert ab.validate(ab.make_box(3, 2, 2, 2, table)).violations == (
        "entry out of [0,1] at (a,b,x,y)=(0, 0, 1, 0): 7/6",
        "entry out of [0,1] at (a,b,x,y)=(2, 1, 1, 1): -1/6",
        "normalization at (x,y)=(1,0): sum=2",
        "normalization at (x,y)=(1,1): sum=2/3",
        "no-signaling A->B at (b,y)=(0,0): x=0 gives 1/2, x=1 gives 3/2",
        "no-signaling A->B at (b,y)=(1,1): x=0 gives 1/2, x=1 gives 1/6",
        "no-signaling B->A at (a,x)=(0,1): y=0 gives 4/3, y=1 gives 1/3",
        "no-signaling B->A at (a,x)=(2,1): y=0 gives 1/3, y=1 gives 0",
    )


def test_validate_sums_only_keys_inside_the_shape():
    # a directly built Box may carry a key outside its shape: it is range
    # checked like any entry, but no marginal or normalization sums it
    num = dict(ab.pr_box().num)  # over den 2
    num[(2, 0, 0, 0)] = 1
    assert ab.validate(ab.Box(2, 2, 2, 2, 2, num)) == ab.ValidationResult(True, (), ())
    num[(2, 0, 0, 0)] = 3
    assert ab.validate(ab.Box(2, 2, 2, 2, 2, num)).violations == (
        "entry out of [0,1] at (a,b,x,y)=(2, 0, 0, 0): 3/2",
    )


def reference_validate(box):
    """validate as it was before it read the numerators in row order: one
    product loop over the shape into two marginal dicts."""
    den, num = box.den, box.num
    structural = []
    violations = []
    num_a = dict.fromkeys(product(range(box.nA), range(box.nX), range(box.nY)), 0)
    num_b = dict.fromkeys(product(range(box.nB), range(box.nX), range(box.nY)), 0)
    for key in product(range(box.nA), range(box.nB), range(box.nX), range(box.nY)):
        v = num.get(key)
        if v is None:
            structural.append(f"missing entry (a,b,x,y)={key}")
        elif v:
            a, b, x, y = key
            num_a[a, x, y] += v
            num_b[b, x, y] += v
    if structural:
        return ab.ValidationResult(False, tuple(structural), ())

    def q(n):
        return ab.rat_str(F(n, den))

    for key in sorted(num):
        if not 0 <= num[key] <= den:
            violations.append(f"entry out of [0,1] at (a,b,x,y)={key}: {q(num[key])}")
    for x in range(box.nX):
        for y in range(box.nY):
            total = sum(num_a[a, x, y] for a in range(box.nA))
            if total != den:
                violations.append(f"normalization at (x,y)=({x},{y}): sum={q(total)}")
    for b in range(box.nB):
        for y in range(box.nY):
            ref = num_b[b, 0, y]
            for x in range(1, box.nX):
                got = num_b[b, x, y]
                if got != ref:
                    violations.append(
                        f"no-signaling A->B at (b,y)=({b},{y}): "
                        f"x=0 gives {q(ref)}, x={x} gives {q(got)}"
                    )
    for a in range(box.nA):
        for x in range(box.nX):
            ref = num_a[a, x, 0]
            for y in range(1, box.nY):
                got = num_a[a, x, y]
                if got != ref:
                    violations.append(
                        f"no-signaling B->A at (a,x)=({a},{x}): "
                        f"y=0 gives {q(ref)}, y={y} gives {q(got)}"
                    )
    return ab.ValidationResult(not violations, (), tuple(violations))


@st.composite
def direct_boxes(draw):
    """A Box built directly, shapes -1 to 3 per dimension: the uniform box
    with mass moved within rows (signalling), entries pushed below 0 or
    above den, entries dropped and keys added outside the shape."""
    nA, nB, nX, nY = (draw(st.integers(-1, 3)) for _ in range(4))
    keys = list(product(range(nA), range(nB), range(nX), range(nY)))
    scale = draw(st.integers(1, 3))
    den = max(1, nA * nB) * scale
    num = dict.fromkeys(keys, scale)
    if keys:
        index = st.integers(0, len(keys) - 1)
        for i, j, d in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=4)):
            (a, b, x, y), (a2, b2, _, _) = keys[i], keys[j]
            num[a, b, x, y] += d  # to another entry of the same row
            num[a2, b2, x, y] -= d
        for i, d in draw(st.lists(st.tuples(index, st.integers(-2 * den, 2 * den)), max_size=2)):
            num[keys[i]] += d
        for i in draw(st.lists(index, max_size=2)):
            num.pop(keys[i], None)
    outside = st.tuples(*(st.integers(-1, 4) for _ in range(4))).filter(lambda k: k not in num)
    for key in draw(st.lists(outside, max_size=2)):
        num[key] = draw(st.integers(-1, den + 1))
    return ab.Box(nA, nB, nX, nY, den, num)


@settings(max_examples=400, deadline=None)
@given(direct_boxes())
def test_validate_matches_the_reference(box):
    got = ab.validate(box)
    try:
        want = reference_validate(box)
    except KeyError:
        # the reference read the x = 0 (y = 0) marginal of a party with no
        # inputs; with no (x, y) row there is only the range check to fail
        assert min(box.nX, box.nY) <= 0 and not got.structural
        assert all(v.startswith("entry out of [0,1]") for v in got.violations)
        return
    assert got == want


def test_validate_of_a_box_with_an_empty_dimension():
    # nothing to sum: every (x, y) row fails normalization with sum 0
    assert ab.validate(ab.Box(0, 2, 2, 2, 1, {})).violations == tuple(
        f"normalization at (x,y)=({x},{y}): sum=0" for x in range(2) for y in range(2)
    )
    assert ab.validate(ab.Box(2, 2, 0, 2, 1, {})) == ab.ValidationResult(True, (), ())


@given(weights_strategy())
@settings(max_examples=60, deadline=None)
def test_strategy_mixtures_always_validate(weights):
    assert ab.validate(local_box_from(weights)).ok


# ---------------------------------------------------------------------------
# the integer form: den is the least common denominator, num = den * table

def assert_integer_form(box):
    assert box.num.keys() == box.table.keys()
    assert all(isinstance(n, int) for n in box.num.values())
    assert all(box.num[k] == box.table[k] * box.den for k in box.table)
    # den is a common denominator, and no proper divisor of it is one
    assert all(box.den % v.denominator == 0 for v in box.table.values())
    assert gcd(*(box.den // v.denominator for v in box.table.values())) == 1


small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=30)
inner_ratio = st.integers(1, 11).map(lambda k: F(k, 12))
disagreement_boxes = (
    ab.pr_box(),
    ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0),
    ab.sd_table_box(F(1, 4), F(1, 4), 0, F(3, 4)),
)


@st.composite
def any_box(draw):
    kind = draw(st.sampled_from(
        ("make_box", "relabel", "json", "ccd", "sd", "mixture", "fixed", "split", "reduce")
    ))
    if kind == "make_box":
        nA, nB, nX, nY = (draw(st.integers(1, 3)) for _ in range(4))
        keys = list(product(range(nA), range(nB), range(nX), range(nY)))
        values = draw(st.lists(small_fraction, min_size=len(keys), max_size=len(keys)))
        return ab.make_box(nA, nB, nX, nY, dict(zip(keys, values)))
    if kind in ("ccd", "sd"):
        maker = ab.ccd_table_box if kind == "ccd" else ab.sd_table_box
        return maker(*(draw(small_fraction) for _ in range(4)))
    if kind == "fixed":
        return draw(st.sampled_from((
            ab.pr_box(), ab.uniform_box(), ab.uniform_box(3, 2, 2, 3),
            ab.strategy_box(0, 1, 1, 0),
        )))
    if kind == "reduce":
        # splitting keeps the disagreement, so the split box reduces
        source = draw(st.sampled_from(disagreement_boxes))
        split = ab.split_output(source, draw(st.integers(0, 1)), 0, draw(inner_ratio))
        return ab.reduce_box(split, "auto")[0]
    box = local_box_from(draw(weights_strategy()))
    if kind == "split":
        output, at_input = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        return ab.split_output(box, output, at_input, draw(small_fraction))
    if kind == "relabel":
        return ab.relabel(box, draw(st.sampled_from(list(ab.all_frames(box)))))
    if kind == "json":
        return ab.box_from_json(ab.box_to_json(box))
    return box


@given(any_box())
@settings(max_examples=150, deadline=None)
def test_integer_form_matches_the_table(box):
    assert_integer_form(box)


def test_integer_form_of_fixed_boxes():
    assert (ab.pr_box().den, ab.uniform_box(3, 2, 2, 2).den) == (2, 6)
    assert ab.strategy_box(0, 0, 0, 0).den == 1
    box = ab.ccd_table_box(F(1, 2), F(1, 3), F(1, 2), 0)
    assert box.den == 6 and box.num[(0, 1, 0, 1)] == 2 and box.num[(1, 1, 0, 0)] == 3
    # the integer form is derived data: it takes no part in equality or repr
    assert box == ab.make_box(2, 2, 2, 2, box.table)
    assert "num" not in repr(box) and "den" not in repr(box)


def test_box_stores_den_and_num_in_lowest_terms():
    assert [f.name for f in fields(ab.Box)] == ["nA", "nB", "nX", "nY", "den", "num"]
    box = ab.Box(2, 2, 2, 2, 8, {k: 4 * n for k, n in ab.pr_box().num.items()})
    assert box.den == 2 and box.num == ab.pr_box().num and box == ab.pr_box()
    # repr prints the Fraction table, as the earlier table-holding Box did
    box = ab.make_box(1, 2, 1, 1, {(0, 0, 0, 0): F(1, 3), (0, 1, 0, 0): "2/3"})
    assert repr(box) == (
        "Box(nA=1, nB=2, nX=1, nY=1, "
        "table={(0, 0, 0, 0): Fraction(1, 3), (0, 1, 0, 0): Fraction(2, 3)})"
    )


def test_reduction_of_a_split_box_is_in_lowest_terms():
    # the split PR box has quarters; the reduction sums them back to halves
    split = ab.split_output(ab.pr_box())
    assert split.den == 4
    reduced, _ = ab.reduce_box(split, "auto")
    assert reduced.den == 2
    assert reduced == ab.pr_box()
    assert_integer_form(reduced)


# ---------------------------------------------------------------------------
# conditionals

def test_pr_conditionals():
    pr = ab.pr_box()
    qA = ab.conditional(pr, ("B", 1), (0, 0, 1))
    qB = ab.conditional(pr, ("A", 1), (0, 1, 0))
    assert qA == 1
    assert qB == 0


def test_null_conditioning_event_is_undefined_not_error():
    # Alice never outputs 0 at x = 0
    box = ab.mix_strategies([((1, 0, 0, 0), F(1, 2)), ((1, 1, 1, 1), F(1, 2))])
    q = ab.conditional(box, ("B", 1), (0, 0, 1))
    assert q is None


def test_conditional_is_exact():
    box = ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0)
    for a in range(2):
        q = ab.conditional(box, ("B", 1), (a, 0, 1))
        marg = box.marginal_a(a, 0, 1)
        if q is not None:
            assert q * marg == box.p(a, 1, 0, 1)


def test_conditional_rejects_bad_indices():
    with pytest.raises(ab.ShapeError):
        ab.conditional(ab.pr_box(), ("B", 2), (0, 0, 1))
    with pytest.raises(ab.ShapeError):
        ab.conditional(ab.pr_box(), ("C", 1), (0, 0, 1))


@pytest.mark.parametrize("given", [(0, 5, 0), (0, 0, 2), (0, -1, 0), (0, 0, -1)])
def test_conditional_rejects_out_of_range_inputs(given):
    for target in (("A", 0), ("B", 0)):
        with pytest.raises(ab.ShapeError, match="input out of range"):
            ab.conditional(ab.pr_box(), target, given)


# ---------------------------------------------------------------------------
# perfect correlation and correlators

def test_pr_perfect_correlation_pattern():
    pr = ab.pr_box()
    assert ab.is_perfectly_correlated(pr, 1, 1)
    assert ab.is_perfectly_correlated(pr, 0, 0)
    assert ab.is_perfectly_correlated(pr, 1, 0)
    assert not ab.is_perfectly_correlated(pr, 0, 1)


def test_uniform_not_perfectly_correlated():
    assert not ab.is_perfectly_correlated(ab.uniform_box(), 1, 1)


def test_pr_correlators():
    c = ab.correlators(ab.pr_box())
    assert (c[(0, 0)], c[(0, 1)], c[(1, 0)], c[(1, 1)]) == (1, -1, 1, 1)


def test_uniform_correlators_vanish():
    assert all(v == 0 for v in ab.correlators(ab.uniform_box()).values())


def test_correlators_reject_nonbinary():
    with pytest.raises(ab.ShapeError):
        ab.correlators(ab.uniform_box(3, 3, 2, 2))


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=6),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
)
@settings(max_examples=80, deadline=None)
def test_ccd_form_correlator_identities(r, s, t, u):
    box = ab.ccd_table_box(r, s, t, u)
    if not ab.validate(box).ok:
        return
    c = ab.correlators(box)
    assert c[(0, 1)] == 1 + 2 * r - 2 * t - 4 * s
    assert c[(1, 0)] == 1 + 2 * t - 2 * r - 4 * u


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 10) | st.integers(min_value=1),
    st.lists(st.integers(-2, 12) | st.integers(), min_size=4, max_size=4),
    st.sampled_from([_ccd_nums, _sd_nums]),
)
def test_a_family_box_is_valid_iff_its_entries_are_in_range(D, params, entries):
    # both forms sum to D on every row and are no-signaling for any
    # parameters, so the range check alone decides validity: the sweep
    # skips a point by its range before any Box is built
    nums = entries(D, *params)
    assert ab.validate(_box_2222(D, nums)).ok == all(0 <= n <= D for n in nums)


@given(weights_strategy())
@settings(max_examples=40, deadline=None)
def test_correlator_one_iff_perfectly_correlated(weights):
    box = local_box_from(weights)
    c = ab.correlators(box)
    for x in range(2):
        for y in range(2):
            assert -1 <= c[(x, y)] <= 1
            assert (c[(x, y)] == 1) == ab.is_perfectly_correlated(box, x, y)


# ---------------------------------------------------------------------------
# relabeling

def test_relabel_moves_standard_pr_into_working_frame():
    # the frame a^b = (x^1)y is the standard a^b = xy box with inputs x swapped
    standard = ab.make_box(
        2, 2, 2, 2,
        {
            (a, b, x, y): F(1, 2) if (a ^ b) == x * y else F(0)
            for a, b, x, y in product(range(2), repeat=4)
        },
    )
    frame = ab.RelabelFrame(
        (1, 0), (0, 1), ((0, 1), (0, 1)), ((0, 1), (0, 1))
    )
    assert ab.relabel(standard, frame).table == ab.pr_box().table


def test_frame_count_and_identity_first():
    frames = list(ab.all_frames(ab.pr_box()))
    assert len(frames) == 64
    assert len(set(frames)) == 64
    assert frames[0].is_identity()


@given(weights_strategy(), st.integers(0, 63))
@settings(max_examples=40, deadline=None)
def test_relabel_preserves_validity_and_composes(weights, idx):
    box = local_box_from(weights)
    frame = list(ab.all_frames(box))[idx]
    moved = ab.relabel(box, frame)
    assert ab.validate(moved).ok
    # entries are permuted, never altered
    assert sorted(moved.table.values()) == sorted(box.table.values())


# ---------------------------------------------------------------------------
# JSON

def test_json_roundtrip_rational_strings():
    box = ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0)
    again = ab.box_from_json(ab.box_to_json(box))
    assert again.table == box.table


def test_json_accepts_decimals_exactly():
    text = """
    { "nA": 2, "nB": 2, "nX": 2, "nY": 2,
      "p": { "0,0": [[0.5, 0.0], [0.0, 0.5]],
             "0,1": [[0.0, 0.5], [0.5, 0.0]],
             "1,0": [[0.5, 0.0], [0.0, 0.5]],
             "1,1": [[0.5, 0.0], [0.0, 0.5]] } }
    """
    assert ab.box_from_json(text).table == ab.pr_box().table


def test_json_parse_errors():
    with pytest.raises(ab.ParseError):
        ab.box_from_json("{nope")
    with pytest.raises(ab.ParseError):
        ab.box_from_json('{"nA": 2}')
    with pytest.raises(ab.StructuralError):
        ab.box_from_json(
            '{"nA":2,"nB":2,"nX":2,"nY":2,"p":{"0,0":[["1/2"],["1/2"]]}}'
        )


@pytest.mark.parametrize("twin", ["01,1"])
def test_two_keys_naming_one_input_pair_are_structural(twin):
    doc = ab.box_doc(ab.pr_box())
    doc["p"][twin] = [["1/2", "1/2"], ["0", "0"]]
    with pytest.raises(ab.StructuralError) as err:
        ab.box_from_json(json.dumps(doc))
    assert str(err.value) == f"input-pair keys '1,1' and {twin!r} both name (1, 1)"


@pytest.mark.parametrize("key", [" 1,1", "+1, 1", "1_0,0", "1,1 ", "-0,1", "1,1,1", "11", "1,",
                                 "\uff11,1", pytest.param("1," + "1" * 5000, id="1,1...1")])
def test_input_pair_keys_other_than_ascii_digits_are_parse_errors(key):
    # only "x,y" in ASCII decimal digits names an input pair; int() alone
    # reads several of these, "+1, 1", " 1,1" and "\uff11,1" as (1, 1)
    doc = ab.box_doc(ab.pr_box())
    doc["p"][key] = doc["p"].pop("1,1")
    with pytest.raises(ab.ParseError) as err:
        ab.box_from_json(json.dumps(doc))
    assert str(err.value) == f"bad input-pair key {key!r}"


def test_a_boolean_after_an_equal_int_is_still_refused():
    # true == 1 and hash(true) == hash(1): a parse memo keyed on raw values
    # would hand the 1 parsed first to the true after it
    doc = ab.box_doc(ab.pr_box())
    doc["p"]["0,0"] = [[1, 0], [0, True]]
    with pytest.raises(ab.ParseError, match="not a rational: True"):
        ab.box_from_json(json.dumps(doc))


def reference_box_from_json(text):
    """box_from_json as it was before it parsed each distinct entry text
    once: every entry through rat, then make_box.  Input-pair keys follow
    today's rule, ASCII decimal digits on each side of one comma."""
    try:
        doc = json.loads(text, parse_float=str)
    except (ValueError, RecursionError) as exc:
        raise ab.ParseError(f"bad JSON: {exc}") from exc
    try:
        nA, nB, nX, nY = (int(doc[k]) for k in ("nA", "nB", "nX", "nY"))
        rows = doc["p"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ab.ParseError(f"box document missing field: {exc}") from exc
    if not isinstance(rows, dict):
        raise ab.ParseError("box document field p is not an object")
    entries = {}
    for key, grid in rows.items():
        try:
            xs, ys = key.split(",")
            if not all(n.isascii() and n.isdigit() for n in (xs, ys)):
                raise ValueError(f"{key!r} is not two ASCII decimal numbers")
            x, y = int(xs), int(ys)
        except ValueError as exc:
            raise ab.ParseError(f"bad input-pair key {key!r}") from exc
        if not isinstance(grid, list) or len(grid) != nA:
            raise ab.StructuralError(f"row {key}: expected {nA} output rows")
        for a, row in enumerate(grid):
            if not isinstance(row, list) or len(row) != nB:
                raise ab.StructuralError(f"row {key}, a={a}: expected {nB} entries")
            for b, value in enumerate(row):
                entries[(a, b, x, y)] = ab.rat(value)
    return ab.make_box(nA, nB, nX, nY, entries)


ENTRY_POOL = ["0", "1/2", "0.25", "1e-1", " 1/3 ", "1/0", "x", 0, 1, 2, -1, 0.5, 0.25, True, False]


@st.composite
def box_documents(draw):
    """Documents whose entries come from a few pool values, so they repeat.

    Some have a zero cardinality, and some an input pair outside the shape
    ahead of every other row, with a bad entry text in the last row: each
    fault is found in a different place, and the error that wins must be
    the reference's.
    """
    shape = [draw(st.integers(1, 3)) for _ in range(4)]
    zero = draw(st.sampled_from([None, None, None, 0, 1, 2, 3]))
    if zero is not None:
        shape[zero] = 0
    nA, nB, nX, nY = shape
    entry = st.sampled_from(draw(st.lists(st.sampled_from(ENTRY_POOL), min_size=1, max_size=4,
                                          unique_by=lambda v: (type(v), v))))
    pairs = [(x, y) for x in range(nX) for y in range(nY)]
    kept = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=len(pairs) - 1,
                         max_size=len(pairs))) if pairs else []
    if draw(st.booleans()):
        kept.insert(0, draw(st.sampled_from([(nX, 0), (0, nY), (nX + 1, nY)])))
    rows = {
        f"{x},{y}": [[draw(entry) for _ in range(nB)] for _ in range(nA)] for x, y in kept
    }
    if kept and nA and nB and draw(st.booleans()):
        x, y = kept[-1]
        rows[f"{x},{y}"][-1][-1] = draw(st.sampled_from(["x", "1/0", "1/2/3"]))
    return json.dumps({"nA": nA, "nB": nB, "nX": nX, "nY": nY, "p": rows})


def outcome(read, text):
    try:
        return read(text)
    except ab.AgreeboxError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(box_documents())
def test_box_from_json_matches_the_reference(text):
    assert outcome(ab.box_from_json, text) == outcome(reference_box_from_json, text)


@pytest.mark.parametrize("field", ["nA", "nB", "nX", "nY"])
@pytest.mark.parametrize("value", [True, False, "2", "\u0662", 2.0, None, [2], {"n": 2}],
                         ids=["true", "false", "str", "arabic-indic-str", "float", "null", "list",
                              "object"])
def test_a_cardinality_that_is_not_a_json_integer_is_a_parse_error(field, value):
    # int() read true as 1, false as 0, and "2" or "\u0662" as 2
    text = json.dumps(with_field(ab.box_doc(ab.pr_box()), (field,), value))
    with pytest.raises(ab.ParseError) as err:
        ab.box_from_json(text)
    assert str(err.value) == f"box document field {field} is not an integer"


def test_the_first_faulty_cardinality_is_reported():
    doc = ab.box_doc(ab.pr_box())
    del doc["nB"]
    with pytest.raises(ab.ParseError, match="^box document missing field: 'nB'$"):
        ab.box_from_json(json.dumps(with_field(doc, ("nX",), True)))
    with pytest.raises(ab.ParseError, match="^box document field nA is not an integer$"):
        ab.box_from_json(json.dumps(with_field(doc, ("nA",), "2")))


# any JSON value: what a malformed document may put in a field
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def with_field(doc, path, value):
    """A deep copy of doc with the field at path replaced by value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


BOX_FIELDS = [("nA",), ("nB",), ("nX",), ("nY",), ("p",), ("p", "0,1"), ("p", "1,0", 1),
              ("p", "1,1", 0, 1), ("p", "7,x")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BOX_FIELDS), json_values)
def test_any_json_value_in_a_box_field_gives_a_box_or_an_agreebox_error(path, value):
    text = json.dumps(with_field(ab.box_doc(ab.pr_box()), path, value))
    try:
        assert isinstance(ab.box_from_json(text), ab.Box)
    except ab.AgreeboxError:
        pass


# JSON values the fuzz above does not draw: json.loads reads NaN and Infinity
# as floats, and true is an int to Python
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, False])
def test_non_finite_and_boolean_entries_are_refused(value):
    text = json.dumps(with_field(ab.box_doc(ab.pr_box()), ("p", "0,0", 0, 0), value))
    with pytest.raises(ab.ParseError, match="not a rational"):
        ab.box_from_json(text)
    with pytest.raises(ab.ParseError, match="not a rational"):
        ab.rat(value)


@pytest.mark.parametrize("entry", ["1e-4001", "1e-5000", "-2E+4001", "1e-4000", "1/" + "3" * 4001])
def test_literals_too_large_to_print_are_refused(entry):
    doc = with_field(ab.box_doc(ab.pr_box()), ("p", "0,0", 0, 0), entry)
    with pytest.raises(ab.ParseError):
        ab.box_from_json(json.dumps(doc))


def test_literals_up_to_the_limits_parse():
    assert ab.rat("1e3999") == 10**3999
    assert ab.rat("25e-3999") == F(25, 10**3999)
    assert ab.rat("2.5E+3") == 2500
    assert ab.rat("1/" + "3" * 4000) == F(1, int("3" * 4000))


def reference_rat(value):
    """rat on a string as it was before it read "n" and "n/d" with int():
    every text through Fraction."""
    digits = ab.rationals.MAX_DIGITS
    text = value.strip()
    scientific = "e" in text or "E" in text
    try:
        if scientific and abs(int(text.replace("E", "e").rpartition("e")[2])) > digits:
            raise ab.ParseError(f"exponent beyond {digits} in {value!r}")
        q = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ab.ParseError(f"not a rational: {value!r}") from exc
    may_be_long = scientific or len(text) > digits
    if may_be_long and max(abs(q.numerator), q.denominator) >= 10**digits:
        raise ab.ParseError(f"rational with more than {digits} digits: {value:.40}")
    return q


def rat_outcome(read, text):
    try:
        q = read(text)
    except ab.AgreeboxError as exc:
        return type(exc), str(exc)
    return type(q), q.numerator, q.denominator


# texts near the "n" and "n/d" forms: signs, spaces, other digits, exponents,
# zero denominators, and runs past the 4,000-digit and int() limits
rat_texts = (
    st.text(st.sampled_from("0123456789/ +-._eE\u0662\uff11"), max_size=12)
    | st.builds("{}/{}".format, st.integers(0, 10**30), st.integers(0, 10**30))
    | st.sampled_from(["1/" + "3" * 4000, "1/" + "3" * 4001, "3" * 4001 + "/3" + "0" * 4000,
                       "1" * 4400, "1/" + "1" * 4400, "007/014", " 1/2 ", "1/0", "0/0"])
)


@settings(max_examples=500, deadline=None)
@given(rat_texts)
def test_rat_reads_texts_as_fraction_does(text):
    assert rat_outcome(ab.rat, text) == rat_outcome(reference_rat, text)


def reference_rat_dec(q):
    """rat_dec as it was before it took its places in one divmod: one digit
    per step, stopping at a zero remainder."""
    q = F(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    if rem == 0:
        return f"{sign}{whole}"
    digits = []
    for _ in range(12):
        rem *= 10
        d, rem = divmod(rem, q.denominator)
        digits.append(str(d))
        if rem == 0:
            break
    return f"{sign}{whole}." + "".join(digits)


# random rationals, dyadics and powers of ten at and past the 12 places
formatted = (
    st.fractions(max_denominator=10**8)
    | st.builds(F, st.integers(-10**6, 10**6), st.integers(0, 20).map(lambda e: 2**e))
    | st.builds(F, st.integers(-99, 99), st.integers(10, 14).map(lambda e: 10**e))
)


@settings(max_examples=500, deadline=None)
@given(formatted.flatmap(lambda q: st.sampled_from([q] + ([int(q)] if q.denominator == 1 else []))))
def test_rat_str_and_rat_dec_match_the_reference(q):
    assert ab.rat_dec(q) == reference_rat_dec(q)
    assert ab.rat_str(q) == (f"{q.numerator}" if q.denominator == 1
                             else f"{q.numerator}/{q.denominator}")


# JSON values with what the writer treats apart: non-ASCII and control
# characters and lone surrogates in strings and str keys, tuples, empty
# containers, bools, None, large ints, and floats such as -0.0, 1e308 and NaN
json_strings = st.text() | st.sampled_from(
    ["", "\x00\x1f\x7f\"\\/", "\u00e9\u2028", "\ud800", "\U0001f600"])
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60) | st.floats()
    | st.sampled_from([-0.0, 1e308, -1e308, float("nan"), float("inf"), float("-inf"), 5e-324])
    | json_strings
)
json_trees = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(json_trees)
def test_the_json_writer_is_json_dumps_with_indent_2(value):
    assert ab.rationals.json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [F(1, 2), [1, {"a": object()}], ("x", [None, {1, 2}])],
                         ids=["fraction", "nested-object", "nested-set"])
def test_the_json_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        ab.rationals.json_text(value)
    assert str(got.value) == str(want.value)


def test_rat_dec_cuts_after_twelve_places():
    assert ab.rat_dec(F(1, 10**12)) == "0.000000000001"
    assert ab.rat_dec(F(-1, 10**13)) == "-0.000000000000"
    assert ab.rat_dec(F(2, 3)) == "0.666666666666"
    assert ab.rat_dec(F(-5, 4)) == "-1.25"
    # anything that is not a Fraction or an int is coerced first
    assert ab.rat_dec("0.5") == "0.5"
    assert ab.rat_str(0.5) == ab.rat_str("3/6") == "1/2"


def test_boxes_too_long_to_print_are_refused():
    def box(p, q):
        return ab.make_box(1, 2, 1, 1, {(0, 0, 0, 0): p, (0, 1, 0, 0): q})

    # 10**4000 - 1 has 4,000 digits and prints; any sum of entries does too
    limit = 10**4000
    assert ab.validate(box(F(1, limit - 1), 1)).violations == (
        f"normalization at (x,y)=(0,0): sum={limit}/{limit - 1}",
    )
    # each denominator has 3,990 digits and their lcm about 7,980; and
    # 10**3999 + 1/(10**3999 + 1) has a numerator of 7,999 digits: den or a
    # numerator over den reaches the bound although every entry alone prints
    d1, d2 = 10**3989 + 1, 10**3989 + 3
    for p, q in [(F(1, d1), F(1, d2)), (10**3999, F(1, 10**3999 + 1)),
                 (F(1, limit), 0), (limit, 0), (-limit, 0)]:
        with pytest.raises(ab.ParseError, match="more than 4000 digits"):
            box(p, q)


# ---------------------------------------------------------------------------
# family generators

def test_caption_violation_lists():
    assert ab.caption_violations("ccd", 0, 0, F(1, 2), 0) == ["r>0 violated"]
    assert ab.caption_violations("ccd", F(1, 2), F(1, 4), F(1, 2), F(1, 4)) == [
        "s-u!=r-t violated"
    ]
    assert ab.caption_violations("ccd", F(1, 2), F(1, 4), F(1, 2), 0) == []
    assert ab.caption_violations("sd", F(1, 2), 0, 0, F(1, 2)) == [
        "s>0 violated",
        "s+t!=0 violated",
    ]
    assert ab.caption_violations("sd", F(1, 2), F(1, 2), 0, F(1, 2)) == []


def test_sd_form_at_pr_parameters_is_pr():
    assert ab.sd_table_box(F(1, 2), F(1, 2), 0, F(1, 2)).table == ab.pr_box().table


def test_ccd_form_at_pr_parameters_is_pr():
    assert ab.ccd_table_box(F(1, 2), F(1, 2), F(1, 2), 0).table == ab.pr_box().table


def test_strategy_boxes_are_deterministic_and_local():
    for strat in ab.deterministic_strategies():
        box = ab.strategy_box(*strat)
        assert ab.validate(box).ok
        for x in range(2):
            for y in range(2):
                assert sorted(
                    box.p(a, b, x, y) for a in range(2) for b in range(2)
                ) == [0, 0, 0, 1]


def reference_table_box(kind, r, s, t, u):
    """The family boxes in Fraction arithmetic through box_from_rows, as
    they were built before the constructors worked on integer numerators."""
    r, s, t, u = ab.rat(r), ab.rat(s), ab.rat(t), ab.rat(u)
    zero = F(0)
    if kind == "ccd":
        rows = {
            (0, 0): [r, zero, zero, 1 - r],
            (0, 1): [r - s, s, t + s - r, 1 - t - s],
            (1, 0): [t - u, u, r - t + u, 1 - r - u],
            (1, 1): [t, zero, zero, 1 - t],
        }
    else:
        rows = {
            (0, 0): [s, t, 1 - s - u - t, u],
            (0, 1): [zero, s + t, r, 1 - s - t - r],
            (1, 0): [1 - u - t, u + t + r - 1, zero, 1 - r],
            (1, 1): [r, zero, zero, 1 - r],
        }
    return ab.box_from_rows(rows)


MAKERS = {"ccd": ab.ccd_table_box, "sd": ab.sd_table_box}


def assert_same_box(got, want, check_validate=True):
    assert (got.nA, got.nB, got.nX, got.nY) == (want.nA, want.nB, want.nX, want.nY)
    assert list(got.table.items()) == list(want.table.items())  # values and key order
    assert got.den == want.den
    assert list(got.num.items()) == list(want.num.items())
    if check_validate:
        assert ab.validate(got) == ab.validate(want)


@pytest.mark.parametrize("kind", ["ccd", "sd"])
def test_family_constructors_match_the_fraction_construction_on_the_eighths_grid(kind):
    for ks in product(range(9), repeat=4):
        params = [F(k, 8) for k in ks]
        assert_same_box(MAKERS[kind](*params), reference_table_box(kind, *params),
                        check_validate=False)


# rationals of unequal denominators, negative and above 1, as every type rat
# takes (a float stands for the decimal it prints as)
family_params = st.fractions(min_value=-3, max_value=3, max_denominator=60).flatmap(
    lambda q: st.sampled_from([q, str(q), float(q)] + ([int(q)] if q.denominator == 1 else []))
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["ccd", "sd"]), st.lists(family_params, min_size=4, max_size=4))
def test_family_constructors_match_the_fraction_construction(kind, params):
    assert_same_box(MAKERS[kind](*params), reference_table_box(kind, *params))
