"""Certainty hierarchies, CCD and SD detection, mutual certainty depth."""

import json
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import agreebox as ab
from agreebox.boxes import cond_event_a, cond_event_b
from agreebox.bridge import instruction_states

rational01 = st.fractions(min_value=0, max_value=1, max_denominator=6)


def valid_ccd_form_boxes(draw_limit=None):
    """Deterministic mini-sweep over the CCD form, denominators <= 4."""
    vals = [F(k, 4) for k in range(5)]
    for r in vals:
        for s in vals:
            for t in vals:
                for u in vals:
                    box = ab.ccd_table_box(r, s, t, u)
                    if ab.validate(box).ok:
                        yield (r, s, t, u), box


def chain_box():
    """Three-output box whose certainty sets shrink twice before emptying.

    Found by search over nine-state unsigned models; kept as an explicit
    table so the test is self-contained.
    """
    rows = {
        (0, 0): [F(1, 8), F(1, 8), F(0), F(1, 8), F(1, 8), F(1, 8), F(0), F(1, 8), F(1, 4)],
        (0, 1): [F(1, 4), F(0), F(0), F(3, 8), F(0), F(0), F(1, 8), F(1, 4), F(0)],
        (1, 0): [F(1, 4), F(3, 8), F(1, 8), F(0), F(0), F(1, 4), F(0), F(0), F(0)],
        (1, 1): [F(3, 4), F(0), F(0), F(0), F(1, 4), F(0), F(0), F(0), F(0)],
    }
    return ab.box_from_rows(rows)


# ---------------------------------------------------------------------------
# hierarchy with supplied values

def test_hierarchy_on_ccd_form_example():
    box = ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0)
    h = ab.hierarchy(box, F(1, 2), F(0))
    assert 0 in h.alphas[0] and 0 in h.betas[0]
    assert 0 in h.alpha_N and 0 in h.beta_N
    assert h.alphas == ((0, 1), (0,), (0,))
    assert h.betas == ((0,), (0,), (0,))
    assert h.N == 1


def test_hierarchy_uniform_with_matching_values():
    h = ab.hierarchy(ab.uniform_box(), F(1, 2), F(1, 2))
    assert h.alphas[0] == (0, 1) and h.betas[0] == (0, 1)
    assert h.N == 0


def test_hierarchy_excludes_null_marginal_outputs():
    # Alice never outputs 0 at x = 0, so 0 cannot enter level 0
    box = ab.mix_strategies([((1, 0, 0, 1), F(1, 2)), ((1, 1, 1, 1), F(1, 2))])
    q = ab.conditional(box, ("B", 1), (1, 0, 1))
    h = ab.hierarchy(box, q, F(0))
    assert 0 not in h.alphas[0]


def test_hierarchy_accepts_undefined_values():
    h = ab.hierarchy(ab.uniform_box(), None, F(1, 2))
    assert h.alphas[0] == ()


def test_hierarchy_refuses_a_box_without_the_probed_inputs():
    # qA is read at y = 1, which a one-input Bob does not have
    with pytest.raises(ab.ShapeError):
        ab.hierarchy(ab.uniform_box(2, 2, 2, 1), 0, 0)


def reference_hierarchy(box, qA, qB):
    """The hierarchy in Fractions, probe by probe through conditional,
    cond_event_a and cond_event_b, as hierarchy computed it before it
    compared integer numerators."""
    alpha = beta = ()
    if qA is not None:
        qA = F(qA)
        alpha = tuple(a for a in range(box.nA) if ab.conditional(box, ("B", 1), (a, 0, 1)) == qA)
    if qB is not None:
        qB = F(qB)
        beta = tuple(b for b in range(box.nB) if ab.conditional(box, ("A", 1), (b, 1, 0)) == qB)
    alphas, betas = [alpha], [beta]
    while True:
        cur_a, cur_b = alphas[-1], betas[-1]
        next_a = tuple(a for a in cur_a if cond_event_b(box, cur_b, a, 0, 0) == 1)
        next_b = tuple(b for b in cur_b if cond_event_a(box, cur_a, b, 0, 0) == 1)
        alphas.append(next_a)
        betas.append(next_b)
        if next_a == cur_a and next_b == cur_b:
            break
    return ab.CertaintyHierarchy(tuple(alphas), tuple(betas), len(alphas) - 2, qA, qB)


@st.composite
def many_output_boxes(draw):
    """No-signaling boxes with 2 or 3 outputs per party and 2 or 3 inputs:
    a mixture of deterministic strategies, half of the time all correlated
    at (1, 1), and of a PR box on outputs 0 and 1.  Outputs
    no strategy gives have null marginals.  Some have one or two of
    Alice's outputs split, up to 4 outputs."""
    nA, nB, nX, nY = (draw(st.integers(2, 3)) for _ in range(4))
    states = instruction_states(nA, nB, nX, nY)
    if draw(st.booleans()):
        states = [(alpha, beta) for alpha, beta in states if alpha[1] == beta[1]]
    chosen = draw(st.lists(st.sampled_from(states), min_size=1, max_size=4))
    ws = draw(st.lists(st.integers(1, 6), min_size=len(chosen), max_size=len(chosen)))
    pr = draw(st.integers(0, 6))
    total = sum(ws) + pr
    entries = dict.fromkeys(product(range(nA), range(nB), range(nX), range(nY)), F(0))
    for (alpha, beta), w in zip(chosen, ws):
        for x, y in product(range(nX), range(nY)):
            entries[alpha[x], beta[y], x, y] += F(w, total)
    for a, b, x, y in product(range(2), range(2), range(nX), range(nY)):
        if (a ^ b) == ((x == 0) * (y > 0)):  # pr_box's frame; input 2 repeats 1
            entries[a, b, x, y] += F(pr, 2 * total)
    box = ab.make_box(nA, nB, nX, nY, entries)
    for _ in range(draw(st.integers(0, 4 - nA))):
        box = ab.split_output(box, draw(st.integers(0, box.nA - 1)),
                              draw(st.integers(0, nX - 1)), F(1, draw(st.integers(2, 3))))
    return box


@st.composite
def probed_value(draw, box, party):
    """None, 0, 1, one of the box's own conditionals at the probe, or any rational."""
    kind = draw(st.sampled_from(["none", "zero", "one", "own", "any"]))
    if kind == "own":
        if party == "A":
            return ab.conditional(box, ("B", 1), (draw(st.integers(0, box.nA - 1)), 0, 1))
        return ab.conditional(box, ("A", 1), (draw(st.integers(0, box.nB - 1)), 1, 0))
    if kind == "any":
        return draw(st.fractions(min_value=-1, max_value=2, max_denominator=12))
    return {"none": None, "zero": 0, "one": 1}[kind]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_hierarchy_matches_the_fraction_reference(data):
    box = data.draw(many_output_boxes())
    qA = data.draw(probed_value(box, "A"))
    qB = data.draw(probed_value(box, "B"))
    assert ab.validate(box).ok
    assert ab.hierarchy(box, qA, qB) == reference_hierarchy(box, qA, qB)


# ---------------------------------------------------------------------------
# detect_ccd

def test_ccd_form_example_detects():
    rep = ab.detect_ccd(ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0))
    assert rep.ccd
    assert rep.hierarchy.qA == F(1, 2)
    assert rep.hierarchy.qB == 0
    assert rep.perfectly_correlated
    assert rep.witness == (0, 0, 0, 0)


def test_ccd_false_when_values_coincide():
    rep = ab.detect_ccd(ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), F(1, 4)))
    assert not rep.ccd
    assert rep.hierarchy.qA == rep.hierarchy.qB == F(1, 2)


def test_pr_box_has_extremal_ccd():
    rep = ab.detect_ccd(ab.pr_box())
    assert rep.ccd and rep.sd
    assert rep.hierarchy.qA == 1 and rep.hierarchy.qB == 0
    assert rep.hierarchy.N == 0


def test_undefined_value_gives_reason_not_exception():
    box = ab.mix_strategies([((1, 0, 0, 0), F(1, 2)), ((1, 1, 1, 1), F(1, 2))])
    rep = ab.detect_ccd(box)
    assert not rep.ccd and not rep.sd
    assert rep.reason == "null conditioning event"


# ---------------------------------------------------------------------------
# singular disagreement

def test_sd_form_at_pr_parameters_detects():
    rep = ab.detect_ccd(ab.sd_table_box(F(1, 2), F(1, 2), 0, F(1, 2)))
    assert rep.sd


def test_uniform_box_has_no_sd():
    rep = ab.detect_ccd(ab.uniform_box())
    assert not rep.sd
    assert rep.hierarchy.qA == F(1, 2)


def test_ccd_without_sd():
    rep = ab.detect_ccd(ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0))
    assert not rep.sd and rep.ccd


def test_sd_needs_positive_witness_mass():
    # qA = 1, qB = 0, perfectly correlated at (1,1), but p(00|00) = 0
    box = ab.sd_table_box(F(1, 2), 0, F(1, 2), F(1, 2))
    rep = ab.detect_ccd(box)
    assert ab.validate(box).ok
    assert rep.hierarchy.qA == 1
    assert not rep.sd


# ---------------------------------------------------------------------------
# depth

def test_two_output_boxes_stabilize_by_level_one():
    for (_, box) in valid_ccd_form_boxes():
        assert ab.detect_ccd(box).hierarchy.N <= 1


def test_uniform_depth_zero():
    assert ab.detect_ccd(ab.uniform_box()).hierarchy.N == 0


def test_chain_box_has_depth_two():
    box = chain_box()
    assert ab.validate(box).ok
    assert ab.detect_ccd(box).hierarchy.N == 2
    h = ab.detect_ccd(box).hierarchy
    assert h.alphas == ((0, 1), (0,), (), ())
    assert h.betas == ((0, 1), (0,), (), ())


# ---------------------------------------------------------------------------
# level structure invariants

@given(rational01, rational01, rational01, rational01)
@settings(max_examples=120, deadline=None)
def test_levels_shrink_and_stabilize(r, s, t, u):
    box = ab.ccd_table_box(r, s, t, u)
    if not ab.validate(box).ok:
        return
    h = ab.detect_ccd(box).hierarchy
    for i in range(1, len(h.alphas)):
        assert set(h.alphas[i]) <= set(h.alphas[i - 1])
        assert set(h.betas[i]) <= set(h.betas[i - 1])
    assert h.alphas[-1] == h.alphas[-2] and h.betas[-1] == h.betas[-2]
    assert h.N <= box.nA + box.nB


def test_ccd_decided_by_level_one_for_two_outputs():
    # truncating the tower at level 1 never changes the verdict on 2x2 boxes
    for (_, box) in valid_ccd_form_boxes():
        rep = ab.detect_ccd(box)
        h = rep.hierarchy
        level1 = min(1, h.N)
        truncated_ok = 0 in h.alphas[level1] and 0 in h.betas[level1]
        full_ok = 0 in h.alpha_N and 0 in h.beta_N
        assert truncated_ok == full_ok


# ---------------------------------------------------------------------------
# the detection theorems on their forms

def test_ccd_iff_form_constraints_small_sweep():
    for (r, s, t, u), box in valid_ccd_form_boxes():
        expected = r > 0 and s - u != r - t
        assert ab.detect_ccd(box).ccd == expected, (r, s, t, u)


def test_sd_iff_form_constraints_small_sweep():
    vals = [F(k, 4) for k in range(5)]
    count = 0
    for r in vals:
        for s in vals:
            for t in vals:
                for u in vals:
                    box = ab.sd_table_box(r, s, t, u)
                    if not ab.validate(box).ok:
                        continue
                    count += 1
                    expected = s > 0 and s + t != 0 and u + t != 1
                    assert ab.detect_ccd(box).sd == expected, (r, s, t, u)
    assert count > 40


# ---------------------------------------------------------------------------
# the box hierarchy against the classical tower: a local box is a partition
# model on the support of its convex weights, so the two must coincide there,
# and the classical agreement theorem then rules out CCD

@st.composite
def local_boxes(draw):
    """Mixtures of deterministic strategies in 2222, 3322 and 2233, half of
    them perfectly correlated at (1, 1), where the agreement check bites.
    Some are 2222 mixtures lifted to 3322 through a third output that never
    occurs, or to 2233 through a third input that repeats input 0.
    Independently, half have one of Alice's outputs split at x = 0."""
    n, m, lift = draw(st.sampled_from(  # outputs, inputs, lift
        ((2, 2, None), (3, 2, None), (2, 3, None), (2, 2, "output"), (2, 2, "input"))
    ))
    states = instruction_states(n, n, m, m)
    if draw(st.booleans()):
        states = [(alpha, beta) for alpha, beta in states if alpha[1] == beta[1]]
    chosen = draw(st.lists(st.sampled_from(states), min_size=1, max_size=5))
    ws = draw(st.lists(st.integers(1, 6), min_size=len(chosen), max_size=len(chosen)))
    entries = dict.fromkeys(product(range(n), range(n), range(m), range(m)), F(0))
    for (alpha, beta), w in zip(chosen, ws):
        for x, y in product(range(m), repeat=2):
            entries[alpha[x], beta[y], x, y] += F(w, sum(ws))
    if lift == "output":
        n = 3
        entries = {
            (a, b, x, y): entries.get((a, b, x, y), F(0))
            for a, b, x, y in product(range(n), range(n), range(m), range(m))
        }
    elif lift == "input":
        m = 3
        entries = {
            (a, b, x, y): entries[a, b, x % 2, y % 2]
            for a, b, x, y in product(range(n), range(n), range(m), range(m))
        }
    box = ab.make_box(n, n, m, m, entries)
    if draw(st.booleans()):
        box = ab.split_output(box, draw(st.integers(0, n - 1)), 0, F(1, draw(st.integers(2, 3))))
    return box


@given(local_boxes())
@settings(max_examples=100, deadline=None)
def test_box_hierarchy_is_the_tower_of_its_local_model(box):
    report = ab.detect_ccd(box)
    h = report.hierarchy
    assume(h.qA is not None and h.qB is not None)
    support = ab.is_local(box).weights
    alphas = [alpha for (alpha, _), _ in support]
    betas = [beta for (_, beta), _ in support]
    states = range(len(support))
    model = ab.make_model(
        [w for _, w in support],
        {0: [{k for k in states if alphas[k][0] == a} for a in range(box.nA)]},
        {0: [{k for k in states if betas[k][0] == b} for b in range(box.nB)]},
    )
    events = ab.EventPair(
        frozenset(k for k in states if alphas[k][1] == 1),
        frozenset(k for k in states if betas[k][1] == 1),
    )
    result = ab.tower(model, events, h.qA, h.qB)
    assert result.A_N == {k for k in states if alphas[k][0] in h.alpha_N}
    assert result.B_N == {k for k in states if betas[k][0] in h.beta_N}
    assert report.ccd is False


# ---------------------------------------------------------------------------
# serialization

def test_report_json_shape():
    doc = json.loads(ab.report_to_json(ab.detect_ccd(ab.pr_box())))
    assert doc == {
        "qA": "1",
        "qB": "0",
        "ccd": True,
        "sd": True,
        "depth": 0,
        "alphaN": [0],
        "betaN": [0],
        "reason": "",
    }


def test_report_json_undefined_values_are_null():
    box = ab.mix_strategies([((1, 0, 0, 0), F(1, 2)), ((1, 1, 1, 1), F(1, 2))])
    doc = json.loads(ab.report_to_json(ab.detect_ccd(box)))
    assert doc["qA"] is None
    assert doc["reason"] == "null conditioning event"


def test_small_shapes_are_rejected():
    with pytest.raises(ab.ShapeError):
        ab.detect_ccd(ab.uniform_box(1, 2, 2, 2))
