"""Form matchers, correlator gap, Hardy pattern, combined classification."""

import json
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import agreebox as ab
from agreebox.bridge import instruction_states


def mix(box_a, box_b, w):
    rows = {
        (x, y): [
            w * box_a.p(a, b, x, y) + (1 - w) * box_b.p(a, b, x, y)
            for a in range(2)
            for b in range(2)
        ]
        for x in range(2)
        for y in range(2)
    }
    return ab.box_from_rows(rows)


def params(denominator):
    values = [F(k, denominator) for k in range(denominator + 1)]
    return st.tuples(
        st.sampled_from(values),
        st.sampled_from(values),
        st.sampled_from(values),
        st.sampled_from(values),
    )


def valid_ccd(r, s, t, u):
    return s <= r and u <= t and t + s <= 1 and t + s >= r and r - t + u >= 0 and r + u <= 1


def valid_sd(r, s, t, u):
    return s + u + t <= 1 and s + t + r <= 1 and u + t + r >= 1


# ---------------------------------------------------------------------------
# form matching

def test_pr_box_matches_both_forms():
    box = ab.pr_box()
    ccd = ab.match_ccd_form(box)
    assert ccd.params == (F(1, 2), F(1, 2), F(1, 2), F(0))
    assert ccd.constraints_ok
    sd = ab.match_sd_form(box)
    assert sd.params == (F(1, 2), F(1, 2), F(0), F(1, 2))
    assert sd.constraints_ok


def test_ccd_form_present_but_constraints_fail():
    # s - u = r - t makes the two conditionals equal; the table shape is
    # still there but the disagreement constraint is not
    box = ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), F(1, 4))
    form = ab.match_ccd_form(box)
    assert form is not None
    assert not form.constraints_ok


def test_sd_form_present_but_constraints_fail():
    box = ab.sd_table_box(F(1, 2), F(0), F(1, 2), F(0))
    form = ab.match_sd_form(box)
    assert form is not None
    assert not form.constraints_ok


def test_a_box_with_a_17th_key_matches_neither_form():
    # entries equal to a form's at its 16 keys, plus one key beyond them
    for form in (ab.pr_box(), ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0),
                 ab.sd_table_box(F(1, 2), F(1, 4), F(1, 4), F(1, 4))):
        assert ab.match_ccd_form(form) or ab.match_sd_form(form)
        box = ab.Box(2, 2, 2, 2, form.den, {**form.num, (2, 0, 0, 0): 0})
        assert ab.match_ccd_form(box) is None
        assert ab.match_sd_form(box) is None


def test_uniform_box_matches_neither_form():
    assert ab.match_ccd_form(ab.uniform_box()) is None
    assert ab.match_sd_form(ab.uniform_box()) is None


@settings(max_examples=150, deadline=None)
@given(params(8))
def test_ccd_matcher_inverts_the_generator(p):
    r, s, t, u = p
    if not valid_ccd(r, s, t, u):
        return
    form = ab.match_ccd_form(ab.ccd_table_box(r, s, t, u))
    assert form is not None
    assert form.params == (r, s, t, u)
    assert form.constraints_ok == (not ab.caption_violations("ccd", r, s, t, u))


@settings(max_examples=150, deadline=None)
@given(params(8))
def test_sd_matcher_inverts_the_generator(p):
    r, s, t, u = p
    if not valid_sd(r, s, t, u):
        return
    form = ab.match_sd_form(ab.sd_table_box(r, s, t, u))
    assert form is not None
    assert form.params == (r, s, t, u)


def test_ccd_constraints_are_the_caption_constraints_on_every_k4_box():
    # the form already has p(01|00) = p(10|00) = 0, so detect_ccd, which
    # fills constraints_ok, answers as the caption constraints do
    quarters = [F(k, 4) for k in range(5)]
    matched = 0
    for r, s, t, u in product(quarters, repeat=4):
        box = ab.ccd_table_box(r, s, t, u)
        if not ab.validate(box).ok:
            continue
        form = ab.match_ccd_form(box)
        assert form.params == (r, s, t, u)
        assert form.constraints_ok == (not ab.caption_violations("ccd", r, s, t, u))
        matched += 1
    assert matched == 57


# ---------------------------------------------------------------------------
# correlator gap

def test_gap_on_pr_box():
    assert ab.tsirelson_obstruction(ab.pr_box()) == -2


def test_gap_vanishes_when_conditionals_agree():
    box = ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), F(1, 4))
    assert ab.tsirelson_obstruction(box) == 0


def test_gap_inapplicable_without_perfect_correlation():
    assert ab.tsirelson_obstruction(ab.uniform_box()) is None


def test_gap_zero_on_perfectly_correlated_local_boxes():
    # agreeing strategies only: both perfect correlations hold, gap 0
    box = ab.mix_strategies(
        [((0, 0, 0, 0), F(1, 2)), ((1, 1, 1, 1), F(1, 2))]
    )
    assert ab.tsirelson_obstruction(box) == 0


def test_gap_refuses_a_one_input_box():
    # perfectly correlated at its only input pair (0, 0); (1, 1) is missing
    box = ab.make_box(2, 2, 1, 1, {
        (0, 0, 0, 0): F(1, 2), (0, 1, 0, 0): 0, (1, 0, 0, 0): 0, (1, 1, 0, 0): F(1, 2),
    })
    assert ab.validate(box).ok
    with pytest.raises(ab.ShapeError):
        ab.tsirelson_obstruction(box)


def test_gap_formula_on_ccd_form():
    r, s, t, u = F(1, 2), F(1, 4), F(1, 2), F(0)
    box = ab.ccd_table_box(r, s, t, u)
    assert ab.tsirelson_obstruction(box) == 4 * ((r - t) - (s - u))


@st.composite
def binary_boxes(draw):
    """Binary-output boxes with 2 or 3 inputs per party: a mixture of
    deterministic strategies, half of the time each perfectly correlated
    at (0, 0) and (1, 1), and of a PR box (input 2 repeats input 1)."""
    nX, nY = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    states = instruction_states(2, 2, nX, nY)
    if draw(st.booleans()):
        states = [(al, be) for al, be in states if al[0] == be[0] and al[1] == be[1]]
    chosen = draw(st.lists(st.sampled_from(states), min_size=1, max_size=4))
    ws = draw(st.lists(st.integers(1, 6), min_size=len(chosen), max_size=len(chosen)))
    pr = draw(st.integers(0, 6))
    total = sum(ws) + pr
    entries = dict.fromkeys(product(range(2), range(2), range(nX), range(nY)), F(0))
    for (alpha, beta), w in zip(chosen, ws):
        for x, y in product(range(nX), range(nY)):
            entries[alpha[x], beta[y], x, y] += F(w, total)
    for a, b, x, y in entries:
        if (a ^ b) == ((x == 0) * (y > 0)):
            entries[a, b, x, y] += F(pr, 2 * total)
    return ab.make_box(2, 2, nX, nY, entries)


@settings(max_examples=200, deadline=None)
@given(binary_boxes())
def test_gap_is_the_correlator_difference(box):
    assert ab.validate(box).ok
    gap = ab.tsirelson_obstruction(box)
    if ab.is_perfectly_correlated(box, 0, 0) and ab.is_perfectly_correlated(box, 1, 1):
        c = ab.correlators(box)
        assert type(gap) is F and gap == c[0, 1] - c[1, 0]
    else:
        assert gap is None


# ---------------------------------------------------------------------------
# Hardy pattern

def test_hardy_on_pr_box():
    assert ab.hardy_pattern(ab.pr_box())


def test_hardy_absent_on_uniform():
    assert not ab.hardy_pattern(ab.uniform_box())


# ---------------------------------------------------------------------------
# exact rational two-qubit boxes: real measurement bases u_x, v_y with
# rational (cos, sin), output 1 along the orthogonal vector (-sin, cos),
# and p(ab|xy) = <u_x^a (x) v_y^b, psi>^2 / |psi|^2 for a rational psi

def perp(u):
    return (-u[1], u[0])


def kron(u, v):
    return [p * q for p in u for q in v]


def pythagorean(t):
    """The unit vector (cos, sin) at tan(theta / 2) = t."""
    return ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def orthogonal(rows):
    """A vector orthogonal to three vectors of Q^4 (signed 3x3 minors)."""
    return [(-1) ** i * det([r[:i] + r[i + 1:] for r in rows]) for i in range(4)]


def hardy_state(us, vs):
    """psi with the Hardy zeros p(00|01) = p(10|10) = p(01|11) = 0."""
    return orthogonal([
        kron(us[0], vs[1]), kron(perp(us[1]), vs[0]), kron(us[1], perp(vs[1])),
    ])


def qubit_box(us, vs, psi):
    norm = sum(c * c for c in psi)
    entries = {}
    for a, b, x, y in product(range(2), repeat=4):
        ua = us[x] if a == 0 else perp(us[x])
        vb = vs[y] if b == 0 else perp(vs[y])
        amp = sum(p * q for p, q in zip(kron(ua, vb), psi))
        entries[(a, b, x, y)] = F(amp * amp, norm)
    return ab.make_box(2, 2, 2, 2, entries)


def quantum_hardy_box():
    us = ((F(-12, 13), F(5, 13)), (F(-5, 13), F(12, 13)))
    vs = ((F(-15, 17), F(8, 17)), (F(-5, 13), F(12, 13)))
    return qubit_box(us, vs, hardy_state(us, vs))


def test_quantum_hardy_box_is_not_postquantum():
    # Hardy's paradox has quantum realizations with p(00|00) up to
    # (5 sqrt 5 - 11) / 2; this one is valid, nonlocal and shows the
    # pattern, and no obstruction applies to it
    box = quantum_hardy_box()
    assert ab.validate(box).ok
    assert box.p(0, 0, 0, 0) == F(202198006080, 2367226418297)
    verdict = ab.classify(box)
    assert not verdict.local
    assert verdict.hardy
    assert verdict.ccd_form is None and verdict.sd_form is None
    assert verdict.tsirelson_gap is None
    assert verdict.conclusion is ab.Conclusion.NO_OBSTRUCTION_FOUND
    assert ab.classify(box).conclusion is ab.Conclusion.NO_OBSTRUCTION_FOUND


@pytest.mark.parametrize("w, conclusion", [
    (F(1, 100), ab.Conclusion.NO_OBSTRUCTION_FOUND),  # p(00|00) ~ 0.0896
    (F(1, 50), ab.Conclusion.POSTQUANTUM),  # p(00|00) ~ 0.0937
])
def test_hardy_fires_only_above_the_quantum_maximum(w, conclusion):
    # mixing in the PR box keeps the Hardy zeros and raises p(00|00)
    # across (5 sqrt 5 - 11) / 2 ~ 0.0902; no other obstruction applies
    verdict = ab.classify(mix(ab.pr_box(), quantum_hardy_box(), w))
    assert verdict.hardy and not verdict.local
    assert verdict.ccd_form is None and verdict.sd_form is None
    assert verdict.tsirelson_gap is None
    assert verdict.conclusion is conclusion


@st.composite
def qubit_boxes(draw):
    angle = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    us = (pythagorean(draw(angle)), pythagorean(draw(angle)))
    vs = (pythagorean(draw(angle)), pythagorean(draw(angle)))
    coefficient = st.integers(min_value=-6, max_value=6)
    kind = draw(st.sampled_from(("generic", "product", "correlated", "hardy")))
    if kind == "generic":
        psi = [draw(coefficient) for _ in range(4)]
    elif kind == "product":
        psi = kron([draw(coefficient) for _ in range(2)], [draw(coefficient) for _ in range(2)])
    elif kind == "correlated":
        # the maximally entangled state measured in equal bases is
        # perfectly correlated at (0, 0) and (1, 1), so the gap test applies
        psi, vs = [1, 0, 0, 1], us
    else:
        psi = hardy_state(us, vs)
    assume(any(psi))
    return qubit_box(us, vs, psi)


@settings(max_examples=150, deadline=None)
@given(qubit_boxes(), st.fractions(min_value=0, max_value=1, max_denominator=5))
def test_quantum_boxes_are_never_postquantum(box, ratio):
    assert ab.validate(box).ok
    # splitting an output is local post-processing: still quantum
    split = ab.split_output(box, ratio=ratio)
    for verdict in (
        ab.classify(box),
        ab.classify(box, relabel_search=True),
        ab.classify(split),
        ab.classify(split, relabel_search=True),
    ):
        assert verdict.conclusion is not ab.Conclusion.POSTQUANTUM
    # the agreement theorem for quantum observers
    assert ab.detect_ccd(box).ccd is False
    assert ab.detect_ccd(split).ccd is False


# ---------------------------------------------------------------------------
# classify

def test_classify_pr_box():
    verdict = ab.classify(ab.pr_box())
    assert not verdict.local
    assert verdict.ccd_form.constraints_ok
    assert verdict.sd_form.constraints_ok
    assert verdict.tsirelson_gap == -2
    assert verdict.hardy
    assert verdict.conclusion is ab.Conclusion.POSTQUANTUM
    assert verdict.frame is None


def test_classify_uniform_box():
    verdict = ab.classify(ab.uniform_box())
    assert verdict.local
    assert verdict.conclusion is ab.Conclusion.LOCAL


def test_classify_half_pr_mix_is_local():
    # at one half the CHSH value sits exactly on the local bound
    verdict = ab.classify(mix(ab.pr_box(), ab.uniform_box(), F(1, 2)))
    assert verdict.local
    assert verdict.conclusion is ab.Conclusion.LOCAL


def test_classify_three_quarter_pr_mix_finds_no_obstruction():
    # nonlocal by LP, but no form, no applicable gap, no Hardy zeros
    verdict = ab.classify(mix(ab.pr_box(), ab.uniform_box(), F(3, 4)))
    assert not verdict.local
    assert verdict.ccd_form is None
    assert verdict.sd_form is None
    assert verdict.tsirelson_gap is None
    assert not verdict.hardy
    assert verdict.conclusion is ab.Conclusion.NO_OBSTRUCTION_FOUND


def test_classify_refuses_a_box_whose_rows_do_not_sum_to_one():
    # no-signaling, with every entry 1/8; the CLI's validate catches it first
    box = ab.make_box(2, 2, 2, 2, dict.fromkeys(product(range(2), repeat=4), F(1, 8)))
    with pytest.raises(ab.PreconditionError, match=r"row \(x, y\) = \(0, 0\)"):
        ab.classify(box)


def test_classify_shape_guard():
    # the 2x2x2x2 tests refuse a 3-output box; classify reduces it first
    three = ab.split_output(ab.pr_box())
    for check in (ab.match_ccd_form, ab.match_sd_form, ab.hardy_pattern):
        with pytest.raises(ab.ShapeError):
            check(three)
    reduced, _ = ab.reduce_box(three, "auto")
    assert ab.classify(three) == ab.classify(reduced)


def test_relabel_search_recovers_a_scrambled_box():
    frame = ab.RelabelFrame(
        (1, 0), (0, 1), ((1, 0), (0, 1)), ((0, 1), (1, 0))
    )
    scrambled = ab.relabel(ab.pr_box(), frame)
    plain = ab.classify(scrambled)
    assert plain.ccd_form is None and plain.sd_form is None
    searched = ab.classify(scrambled, relabel_search=True)
    assert searched.frame is not None
    assert searched.conclusion is ab.Conclusion.POSTQUANTUM
    assert not searched.local


def test_relabel_search_keeps_identity_frame_off_matching_boxes():
    verdict = ab.classify(ab.pr_box(), relabel_search=True)
    assert verdict.frame is None


@settings(max_examples=60, deadline=None)
@given(params(4))
def test_constraint_satisfying_ccd_boxes_are_never_local(p):
    r, s, t, u = p
    if not valid_ccd(r, s, t, u):
        return
    if ab.caption_violations("ccd", r, s, t, u):
        return
    verdict = ab.classify(ab.ccd_table_box(r, s, t, u))
    assert not verdict.local
    assert verdict.conclusion is ab.Conclusion.POSTQUANTUM


def test_verdict_json():
    doc = json.loads(ab.verdict_to_json(ab.classify(ab.pr_box())))
    assert doc["conclusion"] == "POSTQUANTUM"
    assert doc["ccd_form"]["params"] == {"r": "1/2", "s": "1/2", "t": "1/2", "u": "0"}
    assert doc["tsirelson_gap"] == "-2"
    assert "frame" not in doc
