"""Output coarse-graining to effective 2x2 boxes and general classification."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agreebox as ab


def split_pr(ratio=F(1, 2)):
    return ab.split_output(ab.pr_box(), output=0, at_input=0, ratio=ratio)


# ---------------------------------------------------------------------------
# splitting (the inverse construction used to exercise reduction)

def test_split_keeps_the_box_valid():
    box = split_pr()
    assert (box.nA, box.nB, box.nX, box.nY) == (3, 2, 2, 2)
    assert ab.validate(box).ok


def test_split_preserves_disagreement():
    report = ab.detect_ccd(split_pr())
    assert report.ccd
    assert report.sd
    assert report.hierarchy.qA == 1
    assert report.hierarchy.qB == 0
    assert report.hierarchy.alpha_N == (0, 2)
    assert report.hierarchy.beta_N == (0,)


# ---------------------------------------------------------------------------
# reduction

def test_reduce_split_pr_recovers_pr_in_both_modes():
    for mode in ("ccd", "sd"):
        reduced, plan = ab.reduce_box(split_pr(), mode)
        assert reduced == ab.pr_box()
        assert plan.mode == mode
        assert plan.alpha_group == (0, 2)
        assert plan.beta_group == (0,)
        assert plan.kept_inputs == ((0, 1), (0, 1))


def test_reduce_pr_is_a_fixed_point():
    reduced, plan = ab.reduce_box(ab.pr_box(), "ccd")
    assert reduced == ab.pr_box()
    assert plan.alpha_group == (0,)


def test_reduced_box_keeps_sd_form():
    reduced, _ = ab.reduce_box(split_pr(F(1, 3)), "sd")
    form = ab.match_sd_form(reduced)
    assert form is not None
    assert form.params[1] > 0  # s stays positive


def test_refusal_carries_the_report():
    with pytest.raises(ab.ReductionRefused) as exc:
        ab.reduce_box(ab.uniform_box(), "ccd")
    assert exc.value.report is not None
    assert not exc.value.report.ccd


def test_auto_mode_picks_ccd_then_sd_then_refuses():
    _, plan = ab.reduce_box(split_pr(), "auto")  # carries both
    assert plan.mode == "ccd"
    sd_only = ab.sd_table_box(F(1, 4), F(1, 4), F(1, 4), F(1, 2))
    report = ab.detect_ccd(sd_only)
    assert report.sd and not report.ccd
    reduced, plan = ab.reduce_box(sd_only, "auto")
    assert plan.mode == "sd"
    assert (reduced, plan) == ab.reduce_box(sd_only, "sd")
    with pytest.raises(ab.ReductionRefused, match="neither") as exc:
        ab.reduce_box(ab.uniform_box(), "auto")
    assert not (exc.value.report.ccd or exc.value.report.sd)


def test_reduce_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ab.reduce_box(ab.pr_box(), "both")


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=8),
)
def test_reduction_preserves_ccd_on_split_form_boxes(ratio, s):
    # take a CCD-form box, fatten Alice's side, reduce back
    r, t, u = F(1, 2), F(1, 2), F(0)
    s = s * r  # keep s <= r
    if ab.caption_violations("ccd", r, s, t, u):
        return
    source = ab.ccd_table_box(r, s, t, u)
    assert ab.detect_ccd(source).ccd
    split = ab.split_output(source, output=0, at_input=0, ratio=ratio)
    report = ab.detect_ccd(split)
    assert report.ccd
    reduced, _ = ab.reduce_box(split, "ccd")
    q = ab.detect_ccd(reduced)
    assert q.ccd
    assert q.hierarchy.qA == report.hierarchy.qA
    assert q.hierarchy.qB == report.hierarchy.qB
    assert ab.validate(reduced).ok


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8))
def test_reduction_of_local_splits_stays_local(ratio):
    # locality must survive local post-processing
    source = ab.mix_strategies(
        [((0, 0, 0, 0), F(1, 2)), ((1, 1, 1, 1), F(1, 2))]
    )
    split = ab.split_output(source, output=0, at_input=0, ratio=ratio)
    if not ab.detect_ccd(split).ccd:
        return
    reduced, _ = ab.reduce_box(split, "ccd")
    assert ab.is_local(reduced).local


# ---------------------------------------------------------------------------
# general classification

def test_classify_general_on_the_2x2_shape_delegates():
    verdict = ab.classify_general(ab.pr_box())
    assert verdict.conclusion is ab.Conclusion.POSTQUANTUM


def test_classify_general_reduces_and_condemns_split_pr():
    verdict = ab.classify_general(split_pr())
    assert verdict.local is False
    assert verdict.conclusion is ab.Conclusion.POSTQUANTUM
    assert verdict.ccd_form is not None


def test_classify_general_without_disagreement():
    box = ab.uniform_box(3, 3, 2, 2)
    verdict = ab.classify_general(box)
    assert verdict.conclusion is ab.Conclusion.NO_OBSTRUCTION_FOUND
    assert verdict.local is True


@pytest.mark.parametrize("shape", [(2, 2, 1, 2), (1, 2, 2, 2), (2, 2, 2, 1), (3, 1, 2, 2)])
def test_classify_general_on_one_input_or_one_output_boxes(shape):
    # too small to carry disagreement, so there is nothing to reduce
    verdict = ab.classify_general(ab.uniform_box(*shape))
    assert verdict.local is True
    assert verdict.conclusion is ab.Conclusion.NO_OBSTRUCTION_FOUND


def test_classify_general_beyond_budget_leaves_local_unknown():
    box = ab.uniform_box(2, 2, 6, 7)  # 8192 instruction states
    verdict = ab.classify_general(box)
    assert verdict.local is None
    assert verdict.conclusion is ab.Conclusion.NO_OBSTRUCTION_FOUND


def test_plan_json():
    _, plan = ab.reduce_box(split_pr(), "ccd")
    doc = ab.plan_doc(plan)
    assert doc == {
        "kept_inputs": {"alice": [0, 1], "bob": [0, 1]},
        "alpha_group": [0, 2],
        "beta_group": [0],
        "mode": "ccd",
    }
