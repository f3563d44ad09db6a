"""Reduce many-output boxes to effective 2x2 boxes, preserving disagreement.

The reduction keeps inputs 0 and 1 on both sides and coarse-grains outputs
through indicator functions chi.  On input 0 the effective output 0 tells
whether the source output fell in a chosen group (the stabilized certainty
set alpha_N / beta_N for common certainty of disagreement, the level-0
sets for singular disagreement); on input 1 the effective output 1 is the
source output 1 itself and everything else maps to 0:

    p~(a~ b~ | x~ y~) = sum over a, b of
        chi(a~ | x~, a) * chi(b~ | y~, b) * p(a b | x~ y~).

This is local post-processing, so it cannot create nonlocality that was
not already present, and it provably preserves the detected disagreement.
classify.classify() routes every box that is not 2x2x2x2 through this
reduction and classifies the effective box with the 2x2 machinery.
"""

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .boxes import Box
from .epistemic import detect_ccd
from .errors import ReductionRefused, ShapeError
from .rationals import rat


class ReductionPlan(NamedTuple):
    kept_inputs: tuple  # ((alice inputs), (bob inputs)), always ((0,1),(0,1))
    alpha_group: tuple
    beta_group: tuple
    mode: str  # "ccd" or "sd"


def reduce_box(box: Box, mode: str):
    """Coarse-grain to a 2x2x2x2 box; returns (reduced box, plan).

    The corresponding disagreement must hold on the source: the groups are
    read off its certainty hierarchy, and the theorem being exercised has
    the detection as hypothesis.  Mode "auto" picks ccd when the box
    carries it, else sd.  Refusal carries the failed report; a box with
    one input or one output on some side raises ShapeError from detect_ccd.
    """
    if mode not in ("ccd", "sd", "auto"):
        raise ValueError(f"mode must be 'ccd', 'sd' or 'auto', got {mode!r}")
    report = detect_ccd(box)
    if mode == "auto":
        if not (report.ccd or report.sd):
            raise ReductionRefused("box carries neither disagreement", report)
        mode = "ccd" if report.ccd else "sd"
    if mode == "ccd" and not report.ccd:
        raise ReductionRefused("source box has no common certainty of disagreement", report)
    if mode == "sd" and not report.sd:
        raise ReductionRefused("source box has no singular disagreement", report)
    h = report.hierarchy
    if mode == "ccd":
        a_group, b_group = set(h.alpha_N), set(h.beta_N)
    else:
        a_group, b_group = set(h.alphas[0]), set(h.betas[0])

    # effective outputs eff_a[x][a] and eff_b[y][b] at the kept inputs 0 and 1
    eff_a = ([int(a not in a_group) for a in range(box.nA)], [int(a == 1) for a in range(box.nA)])
    eff_b = ([int(b not in b_group) for b in range(box.nB)], [int(b == 1) for b in range(box.nB)])
    nums = dict.fromkeys(product(range(2), repeat=4), 0)
    for a, b, x, y in product(range(box.nA), range(box.nB), range(2), range(2)):
        nums[(eff_a[x][a], eff_b[y][b], x, y)] += box.num[(a, b, x, y)]
    reduced = Box(2, 2, 2, 2, box.den, nums)
    plan = ReductionPlan(
        ((0, 1), (0, 1)), tuple(sorted(a_group)), tuple(sorted(b_group)), mode
    )
    return reduced, plan


def split_output(box: Box, output: int = 0, at_input: int = 0, ratio=Fraction(1, 2)) -> Box:
    """Split one Alice output into two at a single input (test scaffolding).

    A new output label nA is appended; at the chosen input it takes a
    (1 - ratio) share of the split output's mass on every row, elsewhere it
    occurs with probability zero.  The result is again no-signaling: Bob's
    marginals are untouched and Alice's new marginals are consistent in y.
    Raises ShapeError for an output or input out of range; a ratio outside
    [0, 1] gives a box that fails validate().
    """
    if not (0 <= output < box.nA and 0 <= at_input < box.nX):
        raise ShapeError(f"Alice's output {output} at input {at_input} is out of range")
    ratio = rat(ratio)
    k, q = ratio.numerator, ratio.denominator  # every entry is an int over den * q
    num, nums = box.num, {}
    for a, b, x, y in product(range(box.nA + 1), range(box.nB), range(box.nX), range(box.nY)):
        if a == box.nA:
            v = (q - k) * num[output, b, x, y] if x == at_input else 0
        elif a == output and x == at_input:
            v = k * num[output, b, x, y]
        else:
            v = q * num[a, b, x, y]
        nums[a, b, x, y] = v
    return Box(box.nA + 1, box.nB, box.nX, box.nY, box.den * q, nums)


def plan_doc(plan: ReductionPlan) -> dict:
    return {
        "kept_inputs": {"alice": list(plan.kept_inputs[0]), "bob": list(plan.kept_inputs[1])},
        "alpha_group": list(plan.alpha_group),
        "beta_group": list(plan.beta_group),
        "mode": plan.mode,
    }

