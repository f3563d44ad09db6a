"""
The 2x2 machinery loses nothing: any finite box whose observers reach
common certainty of disagreement (or singular disagreement) coarse-grains
to an effective two-input two-output box that still carries it.  Each
party merges outputs through an indicator: on input 0, "was the output
in my stabilized certainty set"; on input 1, "was it output 1".  That is
local post-processing, so locality and quantum realizability survive it.

Here a three-output box built by splitting one PR output is reduced
straight back, and classify_general() routes arbitrary shapes through
the same path.
"""

from fractions import Fraction as F

import agreebox as ab

# Split Alice's output 0 at input 0 into outputs 0 and 2 (a 1/3 : 2/3 split).
split = ab.split_output(ab.pr_box(), output=0, at_input=0, ratio=F(1, 3))
print(f"split box shape: {split.nA}x{split.nB} outputs, "
      f"{split.nX}x{split.nY} inputs, valid = {ab.validate(split).ok}")

report = ab.detect_ccd(split)
print(f"disagreement survives the split: ccd = {report.ccd}, "
      f"qA = {report.hierarchy.qA}, qB = {report.hierarchy.qB}")
print(f"Alice's stabilized certainty set: {report.hierarchy.alpha_N}")

reduced, plan = ab.reduce_box(split, "ccd")
print(f"\nreduction merges Alice's outputs {plan.alpha_group} -> 0")
print(f"reduced box equals the PR box exactly: {reduced == ab.pr_box()}")

# classify_general: any shape in, 2x2 verdict out.
verdict = ab.classify_general(split)
print(f"classify_general on the split box: {verdict.conclusion.value}, "
      f"local = {verdict.local}")

# Without disagreement there is nothing to reduce along; the verdict
# reports no obstruction and settles locality when the shape is small.
noise = ab.uniform_box(3, 3, 2, 2)
verdict = ab.classify_general(noise)
print(f"3-output uniform noise: {verdict.conclusion.value}, local = {verdict.local}")

# Asking for a reduction the box does not support is refused, with the
# failed detection report attached.
try:
    ab.reduce_box(ab.uniform_box(), "ccd")
except ab.ReductionRefused as exc:
    print(f"\nrefused as expected: {exc}")
    print(f"attached report says ccd = {exc.report.ccd}")
