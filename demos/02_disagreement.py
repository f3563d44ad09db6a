"""
Two observers measure a shared box.  Alice, seeing output a at input 0,
holds a conditional belief about Bob's output at input 1, and Bob
symmetrically about Alice's.  When the box is perfectly correlated at
inputs (1,1), each party's input-1 output doubles as a prediction
target the other can be certain about.

Climbing the certainty hierarchy asks: for which outputs is Alice's
belief exactly qA?  For which is she moreover certain that Bob's belief
is exactly qB?  And so on.  If the hierarchy stabilizes with the
observed outputs still inside, the parties have common certainty of
their (possibly different) beliefs.  Classically qA = qB would follow;
a box exhibiting common certainty of disagreement, qA != qB, therefore
has no classical story.  The extreme case qA = 1, qB = 0 with the
parties flatly contradicting each other is singular disagreement.
"""

from fractions import Fraction as F

import agreebox as ab

# The PR box disagrees as hard as possible.
report = ab.detect_ccd(ab.pr_box())
h = report.hierarchy
print("PR box:")
print(f"  qA = {h.qA}, qB = {h.qB}")
print(f"  certainty levels (alpha): {h.alphas}")
print(f"  certainty levels (beta):  {h.betas}")
print(f"  stabilizes at N = {h.N}")
print(f"  common certainty of disagreement: {report.ccd}")
print(f"  singular disagreement: {report.sd}")

# A one-parameter family: the four-parameter disagreement form with
# r = t = 1/2, u = 0, sweeping s.  qA = s/r moves, qB stays 0.
print("\nsweep s with r = t = 1/2, u = 0:")
print("  s      qA     qB     ccd    gap")
for k in range(5):
    s = F(k, 8)
    box = ab.ccd_table_box(F(1, 2), s, F(1, 2), F(0))
    rep = ab.detect_ccd(box)
    gap = ab.tsirelson_obstruction(box)
    print(
        f"  {str(s):5}  {str(rep.hierarchy.qA):5}  "
        f"{str(rep.hierarchy.qB):5}  {str(rep.ccd):5}  {gap}"
    )

# s = 0 makes the beliefs coincide: certainty without disagreement.
agreeing = ab.ccd_table_box(F(1, 2), F(0), F(1, 2), F(0))
print(f"\nat s = 0 the conditionals agree, ccd = {ab.detect_ccd(agreeing).ccd}")

# A local mixture never produces common certainty of disagreement.
local = ab.mix_strategies([((0, 0, 0, 0), F(1, 2)), ((1, 1, 1, 1), F(1, 2))])
rep = ab.detect_ccd(local)
print(f"agreeing local mixture: qA = {rep.hierarchy.qA}, "
      f"qB = {rep.hierarchy.qB}, ccd = {rep.ccd}")

# Reports serialize for downstream tooling.
print("\nreport JSON for the PR box:")
print(ab.report_to_json(report))
