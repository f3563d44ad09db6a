"""
Given a two-input two-output box, where does it sit?  classify() runs
the exact locality LP and three quantum obstructions.

* No quantum state and measurements can realize a box carrying common
  certainty of disagreement (CCD) or singular disagreement (SD), as
  detect_ccd decides them.  The matched four-parameter table only
  describes the box; its "constraints ok" is detect_ccd's answer.
* Perfect correlation at inputs (0,0) and (1,1) forces c01 = c10 for
  every quantum box (a Tsirelson-type argument), so a nonzero gap
  c01 - c10 is disqualifying.
* The Hardy pattern p(00|00) > 0 with p(01|11) = p(00|01) = p(10|10) = 0
  is nonlocal.  Quantum boxes reach it only up to p(00|00) =
  (5 sqrt 5 - 11)/2 ~ 0.09, so it is disqualifying only above that.

LOCAL means the LP found a convex decomposition; POSTQUANTUM means an
obstruction fired; NO_OBSTRUCTION_FOUND deliberately claims nothing.
"""

from fractions import Fraction as F

import agreebox as ab


def show(name, verdict):
    print(f"{name}:")
    print(f"  local: {verdict.local}")
    if verdict.ccd_form:
        r, s, t, u = verdict.ccd_form.params
        print(f"  ccd form: r={r} s={s} t={t} u={u}, "
              f"constraints ok = {verdict.ccd_form.constraints_ok}")
    if verdict.sd_form:
        r, s, t, u = verdict.sd_form.params
        print(f"  sd form:  r={r} s={s} t={t} u={u}, "
              f"constraints ok = {verdict.sd_form.constraints_ok}")
    print(f"  correlator gap: {verdict.tsirelson_gap}")
    print(f"  Hardy pattern: {verdict.hardy}")
    if verdict.frame:
        print(f"  found after relabeling: {verdict.frame}")
    print(f"  conclusion: {verdict.conclusion.value}")


def mix(box_a, box_b, w):
    rows = {
        (x, y): [w * box_a.p(a, b, x, y) + (1 - w) * box_b.p(a, b, x, y)
                 for a in range(2) for b in range(2)]
        for x in range(2) for y in range(2)
    }
    return ab.box_from_rows(rows)


show("PR box", ab.classify(ab.pr_box()))
print()
show("uniform noise", ab.classify(ab.uniform_box()))
print()

# Isotropic mixtures of PR and noise: at weight 1/2 the CHSH value is
# exactly the local bound and the LP finds a decomposition; at 3/4 the
# box is nonlocal but none of the obstructions applies.
show("1/2 PR + 1/2 noise", ab.classify(mix(ab.pr_box(), ab.uniform_box(), F(1, 2))))
print()
show("3/4 PR + 1/4 noise", ab.classify(mix(ab.pr_box(), ab.uniform_box(), F(3, 4))))
print()

# A scrambled PR box matches no form as given; the relabel search finds
# the frame in which it does.
frame = ab.RelabelFrame((1, 0), (0, 1), ((1, 0), (0, 1)), ((0, 1), (1, 0)))
scrambled = ab.relabel(ab.pr_box(), frame)
show("scrambled PR, relabel search on",
     ab.classify(scrambled, relabel_search=True))
