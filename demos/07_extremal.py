"""
Which extremal no-signaling boxes let two observers agree to disagree?

For two inputs and d outputs per party, every nonlocal vertex of the
no-signaling polytope is a local relabeling of

    p(a, b | x, y) = 1/k  if a, b < k and (b - a) mod k = xy,  else 0,

for some 2 <= k <= d (Barrett, Linden, Massar, Pironio, Popescu and
Roberts, PRA 71, 022101, 2005); k = d = 2 is the PR box.  Each vertex is
moved through every frame of all_frames, and the frames in which it
carries common certainty of disagreement (CCD) or singular disagreement
(SD) are counted.  Every class carries both in some frame.

classify(..., relabel_search=True) tries the 64 frames of a 2x2x2x2 box,
identity first, and reports the first one in which the box matches the
CCD or SD form.
"""

from fractions import Fraction as F
from itertools import product

import agreebox as ab


def vertex(k, d):
    """The nonlocal vertex of class k on d outputs per party, two inputs each."""
    return ab.make_box(d, d, 2, 2, {
        (a, b, x, y): F(1, k) if a < k and b < k and (b - a) % k == x * y else 0
        for a, b, x, y in product(range(d), range(d), range(2), range(2))
    })


print("vertex        frames    CCD    SD")
for k, d in [(2, 2), (2, 3), (3, 3)]:
    box = vertex(k, d)
    assert ab.validate(box).ok and ab.is_local(box).local is False
    frames = ccd = sd = 0
    for frame in ab.all_frames(box):
        report = ab.detect_ccd(ab.relabel(box, frame))
        frames += 1
        ccd += report.ccd
        sd += report.sd
    print(f"k={k}, d={d}  {frames:>8,}  {ccd:>5}  {sd:>4}")

print()
print("the PR box (k = d = 2) under classify(..., relabel_search=True):")
verdict = ab.classify(vertex(2, 2), relabel_search=True)
print(f"  frame: {verdict.frame}")
for form in (verdict.ccd_form, verdict.sd_form):
    r, s, t, u = form.params
    print(f"  {form.kind} form: r={r} s={s} t={t} u={u}, constraints ok = {form.constraints_ok}")
print(f"  local: {verdict.local}, conclusion: {verdict.conclusion.value}")
