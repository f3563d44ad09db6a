"""Which extremal no-signaling boxes let the observers agree to disagree.

For two inputs and d outputs per party, every nonlocal vertex of the
no-signaling polytope is a local relabeling of

    p(a, b | x, y) = 1/k  if a, b < k and (b - a) mod k = xy,  else 0,

for some 2 <= k <= d (Barrett, Linden, Massar, Pironio, Popescu and Roberts,
PRA 71, 022101, 2005).  k = d = 2 is the PR box.  Each class is tried in
every frame of all_frames, and the frames that carry common certainty of
disagreement (CCD) and singular disagreement (SD) are counted.
"""

from fractions import Fraction as F
from itertools import product

import pytest

import agreebox as ab
from agreebox.classify import Conclusion


def vertex(k, d):
    """The nonlocal vertex of class k on d outputs per party, two inputs each."""
    return ab.make_box(d, d, 2, 2, {
        (a, b, x, y): F(1, k) if a < k and b < k and (b - a) % k == x * y else 0
        for a, b, x, y in product(range(d), range(d), range(2), range(2))
    })


def deterministic(a0, a1, b0, b1):
    """The local vertex where Alice answers a_x and Bob b_y."""
    return ab.make_box(2, 2, 2, 2, {
        (a, b, x, y): int(a == (a0, a1)[x] and b == (b0, b1)[y])
        for a, b, x, y in product(range(2), repeat=4)
    })


def disagreement_census(box):
    """(frames, frames with CCD, frames with SD) over all_frames."""
    frames = ccd = sd = 0
    for frame in ab.all_frames(box):
        report = ab.detect_ccd(ab.relabel(box, frame))
        frames += 1
        ccd += report.ccd
        sd += report.sd
    return frames, ccd, sd


@pytest.mark.parametrize("k, d, census", [
    (2, 2, (64, 16, 8)),
    (2, 3, (5184, 128, 64)),
    (3, 3, (5184, 192, 96)),
], ids=["PR", "k2-d3", "k3-d3"])
def test_every_nonlocal_vertex_carries_disagreement_in_some_frame(k, d, census):
    box = vertex(k, d)
    assert ab.validate(box).ok
    assert ab.is_local(box).local is False
    assert disagreement_census(box) == census


def test_the_two_output_vertex_is_the_pr_box():
    box = vertex(2, 2)
    assert any(ab.relabel(box, frame) == ab.pr_box() for frame in ab.all_frames(box))


def test_no_frame_of_a_deterministic_box_carries_disagreement():
    for answers in product(range(2), repeat=4):
        box = deterministic(*answers)
        assert ab.is_local(box).local
        assert disagreement_census(box) == (64, 0, 0), answers


def test_the_relabel_search_finds_the_pr_box_postquantum():
    assert ab.classify(vertex(2, 2), relabel_search=True).conclusion is Conclusion.POSTQUANTUM


@pytest.mark.xfail(strict=True, reason=(
    "classify reduces a box that is not 2x2x2x2 at fixed labels and searches "
    "frames only on the reduced box; ROADMAP item 10"))
@pytest.mark.parametrize("k", [2, 3])
def test_the_relabel_search_finds_the_three_output_vertices_postquantum(k):
    assert ab.classify(vertex(k, 3), relabel_search=True).conclusion is Conclusion.POSTQUANTUM
