"""The relabel search of classify, pinned verdict by verdict.

Every valid CCD- and SD-form box with r, s, t, u in {k/8} is moved
through every frame of all_frames, and each moved box is classified with
relabel_search=True.  The sha256 of the verdict documents, concatenated in
that order, fixes which frame the search picks, the forms it matches there
and every other field of each verdict.  The tier-1 test takes a thin
subset; run this file to check the full grid (720 boxes, 46,080 verdicts):

    PYTHONPATH=src python tests/test_relabel_search.py
"""

import hashlib
import sys
from fractions import Fraction as F
from itertools import product

import agreebox as ab
from agreebox.classify import _CCD_ZEROS, _SD_ZEROS
from agreebox.families import _KEYS_2222, _ccd_nums, _sd_nums

FULL_DIGEST = "2e92d0cc5e5db86fc37aec6e3fae2a5e10f98036c8aed6a2730ece3c5e1b1b1b"
THIN_STRIDE = 16


def k8_boxes():
    """The 720 valid CCD- and SD-form boxes with r, s, t, u in {k/8}, ccd first."""
    return [
        box
        for maker in (ab.ccd_table_box, ab.sd_table_box)
        for params in product(range(9), repeat=4)
        for box in [maker(*(F(k, 8) for k in params))]
        if ab.validate(box).ok
    ]


def relabel_digest(boxes):
    """(verdicts, sha256) over every frame of every box, in all_frames order."""
    digest = hashlib.sha256()
    count = 0
    for box in boxes:
        for frame in ab.all_frames(box):
            verdict = ab.classify(ab.relabel(box, frame), relabel_search=True)
            digest.update(ab.verdict_to_json(verdict).encode("utf-8"))
            count += 1
    return count, digest.hexdigest()


def test_relabel_search_verdicts_on_a_thin_k8_subset_are_pinned():
    boxes = k8_boxes()
    assert len(boxes) == 720
    assert relabel_digest(boxes[::THIN_STRIDE]) == (
        2880, "eb6ee391988ccbec1019942c2fa58562acc9ab492921c0c498193578d998dd8e"
    )


def test_each_form_is_zero_at_the_keys_the_search_checks_first():
    # the search turns a frame away when it has a nonzero entry at one of
    # these keys, before it builds the form: each must be zero in the form
    # for every r, s, t and u, valid or not
    for entries, zeros in ((_ccd_nums, _CCD_ZEROS), (_sd_nums, _SD_ZEROS)):
        assert len(set(zeros)) == 4
        for params in product(range(-1, 10), repeat=4):
            num = dict(zip(_KEYS_2222, entries(8, *params)))
            assert [num[key] for key in zeros] == [0] * 4


if __name__ == "__main__":
    got = relabel_digest(k8_boxes())
    print(*got)
    sys.exit(got != (46080, FULL_DIGEST))
