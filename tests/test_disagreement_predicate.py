"""detect_ccd is the one disagreement predicate; the table forms describe.

classify and the form matchers read common certainty of disagreement
(CCD) and singular disagreement (SD) from epistemic.detect_ccd alone, and
a matched form's constraints_ok is that report's answer.  Two facts make
this the answer the caption constraints of families gave before:

* Per form, on any box, valid or not.  On the CCD form qA = s/r and
  qB = (r - t + u)/r, and output 0 survives every level because
  p(01|00) = p(10|00) = 0, so CCD holds iff r > 0 and s - u != r - t.  On
  the SD form the marginals behind qA and qB are s + t and 1 - u - t and
  the witness is s, so SD holds iff s > 0, s + t != 0 and u + t != 1.
* Conversely, on valid 2x2x2x2 boxes, CCD forces the CCD form's zeros,
  and no-signaling and normalization then fix the rest of it; SD's
  definition is the SD form's four zeros.

The tier-1 tests take the k/4 and k/5 grids and a seeded sample of
mixtures of the 24 no-signaling vertices.  Run this file to check the
k/7 and k/8 grids (49,282 forms) and 20,000 mixtures in every 7th frame
(200,000 boxes, 6,799 of them with CCD or SD), in about 20 s:

    PYTHONPATH=src python tests/test_disagreement_predicate.py
"""

import random
import sys
from fractions import Fraction as F
from itertools import islice, product

import agreebox as ab

FULL_GRIDS = (7, 8)
FULL_MIXTURES = 20000
FULL_COUNTS = (49282, 200000, 6799, 0)
FRAME_STRIDE = 7
SEED = 20261020


def grid_forms(D):
    """Every CCD and SD form with r, s, t, u in {k/D : -1 <= k <= D + 1}:
    the form matches its own box, and constraints_ok is the caption's
    answer.  Returns the number of forms."""
    matched = 0
    for kind, maker, matcher in (("ccd", ab.ccd_table_box, ab.match_ccd_form),
                                 ("sd", ab.sd_table_box, ab.match_sd_form)):
        for ks in product(range(-1, D + 2), repeat=4):
            params = tuple(F(k, D) for k in ks)
            form = matcher(maker(*params))
            assert form.kind == kind and form.params == params, (kind, params)
            assert form.constraints_ok == (not ab.caption_violations(kind, *params)), (kind, params)
            matched += 1
    return matched


def vertices():
    """The 24 vertices of the 2x2x2x2 no-signaling polytope: the 16
    deterministic boxes and the 8 PR boxes a ^ b = xy ^ ax ^ by ^ c."""
    pr = [ab.make_box(2, 2, 2, 2, {
        (a, b, x, y): F(int(a ^ b == (x & y) ^ (al & x) ^ (be & y) ^ c), 2)
        for a, b, x, y in product(range(2), repeat=4)})
        for al, be, c in product(range(2), repeat=3)]
    return [ab.strategy_box(*s) for s in ab.deterministic_strategies()] + pr


def mixtures(count, seed):
    """Seeded mixtures of one to four distinct vertices, weights 1 to 8."""
    rng = random.Random(seed)
    verts = vertices()
    for _ in range(count):
        picks = rng.sample(verts, rng.randint(1, 4))
        ws = [rng.randint(1, 8) for _ in picks]
        total = sum(ws)
        yield ab.make_box(2, 2, 2, 2, {
            key: sum(F(w * v.num[key], total * v.den) for v, w in zip(picks, ws))
            for key in product(range(2), repeat=4)})


def mixture_frames(count, seed):
    """(boxes, boxes with CCD or SD, mismatches) over every 7th frame of
    each mixture: detect_ccd's ccd (sd) must hold exactly when the CCD
    (SD) form matches with the caption constraints on its params, and
    constraints_ok must be that answer in the form and in classify's verdict."""
    boxes = disagreeing = mismatches = 0
    for mix in mixtures(count, seed):
        for frame in islice(ab.all_frames(mix), 0, None, FRAME_STRIDE):
            box = ab.relabel(mix, frame)
            report = ab.detect_ccd(box)
            forms = ab.match_ccd_form(box), ab.match_sd_form(box)
            for kind, form, holds in zip(("ccd", "sd"), forms, (report.ccd, report.sd)):
                by_caption = form is not None and not ab.caption_violations(kind, *form.params)
                mismatches += holds != by_caption
                mismatches += form is not None and form.constraints_ok != holds
            if any(forms):
                # classify matches the same forms and fills them the same way
                mismatches += ab.classify(box)[1:3] != forms
            boxes += 1
            disagreeing += report.ccd or report.sd
    return boxes, disagreeing, mismatches


def test_constraints_ok_is_the_caption_on_every_k4_and_k5_form():
    # 7^4 and 8^4 parameter tuples per family, invalid boxes included
    assert grid_forms(4) + grid_forms(5) == 2 * (7 ** 4 + 8 ** 4)


def test_detect_ccd_holds_exactly_where_a_form_matches_with_its_constraints():
    assert mixture_frames(1000, SEED) == (10000, 342, 0)


def test_sd_alone_makes_a_box_postquantum_below_the_hardy_bound():
    # p(00|00) = 1/20 is under the quantum Hardy maximum, the gap's premise
    # fails, and the box has no CCD: detect_ccd's sd alone decides
    box = ab.sd_table_box(F(1, 10), F(1, 20), F(1, 10), F(4, 5))
    report = ab.detect_ccd(box)
    assert (report.ccd, report.sd) == (False, True)
    verdict = ab.classify(box)
    assert (verdict.local, verdict.tsirelson_gap, verdict.hardy) == (False, None, True)
    assert verdict.sd_form.constraints_ok and verdict.ccd_form is None
    assert verdict.conclusion == ab.Conclusion.POSTQUANTUM


def test_the_sample_covers_all_24_vertices_and_each_is_valid():
    verts = vertices()
    assert len({ab.box_to_json(v) for v in verts}) == 24
    assert all(ab.validate(v).ok for v in verts)
    assert sum(not ab.is_local(v).local for v in verts) == 8


if __name__ == "__main__":
    forms = sum(grid_forms(D) for D in FULL_GRIDS)
    got = (forms, *mixture_frames(FULL_MIXTURES, SEED))
    print("forms %d, boxes %d, with CCD or SD %d, mismatches %d" % got)
    sys.exit(got != FULL_COUNTS)
