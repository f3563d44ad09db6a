"""The quantum agreement theorem on an exact grid of two-qubit boxes.

Quantum observers cannot agree to disagree: no quantum box carries common
certainty of disagreement (CCD) or singular disagreement (SD).  The boxes
here meet the theorem's premise by construction.  Each party measures in
real bases at Pythagorean angles (rational cosine and sine, from
test_classifier's helpers), and the state is

    psi = alpha * u1 (x) v1 + beta * u1' (x) v1'

with integer alpha and beta and u1', v1' orthogonal to u1, v1.  Its only
amplitudes at inputs (1, 1) are on outputs (0, 0) and (1, 1), so every box
is rational and perfectly correlated at (1, 1), and qA and qB differ on
most of them.

Each box is checked through detect_ccd and classify, and so is a copy with
Alice's output 0 split at input 0 (local post-processing, so still
quantum).  The counts are pinned: boxes, boxes meeting the premise (qA and
qB defined, p(00|00) > 0), boxes with qA != qB, boxes where Alice's and
where Bob's output 0 survives to level N of the certainty hierarchy,
boxes on which a check finds CCD, boxes on which one finds SD, and boxes
with a POSTQUANTUM verdict.  The last three must be 0; the two survivor
counts fix the tower on boxes where no disagreement is at stake.  The
tier-1 test takes a thin grid; run this file to check the full grid
(65,610 boxes, about a minute and a half):

    PYTHONPATH=src python tests/test_quantum_agreement.py
"""

import sys
from fractions import Fraction as F
from itertools import product

import agreebox as ab
from test_classifier import kron, perp, pythagorean, qubit_box

# tan(theta / 2) for nine distinct directions theta in [0, pi), and ten
# (alpha, beta) that no sign or scale maps onto one another
FULL_ANGLES = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3))
FULL_PAIRS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1), (1, 3), (3, 1))
FULL_COUNTS = (65610, 62153, 48072, 12037, 12037, 0, 0, 0)
THIN_ANGLES = (F(0), F(1, 3), F(1), F(2), F(3))
THIN_PAIRS = ((1, 0), (1, 1), (1, -2), (3, 1))


def correlated_state(us, vs, alpha, beta):
    """alpha * u1 (x) v1 + beta * u1' (x) v1' as a vector of Q^4."""
    return [alpha * p + beta * q
            for p, q in zip(kron(us[1], vs[1]), kron(perp(us[1]), perp(vs[1])))]


def grid_counts(angles, pairs):
    """(boxes, premise, qA != qB, Alice's 0 survives, Bob's 0 survives, CCD,
    SD, POSTQUANTUM) over every choice of u0, u1, v0, v1 among the angles'
    vectors and (alpha, beta) among pairs."""
    vectors = [pythagorean(t) for t in angles]
    boxes = premise = unequal = alice = bob = ccd = sd = postquantum = 0
    for u0, u1, v0, v1 in product(vectors, repeat=4):
        us, vs = (u0, u1), (v0, v1)
        for alpha, beta in pairs:
            box = qubit_box(us, vs, correlated_state(us, vs, alpha, beta))
            assert ab.validate(box).ok and ab.is_perfectly_correlated(box, 1, 1), box
            boxes += 1
            report = ab.detect_ccd(box)
            h = report.hierarchy
            if h.qA is not None and h.qB is not None and box.num[0, 0, 0, 0] > 0:
                premise += 1
                unequal += h.qA != h.qB
            alice += 0 in h.alpha_N
            bob += 0 in h.beta_N
            split = ab.split_output(box)
            reports = (report, ab.detect_ccd(split))
            verdicts = (ab.classify(box), ab.classify(split))
            ccd += any(r.ccd for r in reports) or any(
                v.ccd_form is not None and v.ccd_form.constraints_ok for v in verdicts)
            sd += any(r.sd for r in reports) or any(
                v.sd_form is not None and v.sd_form.constraints_ok for v in verdicts)
            postquantum += any(v.conclusion is ab.Conclusion.POSTQUANTUM for v in verdicts)
    return boxes, premise, unequal, alice, bob, ccd, sd, postquantum


def test_no_qubit_box_on_the_thin_grid_agrees_to_disagree():
    # 5^4 bases times 4 states; most meet the premise and disagree in qA
    # and qB, and none carries CCD or SD or is called POSTQUANTUM
    assert grid_counts(THIN_ANGLES, THIN_PAIRS) == (2500, 2156, 1352, 604, 604, 0, 0, 0)


if __name__ == "__main__":
    got = grid_counts(FULL_ANGLES, FULL_PAIRS)
    print("boxes %d, premise %d, qA != qB %d, Alice's 0 survives %d, Bob's 0 survives %d, "
          "CCD %d, SD %d, POSTQUANTUM %d" % got)
    sys.exit(got != FULL_COUNTS)
