"""The exact locality LP above 2222 against SciPy's HiGHS.

Seeded boxes are drawn over the shapes of SHAPES_ABOVE_2222, all far from
the local boundary, so that a float LP can be trusted on them.  Every
other box is a local mixture of one to five deterministic strategies with
weights 1 to 6; the rest mix such a mixture with the lifted PR box at
lambda = k/16, k from 12 to 16, which keeps CHSH above 2 on inputs 0, 1.
On each box is_local's verdict must equal HiGHS's, and feasible_nonneg
on the shape's shared tree of pivot paths (the one is_local keeps, which
a new box leaves and then restarts from) must return the same (ok, v, d)
as a solve with no tree.  The tier-1 test takes 200 boxes; run this file
to check 4,000:

    PYTHONPATH=src python tests/test_highs_oracle.py
"""

import random
import sys
from fractions import Fraction as F
from itertools import product

import agreebox as ab
from agreebox.bridge import _shape_system
from agreebox.simplexq import feasible_nonneg
from test_bridge import SHAPES_ABOVE_2222, highs_local, lifted_pr_over

SEED = 20261022
FULL_BOXES = 4000


def draw_box(rng, shape, mixed):
    """A local mixture of deterministic strategies on shape; if mixed, the
    lifted PR box mixed with it at lambda = k/16 >= 3/4."""
    nA, nB, nX, nY = shape
    strategies = [
        (tuple(rng.randrange(nA) for _ in range(nX)),
         tuple(rng.randrange(nB) for _ in range(nY)),
         rng.randint(1, 6))
        for _ in range(rng.randint(1, 5))
    ]
    total = sum(w for _, _, w in strategies)
    entries = dict.fromkeys(product(range(nA), range(nB), range(nX), range(nY)), F(0))
    for alpha, beta, w in strategies:
        for x, y in product(range(nX), range(nY)):
            entries[(alpha[x], beta[y], x, y)] += F(w, total)
    box = ab.make_box(*shape, entries)
    return lifted_pr_over(box, F(rng.randint(12, 16), 16)) if mixed else box


def oracle_run(count, seed):
    """(boxes, nonlocal boxes, disagreements) over count seeded boxes; a
    disagreement is a box on which HiGHS, is_local, the shared tree and
    the solve without one do not all give the same answer."""
    rng = random.Random(seed)
    nonlocal_boxes = disagreements = 0
    for i in range(count):
        shape = rng.choice(SHAPES_ABOVE_2222)
        box = draw_box(rng, shape, mixed=i % 2 == 1)
        _, labels, M, paths, _ = _shape_system(*shape)
        c = [box.num[key] for key in labels]
        fresh = feasible_nonneg(M, c, {})
        along_tree = feasible_nonneg(M, c, paths)
        local = ab.is_local(box).local
        nonlocal_boxes += not local
        disagreements += not (local == highs_local(box) == fresh[0] and along_tree == fresh)
    return count, nonlocal_boxes, disagreements


def test_is_local_and_the_shared_tree_agree_with_highs():
    assert oracle_run(200, SEED) == (200, 100, 0)


if __name__ == "__main__":
    got = oracle_run(FULL_BOXES, SEED)
    print("boxes %d, nonlocal %d, disagreements %d" % got)
    sys.exit(got != (FULL_BOXES, FULL_BOXES // 2, 0))
