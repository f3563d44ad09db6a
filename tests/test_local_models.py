"""A local verdict is a classical model, and locality ignores who is who.

The paper carries Aumann's agreement theorem from classical partition
models over to boxes.  Here is_local's weights on a local box are read
as such a model, through the public make_model: its states are the
deterministic strategies of positive weight, and each party's cell at
input x holds the strategies that answer that output there.  The model's
certainty tower (classical.tower) over the events "output 1 at input 1"
must then be the box's hierarchy (epistemic.hierarchy) level by level,
and where the premise of the theorem holds the two assignments must
agree.  The party swap q(b, a | y, x) = p(a, b | x, y) must leave
locality and the relabel-search verdict as they are.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import agreebox as ab
from agreebox.bridge import instruction_states
from test_acceptance import sample_local_boxes
from test_relabel_search import k8_boxes


def local_model(box):
    """is_local's weights on a local box as a partition model."""
    weights = ab.is_local(box).weights
    strategies = [s for s, _ in weights]

    def parts(side, inp, outputs):
        return [{w for w, s in enumerate(strategies) if s[side][inp] == o} for o in range(outputs)]

    return ab.make_model([w for _, w in weights],
                         {x: parts(0, x, box.nA) for x in range(box.nX)},
                         {y: parts(1, y, box.nB) for y in range(box.nY)})


def tower_is_hierarchy(box):
    """None when qA or qB is undefined; else assert that the tower of the
    model is the box's hierarchy and return whether the premise holds."""
    report = ab.detect_ccd(box)
    h = report.hierarchy
    if h.qA is None or h.qB is None:
        return None
    model = local_model(box)
    assert ab.model_to_box(model) == box
    events = ab.EventPair(model.partsA[1][1], model.partsB[1][1])
    result = ab.tower(model, events, h.qA, h.qB)

    def states(cells, outputs):
        return frozenset().union(*(cells[o] for o in outputs))

    assert result.N == h.N
    assert result.levels == tuple((states(model.partsA[0], a), states(model.partsB[0], b))
                                  for a, b in zip(h.alphas, h.betas))
    if (box.nA, box.nB) == (2, 2):
        # with two outputs, a = b at (1, 1) is the events' perfect correlation
        assert ab.perfectly_correlated(model, events) == report.perfectly_correlated
    premise = (report.perfectly_correlated and box.num[0, 0, 0, 0] > 0
               and 0 in h.alpha_N and 0 in h.beta_N)
    if premise:
        assert h.qA == h.qB
    return premise


def test_the_tower_of_each_local_k8_box_is_its_hierarchy():
    local = [box for box in k8_boxes() if ab.is_local(box).local]
    assert len(local) == 330
    premises = [tower_is_hierarchy(box) for box in local]
    assert sum(p is not None for p in premises) == 240
    assert sum(p is True for p in premises) == 156


def test_the_tower_of_each_random_local_mixture_is_its_hierarchy():
    premises = [tower_is_hierarchy(box) for box in sample_local_boxes(300, seed=20261021)]
    assert sum(p is not None for p in premises) == 298
    assert sum(p is True for p in premises) == 98


def local_mixtures(shape, count, seed):
    """Seeded mixtures of two to five deterministic strategies on shape,
    every other box drawn among those answering alike at input 1."""
    rng = random.Random(seed)
    states = instruction_states(*shape)
    alike = [s for s in states if s[0][1] == s[1][1]]
    for i in range(count):
        picks = rng.sample((states, alike)[i % 2], rng.randint(2, 5))
        ws = [rng.randint(1, 8) for _ in picks]
        entries = dict.fromkeys(product(*map(range, shape)), F(0))
        for (alpha, beta), w in zip(picks, ws):
            for x, y in product(range(shape[2]), range(shape[3])):
                entries[alpha[x], beta[y], x, y] += F(w, sum(ws))
        yield ab.make_box(*shape, entries)


@pytest.mark.parametrize("shape, defined, premise", [
    ((3, 2, 2, 2), 271, 28),
    ((2, 2, 3, 3), 321, 38),
], ids=["3222", "2233"])
def test_the_tower_of_each_local_mixture_beyond_2222_is_its_hierarchy(shape, defined, premise):
    premises = [tower_is_hierarchy(box) for box in local_mixtures(shape, 400, seed=20261022)]
    assert sum(p is not None for p in premises) == defined
    assert sum(p is True for p in premises) == premise


def swap(box):
    """The box with the parties exchanged: q(b, a | y, x) = p(a, b | x, y)."""
    return ab.Box(box.nB, box.nA, box.nY, box.nX, box.den,
                  {(b, a, y, x): n for (a, b, x, y), n in box.num.items()})


def test_the_party_swap_keeps_locality_and_the_relabel_search_verdict():
    # SD is directional (qA = 1, qB = 0), so plain classify can lose it
    # under the swap; the relabel search finds the mirrored frame
    plain_changes = 0
    for box in k8_boxes():
        swapped = swap(box)
        assert ab.validate(swapped).ok
        assert swap(swapped) == box
        assert ab.is_local(swapped).local == ab.is_local(box).local
        assert (ab.classify(swapped, relabel_search=True).conclusion
                == ab.classify(box, relabel_search=True).conclusion)
        plain_changes += ab.classify(swapped).conclusion != ab.classify(box).conclusion
    assert plain_changes == 114
