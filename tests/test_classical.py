"""Partition models, certainty towers, exhaustive agreement verification."""

import json
from fractions import Fraction as F
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agreebox as ab
import agreebox.classical as classical
from test_boxes import json_values, with_field


def two_state_model():
    return ab.make_model([F(1, 2), F(1, 2)], {0: [{0}, {1}]}, {0: [{0}, {1}]})


def crosswise_model():
    return ab.make_model(
        [F(1, 4)] * 4, {0: [{0, 1}, {2, 3}]}, {0: [{0, 2}, {1, 3}]}
    )


# ---------------------------------------------------------------------------
# model construction

def test_measure_must_sum_to_one():
    with pytest.raises(ab.StructuralError):
        ab.make_model([F(1, 2), F(1, 4)], {0: [{0}, {1}]}, {0: [{0, 1}]})


def test_partitions_must_cover_and_not_overlap():
    with pytest.raises(ab.StructuralError):
        ab.make_model([F(1, 2), F(1, 2)], {0: [{0}]}, {0: [{0, 1}]})
    with pytest.raises(ab.StructuralError):
        ab.make_model([F(1, 2), F(1, 2)], {0: [{0, 1}, {1}]}, {0: [{0, 1}]})


def test_signed_flag():
    m = ab.make_model([F(3, 2), F(-1, 2)], {0: [{0}, {1}]}, {0: [{0, 1}]})
    assert m.signed
    assert not two_state_model().signed


# ---------------------------------------------------------------------------
# towers

def test_tower_each_agent_sees_the_state():
    ev = ab.EventPair(frozenset({1}), frozenset({1}))
    result = ab.tower(two_state_model(), ev, 0, 0)
    assert result.A_N == result.B_N == frozenset({0})
    assert result.N == 0
    assert ab.common_certainty_at(two_state_model(), ev, 0, 0, 0)


def test_tower_crosswise_common_certainty_everywhere():
    ev = ab.EventPair(frozenset({0, 3}), frozenset({0, 3}))
    result = ab.tower(crosswise_model(), ev, F(1, 2), F(1, 2))
    assert result.A_N == result.B_N == frozenset({0, 1, 2, 3})
    assert ab.common_certainty_at(crosswise_model(), ev, F(1, 2), F(1, 2), 0)


def test_tower_wrong_value_empties_out():
    ev = ab.EventPair(frozenset({0, 3}), frozenset({0, 3}))
    result = ab.tower(crosswise_model(), ev, F(1, 2), F(1, 4))
    assert result.levels[0][1] == frozenset()
    assert result.A_N == result.B_N == frozenset()
    assert not ab.common_certainty_at(crosswise_model(), ev, F(1, 2), F(1, 4), 0)


def test_tower_rejects_signed_measures():
    m = ab.make_model([F(3, 2), F(-1, 2)], {0: [{0}, {1}]}, {0: [{0, 1}]})
    with pytest.raises(ab.PreconditionError):
        ab.tower(m, ab.EventPair(frozenset(), frozenset()), 0, 0)


def test_null_join_cell_is_named():
    m = ab.make_model(
        [F(1, 2), F(1, 2), F(0)], {0: [{0, 1}, {2}]}, {0: [{0}, {1, 2}]}
    )
    with pytest.raises(ab.PreconditionError, match=r"A cell 1 with B cell 1"):
        ab.tower(m, ab.EventPair(frozenset(), frozenset()), 0, 0)


def test_tower_stabilization_properties():
    # once stabilized with A_N nonempty, Alice is certain of B_N and
    # still assigns exactly qA to the event
    ev = ab.EventPair(frozenset({0, 3}), frozenset({0, 3}))
    m = crosswise_model()
    result = ab.tower(m, ev, F(1, 2), F(1, 2))
    A_N, B_N = result.A_N, result.B_N
    assert A_N
    assert classical.conditional_mass(m, B_N, A_N) == 1
    assert classical.conditional_mass(m, ev.EB, A_N) == F(1, 2)


def test_perfectly_correlated_events():
    m = ab.make_model([F(1, 2), F(1, 2), F(0)], {0: [{0, 1, 2}]}, {0: [{0, 1, 2}]})
    assert ab.perfectly_correlated(m, ab.EventPair(frozenset({0}), frozenset({0, 2})))
    assert not ab.perfectly_correlated(m, ab.EventPair(frozenset({0}), frozenset({1})))


# ---------------------------------------------------------------------------
# exhaustive verification

def test_verify_tiny():
    rep = ab.verify_agreement_theorem(2, 2)
    assert (rep.instances, rep.certainty_instances, rep.violations) == (46, 38, 0)
    assert rep.complete


def test_verify_small():
    rep = ab.verify_agreement_theorem(3, 2)
    assert (rep.instances, rep.certainty_instances, rep.violations) == (766, 566, 0)
    assert rep.max_iterations <= 3


def test_verify_iterations_stay_within_state_count():
    rep = ab.verify_agreement_theorem(3, 3)
    assert rep.violations == 0
    assert rep.max_iterations <= 3
    assert (rep.instances, rep.certainty_instances, rep.complete) == (2582, 1718, True)


def test_verify_full_report_at_four_states():
    rep = ab.verify_agreement_theorem(4, 2)
    assert (
        rep.instances, rep.certainty_instances, rep.violations,
        rep.complete, rep.max_iterations,
    ) == (10878, 7606, 0, True, 3)


def test_verify_full_report_at_five_states_denominator_three():
    rep = ab.verify_agreement_theorem(5, 3)
    assert (
        rep.instances, rep.certainty_instances, rep.violations,
        rep.complete, rep.max_iterations,
    ) == (1044630, 577590, 0, True, 3)


def test_verify_full_report_at_five_states_denominator_four():
    rep = ab.verify_agreement_theorem(5, 4)
    assert (
        rep.instances, rep.certainty_instances, rep.violations,
        rep.complete, rep.max_iterations,
    ) == (4096318, 1963758, 0, True, 4)


def plain_report(omega, dmax):
    """verify_agreement_theorem over every measure, with no orbit weights.

    Perfectly correlated event pairs are found by the mass of EA ^ EB
    rather than by listing subsets of the zero-mass states.
    """
    instances = certainty = violations = max_iters = 0
    for n in range(1, omega + 1):
        partitions = list(classical._set_partitions(n))
        for masses, _ in classical._measures(n, dmax):
            M = classical._subset_masses(masses)
            null_sets = [T for T in range(1 << n) if M[T] == 0]
            for blocksA in partitions:
                for blocksB in partitions:
                    joins = [(ca, cb) for ca in blocksA for cb in blocksB if ca & cb]
                    if any(M[ca & cb] == 0 for ca, cb in joins):
                        continue
                    for EA in range(1 << n):
                        for EB in (EA ^ T for T in null_sets):
                            for ca, cb in joins:
                                qa, qb = F(M[EB & ca], M[ca]), F(M[EA & cb], M[cb])
                                A, B, iters = classical._bit_tower(
                                    M, blocksA, blocksB, EA, EB,
                                    M[EB & ca], M[ca], M[EA & cb], M[cb],
                                )
                                instances += 1
                                max_iters = max(max_iters, iters)
                                if A & B & ca & cb:
                                    certainty += 1
                                    violations += qa != qb
    return ab.AgreementCheckReport(
        omega, dmax, instances, certainty, violations, True, max_iters
    )


@pytest.mark.parametrize("omega, dmax", [(4, 3), (4, 4), (5, 2)])
def test_weighted_sorted_measures_match_the_plain_enumeration(omega, dmax):
    assert ab.verify_agreement_theorem(omega, dmax) == plain_report(omega, dmax)


def test_orbit_weights_of_sorted_measures_count_every_measure():
    for n in range(1, classical.HARD_OMEGA_CAP + 1):
        for d in range(1, classical.HARD_DENOM_CAP + 1):
            measures = list(classical._measures(n, d))
            weights = [
                factorial(n) // len(classical._stabilizer(masses))
                for masses, _ in measures
                if list(masses) == sorted(masses)
            ]
            assert sum(weights) == len(measures)


def test_pair_orbits_partition_the_partition_pairs():
    # G, the state permutations that fix a sorted measure, moves each
    # representative pair onto every member of its orbit: the orbits
    # together reach each pair exactly once, and each size divides |G|.
    # This holds on all partitions and on those with no zero-mass cell,
    # the only ones verify_agreement_theorem passes: a zero-mass cell
    # makes a null join with every partition.
    for n in range(1, 6):
        partitions = list(classical._set_partitions(n))
        for masses in {masses for masses, _ in classical._measures(n, 4)}:
            if list(masses) != sorted(masses):
                continue
            M = classical._subset_masses(masses)
            group = classical._stabilizer(masses)
            assert len({tuple(g) for g in group}) == len(group) == prod(
                factorial(masses.count(k)) for k in set(masses)
            )
            assert all(M[g[bits]] == M[bits] for g in group for bits in range(1 << n))
            live = [p for p in partitions if all(M[c] for c in p)]
            for p in partitions:
                if p not in live:
                    assert all(
                        any(M[c & c2] == 0 for c in p for c2 in q if c & c2)
                        for q in partitions
                    )
            for chosen in (partitions, live):
                index = {frozenset(p): i for i, p in enumerate(chosen)}
                reached, sizes = [], []
                for blocksA, blocksB, size in classical._pair_orbits(chosen, group):
                    assert len(group) % size == 0
                    orbit = {
                        (index[frozenset(g[c] for c in blocksA)],
                         index[frozenset(g[c] for c in blocksB)])
                        for g in group
                    }
                    assert len(orbit) == size
                    reached += orbit
                    sizes.append(size)
                assert sum(sizes) == len(chosen) ** 2
                assert sorted(reached) == [
                    (i, j) for i in range(len(chosen)) for j in range(len(chosen))
                ]


def test_verify_clamps_and_flags_incomplete(monkeypatch):
    monkeypatch.setattr(classical, "HARD_OMEGA_CAP", 2)
    monkeypatch.setattr(classical, "HARD_DENOM_CAP", 2)
    rep = classical.verify_agreement_theorem(5, 5)
    assert (rep.bound_omega, rep.denominator_bound) == (2, 2)
    assert not rep.complete


def test_verify_cross_check_runs(monkeypatch):
    # a dense stride forces many reference-tower comparisons
    monkeypatch.setattr(classical, "CROSS_CHECK_STRIDE", 1)
    rep = classical.verify_agreement_theorem(2, 2)
    assert rep.violations == 0


def test_verify_cross_check_runs_at_the_default_stride(monkeypatch):
    # however few instances a fold leaves, the first one is rechecked
    calls = []
    reference = classical._cross_check

    def counted(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(classical, "_cross_check", counted)
    classical.verify_agreement_theorem(4, 2)
    assert calls


@pytest.mark.parametrize("omega, dmax", [(-3, 2), (4, 0), (0, -1)])
def test_verify_refuses_bounds_below_one(omega, dmax):
    # an empty enumeration would report complete with no instance
    with pytest.raises(ValueError, match="at least 1"):
        classical.verify_agreement_theorem(omega, dmax)


def test_verify_cross_check_catches_a_wrong_fast_tower(monkeypatch):
    fast_tower = classical._bit_tower

    def flipped(*args):
        A, B, iters = fast_tower(*args)
        return A ^ 1, B, iters

    monkeypatch.setattr(classical, "_bit_tower", flipped)
    monkeypatch.setattr(classical, "CROSS_CHECK_STRIDE", 1)
    with pytest.raises(RuntimeError, match="disagrees with the reference tower"):
        classical.verify_agreement_theorem(2, 2)


@st.composite
def models_with_null_states(draw, min_null=1):
    """An unsigned model with min_null or more zero-mass states and no null
    join cell.

    A join cell is null exactly when all its states have zero mass, so each
    zero-mass state takes both cell labels of some positive state.
    """
    masses = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    labels_a = [draw(st.integers(0, 2)) for _ in masses]
    labels_b = [draw(st.integers(0, 2)) for _ in masses]
    for _ in range(draw(st.integers(min_null, 3))):
        partner = draw(st.integers(0, len(masses) - 1))
        labels_a.append(labels_a[partner])
        labels_b.append(labels_b[partner])
    masses += [0] * (len(labels_a) - len(masses))
    # state w of the model is state order[w] above
    order = draw(st.permutations(range(len(masses))))
    states = range(len(order))

    def cells(labels):
        return [{w for w in states if labels[order[w]] == k} for k in set(labels)]

    total = sum(masses)
    return ab.make_model(
        [F(masses[order[w]], total) for w in states],
        {0: cells(labels_a)},
        {0: cells(labels_b)},
    )


@settings(max_examples=150, deadline=None)
@given(models_with_null_states(), st.data())
def test_a_null_difference_between_the_events_leaves_the_tower_unchanged(model, data):
    # verify_agreement_theorem runs (E, E) once for every (E, E ^ T) with T
    # null; the reference tower must agree that they are one instance
    n = model.omega_count
    null_states = [w for w in range(n) if model.measure[w] == 0]
    E = frozenset(data.draw(st.sets(st.sampled_from(range(n)))))
    T = frozenset(data.draw(st.sets(st.sampled_from(null_states), min_size=1)))
    qA = classical.conditional_mass(model, E, data.draw(st.sampled_from(model.partsA[0])))
    qB = classical.conditional_mass(model, E, data.draw(st.sampled_from(model.partsB[0])))
    levels = ab.tower(model, ab.EventPair(E, E), qA, qB).levels
    for events in (ab.EventPair(E, E ^ T), ab.EventPair(E ^ T, E)):
        assert ab.perfectly_correlated(model, events)
        assert ab.tower(model, events, qA, qB).levels == levels


@settings(max_examples=150, deadline=None)
@given(models_with_null_states(min_null=0), st.data())
def test_complementary_events_give_the_same_tower(model, data):
    # verify_agreement_theorem runs one of E and its complement, since
    # P(~E | cell) = 1 - P(E | cell) picks the same level-0 cells
    states = frozenset(range(model.omega_count))
    E = frozenset(data.draw(st.sets(st.sampled_from(sorted(states)))))
    qA = classical.conditional_mass(model, E, data.draw(st.sampled_from(model.partsA[0])))
    qB = classical.conditional_mass(model, E, data.draw(st.sampled_from(model.partsB[0])))
    levels = ab.tower(model, ab.EventPair(E, E), qA, qB).levels
    complement = ab.EventPair(states - E, states - E)
    assert ab.tower(model, complement, 1 - qA, 1 - qB).levels == levels


def test_subset_mass_table_matches_plain_sums():
    for n in range(1, 5):
        for masses, _ in classical._measures(n, 3):
            table = classical._subset_masses(masses)
            assert len(table) == 1 << n
            for bits in range(1 << n):
                assert table[bits] == sum(masses[w] for w in range(n) if bits >> w & 1)


# ---------------------------------------------------------------------------
# JSON

def test_model_json_roundtrip():
    m = crosswise_model()
    again = ab.model_from_json(ab.model_to_json(m))
    assert again == m


MODEL_FIELDS = [("omega",), ("P",), ("P", 1), ("partsA",), ("partsA", "0"), ("partsA", "0", 1),
                ("partsB", "0", 0, 0), ("partsB", "x"), ("signed",)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODEL_FIELDS), json_values)
def test_any_json_value_in_a_model_field_gives_a_model_or_an_agreebox_error(path, value):
    doc = with_field(classical.model_doc(crosswise_model()), path, value)
    try:
        assert isinstance(ab.model_from_json(json.dumps(doc)), ab.OntologicalModel)
    except ab.AgreeboxError:
        pass


@pytest.mark.parametrize("field, value", [("partsA", []), ("partsA", {"0": [5, [1]]}),
                                          ("omega", "x"), ("partsB", {"0": [[[0]], [1]]})],
                         ids=["parts-list", "cell-number", "omega-text", "nested-cell"])
def test_malformed_model_documents_are_parse_errors(field, value):
    doc = json.loads(ab.model_to_json(two_state_model()))
    doc[field] = value
    with pytest.raises(ab.ParseError):
        ab.model_from_json(json.dumps(doc))


def test_model_json_shape():
    doc = json.loads(ab.model_to_json(two_state_model()))
    assert doc["omega"] == 2
    assert doc["P"] == ["1/2", "1/2"]
    assert doc["partsA"] == {"0": [[0], [1]]}
    assert doc["signed"] is False
