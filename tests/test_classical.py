"""Partition models, certainty towers, exhaustive agreement verification."""

import json
from fractions import Fraction as F
from itertools import product
from math import factorial, gcd, prod

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


def test_tower_reads_its_values_as_rat_reads_them():
    # ten states of mass 1/10 and one cell each: P(E | cell) = 1/10, which a
    # float 0.1 is read as, not its binary value
    m = ab.make_model([F(1, 10)] * 10, {0: [set(range(10))]}, {0: [set(range(10))]})
    ev = ab.EventPair(frozenset({0}), frozenset({0}))
    result = ab.tower(m, ev, 0.1, "1/10")
    assert result == ab.tower(m, ev, F(1, 10), F(1, 10))
    assert result.levels[0] == (frozenset(range(10)), frozenset(range(10)))


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


@pytest.mark.parametrize("party", ["A", "B"])
def test_tower_needs_an_input_0_partition_for_both_parties(party):
    parts = {0: [{0}, {1}]}
    other = {1: [{0}, {1}]}
    m = ab.make_model([F(1, 2), F(1, 2)], other if party == "A" else parts,
                      other if party == "B" else parts)
    with pytest.raises(ab.PreconditionError, match="input-0 partitions for both parties"):
        ab.tower(m, ab.EventPair(frozenset(), frozenset()), 0, 0)


def test_conditional_mass_on_a_null_set_is_a_precondition_error():
    m = ab.make_model([F(1, 2), F(1, 2), F(0)], {0: [{0, 1, 2}]}, {0: [{0, 1, 2}]})
    assert classical.conditional_mass(m, {0}, {0, 2}) == 1
    with pytest.raises(ab.PreconditionError, match="conditioning on a null state set"):
        classical.conditional_mass(m, {0}, {2})
    with pytest.raises(ab.PreconditionError, match="conditioning on a null state set"):
        classical.conditional_mass(m, {0}, set())


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


def every_measure(n, dmax):
    """Every integer mass vector on n states, one per measure with
    denominator d <= dmax, in order of d, then lexicographic: the
    vectors in range(d + 1)^n that sum to d with gcd 1."""
    return [
        masses
        for d in range(1, dmax + 1)
        for masses in product(range(d + 1), repeat=n)
        if sum(masses) == d and gcd(*masses) == 1
    ]


def every_partition(n):
    """Every partition of range(n), as a frozenset of cell bitmasks: the
    distinct cell sets of all n^n labelings of the states."""
    return {
        frozenset(sum(1 << w for w in range(n) if labels[w] == k) for k in set(labels))
        for labels in product(range(n), repeat=n)
    }


def plain_report(omega, dmax):
    """verify_agreement_theorem over every measure, with no orbit weights.

    Measures and partitions come from every_measure and every_partition,
    not from the generators under test.  Perfectly correlated event pairs
    are found by the mass of EA ^ EB rather than by listing subsets of the
    zero-mass states.
    """
    instances = certainty = violations = max_iters = 0
    for n in range(1, omega + 1):
        partitions = [tuple(p) for p in every_partition(n)]
        for masses in every_measure(n, dmax):
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
            weights = [
                factorial(n) // len(classical._stabilizer(masses))
                for masses in classical._measures(n, d)
            ]
            assert sum(weights) == len(every_measure(n, d))


def test_measures_are_the_nondecreasing_members_of_every_measure():
    for n in range(1, classical.HARD_OMEGA_CAP + 1):
        for d in range(1, classical.HARD_DENOM_CAP + 1):
            assert list(classical._measures(n, d)) == [
                masses for masses in every_measure(n, d) if list(masses) == sorted(masses)
            ]


def test_set_partitions_are_every_partition_in_restricted_growth_order():
    for n, bell in enumerate([1, 2, 5, 15, 52, 203, 877], start=1):
        partitions = classical._set_partitions(n)
        assert len(partitions) == bell
        strings = []
        for blocks in partitions:
            union = 0
            for c in blocks:
                assert c and not c & union
                union |= c
            assert union == (1 << n) - 1
            # cells numbered by least state
            assert [c & -c for c in blocks] == sorted(c & -c for c in blocks)
            strings.append([next(k for k, c in enumerate(blocks) if c >> w & 1) for w in range(n)])
        assert strings == sorted(strings) and len(set(map(tuple, strings))) == bell
        if n <= 6:
            assert set(map(frozenset, partitions)) == every_partition(n)


def test_pair_orbits_partition_the_partition_pairs():
    # G, the state permutations that fix a sorted measure, moves each
    # representative pair onto every member of its orbit: the orbits
    # together reach each pair exactly once, and each size divides |G|.
    # This holds on all partitions and on those with no zero-mass cell,
    # the only ones verify_agreement_theorem passes: a zero-mass cell
    # makes a null join with every partition.
    for n in range(1, 6):
        partitions = list(classical._set_partitions(n))
        for masses in classical._measures(n, 4):
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
    # however few instances a fold leaves, the first one is rechecked; the
    # stride runs over the enumerated instances in enumeration order, so a
    # change to what is enumerated, or in which order, moves these counts
    calls = []
    reference = classical._cross_check

    def counted(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(classical, "_cross_check", counted)
    for omega, dmax, rechecks in [(4, 2, 1), (4, 3, 5), (4, 4, 20), (5, 4, 50), (6, 4, 108)]:
        calls.clear()
        classical.verify_agreement_theorem(omega, dmax)
        assert len(calls) == rechecks, (omega, dmax)


def test_max_iterations_follows_the_smaller_bound():
    # the rounds the certainty tower needs to settle: 1 when one state or
    # one denominator leaves every tower trivial, 3 while min(omega, d) is
    # 2 or 3, and min(omega, d) from 4 on
    for omega in range(1, classical.HARD_OMEGA_CAP + 1):
        for dmax in range(1, classical.HARD_DENOM_CAP + 1):
            m = min(omega, dmax)
            law = 1 if m == 1 else 3 if m <= 3 else m
            assert ab.verify_agreement_theorem(omega, dmax).max_iterations == law


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
        for masses in every_measure(n, 3):
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


# int() would read "2" as 2 and an input key "+0" or " 0 " as 0; true == 1
# would name state 1 and be written back as true
@pytest.mark.parametrize("field, value", [
    ("partsA", []), ("partsA", {"0": [5, [1]]}), ("omega", "x"), ("partsB", {"0": [[[0]], [1]]}),
    ("omega", "2"), ("partsA", {"0": [[0], [True]]}),
    ("partsB", {"+0": [[0], [1]]}), ("partsB", {" 0 ": [[0], [1]]}), ("partsB", {"٠": [[0], [1]]}),
], ids=["parts-list", "cell-number", "omega-text", "nested-cell",
        "omega-digit-text", "cell-bool", "key-plus", "key-spaces", "key-arabic-indic-digit"])
def test_malformed_model_documents_are_parse_errors(field, value):
    doc = json.loads(ab.model_to_json(two_state_model()))
    doc[field] = value
    with pytest.raises(ab.ParseError):
        ab.model_from_json(json.dumps(doc))


@pytest.mark.parametrize("omega", [1, 3])
def test_an_omega_that_is_not_the_measure_length_is_a_structural_error(omega):
    doc = json.loads(ab.model_to_json(two_state_model()))
    doc["omega"] = omega
    with pytest.raises(ab.StructuralError, match="omega does not match the measure length"):
        ab.model_from_json(json.dumps(doc))


def test_a_bool_omega_is_a_parse_error():
    # int() would read true as 1, the count of this model's one state
    doc = json.loads(ab.model_to_json(ab.make_model([1], {0: [{0}]}, {0: [{0}]})))
    doc["omega"] = True
    with pytest.raises(ab.ParseError):
        ab.model_from_json(json.dumps(doc))


@pytest.mark.parametrize("value", ["true", 1, 0, None, [], {}],
                         ids=["text", "one", "zero", "null", "list", "object"])
def test_a_signed_field_that_is_not_a_bool_is_a_parse_error(value):
    doc = json.loads(ab.model_to_json(two_state_model()))
    doc["signed"] = value
    with pytest.raises(ab.ParseError, match="signed is not a boolean"):
        ab.model_from_json(json.dumps(doc))


def signed_model():
    return ab.make_model([F(3, 2), F(-1, 2)], {0: [{0}, {1}]}, {0: [{0, 1}]})


@pytest.mark.parametrize("model", [two_state_model(), signed_model()], ids=["unsigned", "signed"])
def test_a_signed_field_that_contradicts_the_measure_is_a_structural_error(model):
    # before, the field was never read: a one-state document with
    # "signed": true read as a model with signed False
    doc = json.loads(ab.model_to_json(model))
    doc["signed"] = not model.signed
    with pytest.raises(ab.StructuralError, match="signed does not match"):
        ab.model_from_json(json.dumps(doc))


@pytest.mark.parametrize("model", [two_state_model(), signed_model()], ids=["unsigned", "signed"])
def test_a_missing_signed_field_is_read_off_the_measure(model):
    doc = json.loads(ab.model_to_json(model))
    assert ab.model_from_json(json.dumps(doc)) == model
    del doc["signed"]
    assert ab.model_from_json(json.dumps(doc)) == model


def test_a_model_document_with_a_byte_order_mark_is_a_parse_error():
    with pytest.raises(ab.ParseError, match="BOM"):
        ab.model_from_json("\ufeff" + ab.model_to_json(two_state_model()))


def test_two_input_keys_naming_one_input_are_a_structural_error():
    doc = json.loads(ab.model_to_json(two_state_model()))
    doc["partsA"]["00"] = [[0, 1], []]
    with pytest.raises(ab.StructuralError, match="'0' and '00'"):
        ab.model_from_json(json.dumps(doc))


def test_an_input_key_with_leading_zeros_names_its_input():
    doc = json.loads(ab.model_to_json(two_state_model()))
    doc["partsA"] = {"01": doc["partsA"]["0"]}
    assert ab.model_from_json(json.dumps(doc)).partsA == {1: (frozenset({0}), frozenset({1}))}


def test_model_json_shape():
    doc = json.loads(ab.model_to_json(two_state_model()))
    assert doc["omega"] == 2
    assert doc["P"] == ["1/2", "1/2"]
    assert doc["partsA"] == {"0": [[0], [1]]}
    assert doc["signed"] is False
