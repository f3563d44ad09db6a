"""Instruction-set models, box conversion in both directions, locality."""

import hashlib
from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agreebox as ab
from agreebox import bridge
from agreebox.bridge import (
    _shape_system,
    instruction_states,
    row_labels,
)
from agreebox.simplexq import feasible_nonneg


def rational_weights(n):
    return st.lists(
        st.integers(min_value=0, max_value=6), min_size=n, max_size=n
    ).filter(lambda ws: any(ws))


def local_mixture(ws):
    total = sum(ws)
    weighted = [
        (s, F(w, total))
        for s, w in zip(ab.deterministic_strategies(), ws)
        if w
    ]
    return ab.mix_strategies(weighted)


# ---------------------------------------------------------------------------
# the linear system

def test_state_enumeration_order_and_count():
    states = instruction_states(2, 2, 2, 2)
    assert len(states) == 16
    assert states[0] == ((0, 0), (0, 0))
    assert states[1] == ((0, 0), (0, 1))
    assert states[-1] == ((1, 1), (1, 1))


def test_state_budget():
    with pytest.raises(ab.BudgetError):
        instruction_states(4, 4, 4, 4)
    # 2**6 * 2**7 = 8192 states, one shape past the limit
    with pytest.raises(ab.BudgetError, match="8192"):
        instruction_states(2, 2, 6, 7)
    with pytest.raises(ab.BudgetError):
        ab.is_local(ab.uniform_box(2, 2, 6, 7))
    # 2**6 * 2**6 = 4096 states sits exactly at the limit
    assert ab.MAX_STATES == 4096
    assert len(instruction_states(2, 2, 6, 6)) == ab.MAX_STATES


def test_each_constraint_row_touches_the_right_states():
    # a row (a, b, x, y) selects states free in the other nX - 1 and
    # nY - 1 coordinates
    states, labels, M, *_ = _shape_system(2, 2, 2, 2)
    assert labels == row_labels(2, 2, 2, 2)
    assert len(M) == 16
    for i, (a, b, x, y) in enumerate(labels):
        assert sum(M[i]) == 4
        for k, (alpha, beta) in enumerate(states):
            assert M[i][k] == (1 if alpha[x] == a and beta[y] == b else 0)


# ---------------------------------------------------------------------------
# model -> box

def test_point_mass_model_gives_deterministic_box():
    # the lone state answers 0 to every question
    m = ab.make_model(
        [F(1)],
        {0: [{0}, set()], 1: [{0}, set()]},
        {0: [{0}, set()], 1: [{0}, set()]},
    )
    assert ab.model_to_box(m) == ab.strategy_box(0, 0, 0, 0)


def test_crosswise_model_gives_uniform_box():
    m = ab.make_model(
        [F(1, 4)] * 4,
        {0: [{0, 1}, {2, 3}], 1: [{0, 1}, {2, 3}]},
        {0: [{0, 2}, {1, 3}], 1: [{0, 2}, {1, 3}]},
    )
    assert ab.model_to_box(m) == ab.uniform_box()


def test_model_to_box_matches_cell_intersections():
    measure = [F(1, 8), F(1, 8), F(1, 4), F(1, 2)]
    partsA = {0: [{0, 1}, {2, 3}], 1: [{0, 3}, {1, 2}]}
    partsB = {0: [{0, 2}, {1, 3}], 1: [{0}, {1, 2, 3}]}
    box = ab.model_to_box(ab.make_model(measure, partsA, partsB))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    cell = partsA[x][a] & partsB[y][b]
                    assert box.p(a, b, x, y) == sum(
                        (measure[w] for w in cell), F(0)
                    )


def test_model_to_box_rejects_ragged_partitions():
    m = ab.make_model(
        [F(1, 2), F(1, 2)], {0: [{0}, {1}], 1: [{0, 1}]}, {0: [{0, 1}]}
    )
    with pytest.raises(ab.ShapeError):
        ab.model_to_box(m)


# ---------------------------------------------------------------------------
# box -> model

def test_deterministic_box_gives_point_mass():
    m = ab.box_to_model(ab.strategy_box(0, 0, 0, 0))
    assert not m.signed
    assert m.measure[0] == 1
    assert all(w == 0 for w in m.measure[1:])


def test_pr_box_needs_signed_weights():
    m = ab.box_to_model(ab.pr_box())
    assert m.signed
    assert sum(m.measure, F(0)) == 1


def test_roundtrip_is_exact():
    for box in (
        ab.pr_box(),
        ab.uniform_box(),
        ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), F(0)),
        ab.sd_table_box(F(1, 2), F(1, 2), F(0), F(1, 2)),
    ):
        assert ab.model_to_box(ab.box_to_model(box)) == box


@settings(max_examples=40, deadline=None)
@given(rational_weights(16))
def test_roundtrip_on_local_mixtures(ws):
    box = local_mixture(ws)
    assert ab.model_to_box(ab.box_to_model(box)) == box


def test_signaling_box_is_rejected():
    # Bob echoes Alice's input: normalized but signaling
    rows = {
        (0, 0): [1, 0, 0, 0],
        (0, 1): [1, 0, 0, 0],
        (1, 0): [0, 1, 0, 0],
        (1, 1): [0, 1, 0, 0],
    }
    box = ab.box_from_rows({k: list(map(F, v)) for k, v in rows.items()})
    assert not ab.validate(box).ok
    with pytest.raises(ab.PreconditionError):
        ab.box_to_model(box)


def eighths_box():
    """No-signaling, but every row sums to 1/2."""
    return ab.make_box(2, 2, 2, 2, dict.fromkeys(product(range(2), repeat=4), F(1, 8)))


def half_rows_from_x1():
    """Rows (0, 0) and (0, 1) sum to 1, rows (1, 0) and (1, 1) to 1/2."""
    return ab.make_box(2, 2, 2, 2, {
        (a, b, x, y): F(1, 4) if x == 0 else F(1, 8) for a, b, x, y in product(range(2), repeat=4)
    })


@pytest.mark.parametrize("fn", [ab.box_to_model, ab.is_local], ids=["box_to_model", "is_local"])
def test_a_row_not_summing_to_one_is_a_precondition_error(fn):
    with pytest.raises(ab.PreconditionError, match=r"row \(x, y\) = \(0, 0\) sums to 1/2"):
        fn(eighths_box())
    with pytest.raises(ab.PreconditionError, match=r"row \(x, y\) = \(1, 0\) sums to 1/2"):
        fn(half_rows_from_x1())


# ---------------------------------------------------------------------------
# locality

def test_uniform_box_is_local_with_reproducing_weights():
    verdict = ab.is_local(ab.uniform_box())
    assert verdict.local
    assert verdict.certificate is None
    # the returned decomposition rebuilds the box
    total = {}
    for (alpha, beta), w in verdict.weights:
        assert w > 0
        for x in range(2):
            for y in range(2):
                key = (alpha[x], beta[y], x, y)
                total[key] = total.get(key, F(0)) + w
    for key, value in total.items():
        assert value == F(1, 4)


def test_pr_box_is_nonlocal_with_verified_certificate():
    verdict = ab.is_local(ab.pr_box())
    assert not verdict.local
    cert = verdict.certificate
    assert cert.box_value > cert.local_bound
    assert ab.bell_value(ab.pr_box(), cert.coeffs) == cert.box_value
    assert ab.bell_local_bound(cert.coeffs, 2, 2, 2, 2) <= cert.local_bound


@settings(max_examples=40, deadline=None)
@given(rational_weights(16))
def test_local_mixtures_are_certified_local(ws):
    verdict = ab.is_local(local_mixture(ws))
    assert verdict.local


def test_disagreement_form_boxes_are_nonlocal():
    for r, s, t, u in [
        (F(1, 2), F(1, 4), F(1, 2), F(0)),
        (F(3, 4), F(1, 2), F(1, 2), F(0)),
        (F(1, 2), F(1, 4), F(1, 2), F(1, 8)),
    ]:
        box = ab.ccd_table_box(r, s, t, u)
        assert not ab.caption_violations("ccd", r, s, t, u)
        assert not ab.is_local(box).local


# Fine's theorem (PRL 48, 291, 1982) as an independent oracle: a 2222
# no-signaling box is local iff all eight CHSH inequalities hold

def chsh_local(box):
    """|E00 + E01 + E10 + E11 - 2 E_xy| <= 2 for every (x, y)."""
    E = {
        (x, y): sum(
            (-1) ** (a + b) * box.p(a, b, x, y) for a in range(2) for b in range(2)
        )
        for x in range(2)
        for y in range(2)
    }
    total = sum(E.values())
    return all(abs(total - 2 * e) <= 2 for e in E.values())


@st.composite
def family_box(draw):
    """A valid CCD- or SD-form box with parameters k/8: each parameter is
    drawn from the range the earlier ones leave for a nonnegative table."""

    def k(lo, hi):
        return draw(st.integers(min_value=lo, max_value=hi))

    if draw(st.booleans()):
        r, t = k(0, 8), k(0, 8)
        s, u = k(max(0, r - t), min(r, 8 - t)), k(max(0, t - r), min(t, 8 - r))
        maker = ab.ccd_table_box
    else:
        r = k(0, 8)
        t = k(0, 8 - r)
        s = k(0, min(8 - r - t, r))
        u = k(8 - t - r, 8 - s - t)
        maker = ab.sd_table_box
    return maker(*(F(v, 8) for v in (r, s, t, u)))


def mix(lam, box1, box2):
    return ab.make_box(2, 2, 2, 2, {
        key: lam * box1.p(*key) + (1 - lam) * box2.p(*key)
        for key in product(range(2), repeat=4)
    })


@st.composite
def no_signaling_2222(draw):
    kind = draw(st.sampled_from(("family", "local", "pr-uniform", "pr-local")))
    if kind == "family":
        return draw(family_box())
    if kind == "local":
        return local_mixture(draw(rational_weights(16)))
    lam = F(draw(st.integers(min_value=0, max_value=16)), 16)
    other = (
        ab.uniform_box() if kind == "pr-uniform"
        else local_mixture(draw(rational_weights(16)))
    )
    return mix(lam, ab.pr_box(), other)


@settings(max_examples=200, deadline=None)
@given(no_signaling_2222())
def test_is_local_agrees_with_fines_theorem(box):
    assert ab.validate(box).ok
    verdict = ab.is_local(box)
    assert verdict.local == chsh_local(box)
    if not verdict.local:
        assert verdict.certificate.box_value > verdict.certificate.local_bound


def test_pr_uniform_mixture_turns_nonlocal_past_one_half():
    # CHSH value 4 * lam: the boundary lam = 1/2 is still local
    assert ab.is_local(mix(F(1, 2), ab.pr_box(), ab.uniform_box())).local
    assert not ab.is_local(mix(F(9, 16), ab.pr_box(), ab.uniform_box())).local


# Weights and Bell coefficients pinned: the LP runs on the box's integer
# numerators and must return exactly these rationals

def lift(box, nA, nB, nX, nY):
    """Embed a 2222 box: extra outputs never occur, extra inputs copy input 1."""
    return ab.make_box(nA, nB, nX, nY, {
        (a, b, x, y): box.p(a, b, min(x, 1), min(y, 1)) if a < 2 and b < 2 else F(0)
        for a, b, x, y in product(range(nA), range(nB), range(nX), range(nY))
    })


def locality_answer(box):
    verdict = ab.is_local(box)
    if verdict.local:
        return [
            ("".join(map(str, alpha)) + "|" + "".join(map(str, beta)), ab.rat_str(w))
            for (alpha, beta), w in verdict.weights
        ]
    cert = verdict.certificate
    labels = row_labels(box.nA, box.nB, box.nX, box.nY)
    coeffs = " ".join(ab.rat_str(cert.coeffs.get(k, 0)) for k in labels)
    return coeffs, ab.rat_str(cert.local_bound), ab.rat_str(cert.box_value)


CHSH_A = "1 -3 -3 1 -3 1 1 -3 1 -3 -3 1 1 -3 -3 1"
CHSH_B = "1 -3 -3 1 1 -3 -3 1 -3 1 1 -3 1 -3 -3 1"
LIFTED = ("1 -8 -8 1 -8 1 1 -8 1 1 1 1 1 -8 -8 1 1 -8 -8 1"
          " 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1")


@pytest.mark.parametrize("box, expected", [
    (ab.pr_box(), (CHSH_A, "0", "4")),
    (ab.uniform_box(), [("01|01", "1/4"), ("01|10", "1/4"),
                        ("10|01", "1/4"), ("10|10", "1/4")]),
    (ab.ccd_table_box(F(1, 4), 0, F(1, 4), F(1, 4)), (CHSH_B, "0", "2")),
    (ab.sd_table_box(F(1, 4), F(1, 4), 0, F(3, 4)), (CHSH_A, "0", "2")),
    (ab.mix_strategies([((0, 1, 1, 0), F(1, 3)), ((1, 1, 0, 0), F(1, 6)),
                        ((0, 0, 1, 1), F(1, 2))]),
     [("00|11", "1/2"), ("01|10", "1/3"), ("11|00", "1/6")]),
    (lift(ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0), 2, 2, 3, 3),
     (LIFTED, "0", "9/2")),
], ids=["pr", "uniform", "ccd", "sd", "mixture", "ccd-2233"])
def test_is_local_answers_are_pinned(box, expected):
    assert locality_answer(box) == expected


# SciPy's HiGHS as an independent float oracle on shapes above 2222, on
# boxes far from the local boundary: local mixtures, and PR boxes lifted
# to the larger shape and mixed with at most 1/4 of a local box

def highs_local(box):
    optimize = pytest.importorskip("scipy.optimize")
    states = list(product(
        product(range(box.nA), repeat=box.nX), product(range(box.nB), repeat=box.nY)
    ))
    keys = list(product(range(box.nA), range(box.nB), range(box.nX), range(box.nY)))
    A = [[float(alpha[x] == a and beta[y] == b) for alpha, beta in states]
         for a, b, x, y in keys]
    rhs = [float(box.p(*key)) for key in keys]
    res = optimize.linprog([0.0] * len(states), A_eq=A, b_eq=rhs,
                           bounds=(0, None), method="highs")
    assert res.status in (0, 2)  # 0 solved, 2 infeasible
    return res.status == 0


@st.composite
def local_box(draw, nA, nB, nX, nY):
    strategies = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, nA - 1)] * nX),
                  st.tuples(*[st.integers(0, nB - 1)] * nY),
                  st.integers(1, 6)),
        min_size=1, max_size=5,
    ))
    total = sum(w for _, _, w in strategies)
    entries = dict.fromkeys(product(range(nA), range(nB), range(nX), range(nY)), F(0))
    for alpha, beta, w in strategies:
        for x, y in product(range(nX), range(nY)):
            entries[(alpha[x], beta[y], x, y)] += F(w, total)
    return ab.make_box(nA, nB, nX, nY, entries)


SHAPES_ABOVE_2222 = ((3, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2))


@st.composite
def lifted_pr_mixture(draw, shape):
    """A PR box lifted to shape, mixed with at most 1/4 of a local box:
    CHSH at least 3 - 1/2 on inputs 0, 1, so always nonlocal."""
    local = draw(local_box(*shape))
    lam = F(draw(st.integers(12, 16)), 16)
    return ab.make_box(*shape, {
        key: lam * p + (1 - lam) * local.p(*key)
        for key, p in lift(ab.pr_box(), *shape).table.items()
    })


@st.composite
def far_from_boundary(draw):
    shape = draw(st.sampled_from(SHAPES_ABOVE_2222))
    if draw(st.booleans()):
        return draw(local_box(*shape))
    return draw(lifted_pr_mixture(shape))


@settings(max_examples=40, deadline=None)
@given(far_from_boundary())
def test_is_local_agrees_with_highs_above_2222(box):
    assert ab.validate(box).ok
    assert ab.is_local(box).local == highs_local(box)


# ---------------------------------------------------------------------------
# Bell functionals

def test_chsh_functional_on_pr():
    coeffs = ab.correlator_functional({(0, 0): 1, (1, 0): 1, (1, 1): 1, (0, 1): -1})
    assert ab.bell_value(ab.pr_box(), coeffs) == 4
    assert ab.bell_local_bound(coeffs, 2, 2, 2, 2) == 2


def test_correlator_weights_are_read_as_rat_reads_them():
    # a float weight is the decimal it prints as, not its binary value
    coeffs = ab.correlator_functional({(0, 0): 0.1, (1, 1): "1/2"})
    assert coeffs[(0, 0, 0, 0)] == ab.rat(0.1) == F(1, 10)
    assert coeffs[(0, 1, 0, 0)] == F(-1, 10)
    assert coeffs[(1, 1, 1, 1)] == F(1, 2)
    with pytest.raises(ab.ParseError, match="not a rational"):
        ab.correlator_functional({(0, 0): "\uff11"})


@pytest.mark.parametrize("key", [(5, 0, 0, 0), (0, 0, 0, 2), (-1, 0, 0, 0),
                                 (0, 0, 0), (0, 0, 0, 0, 0), 3, (0.5, 0, 0, 0), (1.0, 0, 0, 0)])
def test_a_coefficient_outside_the_shape_is_a_shape_error(key):
    coeffs = {(0, 0, 0, 0): 1, key: 1}
    with pytest.raises(ab.ShapeError, match="outside"):
        ab.bell_value(ab.pr_box(), coeffs)
    with pytest.raises(ab.ShapeError, match="outside"):
        ab.bell_local_bound(coeffs, 2, 2, 2, 2)


def all_pairs_local_bound(coeffs, nA, nB, nX, nY):
    """Reference: the functional's maximum over every strategy pair (alpha, beta)."""
    return max(
        sum(coeffs.get((alpha[x], beta[y], x, y), 0) for x in range(nX) for y in range(nY))
        for alpha in product(range(nA), repeat=nX)
        for beta in product(range(nB), repeat=nY)
    )


BOUND_SHAPES = ((2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (2, 2, 4, 4), (3, 3, 3, 2))
COEFFICIENTS = {
    "int": st.integers(-9, 9),
    "fraction": st.fractions(-3, 3, max_denominator=12),
    "negative": st.integers(-9, -1) | st.fractions(-3, F(-1, 12), max_denominator=12),
}


@st.composite
def functional(draw):
    """A shape, a coefficient kind and a functional on every key or on a
    subset of them (possibly none), so missing keys count as 0."""
    shape = draw(st.sampled_from(BOUND_SHAPES))
    kind = draw(st.sampled_from(sorted(COEFFICIENTS)))
    every_key = list(product(*map(range, shape)))
    keys = every_key if draw(st.booleans()) else draw(st.lists(st.sampled_from(every_key), unique=True))
    return shape, kind, {key: draw(COEFFICIENTS[kind]) for key in keys}


@settings(max_examples=50, deadline=None)
@given(functional())
def test_best_response_bound_matches_all_pairs(case):
    shape, kind, coeffs = case
    bound = ab.bell_local_bound(coeffs, *shape)
    assert bound == all_pairs_local_bound(coeffs, *shape)
    if kind == "int":
        assert type(bound) is int
    if not coeffs:
        assert bound == 0
    if kind == "negative" and len(coeffs) == prod(shape):
        assert bound < 0


# ---------------------------------------------------------------------------
# the certificate is computed on ints: it must equal the Fraction functions

def assert_certificate_matches_bell_functions(box):
    cert = ab.is_local(box).certificate
    shape = (box.nA, box.nB, box.nX, box.nY)
    assert cert.local_bound == ab.bell_local_bound(cert.coeffs, *shape)
    assert cert.local_bound == all_pairs_local_bound(cert.coeffs, *shape)
    assert cert.box_value == ab.bell_value(box, cert.coeffs)
    assert cert.box_value > cert.local_bound


@lru_cache(maxsize=None)
def k8_boxes():
    """The 720 valid CCD- and SD-form boxes with r, s, t, u in {k/8}, ccd first."""
    return tuple(
        box
        for maker in (ab.ccd_table_box, ab.sd_table_box)
        for params in product(range(9), repeat=4)
        for box in [maker(*(F(k, 8) for k in params))]
        if ab.validate(box).ok
    )


def test_certificates_on_the_k8_grid_match_the_bell_functions():
    nonlocal_boxes = [box for box in k8_boxes() if not ab.is_local(box).local]
    assert len(nonlocal_boxes) == 390
    for box in nonlocal_boxes:
        assert_certificate_matches_bell_functions(box)


def verdict_text(verdict):
    """One line per verdict: the weights of a local box, else the Bell
    functional's coefficients, its local bound and its value on the box."""
    if verdict.local:
        return "local " + ";".join(f"{s}:{ab.rat_str(w)}" for s, w in verdict.weights)
    cert = verdict.certificate
    coeffs = ";".join(f"{key}:{ab.rat_str(w)}" for key, w in cert.coeffs.items())
    return f"nonlocal {coeffs} {ab.rat_str(cert.local_bound)} {ab.rat_str(cert.box_value)}"


def test_is_local_verdicts_on_the_k8_grid_are_pinned():
    # every weight, coefficient, bound and value, in order, bit for bit
    text = "\n".join(verdict_text(ab.is_local(box)) for box in k8_boxes())
    assert len(k8_boxes()) == 720
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d1fffbb608c4ff22d7c7d440f8054ec0979ab394fd32fb62cf75b0ce68193a35"
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SHAPES_ABOVE_2222).flatmap(lifted_pr_mixture))
def test_certificates_above_2222_match_the_bell_functions(box):
    assert_certificate_matches_bell_functions(box)


def test_a_certificate_that_does_not_separate_is_refused(monkeypatch):
    solve = bridge.feasible_nonneg

    def corrupted(rows, c, paths):
        ok, v, d = solve(rows, c, paths)
        return ok, [-vi for vi in v], d

    monkeypatch.setattr(bridge, "feasible_nonneg", corrupted)
    with pytest.raises(RuntimeError, match="does not separate"):
        ab.is_local(ab.pr_box())


def test_box_to_model_on_the_k8_grid_is_pinned():
    # every model document, in order, byte for byte
    models = [ab.box_to_model(box) for box in k8_boxes()]
    assert len(models) == 720
    assert sum(model.signed for model in models) == 666
    text = "".join(ab.model_to_json(model) for model in models)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1eeba0263adf504495b36cb5c558946620ad1e4517d97e6c46e3ae1946e147e4"
    )


def test_box_to_model_beyond_2222_is_pinned():
    # every 16th k/8 box split to three outputs, then three uniform shapes:
    # every model document, in order, byte for byte
    boxes = [ab.split_output(box, 1, 1, F(1, 3)) for box in k8_boxes()[::16]]
    boxes += [ab.uniform_box(3, 3, 2, 2), ab.uniform_box(2, 2, 3, 3), ab.uniform_box(3, 2, 2, 2)]
    models = [ab.box_to_model(box) for box in boxes]
    assert len(models) == 48
    assert sum(model.signed for model in models) == 44
    text = "".join(ab.model_to_json(model) for model in models)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a42ad5e56ed2fe3113f078754fe72a98bbb3c59595b90e2e210bac894b0d4791"
    )


# ---------------------------------------------------------------------------
# is_local prices each Bell functional once per process

def cleared_memo():
    """The 2222 record's dict of priced Bell functionals, emptied."""
    priced = _shape_system(2, 2, 2, 2)[4]
    priced.clear()
    return priced


def test_a_cleared_and_a_warm_memo_give_equal_verdicts_on_the_k8_grid():
    priced = cleared_memo()
    cold = []
    for box in k8_boxes():
        priced.clear()
        cold.append(ab.is_local(box))
    assert sum(not verdict.local for verdict in cold) == 390
    for box in k8_boxes():
        ab.is_local(box)
    warm = [ab.is_local(box) for box in k8_boxes()]
    assert warm == cold
    # the 390 nonlocal boxes share two functionals
    assert len(priced) == 2


def test_a_mutated_certificate_does_not_change_the_next_verdict():
    priced = cleared_memo()
    first = ab.is_local(ab.pr_box())
    expected = dict(first.certificate.coeffs)
    first.certificate.coeffs[(0, 0, 0, 0)] = F(7)
    first.certificate.coeffs.clear()
    assert len(priced) == 1
    assert ab.is_local(ab.pr_box()).certificate.coeffs == expected


def pr_frames():
    """The PR box in each of its 64 frames."""
    return [ab.relabel(ab.pr_box(), frame) for frame in ab.all_frames(ab.pr_box())]


def test_the_memo_stays_within_its_bound(monkeypatch):
    priced = cleared_memo()
    unbounded = [ab.is_local(box) for box in pr_frames()]
    distinct = len(priced)
    assert 2 < distinct <= bridge.MAX_PRICED
    priced.clear()
    monkeypatch.setattr(bridge, "MAX_PRICED", 2)
    # past the bound a functional is priced on each call, to the same verdict
    assert [ab.is_local(box) for box in pr_frames()] == unbounded
    assert len(priced) == 2


def test_a_warm_memo_still_checks_the_value_on_each_box(monkeypatch):
    priced = cleared_memo()
    ab.is_local(ab.pr_box())
    assert len(priced) == 1

    def at_the_bound(box, terms):
        # the box's value exactly at the functional's local bound
        return bridge._local_bound(terms, box.nA, box.nB, box.nX, box.nY) * box.den

    monkeypatch.setattr(bridge, "_value_num", at_the_bound)
    with pytest.raises(RuntimeError, match="does not separate"):
        ab.is_local(ab.pr_box())


# ---------------------------------------------------------------------------
# is_local's tree of pivot paths, one per shape

@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SHAPES_ABOVE_2222).flatmap(
    lambda shape: st.lists(lifted_pr_mixture(shape), min_size=1, max_size=4)))
def test_a_shared_tree_gives_the_answers_without_one_above_2222(boxes):
    box = boxes[0]
    _, labels, M, *_ = _shape_system(box.nA, box.nB, box.nX, box.nY)
    paths = {}
    for box in boxes + boxes:
        c = [box.num[key] for key in labels]
        assert feasible_nonneg(M, c, paths) == feasible_nonneg(M, c, {})


def test_is_local_keeps_one_tree_per_shape():
    ab.is_local(ab.pr_box())
    ab.is_local(lift(ab.pr_box(), 3, 2, 2, 2))
    tree_2222 = _shape_system(2, 2, 2, 2)[3]
    tree_3222 = _shape_system(3, 2, 2, 2)[3]
    assert tree_2222 and tree_3222
    assert tree_2222 is not tree_3222
