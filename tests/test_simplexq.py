"""The exact LP and the affine solver, called directly."""

import random
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agreebox as ab
from agreebox import simplexq
from agreebox.bridge import _shape_system, row_labels
from agreebox.simplexq import LinearSolver, feasible_nonneg


def lp_2222(box):
    M = _shape_system(2, 2, 2, 2)[2]
    return M, [box.p(*label) for label in row_labels(2, 2, 2, 2)]


def fracs(text):
    return [F(v) for v in text.split()]


def cleared(rows, c):
    """The integer system (L M, L c), for L the lcm of every denominator.

    The solvers take integer systems only; L M x = L c has the same
    solutions and the same Farkas vectors as M x = c.
    """
    L = lcm(*(F(v).denominator for row in rows for v in row), *(F(v).denominator for v in c))
    return [[int(v * L) for v in row] for row in rows], [int(v * L) for v in c]


def read_off(got):
    """feasible_nonneg's (ok, v, d) read off as (ok, x, y) in Fractions:
    x = v / d when ok, else the Farkas vector y = v / d.  v must hold ints
    and d must be a positive int."""
    ok, v, d = got
    assert all(type(vi) is int for vi in v) and type(d) is int and d > 0
    q = [F(vi, d) for vi in v]
    return (True, q, None) if ok else (False, None, q)


def assert_certificate(rows, c, ok, x, y):
    """Recheck the answer in plain Fractions, independently of the solver."""
    m, n = len(rows), len(rows[0])
    if ok:
        assert y is None
        assert all(xj >= 0 for xj in x)
        for i in range(m):
            assert sum((F(rows[i][j]) * x[j] for j in range(n)), F(0)) == c[i]
    else:
        assert x is None
        assert sum((yi * F(ci) for yi, ci in zip(y, c)), F(0)) > 0
        for j in range(n):
            assert sum((y[i] * F(rows[i][j]) for i in range(m)), F(0)) <= 0


# ---------------------------------------------------------------------------
# pinned answers on the 16-state system: the pivot sequence, and so the
# returned point or functional, is fixed by Bland's rule

PR_DUAL = fracs("1 -3 -3 1 -3 1 1 -3 1 -3 -3 1 1 -3 -3 1")


@pytest.mark.parametrize(
    "box, expected",
    [
        (ab.pr_box(), (False, None, PR_DUAL)),
        (ab.uniform_box(), (True, fracs("0 0 0 0 0 1/4 1/4 0 0 1/4 1/4 0 0 0 0 0"), None)),
        (
            ab.ccd_table_box(F(1, 4), F(0), F(1, 4), F(1, 4)),
            (False, None, fracs("1 -3 -3 1 1 -3 -3 1 -3 1 1 -3 1 -3 -3 1")),
        ),
        (ab.sd_table_box(F(1, 4), F(1, 4), F(0), F(3, 4)), (False, None, PR_DUAL)),
        (
            ab.mix_strategies(
                [((0, 0, 0, 0), F(1, 3)), ((0, 1, 1, 0), F(1, 6)), ((1, 1, 0, 1), F(1, 2))]
            ),
            (True, fracs("1/3 0 0 0 0 0 1/6 0 0 0 0 0 0 1/2 0 0"), None),
        ),
    ],
    ids=["pr", "uniform", "ccd", "sd", "local-mixture"],
)
def test_pinned_answers_on_2222(box, expected):
    M, C = lp_2222(box)
    got = read_off(feasible_nonneg(*cleared(M, C), {}))
    assert got == expected
    assert_certificate(M, C, *got)


@pytest.mark.parametrize(
    "rows, c, dual",
    [
        ([[2, 2], [1, 0], [1, 1]], [0, 1, 0], [-1, 1, 1]),
        ([[0, 0, 2], [2, 1, 2], [1, 0, 1]], [2, 2, 2], [1, F(-3, 2), 1]),
    ],
)
def test_ratio_ties_go_to_the_least_basic_index(rows, c, dual):
    # the first pivot ties between rows; breaking the tie the other way
    # ends at another, equally valid, functional
    got = read_off(feasible_nonneg(rows, c, {}))
    assert got == (False, None, dual)
    assert_certificate(rows, c, *got)


# ---------------------------------------------------------------------------
# rational coefficients and flipped rows

def test_rational_rows_feasible():
    rows = [[F(1, 2), 3], [F(2, 3), -1]]
    c = [F(3, 2), F(1, 3)]
    assert cleared(rows, c) == ([[3, 18], [4, -6]], [9, 2])
    ok, x, y = read_off(feasible_nonneg(*cleared(rows, c), {}))
    assert ok and x == [1, F(1, 3)]
    assert_certificate(rows, c, ok, x, y)


def test_rational_rows_infeasible():
    rows = [[F(1, 2), F(1, 3)], [F(5, 7), -F(2, 9)]]
    c = [F(1, 5), F(-3, 4)]
    ok, x, y = read_off(feasible_nonneg(*cleared(rows, c), {}))
    assert not ok
    assert_certificate(rows, c, ok, x, y)


def test_negative_rhs_rows_are_flipped():
    rows = [[1, -1], [1, 1]]
    c = [-1, 3]
    ok, x, y = read_off(feasible_nonneg(rows, c, {}))
    assert ok and x == [1, 2]
    assert_certificate(rows, c, ok, x, y)

    rows = [[1, 1], [1, -1]]
    c = [-2, 1]
    ok, x, y = read_off(feasible_nonneg(rows, c, {}))
    assert not ok
    assert_certificate(rows, c, ok, x, y)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                         min_size=3, max_size=3),
                min_size=m, max_size=m,
            ),
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                     min_size=m, max_size=m),
        )
    )
)
def test_every_answer_carries_a_valid_certificate(system):
    rows, c = system
    assert_certificate(rows, c, *read_off(feasible_nonneg(*cleared(rows, c), {})))


# ---------------------------------------------------------------------------
# the affine solver

def solved(solver, c):
    """The solver's answer read off as v / d, or None."""
    answer = solver.solve(c)
    return None if answer is None else [F(v, answer[1]) for v in answer[0]]


def test_rank_deficient_solver():
    solver = LinearSolver([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert solver.rank == 2
    assert solver.pivots == [0, 1]
    # the answer is ints v over the divisor d = +-det B, which is negative here
    v, d = solver.solve([6, 12, 2])
    assert (v, d) == ([-4, -4, 0], -2)
    assert all(type(n) is int for n in (*v, d))
    # free variable x2 is zero
    assert solved(solver, [6, 12, 2]) == [2, 2, 0]
    # the rhs (1/2, 1, 1/3) cleared by 6; the answer is divided back
    assert [v / 6 for v in solved(solver, [3, 6, 2])] == [F(1, 3), F(1, 12), 0]
    # row 1 is twice row 0, so its rhs must be too
    assert solver.solve([6, 13, 2]) is None


def test_rank_deficient_rational_solver():
    # M = [[1/2, 1], [1, 2]] cleared by 2 and the rhs (1/3, 2/3) and (1/3, 1)
    # by 3, so 2 M x = 3 c; the answer is multiplied back by 2/3
    solver = LinearSolver([[1, 2], [2, 4]])
    assert solver.rank == 1
    assert [v * 2 / 3 for v in solved(solver, [1, 2])] == [F(2, 3), 0]
    assert solver.solve([1, 3]) is None
    with pytest.raises(ValueError):
        solver.solve([3])


def test_solver_reproduces_boxes_on_2222():
    M, _ = lp_2222(ab.uniform_box())
    solver = LinearSolver(M)
    assert solver.rank == 9
    for box in (ab.pr_box(), ab.uniform_box(), ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), F(0))):
        _, C = lp_2222(box)
        P = [v / box.den for v in solved(solver, [box.num[key] for key in row_labels(2, 2, 2, 2)])]
        assert all(type(v) is F for v in P)
        for row, ci in zip(M, C):
            assert sum((a * p for a, p in zip(row, P)), F(0)) == ci


# ---------------------------------------------------------------------------
# the pivot kernel: a unit pivot (p = d) updates only the columns where the
# pivot row is nonzero; answers must equal those of the dense update

def dense_pivot(rows, r, col, d):
    """Every row rebuilt in full: (p * T[i][j] - T[i][col] * T[r][j]) // d."""
    p = rows[r][col]
    pivot_row = rows[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f:
            rows[i] = [(p * vi - f * vr) // d for vi, vr in zip(row, pivot_row)]
        elif p != d:
            rows[i] = [p * vi // d for vi in row]
    return p


def answers(rows, c):
    """feasible_nonneg and the affine solver on one system."""
    solver = LinearSolver(rows)
    return (feasible_nonneg(rows, c, {}), solver.rank, solver.pivots, solver.divisor,
            solver.transform, solver.solve(c))


@contextmanager
def kernel(pivot):
    """Run with simplexq._pivot replaced by a spy on pivot; yields the
    (pivot element, divisor) pairs it sees."""
    seen = []

    def spy(tab, r, col, d):
        seen.append((tab[r][col], d))
        return pivot(tab, r, col, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplexq, "_pivot", spy)
        yield seen


def answers_with_both_kernels(rows, c):
    """The answers with the kernel as shipped and with dense_pivot, and the
    kinds of pivot the shipped kernel saw ("unit" for p = d, else "scaled")."""
    with kernel(simplexq._pivot) as seen:
        got = answers(rows, c)
    with kernel(dense_pivot):
        want = answers(rows, c)
    return got, want, {"unit" if p == d else "scaled" for p, d in seen}


KERNEL_SYSTEMS = [
    ([[2, 1], [1, 3]], [3, 4]),  # first pivot 2: scaled, then d = 2
    ([[2, 2], [1, 0], [1, 1]], [0, 1, 0]),
    ([[0, 0, 2], [2, 1, 2], [1, 0, 1]], [2, 2, 2]),
    ([[3, -1, 2], [1, 2, -1], [-2, 1, 3]], [4, -1, 5]),
    ([[1, -1], [1, 1]], [-1, 3]),
    cleared(*lp_2222(ab.pr_box())),
    cleared(*lp_2222(ab.uniform_box())),
]


def test_unit_and_scaled_pivots_give_the_dense_answers():
    seen = set()
    for rows, c in KERNEL_SYSTEMS:
        got, want, kinds = answers_with_both_kernels(rows, c)
        assert got == want
        seen |= kinds
    assert seen == {"unit", "scaled"}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                     min_size=m, max_size=m),
            st.lists(st.integers(-4, 4), min_size=m, max_size=m),
        )
    ).filter(lambda system: any(any(row) for row in system[0]))
)
def test_sparse_kernel_matches_the_dense_kernel(system):
    got, want, _ = answers_with_both_kernels(*system)
    assert got == want


def test_2222_lps_pivot_on_units_only():
    # the 0/1 matrix and integer right-hand side of every valid k/8 CCD- or
    # SD-form box: each pivot element equals the divisor, which stays 1;
    # Bland's rule fixes the pivot sequence, and so the count
    M, _ = lp_2222(ab.uniform_box())
    with kernel(simplexq._pivot) as seen:
        for maker in (ab.ccd_table_box, ab.sd_table_box):
            for params in product(range(9), repeat=4):
                box = maker(*(F(k, 8) for k in params))
                if ab.validate(box).ok:
                    feasible_nonneg(M, [box.num[key] for key in row_labels(2, 2, 2, 2)], {})
    assert len(seen) == 6581 and set(seen) == {(1, 1)}


# ---------------------------------------------------------------------------
# both certificates are rechecked against the caller's M and c, so a pivoting
# bug that corrupts the rhs or the final tableau raises instead of giving a
# wrong verdict

def corrupting(corrupt):
    """simplexq._pivot, then corrupt(tab, d) on the final tableau: the one
    whose objective row has no negative entry left, so the loop stops."""
    pivot = simplexq._pivot

    def wrapped(tab, r, col, d):
        d = pivot(tab, r, col, d)
        if min(tab[-1]) >= 0:
            corrupt(tab, d)
        return d

    return wrapped


@pytest.mark.parametrize("rows, c, node, row", [
    ([[1, 1], [1, -1]], [2, 0], 1, 1),
    (*cleared(*lp_2222(ab.uniform_box())), 9, 0),
], ids=["2x2", "uniform-2222"])
def test_a_corrupted_feasible_point_is_refused(rows, c, node, row):
    # one recorded node damaged: the pivot column node pivots into the path
    # loses the pivot element at row, neither the leaving row nor the
    # objective row; that pivot's leaving rhs is nonzero, so the walk moves
    # the row's rhs off the feasible point
    paths = {}
    assert feasible_nonneg(rows, c, paths)[0]
    keys = path_keys(paths)
    _, col = paths[keys[node]]
    leave = keys[node + 1][-1]
    assert row not in (leave, len(rows))
    col[row] -= col[leave]
    with pytest.raises(RuntimeError, match="invalid feasible point"):
        feasible_nonneg(rows, c, paths)


def multipliers(*Y):
    """Overwrite the objective row under the artificials with d - Y_i d, so
    that the simplex multipliers read off it are Y (all 0 if none given)."""
    def corrupt(tab, d):
        m = len(tab) - 1
        z = tab[m]
        n = len(z) - m
        for i in range(m):
            z[n + i] = d - (Y[i] if Y else 0) * d
    return corrupt


@pytest.mark.parametrize("rows, c, corrupt", [
    ([[1, 0], [1, 0]], [1, 2], multipliers()),  # y c = 0
    ([[1, 0], [1, 0]], [1, 2], multipliers(0, 1)),  # y c > 0 but y M > 0
    (*cleared(*lp_2222(ab.pr_box())), multipliers()),
], ids=["2x2-yc", "2x2-yM", "pr-2222"])
def test_a_corrupted_farkas_vector_is_refused(monkeypatch, rows, c, corrupt):
    assert not feasible_nonneg(rows, c, {})[0]
    monkeypatch.setattr(simplexq, "_pivot", corrupting(corrupt))
    with pytest.raises(RuntimeError, match="Farkas certificate failed verification"):
        feasible_nonneg(rows, c, {})


# ---------------------------------------------------------------------------
# pivot-path trees: a solve along a recorded path updates the rhs column
# alone, and must return exactly the answer of a solve without a tree

def int_lp_2222(box):
    """The system is_local solves: M and the box's integer numerators."""
    M, _ = lp_2222(box)
    return M, [box.num[key] for key in row_labels(2, 2, 2, 2)]


@lru_cache(maxsize=None)
def kgrid_rhs():
    """The integer right-hand sides of the 720 valid k/8 CCD- and SD-form boxes."""
    return tuple(
        int_lp_2222(box)[1]
        for maker in (ab.ccd_table_box, ab.sd_table_box)
        for params in product(range(9), repeat=4)
        if ab.validate(box := maker(*(F(k, 8) for k in params))).ok
    )


def shuffled_kgrid():
    cs = list(kgrid_rhs())
    random.Random(17).shuffle(cs)
    return cs


def test_a_shared_tree_gives_the_answers_without_one_on_the_k8_grid():
    M, _ = lp_2222(ab.uniform_box())
    cs = shuffled_kgrid()
    assert len(cs) == 720
    paths = {}
    for _ in range(2):  # the second pass runs every path from the tree
        for c in cs:
            assert feasible_nonneg(M, c, paths) == feasible_nonneg(M, c, {})


def test_a_shared_tree_pivots_on_units_and_far_less_often():
    M, _ = lp_2222(ab.uniform_box())
    paths = {}
    with kernel(simplexq._pivot) as seen:
        for c in shuffled_kgrid():
            feasible_nonneg(M, c, paths)
    # 17 pivot paths visiting 97 tableaux, ends included
    assert len(paths) == 97
    assert sum(enter is None for enter, _ in paths.values()) == 17
    assert set(seen) == {(1, 1)} and len(seen) < 6581 // 10


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                     min_size=m, max_size=m),
            st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                     min_size=1, max_size=6),
        )
    ).filter(lambda system: any(any(row) for row in system[0]))
)
def test_a_shared_tree_gives_the_answers_without_one(system):
    rows, cs = system
    paths = {}
    for c in cs + cs:
        assert feasible_nonneg(rows, c, paths) == feasible_nonneg(rows, c, {})


def test_a_full_tree_records_nothing_more(monkeypatch):
    M, _ = lp_2222(ab.uniform_box())
    monkeypatch.setattr(simplexq, "MAX_PATH_NODES", 10)
    paths = {}
    for c in shuffled_kgrid():
        assert feasible_nonneg(M, c, paths) == feasible_nonneg(M, c, {})
        assert len(paths) <= 10
    assert len(paths) == 10


def path_keys(paths):
    """The keys of a tree that holds one path, root first."""
    assert len({key[0] for key in paths}) == 1
    return sorted(paths, key=len)


@pytest.mark.parametrize("box, node, entry, message", [
    # the objective row's entry in the first column: the artificial sum no
    # longer reaches zero on a feasible box
    (ab.uniform_box(), 0, 16, "Farkas certificate failed verification"),
    # a row entry in a later column: a basic weight comes out wrong
    (ab.uniform_box(), 9, 9, "simplex produced an invalid feasible point"),
], ids=["objective-entry", "row-entry"])
def test_a_corrupted_column_is_refused(box, node, entry, message):
    M, c = int_lp_2222(box)
    paths = {}
    feasible_nonneg(M, c, paths)
    _, col = paths[path_keys(paths)[node]]
    col[entry] += 1
    with pytest.raises(RuntimeError, match=message):
        feasible_nonneg(M, c, paths)


def test_corrupted_leaf_multipliers_are_refused():
    M, c = int_lp_2222(ab.pr_box())
    paths = {}
    feasible_nonneg(M, c, paths)
    enter, col = paths[path_keys(paths)[-1]]
    assert enter is None
    col[:] = [1] * len(col)  # d - z = 0: every multiplier zero
    with pytest.raises(RuntimeError, match="Farkas certificate failed verification"):
        feasible_nonneg(M, c, paths)


@pytest.mark.parametrize("box", [
    ab.uniform_box(),
    ab.pr_box(),
    ab.sd_table_box(F(1, 4), F(1, 4), F(1, 4), F(0)),
], ids=["uniform", "pr", "sd"])
def test_no_corrupted_entry_changes_the_verdict(box):
    # every recorded entry one larger or one smaller, in turn: the solve
    # either still returns the answer without a tree or raises
    M, c = int_lp_2222(box)
    want = feasible_nonneg(M, c, {})
    paths = {}
    feasible_nonneg(M, c, paths)
    raised = 0
    for key, (enter, col) in paths.items():
        for i, delta in product(range(len(col)), (1, -1)):
            damaged = {k: (e, list(v)) for k, (e, v) in paths.items()}
            damaged[key][1][i] += delta
            try:
                got = feasible_nonneg(M, c, damaged)
            except RuntimeError:
                raised += 1
                continue
            assert got[0] == want[0]
            assert_certificate(M, c, *read_off(got))
    assert raised


@pytest.mark.parametrize("box", [ab.uniform_box(), ab.pr_box()], ids=["uniform", "pr"])
def test_a_solve_that_leaves_the_tree_starts_over(box):
    # with an interior node gone, the walk stops there and the solve starts
    # over on the full tableau: the same pivots as without a tree, and the
    # node recorded again
    M, c = int_lp_2222(box)
    with kernel(simplexq._pivot) as seen:
        want = feasible_nonneg(M, c, {})
    paths = {}
    feasible_nonneg(M, c, paths)
    keys = path_keys(paths)
    assert len(keys) > 2
    key = keys[len(keys) // 2]
    node = paths.pop(key)
    with kernel(simplexq._pivot) as restarted:
        assert feasible_nonneg(M, c, paths) == want
    assert paths[key] == node
    assert len(restarted) == len(seen)
