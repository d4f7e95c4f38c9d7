from types import SimpleNamespace

import numpy as np
import pytest

from polygauge import linprog
from polygauge.gauge import tv_matrix
from polygauge.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    _bounds_to_rows,
    feasibility,
    lp_solve,
)

from oracles import check_lp_certificate, random_lp_problem, vertex_oracle


def test_min_x_nonnegative():
    sol = lp_solve(LpProblem(np.array([1.0]), bounds=[(0.0, None)]))
    assert sol.status == OPTIMAL
    assert abs(sol.value) <= 1e-10


def test_unbounded():
    sol = lp_solve(LpProblem(np.array([-1.0]), bounds=[(0.0, None)]))
    assert sol.status == UNBOUNDED
    assert sol.ray is not None
    assert float(np.array([-1.0]) @ sol.ray) < 0


def test_sup_epigraph_line():
    # min ||b||_inf over the fiber of a 2x3 design: hand value 2 at b3 = 2
    x = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    target = np.array([4.0, 4.0])
    c = np.array([0.0, 0.0, 0.0, 1.0])
    a_eq = np.hstack([x, np.zeros((2, 1))])
    ones = np.ones((3, 1))
    a_le = np.vstack([np.hstack([np.eye(3), -ones]), np.hstack([-np.eye(3), -ones])])
    sol = lp_solve(
        LpProblem(c, a_eq=a_eq, b_eq=target, a_le=a_le, b_le=np.zeros(6),
                  bounds=[(None, None)] * 3 + [(0.0, None)])
    )
    assert sol.status == OPTIMAL
    assert abs(sol.value - 2.0) < 1e-9
    assert abs(sol.x[2] - 2.0) < 1e-8


def test_feasibility_contradiction():
    res = feasibility(
        LpProblem(np.array([0.0]), a_eq=[[1.0]], b_eq=[1.0], a_le=[[1.0]], b_le=[0.0])
    )
    assert not res.feasible
    y_eq, y_le = res.farkas
    # certificate: y_le <= 0, combination annihilates the matrix, positive rhs
    assert y_le[0] <= 1e-9
    assert abs(y_eq[0] * 1.0 + y_le[0] * 1.0) <= 1e-7
    assert y_eq[0] * 1.0 + y_le[0] * 0.0 > 1e-9


def test_feasibility_segment_witness():
    res = feasibility(
        LpProblem(
            np.zeros(2),
            a_eq=[[1.0, 1.0]],
            b_eq=[1.0],
            bounds=[(0.0, None), (0.0, None)],
        )
    )
    assert res.feasible
    w = res.witness
    assert abs(w.sum() - 1.0) < 1e-9 and np.all(w >= -1e-9)
    # one phase-1 pivot takes the artificial of the row to zero, then phase 1 stops
    assert res.phase1_pivots == res.iterations == 1 and not res.bland


def test_row_space_vertex_feasibility():
    # exists z with X'z = (4,2,2) for the rank-2 design
    x = np.array([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [np.sqrt(2.0), 0.0, 0.0]])
    res = feasibility(LpProblem(np.zeros(3), a_eq=x.T, b_eq=[4.0, 2.0, 2.0]))
    assert res.feasible
    assert np.max(np.abs(x.T @ res.witness - np.array([4.0, 2.0, 2.0]))) < 1e-8


def test_random_lps_match_vertex_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        prob = random_lp_problem(rng)
        sol = lp_solve(prob)
        status, value = vertex_oracle(prob)
        assert sol.status == status == OPTIMAL
        assert abs(sol.value - value) <= 1e-7
        check_lp_certificate(prob, sol)


def _half_lines(prob):
    """The same LP with its even-indexed variables moved from [-3, 3] to
    [0, 6]: bounds (0.0, None), the upper bound 6 written as an a_le row."""
    n = prob.n_vars
    assert prob.bounds == [(-3.0, 3.0)] * n
    moved = np.arange(n) % 2 == 0
    shift = 3.0 * moved
    rows = np.eye(n)[moved]
    a_le = rows if prob.a_le is None else np.vstack([prob.a_le, rows])
    b_le = np.full(rows.shape[0], 6.0)
    if prob.a_le is not None:
        b_le = np.concatenate([prob.b_le + prob.a_le @ shift, b_le])
    b_eq = None if prob.a_eq is None else prob.b_eq + prob.a_eq @ shift
    bounds = [(0.0, None) if m else (-3.0, 3.0) for m in moved]
    return LpProblem(prob.c, a_eq=prob.a_eq, b_eq=b_eq, a_le=a_le, b_le=b_le, bounds=bounds)


def test_optimal_certificates_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        base = random_lp_problem(rng)
        # boxed variables only, then half-line variables kept as unsplit columns
        for prob in (base, _half_lines(base)):
            sol = lp_solve(prob)
            assert sol.status == OPTIMAL
            assert sol.residuals["primal_eq"] <= 1e-8
            assert sol.residuals["primal_le"] <= 1e-8
            assert sol.residuals["duality_gap"] <= 1e-7 * (1.0 + abs(sol.value))
            check_lp_certificate(prob, sol)


def test_infeasible_farkas_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        base = random_lp_problem(rng)
        # the half-line input checks the multipliers of the implicit rows
        # -x_j <= 0, which _bounds_to_rows writes out
        for prob in (base, _half_lines(base)):
            n = prob.n_vars
            # append x_1 >= 1 and x_1 <= 0
            extra = np.zeros((2, n))
            extra[0, 0] = -1.0
            extra[1, 0] = 1.0
            a_le = extra if prob.a_le is None else np.vstack([prob.a_le, extra])
            b_le = (
                np.array([-1.0, 0.0])
                if prob.b_le is None
                else np.concatenate([prob.b_le, [-1.0, 0.0]])
            )
            bad = LpProblem(prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq, a_le=a_le, b_le=b_le,
                            bounds=prob.bounds)
            sol = lp_solve(bad)
            assert sol.status == INFEASIBLE
            y_eq, y_le = sol.farkas
            a_eq, b_eq, a_le_full, b_le_full = _bounds_to_rows(bad)
            combo = (y_eq @ a_eq if a_eq.size else 0.0) + y_le @ a_le_full
            rhs = (y_eq @ b_eq if b_eq.size else 0.0) + y_le @ b_le_full
            assert np.max(np.abs(combo)) <= 1e-7 * (1.0 + np.max(np.abs(y_le)))
            assert np.all(y_le <= 1e-9)
            assert rhs > 1e-9
            check_lp_certificate(bad, sol)


def test_iteration_cap_raises():
    rng = np.random.default_rng(10)
    prob = random_lp_problem(rng)
    with pytest.raises(Exception):
        lp_solve(prob, max_iter=0)


# ---------------------------------------------------------------------------
# free columns: eliminated into rows, never split


def _free_box(prob, moved):
    """The same LP with the variables in moved made free and their box
    [-3, 3] written as two a_le rows."""
    n = prob.n_vars
    eye = np.eye(n)[moved]
    rows = np.vstack([eye, -eye])
    a_le = rows if prob.a_le is None else np.vstack([prob.a_le, rows])
    b_le = np.full(rows.shape[0], 3.0)
    if prob.a_le is not None:
        b_le = np.concatenate([prob.b_le, b_le])
    bounds = [(None, None) if m else b for m, b in zip(moved, prob.bounds)]
    return LpProblem(prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq, a_le=a_le, b_le=b_le, bounds=bounds)


def _check_against_oracle(prob):
    sol = lp_solve(prob)
    status, value = vertex_oracle(prob)
    assert sol.status == status == OPTIMAL
    assert abs(sol.value - value) <= 1e-7
    check_lp_certificate(prob, sol)
    return sol


def test_random_lps_with_some_free_variables():
    rng = np.random.default_rng(11)
    for _ in range(40):
        prob = random_lp_problem(rng)
        moved = rng.random(prob.n_vars) < 0.5
        _check_against_oracle(_free_box(prob, moved))


def test_more_free_columns_than_equality_rows():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        me = int(rng.integers(1, n))
        x0 = rng.uniform(-1, 1, n)
        a_eq = rng.standard_normal((me, n))
        a_le = rng.standard_normal((2, n))
        prob = LpProblem(rng.standard_normal(n), a_eq=a_eq, b_eq=a_eq @ x0, a_le=a_le,
                         b_le=a_le @ x0 + rng.uniform(0.1, 1.0, 2), bounds=[(-3.0, 3.0)] * n)
        free = _free_box(prob, np.ones(n, dtype=bool))
        assert len(linprog._StandardForm(free).free) > me
        _check_against_oracle(free)


def test_all_zero_free_column():
    def widen(a):
        return None if a is None else np.hstack([a, np.zeros((a.shape[0], 1))])

    rng = np.random.default_rng(13)
    for _ in range(20):
        prob = random_lp_problem(rng)
        prob = _free_box(prob, rng.random(prob.n_vars) < 0.5)
        n = prob.n_vars
        for cost in (0.0, 1.0):
            wide = LpProblem(np.append(prob.c, cost), a_eq=widen(prob.a_eq), b_eq=prob.b_eq,
                             a_le=widen(prob.a_le), b_le=prob.b_le, bounds=prob.bounds + [(None, None)])
            sol = lp_solve(wide)
            check_lp_certificate(wide, sol)
            if cost:
                # the zero column moves freely against its cost
                assert sol.status == UNBOUNDED and sol.ray[n] < 0
            else:
                assert sol.status == OPTIMAL and sol.x[n] == 0.0
                assert abs(sol.value - vertex_oracle(prob)[1]) <= 1e-7


def test_redundant_equality_row():
    rng = np.random.default_rng(14)
    for _ in range(30):
        prob = random_lp_problem(rng)
        prob = _free_box(prob, rng.random(prob.n_vars) < 0.5)
        n = prob.n_vars
        x0 = rng.uniform(-1, 1, n)
        a = rng.standard_normal((2, n))
        # the third row is the sum of the first two, with its right-hand side
        a_eq = np.vstack([a, a.sum(axis=0)])
        b_eq = a_eq @ x0
        b_le = None if prob.a_le is None else np.maximum(prob.b_le, prob.a_le @ x0 + 0.1)
        red = LpProblem(prob.c, a_eq=a_eq, b_eq=b_eq, a_le=prob.a_le, b_le=b_le, bounds=prob.bounds)
        sol = _check_against_oracle(red)
        assert sol.residuals["primal_eq"] <= 1e-8


def test_degenerate_cycling_instance_switches_to_bland(monkeypatch):
    """Beale's example (Chvatal, Linear Programming, ch. 3) cycles under
    Dantzig pricing with lowest-index ties; the switch to Bland's rule
    ends it at the optimum x = (1, 0, 1, 0), value -1."""
    made = []

    class Spy(linprog._Simplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(linprog, "_Simplex", Spy)
    c = np.array([-10.0, 57.0, 9.0, 24.0])
    a_le = np.array([[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]])
    prob = LpProblem(c, a_le=a_le, b_le=[0.0, 0.0, 1.0], bounds=[(0.0, None)] * 4)
    sol = lp_solve(prob)
    assert made[-1].bland and sol.bland
    assert sol.phase1_pivots == 0  # x = 0 is feasible: all of it is phase 2
    assert sol.iterations > linprog.BLAND_TRIGGER
    assert sol.status == OPTIMAL
    assert abs(sol.value - vertex_oracle(prob)[1]) <= 1e-9
    assert np.allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    check_lp_certificate(prob, sol)
    # the same instance with a free copy of x_1 pinned by equality
    free = LpProblem(np.append(c, 0.0), a_eq=[[1.0, 0.0, 0.0, 0.0, -1.0]], b_eq=[0.0],
                     a_le=np.hstack([a_le, np.zeros((3, 1))]), b_le=[0.0, 0.0, 1.0],
                     bounds=[(0.0, None)] * 4 + [(None, None)])
    sol = lp_solve(free)
    assert sol.status == OPTIMAL and abs(sol.value + 1.0) <= 1e-9
    check_lp_certificate(free, sol)


def test_free_variables_are_single_columns():
    # the sup epigraph of test_sup_epigraph_line: three free b, one t >= 0
    prob = LpProblem(np.array([0.0, 0.0, 0.0, 1.0]), a_eq=np.hstack([np.eye(2), np.zeros((2, 2))]),
                     b_eq=[1.0, 2.0], bounds=[(None, None)] * 3 + [(0.0, None)])
    form = linprog._StandardForm(prob)
    assert form.a.shape == (2, 4)
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL and np.allclose(sol.x, [1.0, 2.0, 0.0, 0.0])
    check_lp_certificate(prob, sol)


def test_free_columns_take_equality_rows_first():
    # x1 appears only in the second inequality row, x2 in every row, x3 >= 0:
    # x1 is pivoted into that inequality row, then x2 into an equality row
    # (the larger entry 2 sits in the first inequality row), which leaves
    # one equality row and one inequality row live, and one artificial
    a_eq = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
    a_le = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
    prob = LpProblem(np.array([1.0, 0.0, 1.0]), a_eq=a_eq, b_eq=[1.0, 1.0], a_le=a_le, b_le=[5.0, 4.0],
                     bounds=[(-9.0, None), (None, None), (0.0, None)])
    sx = linprog._Simplex(linprog._StandardForm(prob), 100)
    assert list(sx.frozen_cols) == [0, 1]
    assert sx.n_art == 1
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL and np.allclose(sol.x, [-9.0, 1.0, 0.0])
    check_lp_certificate(prob, sol)


def _tv100_split_box():
    """The tv(100) accessibility dual with the box split into w+, w- >= 0,
    w+ + w- <= 1: 100 equality rows with b = 0, 99 inequality rows."""
    rng = np.random.default_rng(100)
    x = rng.standard_normal((50, 100))
    beta = np.zeros(100)
    beta[rng.choice(100, 5, replace=False)] = 1.0
    d = tv_matrix(100)
    m = d.shape[0]
    return LpProblem(
        np.concatenate([-(x @ np.cumsum(beta)), np.zeros(2 * m)]),
        a_eq=np.hstack([x.T, -d.T, d.T]),
        b_eq=np.zeros(100),
        a_le=np.hstack([np.zeros((m, 50)), np.eye(m), np.eye(m)]),
        b_le=np.ones(m),
        bounds=[(None, None)] * 50 + [(0.0, None)] * (2 * m),
    )


def test_tv100_split_box_lp_solves():
    # phase 1 run to optimality took 1,468 dense pivots here and left a
    # primal residual of 1.9e-3 (the value read 5.035); stopped at the
    # feasible crash basis it takes about 165, and HiGHS gives -5.0000000000001
    prob = _tv100_split_box()
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL and sol.phase1_pivots == 0
    assert abs(sol.value + 5.0) <= 1e-9
    assert sol.iterations <= 400
    check_lp_certificate(prob, sol)


def test_optimum_failing_its_residuals_raises(monkeypatch):
    # an optimum moved off its rows by 1e-6 must not be reported as OPTIMAL
    rng = np.random.default_rng(15)
    prob = random_lp_problem(rng)
    while prob.a_eq is None:
        prob = random_lp_problem(rng)
    primal = linprog._Simplex.primal
    monkeypatch.setattr(linprog._Simplex, "primal", lambda self: primal(self) + 1e-6)
    with pytest.raises(linprog.NumericalFailure, match="primal_eq"):
        lp_solve(prob)
    # the duality gap alone: the true optimum x with multipliers y whose
    # dual value y'b misses c'x by 1e-6
    monkeypatch.setattr(linprog._Simplex, "primal", primal)
    sol = lp_solve(prob)
    form = linprog._StandardForm(prob)
    y = (sol.value + 1e-6) * form.b / (form.b @ form.b)
    with pytest.raises(linprog.NumericalFailure, match="duality gap"):
        linprog._residuals(form, sol.x, y, prob.c, sol.iterations)


def test_implicit_bounds_write_no_row():
    # x >= 0 on two columns and a box on the third: the standard form holds
    # the equality row and the box's two rows only, the multipliers still
    # cover every folded row, and a negative x_j fails the residual test
    prob = LpProblem(np.array([1.0, 2.0, -1.0]), a_eq=np.ones((1, 3)), b_eq=np.array([1.0]),
                     bounds=[(0.0, None), (0.0, None), (-1.0, 0.5)])
    form = linprog._StandardForm(prob)
    assert form.a.shape == (3, 5)
    assert form.explicit.tolist() == [False, False, True, True]
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL and abs(sol.value) <= 1e-12
    assert sol.y_le.shape == (4,)
    check_lp_certificate(prob, sol)
    with pytest.raises(linprog.NumericalFailure, match="primal_le"):
        linprog._residuals(form, np.array([0.5 + 1e-6, -1e-6, 0.5]), np.zeros(3), np.zeros(3), 0)


# ---------------------------------------------------------------------------
# phase 1 stops at the first feasible basis; the drive-out takes the largest entry


def _highs(prob):
    """HiGHS status and value of prob (scipy is imported here, so callers
    importorskip it)."""
    from scipy.optimize import linprog as highs

    res = highs(prob.c, A_ub=prob.a_le, b_ub=prob.b_le, A_eq=prob.a_eq, b_eq=prob.b_eq,
                bounds=prob.bounds or [(None, None)] * prob.n_vars, method="highs")
    return {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status], res.fun


def test_zero_rhs_equality_rows_match_highs():
    # x = 0 is feasible; unless a free column's elimination turns a
    # right-hand side negative, so is the crash basis, and phase 1 makes no
    # pivot and leaves the equality rows' artificials basic at zero level
    pytest.importorskip("scipy")
    rng = np.random.default_rng(16)
    statuses, skipped = set(), 0
    for _ in range(60):
        n = int(rng.integers(3, 9))
        me, mi = int(rng.integers(1, n)), int(rng.integers(0, 4))
        a_eq = rng.standard_normal((me, n))
        if me > 1 and rng.random() < 0.3:
            a_eq[-1] = a_eq[0]  # a redundant row
        a_le = rng.standard_normal((mi, n)) if mi else None
        b_le = rng.uniform(0.0, 1.0, mi) * (rng.random(mi) < 0.5) if mi else None
        bounds = [[(-1.0, 2.0), (0.0, None), (None, None)][k] for k in rng.integers(0, 3, n)]
        prob = LpProblem(rng.standard_normal(n), a_eq=a_eq, b_eq=np.zeros(me), a_le=a_le, b_le=b_le,
                         bounds=bounds)
        sol = lp_solve(prob)
        status, value = _highs(prob)
        assert sol.status == status
        if status == OPTIMAL:
            assert abs(sol.value - value) <= 1e-9 * (1.0 + abs(value))
        check_lp_certificate(prob, sol)
        statuses.add(status)
        if linprog._Simplex(linprog._StandardForm(prob), 100)._infeasibility() == 0.0:
            assert sol.phase1_pivots == 0
            skipped += 1
    assert statuses == {OPTIMAL, UNBOUNDED}
    assert skipped >= 30


def test_degenerate_start_feasibility_matches_highs():
    # nonnegative x with equality rows from a sparse x0, some right-hand
    # sides then set to 0: degenerate starts, feasible and infeasible
    pytest.importorskip("scipy")
    rng = np.random.default_rng(17)
    verdicts = set()
    for _ in range(60):
        n = int(rng.integers(3, 9))
        me, mi = int(rng.integers(1, n + 1)), int(rng.integers(0, 3))
        x0 = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.4)
        a_eq = rng.standard_normal((me, n))
        b_eq = a_eq @ x0
        b_eq[rng.random(me) < 0.4] = 0.0
        a_le = rng.standard_normal((mi, n)) if mi else None
        b_le = a_le @ x0 * (rng.random(mi) < 0.5) if mi else None
        prob = LpProblem(rng.standard_normal(n), a_eq=a_eq, b_eq=b_eq, a_le=a_le, b_le=b_le,
                         bounds=[(0.0, 3.0)] * n)
        res = feasibility(prob)
        status, value = _highs(prob)
        assert res.feasible == (status == OPTIMAL)
        a_eq_f, b_eq_f, a_le_f, b_le_f = _bounds_to_rows(prob)
        if res.feasible:
            assert np.max(np.abs(a_eq_f @ res.witness - b_eq_f)) <= 1e-8
            assert np.max(a_le_f @ res.witness - b_le_f) <= 1e-8
        else:
            check_lp_certificate(prob, SimpleNamespace(status=INFEASIBLE, farkas=res.farkas))
        sol = lp_solve(prob)
        assert sol.status == status
        if status == OPTIMAL:
            assert abs(sol.value - value) <= 1e-9 * (1.0 + abs(value))
        check_lp_certificate(prob, sol)
        verdicts.add(res.feasible)
    assert verdicts == {True, False}


def test_drive_out_pivots_on_the_largest_entry(monkeypatch):
    # one equality row with b = 0 whose first entry sits just above
    # PIVOT_EPS: its artificial leaves on x_2, the entry of size 1
    pivots = []

    class Spy(linprog._Simplex):
        def _pivot(self, r, j):
            pivots.append((r, j))
            super()._pivot(r, j)

    monkeypatch.setattr(linprog, "_Simplex", Spy)
    a_eq = np.array([[2.0 * linprog.PIVOT_EPS, 1.0, -0.5, 0.25]])
    prob = LpProblem(np.array([-1.0, -1.0, 0.5, -0.25]), a_eq=a_eq, b_eq=[0.0], a_le=np.eye(4),
                     b_le=np.ones(4), bounds=[(0.0, None)] * 4)
    sol = lp_solve(prob)
    assert sol.phase1_pivots == 0 and pivots[0] == (0, 1)
    assert sol.status == OPTIMAL
    assert abs(sol.value - vertex_oracle(prob)[1]) <= 1e-9
    check_lp_certificate(prob, sol)
