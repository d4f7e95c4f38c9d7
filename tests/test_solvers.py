import numpy as np
import pytest

from polygauge import (
    GaugeSpec,
    NotConvergedError,
    SolveOptions,
    active_set,
    generators,
    kkt_residual,
    named_pattern,
    pen_eval,
    prox_l1,
    prox_linf,
    prox_sorted_l1,
    solution_path,
    solve,
    zero_threshold,
)
from polygauge.solvers import _prox_for, _spectral_norm_sq
from test_acceptance import STRONG_SIGNAL_BETA, STRONG_SIGNAL_EPS, STRONG_SIGNAL_X


ALL_KINDS = [
    GaugeSpec.l1(3),
    GaugeSpec.sup(3),
    GaugeSpec.slope([3.0, 2.0, 1.0]),
    GaugeSpec.tv(3),
    GaugeSpec.custom([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, -1.0]]),
]


@pytest.mark.parametrize("spec", ALL_KINDS)
def test_zero_response_gives_zero(spec):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    res = solve(spec, x, np.zeros(4), 0.7)
    assert res.converged
    assert np.max(np.abs(res.beta)) < 1e-9


def test_sup_path_segment_patterns(sup_path_case):
    opts = SolveOptions(tol=1e-9)
    for lam, pattern in [(1.0, (0, 1, 1)), (10.0, (1, 1, 1)), (25.0, (0, 0, 0))]:
        res = solve(sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], lam, opts)
        assert res.converged
        fp = active_set(sup_path_case["spec"], res.beta, rel_tol=1e-6)
        assert fp.named.values == pattern


def test_sup_path_breakpoints(sup_path_case):
    path = solution_path(
        sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], 0.5, 30.0,
        grid_size=40, refine_tol=1e-4, opts=SolveOptions(tol=1e-9),
    )
    assert len(path.breakpoints) == 2
    assert abs(path.breakpoints[0] - 8.0 / 3.0) < 1e-3
    assert abs(path.breakpoints[1] - 20.0) < 1e-3
    patterns = [seg.fingerprint.named.values for seg in path.segments]
    assert patterns == [(0, 1, 1), (1, 1, 1), (0, 0, 0)]


def test_path_zero_response_single_segment():
    spec = GaugeSpec.l1(3)
    x = np.eye(3)
    path = solution_path(spec, x, np.zeros(3), 0.1, 5.0, grid_size=10)
    assert len(path.segments) == 1
    assert path.breakpoints == []
    assert path.segments[0].fingerprint.named.values == (0, 0, 0)


def test_path_orthogonal_design_breakpoints_at_abs_y():
    spec = GaugeSpec.l1(4)
    x = np.eye(4)
    y = np.array([3.0, 1.5, 0.7, 0.2])
    path = solution_path(spec, x, y, 0.05, 5.0, grid_size=60, refine_tol=1e-5)
    assert len(path.breakpoints) == 4
    for found, expected in zip(path.breakpoints, sorted(np.abs(y))):
        assert abs(found - expected) < 1e-3


def test_path_result_invariants(sup_path_case):
    path = solution_path(sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], 0.5, 30.0, grid_size=25)
    assert all(b1 < b2 for b1, b2 in zip(path.breakpoints, path.breakpoints[1:]))
    for s1, s2 in zip(path.segments, path.segments[1:]):
        assert s1.fingerprint != s2.fingerprint
        assert s1.lam_hi <= s2.lam_lo


def test_genlasso_section6_fitted_values(gen_lasso_nonunique):
    inst = gen_lasso_nonunique
    res = solve(inst["spec"], inst["x"], inst["y"], 0.5, SolveOptions(tol=1e-8))
    assert res.converged
    ref = inst["x"] @ np.array([0.0, 0.5, 0.0])
    assert np.max(np.abs(res.fitted - ref)) < 1e-5
    ref_pen = pen_eval(inst["spec"], np.array([0.0, 0.5, 0.0]))
    assert abs(pen_eval(inst["spec"], res.beta) - ref_pen) < 1e-5


def test_custom_route_matches_genlasso_route():
    rng = np.random.default_rng(1)
    tv = GaugeSpec.tv(3)
    custom = GaugeSpec.custom(generators(tv))
    for _ in range(5):
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal(4)
        r1 = solve(tv, x, y, 0.4)
        r2 = solve(custom, x, y, 0.4)
        assert r1.converged and r2.converged
        assert np.max(np.abs(r1.fitted - r2.fitted)) < 1e-5


def test_custom_admm_converges_on_symmetric_gauge():
    # U = [0; V; -V] drawn after four tv signals from Philox key (12, 13);
    # with an inner iterative projection as the z-prox this instance ran
    # 100000 iterations without converging
    rng = np.random.Generator(np.random.Philox(key=np.array([12, 13], dtype=np.uint64)))
    for p in (20, 20, 48, 48):
        rng.standard_normal(4)
        rng.standard_normal(p)
    for _ in range(2):
        v = rng.standard_normal((3, 3))
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
    spec = GaugeSpec.custom(np.vstack([np.zeros((1, 3)), v, -v]))
    res = solve(spec, x, y, 0.5, SolveOptions(max_iter=2000))
    assert res.converged
    assert res.kkt_residual <= 1e-7
    # g lies in B* = V'(cross-polytope) iff ||V'^-1 g||_1 <= 1; the KKT
    # margin is a sup-norm distance to B*, which V'^-1 stretches
    assert np.sum(np.abs(np.linalg.solve(v.T, res.dual_certificate))) <= 1.0 + 1e-6


@pytest.mark.parametrize("spec", ALL_KINDS)
def test_fitted_values_unique_across_starts(spec):
    # fitted values and penalty value agree for any two minimizers
    rng = np.random.default_rng(2)
    for trial in range(4):
        x = rng.standard_normal((3, 3)) if trial % 2 else rng.standard_normal((2, 3))
        y = rng.standard_normal(x.shape[0])
        starts = [None, rng.standard_normal(3) * 3]
        results = [solve(spec, x, y, 0.6, SolveOptions(tol=1e-9), start=s) for s in starts]
        assert all(r.converged for r in results)
        assert np.max(np.abs(results[0].fitted - results[1].fitted)) <= 1e-5
        pens = [pen_eval(spec, r.beta) for r in results]
        assert abs(pens[0] - pens[1]) <= 1e-5


def test_objective_trace_monotone_fista():
    rng = np.random.default_rng(3)
    for spec in [GaugeSpec.l1(5), GaugeSpec.sup(5), GaugeSpec.slope([5.0, 4.0, 3.0, 2.0, 1.0])]:
        x = rng.standard_normal((4, 5))
        y = rng.standard_normal(4)
        res = solve(spec, x, y, 0.3)
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)


@pytest.mark.parametrize("spec", [GaugeSpec.l1(2), GaugeSpec.sup(2), GaugeSpec.tv(2)])
def test_solver_beats_dense_grid(spec):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 2))
    y = rng.standard_normal(3)
    lam = 0.4
    res = solve(spec, x, y, lam, SolveOptions(tol=1e-9))
    g = np.linspace(-3, 3, 401)
    bb = np.array(np.meshgrid(g, g)).reshape(2, -1).T
    vals = 0.5 * np.sum((bb @ x.T - y) ** 2, axis=1) + lam * np.array(
        [pen_eval(spec, b) for b in bb]
    )
    assert res.objective <= vals.min() + 1e-4


def test_rescaled_signal_convergence(sup_path_case):
    # beta_hat(X(r beta) + eps) / r approaches beta as the signal grows
    rng = np.random.default_rng(5)
    eps = rng.standard_normal(2) * 0.5
    errors = []
    for r in (1.0, 10.0, 100.0):
        y = sup_path_case["x"] @ (r * sup_path_case["beta"]) + eps
        res = solve(sup_path_case["spec"], sup_path_case["x"], y, 1.0, SolveOptions(tol=1e-9))
        errors.append(np.max(np.abs(res.beta / r - sup_path_case["beta"])))
    assert errors[0] > errors[1] > errors[2]


def test_dual_certificate_contract(sup_path_case):
    res = solve(sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], 3.0, SolveOptions(tol=1e-9))
    g = sup_path_case["x"].T @ (sup_path_case["y"] - sup_path_case["fitted"] if "fitted" in sup_path_case else sup_path_case["y"] - sup_path_case["x"] @ res.beta) / 3.0
    assert np.allclose(g, res.dual_certificate)
    assert res.kkt_residual <= 1e-9


def test_not_converged_propagates_in_path(sup_path_case):
    with pytest.raises(NotConvergedError):
        solution_path(
            sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], 0.5, 30.0,
            grid_size=5, opts=SolveOptions(tol=1e-14, max_iter=3),
        )


def test_genlasso_kernel_overlap_warns():
    # X and D share the constant vector in their kernels
    x = np.array([[1.0, -1.0]])
    spec = GaugeSpec.tv(2)
    with pytest.warns(RuntimeWarning):
        solve(spec, x, np.array([0.5]), 0.5, SolveOptions(max_iter=200))


def test_solution_ties_are_exact_for_pattern_extraction(sup_path_case):
    res = solve(sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], 1.0, SolveOptions(tol=1e-9))
    assert res.beta[1] == res.beta[2]  # bitwise tie from the shared clip
    assert named_pattern("sup", res.beta).values == (0, 1, 1)


FISTA_KINDS = [GaugeSpec.l1(6), GaugeSpec.sup(6), GaugeSpec.slope([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])]


@pytest.mark.parametrize("spec", FISTA_KINDS)
def test_in_loop_kkt_test_stops_neither_early_nor_late(spec):
    # the loop takes its KKT test from the accepted step's residual; it must
    # agree with the public kkt_residual at every iteration
    rng = np.random.default_rng(6)
    for _ in range(4):
        x = rng.standard_normal((5, 6))
        y = rng.standard_normal(5)
        lam = 0.3 * zero_threshold(spec, x, y)
        opts = SolveOptions(tol=1e-8, check_every=1)
        res = solve(spec, x, y, lam, opts)
        assert res.converged and res.iterations >= 2
        assert kkt_residual(spec, x, y, lam, res.beta)[0] <= opts.tol
        early = solve(spec, x, y, lam, SolveOptions(tol=1e-8, check_every=1, max_iter=res.iterations - 1))
        assert not early.converged
        assert early.kkt_residual > opts.tol


def test_loop_prox_kernels_equal_public_prox_bitwise():
    rng = np.random.default_rng(7)
    w = np.array([4.0, 3.5, 2.0, 1.75, 1.0, 0.5, 0.25, 0.1])
    cases = [
        (GaugeSpec.l1(8), prox_l1),
        (GaugeSpec.sup(8), prox_linf),
        (GaugeSpec.slope(w), lambda v, t: prox_sorted_l1(v, w, t)),
    ]
    for _ in range(40):
        v = rng.standard_normal(8) * 2.0
        v[[3, 5]] = v[0]
        v[7] = -v[0]  # planted ties in magnitude
        t = float(rng.uniform(0.05, 2.0))
        for spec, public in cases:
            out = _prox_for(spec)(v, t)
            ref = public(v, t)
            assert out.tobytes() == ref.tobytes()
            assert abs(out[0]) == abs(out[3]) == abs(out[5]) == abs(out[7])


def test_criterion7_strong_signal_solve_iteration_budget():
    # sup(6) at r = 100: the exact monotone test restarted this solve on
    # round-off and took 2,900 iterations
    y = STRONG_SIGNAL_X @ (100.0 * STRONG_SIGNAL_BETA) + STRONG_SIGNAL_EPS
    res = solve(GaugeSpec.sup(6), STRONG_SIGNAL_X, y, 1.0, SolveOptions(tol=1e-8))
    assert res.converged
    assert res.iterations <= 1000


def test_spectral_norm_sq_is_exact():
    rng = np.random.default_rng(8)
    low_rank = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 9))
    for x in [rng.standard_normal((12, 5)), rng.standard_normal((4, 11)), low_rank,
              low_rank.T, np.zeros((3, 4))]:
        ref = np.linalg.norm(x, 2) ** 2
        assert abs(_spectral_norm_sq(x) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("spec", [GaugeSpec.tv(4), ALL_KINDS[4]])
def test_admm_trace_is_the_objective_bitwise(spec):
    # each trace entry equals 0.5 ||y - X b||^2 + lam pen_eval(spec, b) at
    # its iterate; below 50 iterations the returned beta is the last one
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, spec.p))
    y = rng.standard_normal(5)
    start = rng.standard_normal(spec.p)
    for k in range(0, 30):
        res = solve(spec, x, y, 0.4, SolveOptions(max_iter=k), start=start)
        r = y - x @ res.beta
        assert res.objective_trace[-1] == 0.5 * float(r @ r) + 0.4 * pen_eval(spec, res.beta)
        assert len(res.objective_trace) == k + 1
