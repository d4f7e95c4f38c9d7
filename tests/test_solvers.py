import math

import numpy as np
import pytest

from polygauge import (
    ExperimentConfig,
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
    project_simplex,
    run_recovery_experiment,
    solution_path,
    solve,
    tv_matrix,
    zero_threshold,
)
from polygauge import experiments, linprog, solvers
from polygauge.gauge import _basis, _face_point, _pattern
from polygauge.solvers import _Polisher, _polish, _prox_for, _spectral_norm_sq
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


# ---------------------------------------------------------------------------
# the polish


def test_criterion7_strong_signal_solve_is_polished():
    # sup(6) at r = 100: the polished minimizer carries its maximal cluster
    # bitwise tied, so the exact extractor reads the snapped pattern
    spec = GaugeSpec.sup(6)
    y = STRONG_SIGNAL_X @ (100.0 * STRONG_SIGNAL_BETA) + STRONG_SIGNAL_EPS
    opts = SolveOptions(tol=1e-8)
    res = solve(spec, STRONG_SIGNAL_X, y, 1.0, opts)
    assert res.converged and res.polished
    top = np.abs(res.beta) == np.max(np.abs(res.beta))
    assert top.sum() >= 2
    assert named_pattern("sup", res.beta) == active_set(spec, res.beta, opts.pattern_rel_tol).named
    assert kkt_residual(spec, STRONG_SIGNAL_X, y, 1.0, res.beta)[0] <= opts.tol


def test_polished_l1_zeros_are_exact():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((8, 12))
    beta = np.zeros(12)
    beta[:3] = [2.0, -1.5, 1.0]
    y = x @ beta + 0.1 * rng.standard_normal(8)
    res = solve(GaugeSpec.l1(12), x, y, 0.3 * zero_threshold(GaugeSpec.l1(12), x, y))
    assert res.converged and res.polished
    support = np.abs(res.beta) > 1e-6
    assert 0 < support.sum() < 12
    assert np.all(res.beta[~support] == 0.0)


def _fista_reference(grad, prox, lipschitz, start, iters):
    """Plain FISTA with the fixed step 1/lipschitz: no backtracking,
    restarts, KKT checks or polish."""
    b = z = start
    t = 1.0
    for _ in range(iters):
        b_new = prox(z - grad(z) / lipschitz)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = b_new + ((t - 1.0) / t_new) * (b_new - b)
        b, t = b_new, t_new
    return b


def _reference_minimizer(spec, x, y, lam, iters=5000):
    """The minimizer from a long unpolished FISTA run.  l1, sup, slope: on
    the primal.  genlasso, custom (X of full column rank, X = QR): with
    c = R b the problem is 0.5 ||Q'y - c||^2 + lam pen(R^-1 c), whose
    minimizer is Q'y - M'v with v minimizing 0.5 ||Q'y - M'v||^2 over a box
    (M = D R^-1, |v| <= lam) or a simplex (M = lam U R^-1)."""
    if spec.kind in ("l1", "sup", "slope"):
        lip = np.linalg.norm(x, 2) ** 2
        prox = _prox_for(spec)
        return _fista_reference(lambda b: x.T @ (x @ b - y), lambda v: prox(v, lam / lip), lip,
                                np.zeros(spec.p), iters)
    q, r = np.linalg.qr(x)
    rinv = np.linalg.inv(r)
    qy = q.T @ y
    if spec.kind == "genlasso":
        m, proj = spec.d @ rinv, lambda v: np.clip(v, -lam, lam)
    else:
        m, proj = lam * spec.u @ rinv, lambda v: project_simplex(v, 1.0)
    lip = np.linalg.norm(m, 2) ** 2
    v = _fista_reference(lambda v: m @ (m.T @ v - qy), proj, lip, np.zeros(m.shape[0]), iters)
    return rinv @ (qy - m.T @ v)


def _random_instance(kind, rng):
    if kind in ("l1", "sup", "slope"):
        x = rng.standard_normal((8, 5))
        spec = {"l1": GaugeSpec.l1(5), "sup": GaugeSpec.sup(5),
                "slope": GaugeSpec.slope([2.0, 1.6, 1.3, 1.1, 1.0])}[kind]
        return spec, x, 2.0 * rng.standard_normal(8)
    if kind == "tv":
        x = rng.standard_normal((12, 8))
        return GaugeSpec.tv(8), x, x @ np.repeat(rng.standard_normal(2), 4) + 0.3 * rng.standard_normal(12)
    u = np.vstack([np.zeros((1, 3)), rng.standard_normal((5, 3))])
    return GaugeSpec.custom(u), rng.standard_normal((6, 3)), 2.0 * rng.standard_normal(6)


@pytest.mark.parametrize("kind", ["l1", "sup", "slope", "tv", "custom"])
def test_polish_agrees_with_long_unpolished_run(kind):
    # the solver's answer and the polish of it both match the reference;
    # every FISTA kind polishes inside the loop
    rng = np.random.default_rng({"l1": 21, "sup": 22, "slope": 23, "tv": 24, "custom": 25}[kind])
    opts = SolveOptions(tol=1e-9)
    for _ in range(4):
        spec, x, y = _random_instance(kind, rng)
        lam = 0.5
        ref = _reference_minimizer(spec, x, y, lam)
        res = solve(spec, x, y, lam, opts)
        assert res.converged
        assert res.polished or kind in ("tv", "custom")
        assert np.max(np.abs(res.beta - ref)) <= 1e-6
        pattern = _pattern(spec, res.beta, opts.pattern_rel_tol * max(1.0, pen_eval(spec, res.beta)))
        b = _polish(x, y, lam, _basis(spec, pattern).vectors, _face_point(spec, pattern))
        assert np.max(np.abs(b - ref)) <= 1e-6
        assert kkt_residual(spec, x, y, lam, b)[0] <= opts.tol


def test_polish_is_tried_in_admm():
    # tv(48) denoising, the signals of the benchmark's ADMM solves
    for y in _tv48_signals():
        res = solve(GaugeSpec.tv(48), np.eye(48), y, 0.5)
        assert res.converged and res.polished
        assert kkt_residual(GaugeSpec.tv(48), np.eye(48), y, 0.5, res.beta)[0] <= 1e-7


def _criterion6_design():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    x = np.zeros((6, 10))
    x[0, 0] = x[1, 1] = 1.0
    x[:, 2] = 0.9 * (x[:, 0] + x[:, 1])
    x[:, 3:] = rng.standard_normal((6, 7)) / np.sqrt(6)
    return x


def test_polish_falls_back_on_singular_reduced_gram(monkeypatch):
    # criterion 6's design has x_3 = 0.9 (x_1 + x_2): a pattern with all
    # three (or more than 6 nonzeros) has a singular B'X'XB
    x = _criterion6_design()
    beta = np.zeros(10)
    beta[:2] = 1.0
    spec = GaugeSpec.l1(10)
    attempts = []

    def recording(x, y, lam, basis, s):
        out = _polish(x, y, lam, basis, s)
        xb = x @ basis
        attempts.append((np.linalg.matrix_rank(xb.T @ xb) < xb.shape[1], out))
        return out

    monkeypatch.setattr(solvers, "_polish", recording)
    singular_none = 0
    for i in range(5):
        eps = np.random.Generator(np.random.Philox(key=np.array([7, 1000 + i], dtype=np.uint64)))
        y = x @ beta + 0.5 * eps.standard_normal(6)
        lam = zero_threshold(spec, x, y) / 100.0
        attempts.clear()
        res = solve(spec, x, y, lam)
        assert res.converged
        assert kkt_residual(spec, x, y, lam, res.beta)[0] <= 1e-7
        singular_none += sum(1 for singular, out in attempts if singular and out is None)
        if res.polished:
            singular, out = attempts[-1]
            assert not singular and np.array_equal(out, res.beta)
    assert singular_none >= 1


def test_polish_rejects_a_pattern_whose_solve_flips_a_sign():
    # X = I, y = (3, 0.5), lam = 1: the minimizer is (2, 0).  A start with
    # pattern (1, -1) polishes to y - s = (2, 1.5), whose second sign flips;
    # the KKT test rejects it and the loop goes on from the iterate
    spec, x, y = GaugeSpec.l1(2), np.eye(2), np.array([3.0, 0.5])
    opts = SolveOptions()
    polisher = _Polisher(spec, x, y, 1.0, opts)
    wrong = np.array([2.0, -0.01])
    assert polisher.attempt(wrong, pen_eval(spec, wrong)) is None
    assert polisher.attempt(wrong, pen_eval(spec, wrong)) is None
    assert len(polisher.tried) == 1 and not polisher.accepted
    pattern = _pattern(spec, wrong, opts.pattern_rel_tol * max(1.0, pen_eval(spec, wrong)))
    flipped = _polish(x, y, 1.0, _basis(spec, pattern).vectors, _face_point(spec, pattern))
    assert flipped.tolist() == [2.0, 1.5]
    res = solve(spec, x, y, 1.0, opts, start=wrong)
    assert res.converged and res.beta.tolist() == [2.0, 0.0]


def test_polished_objective_closes_the_trace():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((6, 8))
    y = rng.standard_normal(6)
    for spec in (GaugeSpec.l1(8), GaugeSpec.sup(8), GaugeSpec.slope(np.arange(8.0, 0.0, -1.0))):
        lam = 0.2 * zero_threshold(spec, x, y)
        res = solve(spec, x, y, lam)
        assert res.polished
        r = y - x @ res.beta
        assert res.objective == 0.5 * float(r @ r) + lam * pen_eval(spec, res.beta)
        assert len(res.objective_trace) == res.iterations + 2
        assert res.objective <= res.objective_trace[-2] + 1e-12


def test_fig6_iteration_budget(monkeypatch):
    # seed 7 took 11,781 FISTA iterations over its 40 sup-norm solves before
    # the polish
    counts = []

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        counts.append(res.iterations)
        return res

    monkeypatch.setattr(experiments, "solve", counting)
    run_recovery_experiment(ExperimentConfig(seed=7))
    assert len(counts) == 40
    assert sum(counts) <= 5000


def _tv48_signals():
    # the two tv(48) signals of the benchmark's ADMM solves: Philox key
    # (2023, 13), after two tv(20) signals
    rng = np.random.Generator(np.random.Philox(key=np.array([2023, 13], dtype=np.uint64)))
    out = []
    for p in (20, 20, 48, 48):
        y = np.repeat(rng.standard_normal(4), p // 4) + 0.3 * rng.standard_normal(p)
        if p == 48:
            out.append(y)
    return out


def test_admm_runs_the_kkt_lp_only_when_the_gap_passes(monkeypatch):
    # each ADMM check ran a dual_feasibility LP, 5 and 6 on these solves;
    # the gap pre-screen leaves the LP to checks that can pass
    calls = []
    lp_solve = linprog.lp_solve

    def counting(problem):
        calls.append(problem)
        return lp_solve(problem)

    monkeypatch.setattr(linprog, "lp_solve", counting)
    for y in _tv48_signals():
        calls.clear()
        res = solve(GaugeSpec.tv(48), np.eye(48), y, 0.5)
        assert res.converged
        assert len(calls) <= 2


def test_admm_unconverged_returns_the_smaller_true_kkt(monkeypatch):
    # unconverged, the solver recomputes the true KKT residual of its last
    # iterate and of the iterate with the smallest bound (the gap where the
    # LP was skipped) and returns the smaller one
    y = _tv48_signals()[0]
    spec, x = GaugeSpec.tv(48), np.eye(48)
    calls = []

    def recording(spec, x, y, lam, beta):
        out = kkt_residual(spec, x, y, lam, beta)
        calls.append((np.array(beta), out[0]))
        return out

    monkeypatch.setattr(solvers, "kkt_residual", recording)
    for k in (60, 170):
        calls.clear()
        res = solve(spec, x, y, 0.5, SolveOptions(max_iter=k))
        assert not res.converged
        assert len(calls) == 2  # the last iterate, then the best by bound (iteration 50 or 150)
        last = calls[0][0]
        r = y - last
        assert res.objective_trace[-1] == 0.5 * float(r @ r) + 0.5 * pen_eval(spec, last)
        assert res.kkt_residual == min(kkt for _, kkt in calls)
        assert res.kkt_residual == kkt_residual(spec, x, y, 0.5, res.beta)[0]

    def last_is_worse(spec, x, y, lam, beta):
        kkt, g = kkt_residual(spec, x, y, lam, beta)
        calls.append(beta)
        return (kkt + 1.0 if len(calls) == 1 else kkt), g

    monkeypatch.setattr(solvers, "kkt_residual", last_is_worse)
    calls.clear()
    res = solve(spec, x, y, 0.5, SolveOptions(max_iter=60))
    assert res.beta is calls[1] and res.kkt_residual == kkt_residual(spec, x, y, 0.5, calls[1])[0]


# ---------------------------------------------------------------------------
# options at the boundary


@pytest.mark.parametrize("field, value", [
    ("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("max_iter", -1),
    ("check_every", 0), ("restart_period", 0), ("pattern_rel_tol", -1e-9), ("pattern_rel_tol", 1.0),
])
def test_solve_options_reject_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        SolveOptions(**{field: value})


def test_solve_options_accept_edge_values():
    SolveOptions(max_iter=0, check_every=1, restart_period=1, pattern_rel_tol=0.0)


def test_solve_rejects_start_of_wrong_length():
    with pytest.raises(ValueError, match="length 2, expected p = 3"):
        solve(GaugeSpec.l1(3), np.eye(3), np.ones(3), 0.5, start=np.zeros(2))
