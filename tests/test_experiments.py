import json

import numpy as np
import pytest

from polygauge import (
    ExperimentConfig,
    GaugeSpec,
    NumericalFailure,
    SolveOptions,
    active_set,
    experiments,
    linprog,
    min_linf_representation,
    replication_rng,
    run_accessibility_sweep,
    run_recovery_experiment,
    sure_select,
    tf_matrix,
    zero_threshold,
)
from polygauge.experiments import _sweep_one, sweep_to_csv


def test_replication_rng_streams_are_stable_and_distinct():
    a = replication_rng(3, 0).standard_normal(4)
    b = replication_rng(3, 0).standard_normal(4)
    c = replication_rng(3, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_is_mandatory():
    with pytest.raises(TypeError):
        ExperimentConfig()  # no seed
    with pytest.raises(ValueError):
        ExperimentConfig(seed=None)


def test_sweep_deterministic():
    cfg = ExperimentConfig(seed=42, n=8, p=5, reps=10, k_values=(0, 2))
    rows1 = run_accessibility_sweep(cfg)
    rows2 = run_accessibility_sweep(cfg)
    assert rows1 == rows2
    assert sweep_to_csv(rows1) == sweep_to_csv(rows2)


def test_sweep_order_independent_of_execution():
    # replication outcomes only depend on (seed, k, rep), not on run order
    cfg = ExperimentConfig(seed=9, n=8, p=5, reps=6, k_values=(1,))
    tasks = [(cfg.seed, cfg.n, cfg.p, 1, rep) for rep in range(cfg.reps)]
    forward = [_sweep_one(t) for t in tasks]
    backward = [_sweep_one(t) for t in reversed(tasks)]
    assert forward == backward[::-1]


def test_sweep_injective_design_always_accessible():
    cfg = ExperimentConfig(seed=4, n=10, p=6, reps=20, k_values=(0,))
    rows = run_accessibility_sweep(cfg)
    assert rows[0].p_access == 1.0
    assert rows[0].failures == 0


def test_sweep_accessibility_declines_in_k():
    cfg = ExperimentConfig(seed=12, n=8, p=12, reps=30, k_values=(0, 4, 10))
    rows = run_accessibility_sweep(cfg)
    probs = [r.p_access for r in rows]
    assert probs[0] >= probs[1] >= probs[2] - 0.1  # monotone trend with slack


def test_sure_select_zero_response_ties_to_largest():
    x = np.eye(3)
    grid = [0.5, 1.0, 2.0]
    sel = sure_select(x, np.zeros(3), grid)
    assert sel.lam == 2.0
    assert sel.criterion == 0.0


def test_sure_select_is_argmin(sup_path_case):
    grid = np.geomspace(0.2, 25.0, 50)
    sel = sure_select(sup_path_case["x"], sup_path_case["y"], grid, SolveOptions(tol=1e-9))
    assert all(sel.criterion <= crit + 1e-12 for _, crit in sel.table)
    # the winning lambda reproduces one of the known path patterns
    from polygauge import active_set, solve

    res = solve(sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], sel.lam, SolveOptions(tol=1e-9))
    patt = active_set(sup_path_case["spec"], res.beta, rel_tol=1e-6).named.values
    assert patt in [(0, 1, 1), (1, 1, 1), (0, 0, 0)]


def test_recovery_experiment_deterministic(tmp_path):
    cfg = ExperimentConfig(
        seed=5, n=16, p=20, reps=1, cluster_sizes=(7, 7, 6),
        noise_sigma=0.5, lam_grid_size=12,
    )
    s1 = run_recovery_experiment(cfg, out_dir=tmp_path / "a")
    s2 = run_recovery_experiment(cfg, out_dir=tmp_path / "b")
    assert s1 == s2
    for name in ("estimate_scatter.csv", "threshold_sweep.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["solver_converged"]
    assert len(summary["taus"]) == len(summary["threshold_matches"])


def test_recovery_experiment_solves_each_grid_point_once(monkeypatch):
    # SURE selection, the selected estimate and raw_match_any_lambda all
    # come from one warm-started pass over the grid
    calls = []
    real = experiments.solve

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((args[3], res))
        return res

    monkeypatch.setattr(experiments, "solve", counted)
    # on this draw only the third-largest lambda shows the pattern
    cfg = ExperimentConfig(seed=26, n=10, p=15, cluster_sizes=(6, 6, 3), lam_grid_size=6, noise_sigma=0.3)
    summary = run_recovery_experiment(cfg)
    lams = [lam for lam, _ in calls]
    assert len(calls) == cfg.lam_grid_size
    assert lams == sorted(lams, reverse=True)
    assert summary["lambda_selected"] in lams
    spec = GaugeSpec.sup(cfg.p)
    target = active_set(spec, np.concatenate(
        [np.full(s, v) for s, v in zip(cfg.cluster_sizes, cfg.cluster_values)]))
    matches = [active_set(spec, res.beta, rel_tol=SolveOptions().pattern_rel_tol) == target
               for _, res in calls if res.converged]
    assert any(matches) and not matches[0] and not matches[-1]
    assert summary["raw_match_any_lambda"]
    assert not summary["raw_pattern_match"]


def test_recovery_experiment_rejects_bad_clusters():
    with pytest.raises(ValueError):
        run_recovery_experiment(ExperimentConfig(seed=1, n=8, p=10, cluster_sizes=(3, 3, 3)))


def test_recovery_experiment_desk_scale_threshold_helps():
    # clustered signal, wide design: the tuned estimate misses the
    # pattern, some threshold in the sweep recovers it
    cfg = ExperimentConfig(
        seed=2024, n=40, p=60, cluster_sizes=(24, 24, 12),
        cluster_values=(20.0, -20.0, 0.0), noise_sigma=1.0, lam_grid_size=30,
    )
    summary = run_recovery_experiment(cfg)
    assert summary["solver_converged"]
    assert not summary["raw_pattern_match"]
    assert summary["any_threshold_match"]


def test_recovery_experiment_noiseless_match_when_condition_holds():
    # sigma = 0: whenever the drawn instance satisfies the analytic
    # sup-norm recovery condition, some grid lambda shows the pattern
    from polygauge import check_nrc_sup
    from polygauge.experiments import replication_rng

    found = None
    for seed in range(25):
        cfg = ExperimentConfig(
            seed=seed, n=24, p=12, cluster_sizes=(4, 4, 4),
            cluster_values=(20.0, -20.0, 0.0), noise_sigma=0.0, lam_grid_size=25,
        )
        x = replication_rng(seed, 0).standard_normal((cfg.n, cfg.p)) / np.sqrt(cfg.n)
        beta = np.concatenate(
            [np.full(s, v) for s, v in zip(cfg.cluster_sizes, cfg.cluster_values)]
        )
        if check_nrc_sup(x, beta).verdict:
            found = cfg
            break
    assert found is not None
    summary = run_recovery_experiment(found)
    assert summary["raw_match_any_lambda"]


def _count_lps(monkeypatch):
    calls = []
    real = linprog.lp_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linprog, "lp_solve", counted)
    return calls


def test_zero_threshold_genlasso_dual_gauge(monkeypatch):
    rng = np.random.default_rng(13)
    spec = GaugeSpec.tv(4)
    x = rng.standard_normal((4, 4))
    # pick y with X'y inside col(D') so the threshold is finite
    z = rng.standard_normal(3)
    y = np.linalg.solve(x.T, spec.d.T @ z)
    lam0 = zero_threshold(spec, x, y)
    assert np.isfinite(lam0)
    from polygauge import dual_feasibility

    assert dual_feasibility(spec, (x.T @ y) / lam0) <= 1e-7
    assert dual_feasibility(spec, (x.T @ y) / (lam0 * 0.9)) > 0
    # tf(5) with X = I, where doubling on dual_feasibility(...) <= 0 ran
    # away to 9.48e10: D' has full column rank, so D'z = y has one solution
    y = np.array([0.6106217760071733, -1.1011730103651076, 0.7608029600113063,
                  -0.6605739929559828, 0.3903222673026109])
    z_exact, *_ = np.linalg.lstsq(tf_matrix(5).T, y, rcond=None)
    assert np.max(np.abs(tf_matrix(5).T @ z_exact - y)) < 1e-12
    calls = _count_lps(monkeypatch)
    lam0 = zero_threshold(GaugeSpec.tf(5), np.eye(5), y)
    assert len(calls) == 1
    assert abs(lam0 - 0.6106217760071733) < 1e-9
    assert abs(lam0 - np.max(np.abs(z_exact))) < 1e-9
    assert abs(lam0 - min_linf_representation(tf_matrix(5).T, y)) < 1e-12
    # col(D') is the sum-zero subspace, which X'y = 1 is outside
    assert zero_threshold(GaugeSpec.tv(3), np.eye(3), np.ones(3)) == float("inf")


def test_zero_threshold_custom_dual_gauge(monkeypatch):
    # U = [0; V; -V]: B* = V'(cross-polytope), so the threshold is ||V'^-1 X'y||_1
    rng = np.random.default_rng(3)
    draws = [(rng.standard_normal((3, 3)), rng.standard_normal((5, 3)), rng.standard_normal(5))
             for _ in range(5)]
    for i, (v, x, y) in enumerate(draws):
        spec = GaugeSpec.custom(np.vstack([np.zeros((1, 3)), v, -v]))
        calls = _count_lps(monkeypatch)
        lam0 = zero_threshold(spec, x, y)
        assert len(calls) == 1
        truth = float(np.sum(np.abs(np.linalg.solve(v.T, x.T @ y))))
        assert abs(lam0 - truth) <= 1e-9 * max(1.0, truth)
        if i == 1:  # doubling on dual_feasibility(...) <= 0 ran away to 4.68e11
            assert abs(lam0 - 4.0343137) < 1e-7
    # X'y outside cone(U) = the nonnegative quadrant
    spec = GaugeSpec.custom([[1.0, 0.0], [0.0, 1.0]])
    assert zero_threshold(spec, np.eye(2), np.array([-1.0, 0.5])) == float("inf")
    assert abs(zero_threshold(spec, np.eye(2), np.array([1.0, 0.5])) - 1.5) < 1e-12


def test_sweep_counts_numerical_failures_and_propagates_other_errors(monkeypatch):
    def fail_with(exc):
        def stub(x, target):
            raise exc("stub")
        return stub

    cfg = ExperimentConfig(seed=3, n=8, p=5, reps=4, k_values=(1,))
    monkeypatch.setattr(experiments, "min_linf_representation", fail_with(NumericalFailure))
    rows = run_accessibility_sweep(cfg)
    assert rows[0].failures == 4 and rows[0].reps == 0
    monkeypatch.setattr(experiments, "min_linf_representation", fail_with(TypeError))
    with pytest.raises(TypeError):
        _sweep_one((3, 8, 5, 1, 0))
