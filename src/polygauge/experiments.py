"""Monte-Carlo harness: accessibility/NRC phase sweep and the pattern
recovery experiment for the sup-norm penalty, plus SURE tuning.

Reproducibility contract: all randomness flows through Philox4x64
counter-based bit generators keyed as (seed, stream), where the stream
index encodes the replication (and sweep level) explicitly.  Replications
are therefore independent of execution order, and identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conditions import InfeasibleTarget, check_nrc_sup, min_linf_representation, zero_threshold
from .gauge import GaugeSpec, active_set
from .linprog import NumericalFailure
from .numerics import as_matrix, as_vector
from .solvers import SolveOptions, solve
from .threshold import threshold_sup


def replication_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox4x64 generator for one replication: key = (seed, stream)."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# A fig-5 replication is accessible when min ||gamma||_inf, the sup norm of
# the probe's maximal part, is at least 1 - SWEEP_ACCESS_TOL.
SWEEP_ACCESS_TOL = 1e-6


def _sweep_stream(k: int, rep: int) -> int:
    return (int(k) << 32) | int(rep)


@dataclass
class ExperimentConfig:
    seed: int
    n: int = 40
    p: int = 60
    reps: int = 200
    k_values: tuple = (0, 5, 10, 15, 20, 25, 30, 35)
    noise_sigma: float = 1.0
    cluster_values: tuple = (20.0, -20.0, 0.0)
    # 0.4/0.4/0.2 proportions keep the non-maximal count below 2n - p
    cluster_sizes: tuple = (24, 24, 12)
    lam_grid_size: int = 40
    lam_min_frac: float = 1e-3
    tau_fracs: tuple = tuple(np.geomspace(0.01, 0.6, 25))

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("seed is mandatory for reproducibility")
        if min(self.n, self.p, self.reps) <= 0:
            raise ValueError("n, p, reps must be positive")


@dataclass
class ResultRow:
    k: int
    p_access: float
    p_nrc: float
    reps: int
    se: float  # binomial standard error of the accessibility frequency
    failures: int = 0


def _sweep_one(args) -> tuple:
    """One replication of the fig5 sweep; returns (acc, nrc, failed)."""
    seed, n, p, k, rep = args
    rng = replication_rng(seed, _sweep_stream(k, rep))
    x = rng.standard_normal((n, p)) / np.sqrt(n)
    xt1 = x[:, : p - k] @ np.ones(p - k)
    beta = np.concatenate([np.ones(p - k), np.full(k, 0.5)])
    try:
        val = min_linf_representation(x, xt1)
        accessible = val >= 1.0 - SWEEP_ACCESS_TOL
        nrc = check_nrc_sup(x, beta).verdict
        return (accessible, nrc, False)
    except (NumericalFailure, InfeasibleTarget, np.linalg.LinAlgError):
        return (False, False, True)


def run_accessibility_sweep(config: ExperimentConfig) -> list:
    """Empirical accessibility and NRC frequencies per non-maximal count k.

    Per replication, a fresh Gaussian design with variance 1/n entries is
    drawn, the first p-k components of the probe pattern are maximal with
    positive sign; accessibility is min ||gamma||_inf = 1 for the summed
    maximal columns, NRC via the analytic sup-norm test.  Numerical
    failures (NumericalFailure, InfeasibleTarget, LinAlgError) are counted
    and excluded from the denominator; any other error propagates.
    """
    rows = []
    for k in config.k_values:
        if not 0 <= k < config.p:
            raise ValueError(f"k={k} out of range for p={config.p}")
        outcomes = [_sweep_one((config.seed, config.n, config.p, k, rep)) for rep in range(config.reps)]
        failed = sum(o[2] for o in outcomes)
        good = [o for o in outcomes if not o[2]]
        eff = len(good)
        p_acc = sum(o[0] for o in good) / eff if eff else float("nan")
        p_nrc = sum(o[1] for o in good) / eff if eff else float("nan")
        se = float(np.sqrt(p_acc * (1.0 - p_acc) / eff)) if eff else float("nan")
        rows.append(ResultRow(int(k), p_acc, p_nrc, eff, se, failed))
    return rows


def sweep_to_csv(rows) -> str:
    """CSV body for the sweep: columns k, p_acc, p_nrc, se."""
    lines = [f"{r.k:d},{r.p_access:.17g},{r.p_nrc:.17g},{r.se:.17g}" for r in rows]
    return "\n".join(lines) + "\n"


@dataclass
class SureSelection:
    lam: float
    criterion: float
    table: list = field(default_factory=list)  # (lam, criterion) per grid point


def _sure_pass(x, y, lam_grid, opts: SolveOptions | None):
    """One warm-started pass over the grid, largest lambda first, keeping
    converged points only.

    Returns the SURE selection, the solve at the selected lambda and the
    estimates of all converged points in pass order.
    """
    x = as_matrix(x)
    y = as_vector(y)
    opts = opts or SolveOptions()
    spec = GaugeSpec.sup(x.shape[1])
    order = np.argsort(np.asarray(lam_grid))[::-1]
    best, best_res = None, None
    table, betas = [], []
    warm = None
    for i in order:
        lam = float(np.asarray(lam_grid)[i])
        res = solve(spec, x, y, lam, opts, start=warm)
        if not res.converged:
            continue
        warm = res.beta
        betas.append(res.beta)
        resid = y - res.fitted
        pattern = active_set(spec, res.beta).named.as_array()
        nonmax = int(np.sum(pattern == 0)) if np.any(pattern != 0) else 0
        crit = 0.5 * float(resid @ resid) + nonmax
        table.append((lam, crit))
        if best is None or crit < best.criterion:
            best, best_res = SureSelection(lam, crit), res
    if best is None:
        raise RuntimeError("no grid point converged")
    best.table = sorted(table)
    return best, best_res, betas


def sure_select(x, y, lam_grid, opts: SolveOptions | None = None) -> SureSelection:
    """Pick lambda on the grid minimizing the sup-norm SURE-style criterion
    0.5 ||y - X beta_lam||^2 + #{j : |beta_lam_j| < ||beta_lam||_inf}.

    Ties break toward larger lambda; grid points where the solver fails to
    converge are skipped.
    """
    return _sure_pass(x, y, lam_grid, opts)[0]


def run_recovery_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """One-shot recovery experiment: clustered signal, Gaussian design and
    noise, SURE-tuned sup-norm estimate, then a threshold sweep.

    Emits (when out_dir is given) a component scatter CSV, a tau-sweep CSV
    and a JSON summary, all byte-deterministic for a fixed config.
    """
    n, p = config.n, config.p
    if sum(config.cluster_sizes) != p:
        raise ValueError("cluster sizes must sum to p")
    rng_x = replication_rng(config.seed, 0)
    rng_eps = replication_rng(config.seed, 1)
    x = rng_x.standard_normal((n, p)) / np.sqrt(n)
    eps = rng_eps.standard_normal(n)
    beta = np.concatenate(
        [np.full(sz, val) for sz, val in zip(config.cluster_sizes, config.cluster_values)]
    )
    y = x @ beta + config.noise_sigma * eps
    spec = GaugeSpec.sup(p)
    lam_zero = zero_threshold(spec, x, y)
    grid = np.geomspace(config.lam_min_frac * lam_zero, lam_zero, config.lam_grid_size)
    opts = SolveOptions(tol=1e-8)
    sel, res, betas = _sure_pass(x, y, grid, opts)
    target = active_set(spec, beta)
    raw_fp = active_set(spec, res.beta, rel_tol=opts.pattern_rel_tol)
    raw_match = raw_fp == target
    raw_match_any = any(active_set(spec, b, rel_tol=opts.pattern_rel_tol) == target for b in betas)
    sup_hat = float(np.max(np.abs(res.beta), initial=0.0))
    taus = [float(f) * sup_hat for f in config.tau_fracs]
    matches = []
    for tau in taus:
        thr = threshold_sup(res.beta, tau)
        matches.append(bool(active_set(spec, thr.output) == target))
    summary = {
        "seed": config.seed,
        "n": n,
        "p": p,
        "noise_sigma": config.noise_sigma,
        "cluster_values": list(config.cluster_values),
        "cluster_sizes": list(config.cluster_sizes),
        "lambda_zero": lam_zero,
        "lambda_selected": sel.lam,
        "sure_criterion": sel.criterion,
        "raw_pattern_match": bool(raw_match),
        "raw_match_any_lambda": bool(raw_match_any),
        "taus": taus,
        "threshold_matches": matches,
        "any_threshold_match": bool(any(matches)),
        "solver_converged": bool(res.converged),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        scatter = "\n".join(
            f"{j + 1:d},{res.beta[j]:.17g}" for j in range(p)
        ) + "\n"
        (out / "estimate_scatter.csv").write_text(scatter)
        tau_rows = "\n".join(
            f"{t:.17g},{int(m):d}" for t, m in zip(taus, matches)
        ) + "\n"
        (out / "threshold_sweep.csv").write_text(tau_rows)
        (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary
