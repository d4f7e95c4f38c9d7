"""Thresholded penalized estimators and their verifier.

A tau-thresholded estimate must stay within tau of the raw estimate in
sup-norm, its subdifferential must contain the raw one, and its pattern
must be of minimal face dimension among all points of that ball.  The two
implemented thresholders (componentwise zeroing for l1, the maximal-
cluster collapse for the sup-norm) satisfy the first two conditions by
construction; the third is verified by sampling, and labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauge import (
    GaugeSpec,
    PatternFingerprint,
    active_set,
    complexity,
    subdiff_includes,
)
from .numerics import as_matrix, as_vector
from .solvers import SolveOptions, SolveResult, solve

# Round-off allowance of condition 1, relative to max(1, ||beta_hat||_inf):
# the thresholders move a component by tau plus a rounding error of a few
# ulps (at most 8.7e-17 relative on criterion 7's instance), so an exact
# comparison of the gap with 0 would reject a constructive thresholder.
PROXIMITY_RTOL = 1e-12


@dataclass
class ThresholdResult:
    input: np.ndarray
    tau: float
    output: np.ndarray
    diagnostics: dict
    fingerprint: PatternFingerprint | None = None
    solve_result: SolveResult | None = None


def threshold_lasso(beta_hat, tau: float) -> ThresholdResult:
    """Zero every component with |beta_hat_j| <= tau, keep the rest."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    b = as_vector(beta_hat)
    out = np.where(np.abs(b) <= tau, 0.0, b)
    return ThresholdResult(b, tau, out, {"rule": "componentwise-zero"})


def threshold_sup(beta_hat, tau: float) -> ThresholdResult:
    """Collapse near-maximal components onto a shared magnitude.

    With M = ||beta_hat||_inf: everything is zeroed when M <= tau;
    otherwise components >= M - 2 tau (and nonnegative) become M - tau,
    components <= -M + 2 tau (and negative) become -(M - tau), the rest
    are untouched.  The moved components end up bitwise tied.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    b = as_vector(beta_hat)
    m = float(np.max(np.abs(b), initial=0.0))
    if m <= tau:
        out = np.zeros_like(b)
        return ThresholdResult(b, tau, out, {"rule": "all-zero", "sup": m})
    out = b.copy()
    hi = m - tau
    out[(b >= m - 2.0 * tau) & (b >= 0.0)] = hi
    out[(b <= -m + 2.0 * tau) & (b < 0.0)] = -hi
    return ThresholdResult(b, tau, out, {"rule": "cluster-collapse", "sup": m})


def verify_thresholded(
    spec: GaugeSpec,
    beta_hat,
    candidate,
    tau: float,
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Check a candidate against the three thresholded-estimator conditions.

    Conditions 1 (sup-norm proximity, up to PROXIMITY_RTOL) and 2
    (subdifferential inclusion) are exact.  Condition 3 (minimal face
    dimension over the tau-ball) is approximated by sampling `samples`
    uniform points plus corner probes of the ball, and is flagged
    "sampled" in the returned diagnostics.
    """
    b = as_vector(beta_hat)
    cand = as_vector(candidate)
    if b.shape != cand.shape:
        raise ValueError("dimension mismatch")
    gap = float(np.max(np.abs(b - cand), initial=0.0)) - tau
    cond1 = gap <= PROXIMITY_RTOL * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    cond2 = subdiff_includes(spec, b, cand)
    cand_dim = spec.p - complexity(spec, cand)
    rng = np.random.default_rng(seed)
    p = b.size
    probes = [b + tau * (2.0 * rng.random(p) - 1.0) for _ in range(samples)]
    if p <= 11:
        corners = np.array(
            np.meshgrid(*([[-tau, tau]] * p), indexing="ij")
        ).reshape(p, -1).T
    else:
        corners = tau * (2.0 * (rng.random((2048, p)) > 0.5) - 1.0)
    probes.extend(b + c for c in corners)
    cond3 = True
    worst = None
    for probe in probes:
        dim = spec.p - complexity(spec, probe)
        if dim > cand_dim:
            cond3 = False
            worst = probe
            break
    diag = {
        "condition1_gap": gap,
        "condition1": cond1,
        "condition2_inclusion": cond2,
        "condition3_minimal": cond3,
        "condition3_flag": "sampled",
        "candidate_face_dim": cand_dim,
    }
    if worst is not None:
        diag["condition3_counterexample"] = worst
    return diag


def recover_with_threshold(
    spec: GaugeSpec,
    x,
    y,
    lam: float,
    tau: float,
    opts: SolveOptions | None = None,
) -> ThresholdResult:
    """Solve, then threshold with the rule matching the penalty.

    Only the l1 and sup-norm penalties have a constructive thresholder
    here; other kinds are rejected.
    """
    if spec.kind not in ("l1", "sup"):
        raise ValueError(f"no constructive thresholder for kind {spec.kind!r}")
    x = as_matrix(x)
    y = as_vector(y)
    res = solve(spec, x, y, lam, opts)
    thr = threshold_lasso(res.beta, tau) if spec.kind == "l1" else threshold_sup(res.beta, tau)
    thr.solve_result = res
    thr.fingerprint = active_set(spec, thr.output)
    thr.diagnostics["solver_converged"] = res.converged
    return thr
