"""Thresholded penalized estimators and their verifier.

A tau-thresholded estimate must stay within tau of the raw estimate in
sup-norm, its subdifferential must contain the raw one, and its pattern
must be of maximal face dimension (least complexity) among all points of
that ball.  The two implemented thresholders (componentwise zeroing for
l1, the maximal-cluster collapse for the sup-norm) satisfy the first two
conditions by construction and attain the least complexity over the
ball, so the verifier decides the third condition exactly against them.
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


_THRESHOLDERS = {"l1": threshold_lasso, "sup": threshold_sup}


def _thresholder(kind: str):
    """The constructive thresholder of a penalty kind (l1 and sup only)."""
    if kind not in _THRESHOLDERS:
        raise ValueError(f"no constructive thresholder for kind {kind!r}")
    return _THRESHOLDERS[kind]


def verify_thresholded(
    spec: GaugeSpec,
    beta_hat,
    candidate,
    tau: float,
    samples: int | None = None,
) -> dict:
    """Check a candidate against the three thresholded-estimator conditions.

    Condition 1 (sup-norm proximity, up to PROXIMITY_RTOL), condition 2
    (subdifferential inclusion) and condition 3 (maximal face dimension,
    that is least complexity, over the closed ball ||v - beta_hat||_inf
    <= tau) are all exact.  For l1 and sup the kind's thresholder T
    attains the least complexity over the ball: #{j : |b_j| > tau} for l1,
    and #{j : |b_j| < M - 2 tau} + 1 with M = ||b||_inf for sup (0 when
    M <= tau).  Condition 3 therefore holds iff the candidate's complexity
    is at most that of T(beta_hat, tau); when it fails, T(beta_hat, tau)
    is returned as a counterexample anyone can recheck.

    `samples` is accepted for compatibility and ignored.  Kinds without a
    constructive thresholder and tau < 0 raise ValueError.
    """
    b = as_vector(beta_hat)
    cand = as_vector(candidate)
    # the thresholder also rejects tau < 0, before any condition runs
    least = _thresholder(spec.kind)(b, tau).output
    if b.shape != cand.shape:
        raise ValueError("dimension mismatch")
    gap = float(np.max(np.abs(b - cand), initial=0.0)) - tau
    cond1 = gap <= PROXIMITY_RTOL * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    cond2 = subdiff_includes(spec, b, cand)
    cand_complexity = complexity(spec, cand)
    cond3 = cand_complexity <= complexity(spec, least)
    diag = {
        "condition1_gap": gap,
        "condition1": cond1,
        "condition2_inclusion": cond2,
        "condition3_minimal": cond3,
        "condition3_flag": "exact",
        "candidate_face_dim": spec.p - cand_complexity,
    }
    if not cond3:
        diag["condition3_counterexample"] = least
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
    thresholder = _thresholder(spec.kind)
    x = as_matrix(x)
    y = as_vector(y)
    res = solve(spec, x, y, lam, opts)
    thr = thresholder(res.beta, tau)
    thr.solve_result = res
    thr.fingerprint = active_set(spec, thr.output)
    thr.diagnostics["solver_converged"] = res.converged
    return thr
