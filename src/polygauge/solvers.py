"""Minimizers of the gauge-penalized least-squares objective.

Accelerated proximal gradient (with backtracking, periodic restarts and a
monotone safeguard) handles the prox-friendly penalties (l1, slope, sup).
Generalized-lasso and custom gauges share one ADMM on the split z = M b,
with M = D and M = U (the generator matrix) respectively, and a residual-
balanced penalty parameter.  Its z-prox is exact: soft thresholding for
||z||_1, and v - (projection of v onto the t-simplex) for t * max(z), since
pen(b) = max(U b) with u_1 = 0.  Convergence is declared on the KKT
residual of the dual certificate g = X'(y - X beta)/lambda, never on
iterate change: the downstream condition checkers reason about exact
minimizers, so certification must be dual-based.

The prox operators are written so that tied components come out bitwise
equal (clipping against a shared threshold, block averages), which keeps
the exact pattern extractors usable on solver output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .gauge import (
    GaugeSpec,
    PatternFingerprint,
    active_set,
    dual_feasibility,
    pen_eval,
)
from .numerics import as_matrix, as_vector, rank


class NotConvergedError(RuntimeError):
    """Raised by the path driver when a grid solve fails to converge."""


# ---------------------------------------------------------------------------
# proximal operators


def prox_l1(v, t: float) -> np.ndarray:
    """Soft threshold: componentwise sign(v) * max(|v| - t, 0)."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    v = as_vector(v)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _simplex_threshold(a: np.ndarray, radius: float) -> float:
    """Duchi pivot: theta with sum(max(a - theta, 0)) = radius (any real
    a, radius > 0)."""
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, a.size + 1)
    cond = u - (css - radius) / idx > 0
    rho = int(idx[cond][-1])
    return float((css[rho - 1] - radius) / rho)


def project_simplex(a, radius: float) -> np.ndarray:
    """Euclidean projection of a onto {w >= 0, sum(w) = radius}; any real a
    works when radius > 0."""
    a = as_vector(a)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return np.zeros_like(a)
    return np.maximum(a - _simplex_threshold(a, radius), 0.0)


def _prox_max(v, t: float) -> np.ndarray:
    """Exact prox of t * max(.): Moreau's identity, the conjugate of max
    being the indicator of the unit simplex."""
    return v - project_simplex(v, t)


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection onto {w : ||w||_1 <= radius} (Duchi algorithm)."""
    v = as_vector(v)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0:
        return np.zeros_like(v)
    theta = _simplex_threshold(a, radius)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def prox_linf(v, t: float) -> np.ndarray:
    """Prox of t*||.||_inf via Moreau: v minus the l1-ball projection.

    Implemented as a clip against the shared Duchi threshold so that the
    clipped components are bitwise equal.
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    v = as_vector(v)
    if t == 0:
        return v.copy()
    a = np.abs(v)
    if a.sum() <= t:
        return np.zeros_like(v)
    theta = _simplex_threshold(a, t)
    return np.clip(v, -theta, theta)


def prox_sorted_l1(v, weights, t: float) -> np.ndarray:
    """Exact prox of t * sorted-l1 norm: sort, isotonic stack, unsort.

    weights must be strictly decreasing positive; merged blocks share one
    float value so tied magnitudes compare equal exactly.
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    v = as_vector(v)
    w = as_vector(weights)
    if w.size != v.size:
        raise ValueError("weight length must match vector length")
    if np.any(w <= 0) or np.any(np.diff(w) >= 0):
        raise ValueError("weights must be strictly decreasing and positive")
    if t == 0:
        return v.copy()
    sgn = np.sign(v)
    a = np.abs(v)
    order = np.argsort(-a, kind="stable")
    z = a[order] - t * w
    vals: list[float] = []
    lens: list[int] = []
    for x in z:
        cv, cl = float(x), 1
        while vals and vals[-1] <= cv:
            cv = (cv * cl + vals[-1] * lens[-1]) / (cl + lens[-1])
            cl += lens[-1]
            vals.pop()
            lens.pop()
        vals.append(cv)
        lens.append(cl)
    sorted_out = np.concatenate(
        [np.full(l, max(val, 0.0)) for val, l in zip(vals, lens)]
    )
    out = np.empty_like(a)
    out[order] = sorted_out
    return sgn * out


# ---------------------------------------------------------------------------
# solve


@dataclass
class SolveOptions:
    tol: float = 1e-7
    max_iter: int = 100000
    restart_period: int = 2000
    check_every: int = 10
    pattern_rel_tol: float = 1e-6  # fingerprint snapping along solution paths


@dataclass
class SolveResult:
    beta: np.ndarray
    fitted: np.ndarray
    dual_certificate: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: list = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.objective_trace[-1] if self.objective_trace else float("nan")


def kkt_residual(spec: GaugeSpec, x, y, lam: float, beta) -> tuple:
    """max(dual-ball margin, |pen - g'beta|) for g = X'(y - X beta)/lam."""
    x = as_matrix(x)
    y = as_vector(y)
    beta = as_vector(beta)
    g = x.T @ (y - x @ beta) / lam
    margin = dual_feasibility(spec, g)
    gap = abs(pen_eval(spec, beta) - float(g @ beta))
    return max(margin, gap), g


def _spectral_norm_sq(x: np.ndarray, iters: int = 50) -> float:
    """Largest eigenvalue of X'X by power iteration.

    The start vector comes from a fixed-seed generator so it is generic
    (an aligned deterministic start such as all-ones can be orthogonal to
    the leading eigenspace); a Frobenius upper bound covers the remaining
    degenerate case, which only costs step-size slack under backtracking.
    """
    p = x.shape[1]
    if p == 0 or x.size == 0:
        return 0.0
    v = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64))).standard_normal(p)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = x.T @ (x @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
    est = float(np.linalg.norm(x @ v) ** 2)
    if est <= 0.0:
        est = float(np.sum(x * x))  # Frobenius bound; zero only for zero X
    return est


def _prox_for(spec: GaugeSpec):
    if spec.kind == "l1":
        return prox_l1
    if spec.kind == "sup":
        return prox_linf
    if spec.kind == "slope":
        w = np.asarray(spec.weights)
        return lambda v, t: prox_sorted_l1(v, w, t)
    raise ValueError(f"no closed-form prox for kind {spec.kind!r}")


def solve(
    spec: GaugeSpec,
    x,
    y,
    lam: float,
    opts: SolveOptions | None = None,
    start=None,
) -> SolveResult:
    """Minimize 0.5 ||y - X b||^2 + lam * pen(b).

    converged=True guarantees kkt_residual <= opts.tol; after max_iter the
    best iterate is returned with converged=False.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    opts = opts or SolveOptions()
    x = as_matrix(x)
    y = as_vector(y)
    if x.shape[0] != y.shape[0] or x.shape[1] != spec.p:
        raise ValueError("dimension mismatch between spec, X and y")
    if spec.kind in ("l1", "sup", "slope"):
        return _fista(spec, x, y, lam, opts, start)
    if spec.kind == "genlasso":
        if rank(np.vstack([x, spec.d])) < spec.p:
            warnings.warn(
                "ker(X) and ker(D) intersect nontrivially: minimizer set is unbounded",
                RuntimeWarning,
            )
    return _admm(spec, x, y, lam, opts, start)


def _objective(spec, x, y, lam, b):
    r = y - x @ b
    return 0.5 * float(r @ r) + lam * pen_eval(spec, b)


def _fista(spec, x, y, lam, opts, start):
    p = x.shape[1]
    prox = _prox_for(spec)
    beta = np.zeros(p) if start is None else as_vector(start).copy()
    lip = max(_spectral_norm_sq(x), 1e-12)
    step = 1.0 / lip
    z = beta.copy()
    t_k = 1.0
    obj = _objective(spec, x, y, lam, beta)
    trace = [obj]
    it = 0
    converged = False
    # always take at least one proximal step: a warm start may satisfy the
    # KKT tolerance while carrying junk components that the prox removes
    while it < opts.max_iter:
        it += 1
        cand, step = _backtrack_step(spec, x, y, lam, z, step, prox)
        cand_obj = _objective(spec, x, y, lam, cand)
        if cand_obj > obj:
            # monotone safeguard: plain proximal step from the current point
            cand, step = _backtrack_step(spec, x, y, lam, beta, step, prox)
            cand_obj = _objective(spec, x, y, lam, cand)
            t_k = 1.0
        beta_prev = beta
        beta = cand
        obj = min(obj, cand_obj)
        trace.append(obj)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        z = beta + ((t_k - 1.0) / t_next) * (beta - beta_prev)
        t_k = t_next
        if it % opts.restart_period == 0:
            t_k = 1.0
            z = beta.copy()
        if it == 1 or it % opts.check_every == 0:
            kkt, g = kkt_residual(spec, x, y, lam, beta)
            if kkt <= opts.tol:
                converged = True
                break
    kkt, g = kkt_residual(spec, x, y, lam, beta)
    converged = kkt <= opts.tol
    return SolveResult(beta, x @ beta, g, kkt, it, converged, trace)


def _backtrack_step(spec, x, y, lam, z, step, prox):
    """One proximal-gradient step from z with halving backtracking."""
    r = x @ z - y
    gz = 0.5 * float(r @ r)
    grad = x.T @ r
    while True:
        cand = prox(z - step * grad, step * lam)
        diff = cand - z
        rc = x @ cand - y
        lhs = 0.5 * float(rc @ rc)
        quad = gz + float(grad @ diff) + float(diff @ diff) / (2.0 * step)
        if lhs <= quad + 1e-12 * (1.0 + abs(quad)) or step < 1e-18:
            return cand, step
        step *= 0.5


def _admm(spec, x, y, lam, opts, start):
    """Operator splitting on z = M b: M = D with the prox of t*||.||_1
    (genlasso), M = U with the prox of t*max(.) (custom gauges).

    rho starts at 1 and is rebalanced by factor 2 every 25 iterations when
    primal and dual residuals drift apart by more than 10x.
    """
    p = x.shape[1]
    d, prox = (spec.d, prox_l1) if spec.kind == "genlasso" else (spec.u, _prox_max)
    m = d.shape[0]
    xtx = x.T @ x
    xty = x.T @ y
    dtd = d.T @ d
    rho = 1.0
    solve_mat = _factorize(xtx + rho * dtd)
    beta = np.zeros(p) if start is None else as_vector(start).copy()
    z = d @ beta
    dual_u = np.zeros(m)
    trace = [_objective(spec, x, y, lam, beta)]
    best = (np.inf, beta.copy(), 0)
    it = 0
    check_every = 50
    while it < opts.max_iter:
        it += 1
        rhs = xty + rho * (d.T @ (z - dual_u))
        beta = solve_mat(rhs)
        db = d @ beta
        z_new = prox(db + dual_u, lam / rho)
        r_primal = float(np.linalg.norm(db - z_new))
        r_dual = float(np.linalg.norm(rho * (d.T @ (z_new - z))))
        dual_u = dual_u + db - z_new
        z = z_new
        trace.append(_objective(spec, x, y, lam, beta))
        if it % 25 == 0:
            if r_primal > 10.0 * r_dual:
                rho *= 2.0
                dual_u /= 2.0
                solve_mat = _factorize(xtx + rho * dtd)
            elif r_dual > 10.0 * r_primal:
                rho /= 2.0
                dual_u *= 2.0
                solve_mat = _factorize(xtx + rho * dtd)
        if it % check_every == 0:
            kkt, g = kkt_residual(spec, x, y, lam, beta)
            if kkt < best[0]:
                best = (kkt, beta.copy(), it)
            if kkt <= opts.tol:
                return SolveResult(beta, x @ beta, g, kkt, it, True, trace)
    kkt, g = kkt_residual(spec, x, y, lam, beta)
    if kkt > best[0]:
        beta = best[1]
        kkt, g = kkt_residual(spec, x, y, lam, beta)
    return SolveResult(beta, x @ beta, g, kkt, it, kkt <= opts.tol, trace)


def _factorize(a: np.ndarray):
    """Return a solver for 'a b = rhs'; pinv fallback for singular a."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(a)
    return lambda rhs: inv @ rhs


# ---------------------------------------------------------------------------
# solution path


@dataclass
class PathSegment:
    lam_lo: float
    lam_hi: float
    fingerprint: PatternFingerprint


@dataclass
class PathResult:
    lambdas: np.ndarray
    fingerprints: list
    segments: list
    breakpoints: list


def solution_path(
    spec: GaugeSpec,
    x,
    y,
    lam_min: float,
    lam_max: float,
    grid_size: int = 40,
    refine_tol: float = 1e-4,
    opts: SolveOptions | None = None,
) -> PathResult:
    """Fingerprints along a log-spaced lambda grid with bisection-refined
    breakpoints (reported at interval midpoints, interval width refine_tol).
    """
    if not (0 < lam_min < lam_max):
        raise ValueError("need 0 < lam_min < lam_max")
    opts = opts or SolveOptions()
    x = as_matrix(x)
    y = as_vector(y)
    grid = np.geomspace(lam_min, lam_max, grid_size)
    cache: dict = {}

    def fp_at(lam, warm=None) -> PatternFingerprint:
        if lam not in cache:
            res = solve(spec, x, y, lam, opts, start=warm)
            if not res.converged:
                raise NotConvergedError(f"solve did not converge at lambda={lam}")
            cache[lam] = res
        return active_set(spec, cache[lam].beta, rel_tol=opts.pattern_rel_tol)

    fps = []
    warm = None
    for lam in grid[::-1]:  # march downward, warm-starting as support grows
        fps.append(fp_at(lam, warm))
        warm = cache[lam].beta
    fps = fps[::-1]

    breakpoints = []
    for i in range(len(grid) - 1):
        if fps[i] == fps[i + 1]:
            continue
        lo, hi = grid[i], grid[i + 1]
        fp_lo = fps[i]
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            if fp_at(mid, cache[lo].beta if lo in cache else None) == fp_lo:
                lo = mid
            else:
                hi = mid
        breakpoints.append(0.5 * (lo + hi))

    segments = []
    start_idx = 0
    for i in range(1, len(grid) + 1):
        if i == len(grid) or fps[i] != fps[start_idx]:
            segments.append(
                PathSegment(float(grid[start_idx]), float(grid[i - 1]), fps[start_idx])
            )
            start_idx = i
    return PathResult(grid, fps, segments, breakpoints)
