"""Minimizers of the gauge-penalized least-squares objective.

Accelerated proximal gradient (FISTA, Beck & Teboulle 2009) handles the
prox-friendly penalties (l1, slope, sup).  ``solve`` validates its inputs
once; the loop then calls unvalidated prox, penalty and dual-gauge kernels,
the same ones the public prox functions, ``pen_eval`` and
``dual_feasibility`` wrap.  The step starts at 1/L with L the exact largest
eigenvalue of X'X and halves while the quadratic upper bound fails by more
than BACKTRACK_RTOL * (1 + |bound|), or until it falls below STEP_FLOOR.
A candidate whose objective exceeds the best so far by more than
MONOTONE_RTOL * max(1, |best|) is replaced by a plain proximal step from
the current point (monotone safeguard; a smaller excess is round-off).
Momentum restarts on that safeguard, every ``restart_period`` iterations,
and when it points uphill, (z - b_new)'(b_new - b) > 0 with z the
extrapolated point (gradient restart, O'Donoghue & Candes 2015).
Generalized-lasso and custom gauges share one ADMM on the split z = M b,
with M = D and M = U (the generator matrix) respectively, and a residual-
balanced penalty parameter.  Its z-prox is exact: soft thresholding for
||z||_1, and v - (projection of v onto the t-simplex) for t * max(z), since
pen(b) = max(U b) with u_1 = 0.  Convergence is declared on the KKT
residual of the dual certificate g = X'(y - X beta)/lambda, never on
iterate change: the downstream condition checkers reason about exact
minimizers, so certification must be dual-based.  ADMM takes the cheap
half of that residual first, the gap |pen(beta) - g'beta|, and runs the
dual_feasibility LP only when the gap is within tol.

Polish.  On the pattern class of a point, pen is linear: pen(B theta) =
s'B theta for the pattern subspace B (``pattern_subspace``) and any point
s of the face of B* that the pattern names.  So the minimizer with a known
pattern solves one small linear system,
beta = B (B'X'X B)^-1 (B'X'y - lambda B's).  Both loops snap the iterate
at each failed KKT check with active_set's rule at opts.pattern_rel_tol;
when the snapped pattern equals the one at the previous check, they
polish once per pattern and return the polished point if the loop's own
KKT test holds there.  A singular B'X'X B or a failed test leaves the
iterate untouched.  Polished zeros and ties are exact by construction.

The prox operators are written so that tied components come out bitwise
equal (clipping against a shared threshold, block averages), which keeps
the exact pattern extractors usable on unpolished solver output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gauge import (
    GaugeSpec,
    PatternFingerprint,
    _basis,
    _dual_gauge,
    _face_point,
    _pattern,
    _pen,
    active_set,
    dual_feasibility,
    pen_eval,
)
from .numerics import as_matrix, as_vector, rank


MONOTONE_RTOL = 1e-12  # FISTA's safeguard takes a smaller rise as round-off
BACKTRACK_RTOL = 1e-12  # slack of the backtracking quadratic upper bound
STEP_FLOOR = 1e-18  # backtracking stops halving below this step


class NotConvergedError(RuntimeError):
    """Raised by the path driver when a grid solve fails to converge."""


# ---------------------------------------------------------------------------
# proximal operators


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def prox_l1(v, t: float) -> np.ndarray:
    """Soft threshold: componentwise sign(v) * max(|v| - t, 0)."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return _soft_threshold(as_vector(v), t)


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
    """Euclidean projection onto {w : ||w||_1 <= radius}: by Moreau, v minus
    the prox of radius * ||.||_inf."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    v = as_vector(v)
    return v - _clip_linf(v, radius)


def _clip_linf(v: np.ndarray, t: float) -> np.ndarray:
    if t == 0:
        return v.copy()
    a = np.abs(v)
    if a.sum() <= t:
        return np.zeros_like(v)
    theta = _simplex_threshold(a, t)
    return np.clip(v, -theta, theta)


def prox_linf(v, t: float) -> np.ndarray:
    """Prox of t*||.||_inf via Moreau: v minus the l1-ball projection.

    Implemented as a clip against the shared Duchi threshold so that the
    clipped components are bitwise equal.
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return _clip_linf(as_vector(v), t)


def _sorted_l1(v: np.ndarray, w: np.ndarray, t: float) -> np.ndarray:
    if t == 0:
        return v.copy()
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
    return np.sign(v) * out


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
    return _sorted_l1(v, w, t)


# ---------------------------------------------------------------------------
# solve


@dataclass
class SolveOptions:
    tol: float = 1e-7
    max_iter: int = 100000
    restart_period: int = 2000
    check_every: int = 10
    pattern_rel_tol: float = 1e-6  # pattern snapping for the polish and along paths

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.check_every < 1:
            raise ValueError(f"check_every must be at least 1, got {self.check_every}")
        if self.restart_period < 1:
            raise ValueError(f"restart_period must be at least 1, got {self.restart_period}")
        if not 0 <= self.pattern_rel_tol < 1:
            raise ValueError(f"pattern_rel_tol must lie in [0, 1), got {self.pattern_rel_tol}")


@dataclass
class SolveResult:
    beta: np.ndarray
    fitted: np.ndarray
    dual_certificate: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: list = field(default_factory=list)
    polished: bool = False  # beta is the pattern-subspace solve, not an iterate

    @property
    def objective(self) -> float:
        """Last entry of the trace.  When the polish produced beta, this is
        beta's own objective.  Otherwise FISTA's trace holds the best
        objective so far; the returned beta's own objective may exceed it
        by at most MONOTONE_RTOL * max(1, |objective|), plus the
        backtracking slack when that step was a safeguard step."""
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


def _spectral_norm_sq(x: np.ndarray) -> float:
    """Largest eigenvalue of X'X, exact: eigvalsh of the smaller Gram
    matrix (X'X or XX'), which share their nonzero eigenvalues."""
    if x.size == 0:
        return 0.0
    gram = x.T @ x if x.shape[1] <= x.shape[0] else x @ x.T
    return float(np.linalg.eigvalsh(gram)[-1])


def _prox_for(spec: GaugeSpec):
    """The unvalidated prox kernel (v, t) -> prox of t * pen at v."""
    if spec.kind == "slope":
        w = np.asarray(spec.weights)
        return lambda v, t: _sorted_l1(v, w, t)
    return _soft_threshold if spec.kind == "l1" else _clip_linf


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
    if start is not None:
        start = as_vector(start).copy()
        if start.size != spec.p:
            raise ValueError(f"start has length {start.size}, expected p = {spec.p}")
    if spec.kind in ("l1", "sup", "slope"):
        return _fista(spec, x, y, lam, opts, start)
    if spec.kind == "genlasso":
        if rank(np.vstack([x, spec.d])) < spec.p:
            warnings.warn(
                "ker(X) and ker(D) intersect nontrivially: minimizer set is unbounded",
                RuntimeWarning,
            )
    return _admm(spec, x, y, lam, opts, start)


def _fista(spec, x, y, lam, opts, start):
    """Accelerated proximal gradient on validated inputs (see the module
    docstring for its safeguard, restarts, KKT test and polish)."""
    kind = spec.kind
    w = None if spec.weights is None else np.asarray(spec.weights)
    prox = _prox_for(spec)
    beta = np.zeros(spec.p) if start is None else start
    step = 1.0 / max(_spectral_norm_sq(x), 1e-12)
    r = x @ beta - y
    pen_b = _pen(kind, beta, w)
    obj = 0.5 * float(r @ r) + lam * pen_b
    trace = [obj]
    z, t_k, it = beta, 1.0, 0
    polisher = _Polisher(spec, x, y, lam, opts)
    # always take at least one proximal step: a warm start may satisfy the
    # KKT tolerance while carrying junk components that the prox removes
    while it < opts.max_iter:
        it += 1
        cand, rc, smooth, step = _backtrack_step(x, y, lam, z, step, prox)
        pen_c = _pen(kind, cand, w)
        cand_obj = smooth + lam * pen_c
        if cand_obj > obj + MONOTONE_RTOL * max(1.0, abs(obj)):
            # monotone safeguard: plain proximal step from the current point
            cand, rc, smooth, step = _backtrack_step(x, y, lam, beta, step, prox)
            pen_c = _pen(kind, cand, w)
            cand_obj = smooth + lam * pen_c
            t_k = 1.0
        delta = cand - beta
        if float((z - cand) @ delta) > 0.0:
            t_k = 1.0  # gradient restart: the momentum points uphill
        beta, pen_b = cand, pen_c
        obj = min(obj, cand_obj)
        trace.append(obj)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        z = beta + ((t_k - 1.0) / t_next) * delta
        t_k = t_next
        if it % opts.restart_period == 0:
            t_k, z = 1.0, beta
        if it == 1 or it % opts.check_every == 0:
            if _kkt_named(kind, x, lam, beta, -rc, pen_b, w)[0] <= opts.tol:
                break
            polished = polisher.attempt(beta, pen_b)
            if polished is not None:
                beta = polished[0]
                trace.append(polished[1])
                break
    kkt, g = kkt_residual(spec, x, y, lam, beta)
    return SolveResult(beta, x @ beta, g, kkt, it, kkt <= opts.tol, trace, polisher.accepted)


def _kkt_named(kind, x, lam, b, resid, pen_b, w):
    """kkt_residual's expression and g for l1, sup and slope, from the
    residual y - X b and pen(b)."""
    g = x.T @ resid / lam
    return max(_dual_gauge(kind, g, w) - 1.0, abs(pen_b - float(g @ b))), g


class _Polisher:
    """The polish step of one solve.

    At each KKT check that fails, ``attempt`` snaps the iterate with
    active_set's rule at opts.pattern_rel_tol (``gauge._pattern``).  When
    the snapped pattern equals the one at the previous check and has not
    been tried yet, it solves for the minimizer on that pattern's subspace
    and face (``_polish``) and returns
    (beta, objective, KKT residual, g) if the loop's KKT test holds there
    within opts.tol, else None.  Each pattern is tried once.
    """

    def __init__(self, spec, x, y, lam, opts):
        self.spec, self.x, self.y, self.lam, self.opts = spec, x, y, lam, opts
        self.w = None if spec.weights is None else np.asarray(spec.weights)
        self.image = {"genlasso": spec.d, "custom": spec.u}.get(spec.kind)
        self.prev = None
        self.tried = set()
        self.accepted = False

    def attempt(self, beta, pen_b):
        pattern = _pattern(self.spec, beta, self.opts.pattern_rel_tol * max(1.0, pen_b))
        key = pattern.tobytes()
        prev, self.prev = self.prev, key
        if key != prev or key in self.tried:
            return None
        self.tried.add(key)
        b = _polish(self.x, self.y, self.lam, _basis(self.spec, pattern).vectors, _face_point(self.spec, pattern))
        if b is None:
            return None
        kind, resid = self.spec.kind, self.y - self.x @ b
        pen = _pen(kind, b if self.image is None else self.image @ b, self.w)
        if self.image is None:
            kkt, g = _kkt_named(kind, self.x, self.lam, b, resid, pen, self.w)
        else:
            kkt, g = _admm_kkt(self.spec, self.x, self.y, self.lam, b, pen, self.opts.tol)
        if not kkt <= self.opts.tol:
            return None
        self.accepted = True
        return b, 0.5 * float(resid @ resid) + self.lam * pen, kkt, g


def _polish(x, y, lam, basis, s):
    """The minimizer over a pattern subspace with orthonormal basis B (the
    columns of `basis`), with s a point of its face: on that subspace the
    objective is 0.5 ||y - X B theta||^2 + lam s'B theta, so
    beta = B (B'X'X B)^-1 (B'X'y - lam B's).  None when B'X'X B is
    singular or the solve is not finite."""
    xb = x @ basis
    try:
        theta = np.linalg.solve(xb.T @ xb, xb.T @ y - lam * (basis.T @ s))
    except np.linalg.LinAlgError:
        return None
    b = basis @ theta
    return b if np.all(np.isfinite(b)) else None


def _backtrack_step(x, y, lam, z, step, prox):
    """One proximal-gradient step from z with halving backtracking; returns
    the point, its residual X cand - y, its smooth part and the step."""
    r = x @ z - y
    gz = 0.5 * float(r @ r)
    grad = x.T @ r
    while True:
        cand = prox(z - step * grad, step * lam)
        diff = cand - z
        rc = x @ cand - y
        smooth = 0.5 * float(rc @ rc)
        quad = gz + float(grad @ diff) + float(diff @ diff) / (2.0 * step)
        if smooth <= quad + BACKTRACK_RTOL * (1.0 + abs(quad)) or step < STEP_FLOOR:
            return cand, rc, smooth, step
        step *= 0.5


def _admm_kkt(spec, x, y, lam, b, pen_b, tol):
    """kkt_residual at b for genlasso and custom gauges, with the cheap gap
    |pen(b) - g'b| taken first: its dual_feasibility LP runs only when the
    gap is within tol.  Returns (bound, g), where bound is the KKT residual
    when the LP ran and the gap, a lower bound of it, otherwise."""
    g = x.T @ (y - x @ b) / lam
    gap = abs(pen_b - float(g @ b))
    if gap > tol:
        return gap, g
    return max(dual_feasibility(spec, g), gap), g


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
    beta = np.zeros(p) if start is None else start
    z = d @ beta
    dual_u = np.zeros(m)
    r = y - x @ beta
    trace = [0.5 * float(r @ r) + lam * _pen(spec.kind, z)]  # pen of M b
    best = None  # (KKT bound, iterate) with the smallest bound so far
    polisher = _Polisher(spec, x, y, lam, opts)
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
        r = y - x @ beta
        pen_b = _pen(spec.kind, db)
        trace.append(0.5 * float(r @ r) + lam * pen_b)
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
            bound, g = _admm_kkt(spec, x, y, lam, beta, pen_b, opts.tol)
            if bound <= opts.tol:
                return SolveResult(beta, x @ beta, g, bound, it, True, trace)
            if best is None or bound < best[0]:
                best = (bound, beta)
            polished = polisher.attempt(beta, pen_b)
            if polished is not None:
                beta, obj, kkt, g = polished
                trace.append(obj)
                return SolveResult(beta, x @ beta, g, kkt, it, True, trace, True)
    kkt, g = kkt_residual(spec, x, y, lam, beta)
    if best is not None and best[1] is not beta:
        kkt_best, g_best = kkt_residual(spec, x, y, lam, best[1])
        if kkt_best < kkt:
            beta, kkt, g = best[1], kkt_best, g_best
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
