"""Exact checkers for pattern accessibility, noiseless recovery and
uniform uniqueness.

Every verdict carries a numeric margin (documented per method below), so
borderline instances are transparent instead of flipping silently at a
boolean boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linprog
from .gauge import (
    GaugeSpec,
    GeneratorBlowup,
    active_set,
    _ball,
    _basis,
    _dual_gauge,
    _face_rows,
    _faces_below,
    _snap,
    _sup_ball,
    enumerate_faces,
    pen_eval,
)
from .numerics import _row_space_preimage, _svd, as_matrix, as_vector, rank
from .solvers import SolveOptions, solution_path


class InfeasibleTarget(ValueError):
    """The equality system of a representation problem has no solution."""


# Separation cutoff of the ray that certifies target outside col(X) in
# _preimage (its docstring states the test).
RAY_RTOL = 1e-9
# check_accessibility calls beta accessible when its margin, the fiber
# minimum minus pen(beta), is at least -ACCESS_TOL.
ACCESS_TOL = 1e-7


@dataclass
class ConditionReport:
    """verdict plus the margin and certificate that recompute to it.

    Margin conventions:
      accessibility-lp : lp_value - pen(beta); accessible iff >= -ACCESS_TOL
                         = -1e-7.
                         "mu" solves max (X beta)'mu s.t. X'mu in B*, and
                         "dual_point" X'mu is in B* with beta'X'mu = pen(beta)
                         when accessible; else (X beta)'mu = lp_value < pen.
      geometric-lp     : minus the phase-1 infeasibility of the
                         intersection LP; the condition holds iff that LP
                         is feasible, phase-1 <= linprog.PHASE1_RTOL *
                         (1 + ||b||_inf) = 2e-8, i.e. margin >= -2e-8.
                         The certificate's "pattern" is active_set's
                         pattern of beta, naming the span and face tested.
      analytic-l1      : 1 - ||X'(X_I')^+ sign(beta_I)||_inf, -inf when the
                         sign vector is outside row(X_I).
      analytic-sup     : 1 - ||X'(Xtilde')^+ e_1||_1, -inf when e_1 is
                         outside row(Xtilde).
      path-empirical   : +1.0 when a matching segment was found, else -1.0
                         (one-sided: a miss does not refute the condition).
      uniqueness-face-scan : smallest phase-1 residual over scanned faces
                         (how far row(X) stays from every low-dimensional
                         face); unique iff every face LP is infeasible, that
                         is margin > linprog.PHASE1_RTOL * 2 = 2e-8; +inf
                         with nothing to scan.
    """

    verdict: bool
    margin: float
    method: str
    certificate: dict
    caveats: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "margin": _jsonable(self.margin),
            "method": self.method,
            "certificate": _jsonable(self.certificate),
            "caveats": list(self.caveats),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# accessibility


def check_accessibility(spec: GaugeSpec, x, beta) -> ConditionReport:
    """Accessibility of the pattern of beta: the gauge attains its minimum
    over the fiber {b : Xb = X beta} at beta itself.

    One LP for every kind, the dual fiber LP of _fiber_lp through beta over
    the ball gauge._ball: max (X beta)'mu s.t. X'mu in B*, posed over ker X,
    so X enters only through the null-space basis of its SVD and X -> RX
    for an invertible R leaves the LP as it is.  Its value is the fiber
    minimum, and beta is accessible exactly when row(X) meets the
    subdifferential of beta, which X'mu then does.  The certificate holds
    the minimizer, mu and the dual point X'mu.  Custom gauges with more than
    4096 generators raise GeneratorBlowup.
    """
    x = as_matrix(x)
    beta = as_vector(beta)
    pen_beta = pen_eval(spec, beta)
    if spec.kind == "custom" and spec.u.shape[0] > 4096:
        raise GeneratorBlowup("custom accessibility LP capped at 4096 generators")
    value, witness, mu = _fiber_lp(_svd(x), beta, _ball(spec))
    margin = value - pen_beta
    return ConditionReport(
        verdict=margin >= -ACCESS_TOL,
        margin=margin,
        method="accessibility-lp",
        certificate={
            "lp_value": value,
            "pen_beta": pen_beta,
            "minimizer": witness,
            "mu": mu,
            "dual_point": x.T @ mu,
        },
    )


# ---------------------------------------------------------------------------
# noiseless recovery


def _meets_face(image: np.ndarray, rows: np.ndarray) -> linprog.FeasibilityResult:
    """Phase-1 test whether col(image) meets the face conv(rows) of B*:
    vars c (free) | alpha (>= 0) with image c = rows' alpha, 1'alpha = 1."""
    p, m = image.shape
    k = rows.shape[0]
    a_eq = np.block([[image, -rows.T], [np.zeros((1, m)), np.ones((1, k))]])
    b_eq = np.append(np.zeros(p), 1.0)
    bounds = [(None, None)] * m + [(0.0, None)] * k
    return linprog.feasibility(linprog.LpProblem(np.zeros(m + k), a_eq=a_eq, b_eq=b_eq, bounds=bounds))


def check_nrc_geometric(spec: GaugeSpec, x, beta, rel_tol: float = 1e-8) -> ConditionReport:
    """Noiseless recovery via the geometric test: X'X applied to the span
    of the pattern class must meet the subdifferential face of beta.

    The span and the face are both read from active_set's pattern of beta
    at rel_tol (certificate "pattern").  The face enters the LP as its
    generator rows, so one with more than 2^16 raises GeneratorBlowup.
    """
    x = as_matrix(x)
    pattern = _snap(spec, beta, rel_tol)[1]
    basis = _basis(spec, pattern)
    rows = _face_rows(spec, pattern)
    res = _meets_face(x.T @ (x @ basis.vectors), rows)
    m = basis.dim
    cert: dict = {"pattern": [int(v) for v in pattern], "pattern_subspace_dim": m}
    if res.feasible:
        cvec = res.witness[:m]
        alpha = res.witness[m:]
        cert["witness_point"] = basis.vectors @ cvec
        cert["witness_alpha"] = alpha
        cert["witness_subgradient"] = rows.T @ alpha
    return ConditionReport(
        verdict=res.feasible,
        margin=-res.phase1_value,
        method="geometric-lp",
        certificate=cert,
    )


def check_nrc_lasso(x, beta) -> ConditionReport:
    """The sign-vector irrepresentability shortcut for the l1 penalty."""
    x = as_matrix(x)
    beta = as_vector(beta)
    support = np.flatnonzero(beta != 0)
    if support.size == 0:
        return ConditionReport(
            verdict=True,
            margin=1.0,
            method="analytic-l1",
            certificate={"support": [], "note": "zero vector always recovers"},
        )
    xi = x[:, support]
    s = np.sign(beta[support])
    g, in_row = _row_space_preimage(xi, s, tol=1e-8)
    cert_vec = x.T @ g
    sup_norm = float(np.max(np.abs(cert_vec), initial=0.0))
    margin = 1.0 - sup_norm if in_row else -np.inf
    return ConditionReport(
        verdict=bool(in_row and sup_norm <= 1.0 + 1e-9),
        margin=margin,
        method="analytic-l1",
        certificate={
            "support": support.tolist(),
            "sign_in_row_space": bool(in_row),
            "vector": cert_vec,
            "sup_norm": sup_norm,
        },
    )


def check_nrc_sup(x, beta) -> ConditionReport:
    """Analytic noiseless-recovery test for the sup-norm penalty.

    Builds Xtilde = (X_{I^c} sign(beta_{I^c}) | X_I) over the non-maximal
    index set I and tests e_1 in row(Xtilde) plus an l1 bound on
    X'(Xtilde')^+ e_1.
    """
    x = as_matrix(x)
    beta = as_vector(beta)
    sup = float(np.max(np.abs(beta), initial=0.0))
    if sup == 0.0:
        return ConditionReport(
            verdict=True,
            margin=1.0,
            method="analytic-sup",
            certificate={"note": "zero vector always recovers"},
        )
    nonmax = np.flatnonzero(np.abs(beta) < sup)
    maximal = np.flatnonzero(np.abs(beta) >= sup)
    x1 = x[:, maximal] @ np.sign(beta[maximal])
    xt = np.column_stack([x1, x[:, nonmax]])
    e1 = np.zeros(xt.shape[1])
    e1[0] = 1.0
    g, in_row = _row_space_preimage(xt, e1, tol=1e-8)
    cert_vec = x.T @ g
    l1 = float(np.sum(np.abs(cert_vec)))
    margin = 1.0 - l1 if in_row else -np.inf
    return ConditionReport(
        verdict=bool(in_row and l1 <= 1.0 + 1e-9),
        margin=margin,
        method="analytic-sup",
        certificate={
            "nonmaximal": nonmax.tolist(),
            "e1_in_row_space": bool(in_row),
            "vector": cert_vec,
            "l1_norm": l1,
            "xtilde": xt,
        },
    )


def zero_threshold(spec: GaugeSpec, x, y) -> float:
    """Smallest lambda at which 0 is a minimizer: the dual gauge of X'y,
    min {t : X'y in t B*}, infinite when no t works.

    Closed form for l1/sup/slope; one LP for genlasso, min ||z||_inf s.t.
    D'z = X'y, and for custom, min 1'gamma s.t. U'gamma = X'y, gamma >= 0
    (u_1 = 0 makes t conv(U) = {U'gamma : gamma >= 0, 1'gamma <= t}).
    """
    v = as_matrix(x).T @ as_vector(y)
    if spec.kind in ("l1", "sup", "slope"):
        return _dual_gauge(spec.kind, v, spec.weights)
    if spec.kind == "genlasso":
        try:
            return min_linf_representation(spec.d.T, v)
        except InfeasibleTarget:
            return float("inf")
    k = spec.u.shape[0]
    sol = linprog.lp_solve(
        linprog.LpProblem(np.ones(k), a_eq=spec.u.T, b_eq=v, bounds=[(0.0, None)] * k)
    )
    if sol.status == linprog.INFEASIBLE:
        return float("inf")
    return float(sol.value)


def check_nrc_path(
    spec: GaugeSpec,
    x,
    beta,
    lam_min: float | None = None,
    lam_max: float | None = None,
    grid_size: int = 60,
    opts: SolveOptions | None = None,
    unique_verified: bool = False,
) -> ConditionReport:
    """Empirical noiseless-recovery check: solve the noiseless path at
    y = X beta and look for a segment with the fingerprint of beta.

    One-sided: a hit certifies the condition up to solver tolerance, a
    miss only means the grid did not find it.
    """
    x = as_matrix(x)
    beta = as_vector(beta)
    opts = opts or SolveOptions()
    y = x @ beta
    target = active_set(spec, beta)
    caveats = []
    if not unique_verified:
        caveats.append("uniqueness not verified; path fingerprints may depend on the solver")
    if np.allclose(y, 0.0):
        # fiber of 0: the zero estimate appears at every lambda
        match = pen_eval(spec, beta) == 0.0 or target == active_set(spec, np.zeros(spec.p))
        return ConditionReport(
            verdict=bool(match),
            margin=1.0 if match else -1.0,
            method="path-empirical",
            certificate={"note": "X beta = 0", "target_key": list(map(str, target.key))},
            caveats=caveats,
        )
    if lam_max is None:
        lam_zero = zero_threshold(spec, x, y)
        if not np.isfinite(lam_zero) or lam_zero <= 0:
            lam_max = 10.0 * (1.0 + float(np.max(np.abs(x.T @ y))))
        else:
            lam_max = 1.5 * lam_zero
    if lam_min is None:
        lam_min = 1e-3 * lam_max
    path = solution_path(spec, x, y, lam_min, lam_max, grid_size=grid_size, opts=opts)
    hit = None
    for lam, fp in zip(path.lambdas, path.fingerprints):
        if fp == target:
            hit = float(lam)
            break
    caveats.append("one-sided: a grid miss does not refute the condition")
    return ConditionReport(
        verdict=hit is not None,
        margin=1.0 if hit is not None else -1.0,
        method="path-empirical",
        certificate={"lambda_found": hit, "grid": [float(l) for l in path.lambdas]},
        caveats=caveats,
    )


# ---------------------------------------------------------------------------
# representation and uniqueness


def min_linf_representation(x, target) -> float:
    """min ||gamma||_inf subject to X gamma = target.

    One LP, the fiber LP of _fiber_lp over the sup-norm ball through the
    least-norm solution V_r Sigma^-1 U_r' target: for an n x p design of
    rank r it has p - r equality rows and the simplex row (21 rows for a
    40 x 60 fig-5 design).  Raises InfeasibleTarget when target is outside
    col(X).
    """
    x = as_matrix(x)
    factors = _svd(x)
    return _fiber_lp(factors, _preimage(x, factors, as_vector(target)), _sup_ball(x.shape[1]))[0]


def _preimage(x: np.ndarray, factors: tuple, target: np.ndarray) -> np.ndarray:
    """V_r Sigma^-1 U_r' target from the SVD factors of X (numerics._svd),
    a point of the fiber {b : Xb = target}.

    InfeasibleTarget is raised when the ray mu = t - U_r U_r't, the part of
    t = target outside col(X), scaled to ||mu||_inf = 1, separates target
    from col(X): target'mu > RAY_RTOL * (1 + ||target||_inf) and
    ||X'mu||_inf <= RAY_RTOL * (1 + max|X|).  target'mu is read as
    (t - U_r U_r't)'mu, its value in exact arithmetic, since the round-off
    in (U_r U_r't)'mu would swamp a ray of round-off size.  A ray that
    passes the first test but not the second raises NumericalFailure.
    """
    u, s, v, _ = factors
    coef = u.T @ target
    ray = target - u @ coef
    mu = ray / np.max(np.abs(ray), initial=np.finfo(float).tiny)
    if float(ray @ mu) > RAY_RTOL * (1.0 + np.max(np.abs(target), initial=0.0)):
        if np.max(np.abs(x.T @ mu), initial=0.0) > RAY_RTOL * (1.0 + np.max(np.abs(x), initial=0.0)):
            raise linprog.NumericalFailure("the ray off col(X) does not separate target")
        raise InfeasibleTarget("target vector is outside the column space of X")
    return v @ (coef / s)


def _fiber_lp(factors: tuple, point: np.ndarray, ball: tuple) -> tuple:
    """(min pen(b) s.t. Xb = X point, a minimizer b, mu) for the gauge whose
    dual ball is B* = {G'z : lo <= z <= hi, A z <= 1}, ball = (G, (lo, hi), A)
    as gauge._ball states it, from the SVD factors (U_r, s_r, V_r, N) of X
    (numerics._svd).  X enters through N alone, the basis of ker X.

    The dual LP max (X point)'mu s.t. X'mu = G'z over the ball has a mu
    exactly when G'z lies in row(X), that is N'G'z = 0, and then
    (X point)'mu = (G point)'z.  So the LP is posed over z alone,

        max (G point)'z  s.t.  (GN)'z = 0,  lo <= z <= hi,  A z <= 1,

    with p - r equality rows and no free column.  It is feasible (z = 0)
    and bounded (B* is).  Its value is pen(b) at the minimizer
    b = point + N y, y the multiplier vector of the (GN)'z = 0 rows, and
    mu = U_r Sigma^-1 V_r' G'z.
    """
    u, s, v, null = factors
    g, bounds, a = ball
    k = g.shape[0]
    gn = g @ null
    sol = linprog.lp_solve(
        linprog.LpProblem(
            -(g @ point),
            a_eq=gn.T,
            b_eq=np.zeros(gn.shape[1]),
            a_le=a,
            b_le=np.ones(a.shape[0]),
            bounds=[bounds] * k,
        )
    )
    if sol.status != linprog.OPTIMAL:
        raise RuntimeError(f"fiber LP returned status {sol.status}")
    return -float(sol.value), point + null @ sol.y_eq, u @ ((v.T @ (g.T @ sol.x)) / s)


def check_uniform_uniqueness(spec: GaugeSpec, x) -> ConditionReport:
    """Uniform uniqueness of the penalized minimizer over all (y, lambda):
    row(X) must avoid every face of B* of dimension below def(X).

    The named kinds list those faces from their patterns (gauge._faces_below,
    no exposure LPs; GeneratorBlowup when there are more than its cap);
    custom gauges scan enumerate_faces, and only their violating faces
    carry the generator indices as "vertices".  Each face is LP-tested
    against row(X) by _meets_face; the report lists every violating face.
    """
    x = as_matrix(x)
    n, p = x.shape
    if p != spec.p:
        raise ValueError("X column count must match the gauge dimension")
    deficiency = p - rank(x)
    if deficiency == 0:
        return ConditionReport(
            verdict=True,
            margin=float("inf"),
            method="uniqueness-face-scan",
            certificate={"deficiency": 0, "note": "injective design"},
        )
    if spec.kind == "custom":
        faces = (
            ({"vertices": list(f.vertices)}, f.dimension, spec.u[list(f.vertices)])
            for f in enumerate_faces(spec)
            if f.dimension < deficiency
        )
    else:
        faces = (({}, dim, rows) for dim, rows in _faces_below(spec, deficiency))
    violating = []
    min_resid = float("inf")
    scanned = 0
    for tag, dim, rows in faces:
        scanned += 1
        res = _meets_face(x.T, rows)
        min_resid = min(min_resid, res.phase1_value)
        if res.feasible:
            violating.append(
                {
                    **tag,
                    "dimension": dim,
                    "generator_rows": rows,
                    "witness_z": res.witness[:n],
                    "witness_alpha": res.witness[n:],
                }
            )
    return ConditionReport(
        verdict=len(violating) == 0,
        margin=min_resid if scanned else float("inf"),
        method="uniqueness-face-scan",
        certificate={
            "deficiency": deficiency,
            "faces_scanned": scanned,
            "violating_faces": violating,
        },
    )
