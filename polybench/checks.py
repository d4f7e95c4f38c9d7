"""Independent checks of polygauge outputs.

Nothing here imports polygauge.  Each check recomputes what it needs with
numpy, or solves a reference LP with scipy's HiGHS, or tests a property the
paper proves, and returns None when the output passes or a one-line reason
when it does not.  Reference LPs depend only on the inputs, so the runner
computes them once, in a separate process: scipy never enters the process
whose memory and time are measured.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# An LP value must match its HiGHS reference to this, relative to 1 + |ref|.
LP_RTOL = 1e-6
# Slack over the solver's KKT tolerance for the numpy recomputation.
KKT_SLACK = 10.0
# Equality residual allowed on an LP witness (Xb = X beta, X'z = U_S'alpha).
WITNESS_TOL = 1e-7
# The margin at which check_accessibility declares a pattern accessible.
ACCESS_TOL = 1e-7


# ---------------------------------------------------------------------------
# penalties written out in numpy


def difference_matrix(p: int, order: int) -> np.ndarray:
    """Rows of order-th differences: tv (order 1) and tf (order 2)."""
    return np.diff(np.eye(p), n=order, axis=0)


def pen(kind: str, b, w=None, d=None, u=None) -> float:
    """The gauge of b, from its definition."""
    b = np.asarray(b, dtype=float)
    if kind == "l1":
        return float(np.sum(np.abs(b)))
    if kind == "sup":
        return float(np.max(np.abs(b), initial=0.0))
    if kind == "slope":
        return float(np.sort(np.abs(b))[::-1] @ np.asarray(w))
    if kind == "genlasso":
        return float(np.sum(np.abs(d @ b)))
    return float(np.max(u @ b, initial=0.0))


def dual_gauge(kind: str, g, w=None, d=None, u=None) -> float:
    """Smallest t with g in t*B*; g is in B* iff the value is <= 1.

    genlasso assumes D' has full column rank (tv, tf), so z = lstsq(D', g)
    is the only representation; a residual that does not vanish returns inf.
    custom assumes the symmetric U = [0; V; -V] with V square and
    invertible, so conv(U) = {V'c : ||c||_1 <= 1} and t = ||V'^-1 g||_1.
    """
    g = np.asarray(g, dtype=float)
    if kind == "l1":
        return float(np.max(np.abs(g), initial=0.0))
    if kind == "sup":
        return float(np.sum(np.abs(g)))
    if kind == "slope":
        a = np.sort(np.abs(g))[::-1]
        return float(np.max(np.cumsum(a) / np.cumsum(np.asarray(w))))
    if kind == "custom":
        k = u.shape[0] // 2
        v = u[1:k + 1]
        if u.shape != (2 * k + 1, k) or np.any(u[0]) or not np.array_equal(u[k + 1:], -v):
            raise ValueError("custom dual gauge needs U = [0; V; -V] with V square")
        return float(np.sum(np.abs(np.linalg.solve(v.T, g))))
    z, *_ = np.linalg.lstsq(d.T, g, rcond=None)
    if np.max(np.abs(d.T @ z - g), initial=0.0) > 1e-6 * (1.0 + np.max(np.abs(g))):
        return math.inf
    return float(np.max(np.abs(z), initial=0.0))


# ---------------------------------------------------------------------------
# HiGHS reference LPs


def _highs(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference LP failed: {res.message}")
    return float(res.fun)


def min_linf_reference(x, target) -> float:
    """min ||gamma||_inf s.t. X gamma = target."""
    n, p = x.shape
    c = np.zeros(p + 1)
    c[-1] = 1.0
    ones = np.ones((p, 1))
    a_ub = np.vstack([np.hstack([np.eye(p), -ones]), np.hstack([-np.eye(p), -ones])])
    a_eq = np.hstack([x, np.zeros((n, 1))])
    value = _highs(c, a_ub, np.zeros(2 * p), a_eq, target, [(None, None)] * (p + 1))
    return value


def fiber_min_reference(kind: str, x, target, w=None, d=None, u=None) -> float:
    """min pen(b) s.t. Xb = target.

    slope is written through the assignment dual of the sorted-l1 norm,
    pen(b) = min { sum(r) + sum(s) : r_i + s_j >= w_i a_j, a >= |b| },
    a different encoding from the package's top-k sums.
    """
    n, p = x.shape
    if kind == "slope":
        w = np.asarray(w)
        # vars b (p) | a (p) | r (p) | s (p)
        nv = 4 * p
        c = np.concatenate([np.zeros(2 * p), np.ones(2 * p)])
        rows = []
        for i in range(p):
            for j in range(p):
                row = np.zeros(nv)
                row[p + j] = w[i]
                row[2 * p + i] = -1.0
                row[3 * p + j] = -1.0
                rows.append(row)
        eye, zero = np.eye(p), np.zeros((p, 2 * p))
        rows = np.vstack([np.asarray(rows), np.hstack([eye, -eye, zero]), np.hstack([-eye, -eye, zero])])
        a_eq = np.hstack([x, np.zeros((n, 3 * p))])
        value = _highs(c, rows, np.zeros(rows.shape[0]), a_eq, target, [(None, None)] * nv)
        return value
    if kind in ("l1", "genlasso"):
        m_op = np.eye(p) if kind == "l1" else d
        m = m_op.shape[0]
        c = np.concatenate([np.zeros(p), np.ones(m)])
        a_ub = np.vstack([np.hstack([m_op, -np.eye(m)]), np.hstack([-m_op, -np.eye(m)])])
        a_eq = np.hstack([x, np.zeros((n, m))])
        value = _highs(c, a_ub, np.zeros(2 * m), a_eq, target, [(None, None)] * (p + m))
        return value
    rows = np.vstack([np.eye(p), -np.eye(p)]) if kind == "sup" else u
    c = np.zeros(p + 1)
    c[-1] = 1.0
    a_ub = np.hstack([rows, -np.ones((rows.shape[0], 1))])
    a_eq = np.hstack([x, np.zeros((n, 1))])
    bounds = [(None, None)] * p + [(0.0, None)]
    value = _highs(c, a_ub, np.zeros(rows.shape[0]), a_eq, target, bounds)
    return value


# ---------------------------------------------------------------------------
# solves


def solve_result(kind, x, y, lam, res, tol, w=None, d=None, u=None):
    """KKT of a SolveResult recomputed: g = X'(y - X beta)/lam lies in B*
    and g'beta = pen(beta), each within KKT_SLACK * tol."""
    if not res.converged:
        return f"solver did not converge (kkt {res.kkt_residual:.3g})"
    b = np.asarray(res.beta, dtype=float)
    g = x.T @ (y - x @ b) / lam
    slack = KKT_SLACK * tol
    if kind == "genlasso":
        slack *= 1.0 + np.abs(np.linalg.pinv(d.T)).sum(axis=1).max()
    excess = dual_gauge(kind, g, w=w, d=d, u=u) - 1.0
    if excess > slack:
        return f"dual certificate outside B* by {excess:.3g}"
    gap = abs(pen(kind, b, w=w, d=d, u=u) - float(g @ b))
    if gap > slack * (1.0 + abs(pen(kind, b, w=w, d=d, u=u))):
        return f"complementarity gap {gap:.3g}"
    return None


def path_result(path, refine_tol):
    """Criterion 1: breakpoints 8/3 and 20, segments (0,1,1), (1,1,1), (0,0,0)."""
    bps = [float(b) for b in path.breakpoints]
    if len(bps) != 2 or abs(bps[0] - 8.0 / 3.0) > refine_tol or abs(bps[1] - 20.0) > refine_tol:
        return f"breakpoints {bps} are not 8/3 and 20 within {refine_tol}"
    patterns = [tuple(seg.fingerprint.named.values) for seg in path.segments]
    if patterns != [(0, 1, 1), (1, 1, 1), (0, 0, 0)]:
        return f"segment patterns {patterns}"
    return None


def sup_inclusion(b_in, b_out) -> bool:
    """Subdifferential of the sup-norm at b_in inside the one at b_out:
    every signed maximal component of b_out is a signed maximal one of b_in."""
    def signed_max(v):
        m = np.max(np.abs(v), initial=0.0)
        return np.where(np.abs(v) == m, np.sign(v), 0.0) if m > 0 else np.zeros_like(v)

    if np.max(np.abs(b_out), initial=0.0) == 0.0:
        return True
    if np.max(np.abs(b_in), initial=0.0) == 0.0:
        return False
    s_in, s_out = signed_max(b_in), signed_max(b_out)
    return bool(np.all((s_in == 0) | (s_in == s_out)))


def thresholded(b_in, b_out, tau):
    """Conditions 1 and 2 of a thresholded sup-norm estimate, recomputed."""
    gap = float(np.max(np.abs(b_in - b_out), initial=0.0))
    if gap > tau * (1.0 + 1e-12):
        return f"moved {gap:.6g} > tau {tau:.6g}"
    if not sup_inclusion(b_in, b_out):
        return "subdifferential of the input is not inside the output's"
    return None


def verify_report(diag, b_in, b_out, tau):
    if not (diag["condition1"] and diag["condition2_inclusion"]):
        return f"verifier rejects a constructive thresholder: {diag}"
    return thresholded(b_in, b_out, tau)


# ---------------------------------------------------------------------------
# checkers


def _fields(report) -> tuple:
    """(verdict, certificate) of a ConditionReport or of its CLI JSON."""
    if isinstance(report, dict):
        return report["verdict"], report["certificate"]
    return report.verdict, report.certificate


def min_linf_value(value, ref):
    if abs(value - ref) > LP_RTOL * (1.0 + abs(ref)):
        return f"LP value {value:.12g} != HiGHS {ref:.12g}"
    return None


def sweep_replication(value, nrc_verdict, ref):
    """One fig-5 replication: the LP value matches HiGHS, is at most 1
    (the indicator of the maximal set is feasible), and NRC implies
    accessibility."""
    problem = min_linf_value(value, ref)
    if problem:
        return problem
    if value > 1.0 + LP_RTOL:
        return f"min sup-norm {value:.12g} exceeds 1"
    if nrc_verdict and value < 1.0 - 1e-6:
        return "NRC holds but the pattern is not accessible"
    return None


def accessibility(kind, x, beta, report, ref, w=None, d=None, u=None):
    """Witness in the fiber, pen(witness) = lp_value = HiGHS value, and a
    verdict that follows from them."""
    verdict, cert = _fields(report)
    b = np.asarray(cert["minimizer"], dtype=float)
    value = float(cert["lp_value"])
    target = x @ beta
    if np.max(np.abs(x @ b - target), initial=0.0) > WITNESS_TOL * (1.0 + np.max(np.abs(target))):
        return "witness leaves the fiber {b : Xb = X beta}"
    pw = pen(kind, b, w=w, d=d, u=u)
    if abs(pw - value) > WITNESS_TOL * (1.0 + abs(value)):
        return f"pen(witness) {pw:.12g} != lp_value {value:.12g}"
    problem = min_linf_value(value, ref)
    if problem:
        return "fiber " + problem
    pb = pen(kind, beta, w=w, d=d, u=u)
    if bool(verdict) != (ref - pb >= -ACCESS_TOL - LP_RTOL * (1.0 + abs(ref))):
        return f"verdict {verdict} contradicts min {ref:.12g} vs pen(beta) {pb:.12g}"
    return None


def nrc_sup_analytic(x, beta) -> bool:
    """The analytic sup-norm NRC written out in numpy."""
    m = np.max(np.abs(beta))
    maximal = np.abs(beta) >= m
    xt = np.column_stack([x[:, maximal] @ np.sign(beta[maximal]), x[:, ~maximal]])
    e1 = np.zeros(xt.shape[1])
    e1[0] = 1.0
    z, *_ = np.linalg.lstsq(xt.T, e1, rcond=None)
    if np.max(np.abs(xt.T @ z - e1)) > 1e-8:
        return False
    return float(np.sum(np.abs(x.T @ z))) <= 1.0 + 1e-9


def nrc_geometric(kind, x, beta, report, w=None, d=None, u=None):
    """A positive verdict carries X'X w = s with s = U_S'alpha in the face
    of beta: alpha a probability vector, s in B* and s'beta = pen(beta);
    for l1 and sup, w also lies in the span of beta's pattern."""
    verdict, cert = _fields(report)
    if not verdict:
        return None
    wpt = np.asarray(cert["witness_point"], dtype=float)
    alpha = np.asarray(cert["witness_alpha"], dtype=float)
    s = np.asarray(cert["witness_subgradient"], dtype=float)
    if np.min(alpha, initial=0.0) < -1e-9 or abs(alpha.sum() - 1.0) > 1e-9:
        return "witness weights are not a probability vector"
    if np.max(np.abs(x.T @ (x @ wpt) - s), initial=0.0) > WITNESS_TOL * (1.0 + np.max(np.abs(s))):
        return "X'X w != subgradient"
    if dual_gauge(kind, s, w=w, d=d) > 1.0 + 1e-7:
        return "subgradient outside B*"
    pb = pen(kind, beta, w=w, d=d, u=u)
    if abs(float(s @ beta) - pb) > 1e-7 * (1.0 + pb):
        return "subgradient not in the face of beta"
    if kind == "l1" and np.any(np.abs(wpt[beta == 0]) > 1e-9):
        return "witness point outside the pattern span"
    if kind == "sup":
        m = np.max(np.abs(beta))
        sm = np.where(np.abs(beta) >= m, np.sign(beta), 0.0)
        on_max = wpt[sm != 0] * sm[sm != 0]
        if on_max.size and np.ptp(on_max) > 1e-9 * (1.0 + np.max(np.abs(wpt))):
            return "witness point outside the pattern span"
    return None


def _vertex_set(kind, p, d=None):
    """Vertices of B* for l1, sup and genlasso, or None for other kinds."""
    if kind == "l1":
        return {tuple(s) for s in itertools.product((-1.0, 1.0), repeat=p)}
    if kind == "sup":
        eye = np.eye(p)
        return {tuple(v) for v in np.vstack([eye, -eye])}
    if kind == "genlasso":
        m = d.shape[0]
        return {tuple(np.round(np.array(s) @ d, 9) + 0.0) for s in itertools.product((-1.0, 1.0), repeat=m)}
    return None


def faces_below(kind, p, deficiency):
    """Closed-form count of faces of B* with dimension below def(X):
    l1 (cube) C(p, j) 2^(p-j) faces of dim j; sup (cross-polytope)
    2^(j+1) C(p, j+1)."""
    if kind == "l1":
        return sum(math.comb(p, j) * 2 ** (p - j) for j in range(min(deficiency, p + 1)))
    if kind == "sup":
        return sum(2 ** (j + 1) * math.comb(p, j + 1) for j in range(min(deficiency, p)))
    return None


def uniqueness(kind, x, report, d=None, expect=None, vertex=None):
    """Deficiency recomputed; every violating face has generator rows that
    are vertices of B* and a witness X'z = U_S'alpha with alpha >= 0,
    sum(alpha) = 1; face counts from closed forms; known verdicts."""
    verdict, cert = _fields(report)
    n, p = x.shape
    deficiency = p - int(np.linalg.matrix_rank(x))
    if int(cert["deficiency"]) != deficiency:
        return f"deficiency {cert['deficiency']} != {deficiency}"
    if deficiency == 0:
        return None if verdict else "injective design reported non-unique"
    violating = cert["violating_faces"]
    if bool(verdict) != (len(violating) == 0):
        return "verdict disagrees with the violating-face list"
    expected_faces = faces_below(kind, p, deficiency)
    if expected_faces is not None and int(cert["faces_scanned"]) != expected_faces:
        return f"scanned {cert['faces_scanned']} faces, closed form gives {expected_faces}"
    vertices = _vertex_set(kind, p, d)
    for face in violating:
        rows = np.asarray(face["generator_rows"], dtype=float)
        z = np.asarray(face["witness_z"], dtype=float)
        alpha = np.asarray(face["witness_alpha"], dtype=float)
        if vertices is not None and any(tuple(np.round(r, 9) + 0.0) not in vertices for r in rows):
            return "a violating face lists a point that is not a vertex of B*"
        if np.min(alpha, initial=0.0) < -1e-9 or abs(alpha.sum() - 1.0) > 1e-9:
            return "face witness weights are not a probability vector"
        if np.max(np.abs(x.T @ z - rows.T @ alpha), initial=0.0) > WITNESS_TOL * (1.0 + np.max(np.abs(rows))):
            return "face witness violates X'z = U_S'alpha"
    if expect is not None and bool(verdict) != expect:
        return f"uniqueness verdict {verdict}, expected {expect}"
    if vertex is not None:
        dim0 = {tuple(np.round(np.asarray(f["generator_rows"], dtype=float)[0], 9)) for f in violating if f["dimension"] == 0}
        if tuple(vertex) not in dim0:
            return f"vertex {vertex} not flagged among {sorted(dim0)}"
    return None


def zero_threshold(value, truth):
    """lambda_0 = ||z0||_inf when X = I and X'y = D'z0 with D' of full
    column rank."""
    if not abs(value - truth) <= 1e-6 * max(1.0, truth):
        return f"zero_threshold {value:.6g}, true value {truth:.6g}"
    return None


def recovery_summary(summary):
    if not summary["solver_converged"]:
        return "fig-6 solve did not converge"
    if not summary["any_threshold_match"]:
        return "no threshold recovers the clustered pattern"
    return None


def sweep_frequencies(p_acc: dict):
    """The transition at k = 2n - p = 20 for n = 40, p = 60."""
    if not (p_acc[5] > 0.9 and 0.2 <= p_acc[20] <= 0.8 and p_acc[35] < 0.1):
        return f"accessibility frequencies {p_acc} miss the transition at k = 20"
    return None
