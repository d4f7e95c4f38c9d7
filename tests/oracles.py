"""Independent oracles used by the property and acceptance tests.

Everything here is deliberately brute force (vertex enumeration, dense
grids, exhaustive pattern enumeration) and never calls the code paths it
is used to check."""

import itertools

import numpy as np

from polygauge.linprog import LpProblem, _bounds_to_rows


def vertex_oracle(problem: LpProblem, tol: float = 1e-9):
    """Brute-force optimum of a tiny LP whose feasible set is a bounded
    polytope (the random generator below always adds box bounds).

    Returns (status, value): status 'optimal' or 'infeasible'."""
    a_eq, b_eq, a_le, b_le = _bounds_to_rows(problem)
    n = problem.n_vars
    me = a_eq.shape[0]
    mi = a_le.shape[0]
    best = None
    for size in range(0, n + 1):
        for subset in itertools.combinations(range(mi), size):
            act = np.vstack([a_eq, a_le[list(subset)]])
            act_rhs = np.concatenate([b_eq, b_le[list(subset)]])
            if act.shape[0] < n or np.linalg.matrix_rank(act) < n:
                continue
            x, *_ = np.linalg.lstsq(act, act_rhs, rcond=None)
            if np.max(np.abs(act @ x - act_rhs), initial=0.0) > tol:
                continue
            if me and np.max(np.abs(a_eq @ x - b_eq), initial=0.0) > tol:
                continue
            if mi and np.max(a_le @ x - b_le, initial=0.0) > tol:
                continue
            val = float(problem.c @ x)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def check_lp_certificate(problem: LpProblem, sol, tol: float = 1e-7):
    """Recompute the certificate of an lp_solve outcome from the problem
    data over the folded rows of _bounds_to_rows; raise AssertionError
    naming the first condition that fails.

    optimal:    primal feasibility, y_le <= 0, c = A_eq'y_eq + A_le'y_le and
                a zero gap c'x - (b_eq'y_eq + b_le'y_le);
    infeasible: the Farkas conditions y_le <= 0, A_eq'y_eq + A_le'y_le = 0
                and b_eq'y_eq + b_le'y_le > 0;
    unbounded:  the ray keeps every row feasible and descends, c'ray < 0.
    """
    a_eq, b_eq, a_le, b_le = _bounds_to_rows(problem)
    c = problem.c
    if sol.status == "unbounded":
        d = sol.ray
        size = 1.0 + np.max(np.abs(d))
        assert np.max(np.abs(a_eq @ d), initial=0.0) <= tol * size, "ray leaves the equality rows"
        assert np.max(a_le @ d, initial=0.0) <= tol * size, "ray leaves an inequality row"
        assert c @ d < -tol * size, "ray does not descend"
        return
    y_eq, y_le = sol.farkas if sol.status == "infeasible" else (sol.y_eq, sol.y_le)
    assert y_eq.shape == b_eq.shape and y_le.shape == b_le.shape, "multipliers do not match the folded rows"
    ysize = 1.0 + max(np.max(np.abs(y_eq), initial=0.0), np.max(np.abs(y_le), initial=0.0))
    combo = a_eq.T @ y_eq + a_le.T @ y_le
    rhs = float(b_eq @ y_eq + b_le @ y_le)
    assert np.all(y_le <= tol * ysize), "an inequality multiplier is positive"
    if sol.status == "infeasible":
        assert np.max(np.abs(combo), initial=0.0) <= tol * ysize, "Farkas combination is not zero"
        assert rhs > tol * ysize, "Farkas right-hand side is not positive"
        return
    assert sol.status == "optimal", sol.status
    x = sol.x
    xsize = 1.0 + np.max(np.abs(x), initial=0.0)
    assert np.max(np.abs(a_eq @ x - b_eq), initial=0.0) <= tol * xsize, "x violates an equality row"
    assert np.max(a_le @ x - b_le, initial=0.0) <= tol * xsize, "x violates an inequality row"
    assert np.max(np.abs(c - combo), initial=0.0) <= tol * ysize, "c is not A'y"
    assert abs(float(c @ x) - rhs) <= tol * xsize * ysize, "duality gap"


def random_lp_problem(rng):
    """Feasible bounded LP with up to 6 variables and 8 constraints."""
    n = int(rng.integers(2, 6))
    mi = int(rng.integers(0, 5))
    me = int(rng.integers(0, 2))
    x0 = rng.uniform(-1, 1, size=n)
    a_le = rng.standard_normal((mi, n)) if mi else None
    b_le = a_le @ x0 + rng.uniform(0.1, 1.0, size=mi) if mi else None
    a_eq = rng.standard_normal((me, n)) if me else None
    b_eq = a_eq @ x0 if me else None
    c = rng.standard_normal(n)
    bounds = [(-3.0, 3.0)] * n
    return LpProblem(c, a_eq=a_eq, b_eq=b_eq, a_le=a_le, b_le=b_le, bounds=bounds)


def fiber_min_oracle(spec, x, target) -> float:
    """HiGHS value of min pen(b) s.t. Xb = target, in the primal epigraph
    form of each kind (scipy is imported here, so callers importorskip it):

    l1, genlasso -- min 1's over +-Db <= s (D = I for l1);
    sup, custom  -- min t over +-b <= t or Ub <= t (U holds the zero row);
    slope        -- the top-k-sum encoding: min sum_k (w_k - w_{k+1}) T_k(a)
                    over a >= |b|, where the sum of the k largest a_i is
                    T_k(a) = min over theta of k theta + sum_i (a_i - theta)_+;
                    vars b | a | theta (p each) | v (p x p, v[k, i] >= a_i - theta_k).
    """
    from scipy.optimize import linprog as highs

    n, p = x.shape
    eye = np.eye(p)
    if spec.kind == "slope":
        w = np.asarray(spec.weights, dtype=float)
        d = w - np.append(w[1:], 0.0)
        pad = np.zeros((p, p + p * p))
        c = np.concatenate([np.zeros(2 * p), d * np.arange(1, p + 1), np.repeat(d, p)])
        a_ub = np.vstack(
            [
                np.hstack([eye, -eye, pad]),
                np.hstack([-eye, -eye, pad]),
                np.hstack([np.zeros((p * p, p)), np.tile(eye, (p, 1)), -np.kron(eye, np.ones((p, 1))), -np.eye(p * p)]),
            ]
        )
        bounds = [(None, None)] * (3 * p) + [(0.0, None)] * (p * p)
    elif spec.kind in ("l1", "genlasso"):
        d = eye if spec.kind == "l1" else np.asarray(spec.d)
        m = d.shape[0]
        c = np.concatenate([np.zeros(p), np.ones(m)])
        a_ub = np.vstack([np.hstack([d, -np.eye(m)]), np.hstack([-d, -np.eye(m)])])
        bounds = [(None, None)] * p + [(0.0, None)] * m
    else:
        rows = np.vstack([eye, -eye]) if spec.kind == "sup" else np.asarray(spec.u)
        c = np.append(np.zeros(p), 1.0)
        a_ub = np.hstack([rows, -np.ones((rows.shape[0], 1))])
        bounds = [(None, None)] * (p + 1)
    a_eq = np.hstack([x, np.zeros((n, c.size - p))])
    res = highs(c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq, b_eq=target, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def grid_argmin_2d(objective, center, half_width=4.0):
    """Two-stage dense grid search, coarse then refined near the argmin."""

    def stage(lo, hi, steps):
        g0 = np.linspace(lo[0], hi[0], steps)
        g1 = np.linspace(lo[1], hi[1], steps)
        bb = np.array(np.meshgrid(g0, g1)).reshape(2, -1).T
        vals = objective(bb)
        return bb[np.argmin(vals)]

    lo = center - half_width
    hi = center + half_width
    coarse = stage(lo, hi, 801)
    return stage(coarse - 0.03, coarse + 0.03, 601)


def slope_patterns(p):
    """All valid signed-rank vectors for dimension p."""
    out = set()
    for vals in itertools.product(range(-p, p + 1), repeat=p):
        ranks = sorted({abs(v) for v in vals if v != 0})
        if ranks == list(range(1, len(ranks) + 1)):
            out.add(vals)
    return out


def slope_prox_oracle(v, w, t):
    """Exhaustive-pattern prox oracle: solve the restricted quadratic for
    every signed-rank pattern, keep the best feasible candidate.

    Returns (objective, minimizer)."""
    p = v.size
    best_obj, best_x = np.inf, None
    for pattern in slope_patterns(p):
        m = max((abs(q) for q in pattern), default=0)
        w_pos = 0
        cluster_w = {}
        for c in range(m, 0, -1):
            size = sum(1 for q in pattern if abs(q) == c)
            cluster_w[c] = np.sum(w[w_pos : w_pos + size])
            w_pos += size
        a = {}
        for c in range(1, m + 1):
            idx = [j for j in range(p) if abs(pattern[j]) == c]
            signs = np.array([np.sign(pattern[j]) for j in idx], dtype=float)
            a[c] = (float(signs @ v[idx]) - t * cluster_w[c]) / len(idx)
        mags = [a[c] for c in range(1, m + 1)]
        if any(q < -1e-12 for q in mags) or any(
            mags[i] > mags[i + 1] + 1e-12 for i in range(len(mags) - 1)
        ):
            continue
        x = np.array(
            [np.sign(q) * a[abs(q)] if q else 0.0 for q in pattern]
        )
        obj = 0.5 * np.sum((x - v) ** 2) + t * float(np.sort(np.abs(x))[::-1] @ w)
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_obj, best_x
