"""Small dense linear-programming solver.

Two-phase primal simplex on a dense tableau with Bland's anti-cycling
rule.  Built for the many small feasibility and minimization questions
this package asks (row-space/face intersections, fiber minima over B*,
min-sup-norm representations); determinism and certificates matter more
than speed at these sizes.

Geometry convention: variables are free unless bounds are given,
``a_le @ x <= b_le`` for inequalities, ``a_eq @ x = b_eq`` for equalities.
Internally everything is rewritten to the standard form min c'z, Az = b:
a variable bounded by exactly (0, None) is one nonnegative column whose
bound stays implicit (no row is written for it, and the residual test
reads x_j >= 0 off x); every other variable is one free column, never
split, and its finite bounds become slack rows.

Free columns are eliminated before phase 1.  Each is pivoted into the
live row holding its largest entry, equality rows first (an equality row
would otherwise need an artificial variable).  A free basic variable never
leaves the basis, so its row leaves the live tableau: it takes part in no
ratio test and no later pivot, and the free value is back-substituted at
the end.  A free column with no entry above PIVOT_EPS left in the live
rows has its live column set to zero; it stays at 0, and in phase 2 it
may enter in either direction, which can only be along an unbounded ray.

Pricing reads reduced costs off explicit objective rows (one per phase)
that every pivot updates: Dantzig's rule (most negative reduced cost)
until BLAND_TRIGGER consecutive degenerate pivots, then Bland's rule for
the rest of the phase.  lp_solve and feasibility share one phase 1.

Phase 1 stops at the first basis whose phase-1 value, the total level of
the basic artificials, is at most PHASE1_STOP_TOL * (1 + ||b||_inf); it
makes no pivot when the crash basis already is that feasible (every
equality row with b = 0, say).  The phase-1 value never rises from one
pivot to the next, so a system stopped early is one that phase 1 run to
optimality would also call feasible, and a system whose phase-1 minimum
stays above the cutoff still runs phase 1 to optimality.  The early stop
may leave artificials basic at zero level.  Phase 2 first drives each
out on the largest structural entry of its row (the lowest index wins a
tie), and a row with no entry above PIVOT_EPS is redundant and leaves the
live tableau.

Certificates (duals, Farkas vectors) come from one ``np.linalg.solve`` on
the square basis matrix over the original rows, and are reported over
the folded rows of _bounds_to_rows, implicit bound rows included.

Tolerances:
  PIVOT_EPS       pivot and ratio-test entries at or below it count as zero;
  ENTER_EPS       a column enters when its reduced cost is below -ENTER_EPS
                  (a free column: when its absolute value is above it);
  RATIO_TIE_TOL   rows within it of the least ratio tie, and the one whose
                  basic variable has the lowest index leaves;
  DEGENERATE_TOL  a pivot whose step (least ratio) is at most it is
                  degenerate;
  BLAND_TRIGGER   consecutive degenerate pivots before Bland's rule;
  PHASE1_STOP_TOL phase 1 stops once its value is at most it (below);
  PHASE1_RTOL     feasibility cutoff on the phase-1 value (below);
  RESIDUAL_RTOL   an optimum is reported only when its own residuals pass
                  (below).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Pivot entries below this threshold are treated as zero.
PIVOT_EPS = 1e-10
# Entering-column threshold on reduced costs.
ENTER_EPS = 1e-9
# Ratio-test tie width.
RATIO_TIE_TOL = 1e-12
# Largest step of a degenerate pivot.
DEGENERATE_TOL = 1e-12
# Consecutive degenerate pivots after which pricing switches to Bland's rule.
BLAND_TRIGGER = 40
# Phase 1 stops as soon as its value is at most PHASE1_STOP_TOL * (1 + ||b||_inf)
# over the standard-form right-hand side b, far below PHASE1_RTOL.
PHASE1_STOP_TOL = 1e-12
# Constraints count as feasible when the phase-1 value (the least total
# artificial infeasibility) is at most PHASE1_RTOL * (1 + ||b||_inf) over
# the standard-form right-hand side b.
PHASE1_RTOL = 1e-8
# lp_solve raises NumericalFailure instead of reporting OPTIMAL when a
# primal residual exceeds RESIDUAL_RTOL * (1 + ||b||_inf + ||x||_inf) over
# the folded rows, or the duality gap exceeds RESIDUAL_RTOL * (1 + |value|).
RESIDUAL_RTOL = 1e-9


class NumericalFailure(RuntimeError):
    """Raised when pivoting exceeds the iteration cap without terminating,
    or when an optimum fails its own residual test (RESIDUAL_RTOL)."""


@dataclass
class LpProblem:
    """min c'x  s.t.  a_eq x = b_eq,  a_le x <= b_le,  bounds on x.

    bounds is a list of (lo, hi) pairs per variable, entries None for
    unbounded sides; bounds=None means all variables free.
    """

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_le: np.ndarray | None = None
    b_le: np.ndarray | None = None
    bounds: list | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.shape[0]
        if self.a_eq is not None:
            self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
            self.b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
            if self.a_eq.shape != (self.b_eq.shape[0], n):
                raise ValueError("inconsistent equality block dimensions")
        if self.a_le is not None:
            self.a_le = np.atleast_2d(np.asarray(self.a_le, dtype=float))
            self.b_le = np.asarray(self.b_le, dtype=float).reshape(-1)
            if self.a_le.shape != (self.b_le.shape[0], n):
                raise ValueError("inconsistent inequality block dimensions")
        if self.bounds is not None and len(self.bounds) != n:
            raise ValueError("bounds length must match variable count")
        for block in (self.c, self.a_eq, self.b_eq, self.a_le, self.b_le):
            if block is not None and block.size and not np.all(np.isfinite(block)):
                raise ValueError("LP data must be finite")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class LpSolution:
    """Solver outcome plus certificates.

    For OPTIMAL: x, value, and duals (y_eq, y_le) proving optimality.
    For INFEASIBLE: farkas = (y_eq, y_le) with y_le <= 0,
        y_eq'a_eq + y_le'a_le ~ 0 (bounds folded into a_le rows)
        and y_eq'b_eq + y_le'b_le > 0.
    For UNBOUNDED: ray is an original-space direction of unbounded descent.
    iterations counts every pivot: free-column eliminations, phase 1,
    driving artificials out of the basis, and phase 2.  phase1_pivots
    counts the phase-1 pivots alone, and bland is whether Bland's rule
    started in either phase.
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    y_eq: np.ndarray | None = None
    y_le: np.ndarray | None = None
    farkas: tuple | None = None
    ray: np.ndarray | None = None
    iterations: int = 0
    phase1_pivots: int = 0
    bland: bool = False
    residuals: dict = field(default_factory=dict)


@dataclass
class FeasibilityResult:
    """Phase-1 outcome; iterations, phase1_pivots and bland as on LpSolution."""

    feasible: bool
    witness: np.ndarray | None
    farkas: tuple | None
    phase1_value: float
    iterations: int = 0
    phase1_pivots: int = 0
    bland: bool = False


def _fold_bounds(problem: LpProblem, implicit: np.ndarray) -> tuple:
    """Fold variable bounds into extra a_le rows; return
    (a_eq, b_eq, a_le, b_le, written).

    The folded rows define the convention of y_le and of Farkas vectors:
    a_le's own rows, then per variable its row -x_j <= -lo and its row
    x_j <= hi.  The lower-bound row of each variable j with implicit[j]
    is left out of a_le and b_le; written masks the folded rows kept."""
    n = problem.n_vars
    a_eq = problem.a_eq if problem.a_eq is not None else np.zeros((0, n))
    b_eq = problem.b_eq if problem.b_eq is not None else np.zeros(0)
    own = 0 if problem.a_le is None else problem.a_le.shape[0]
    written = [True] * own
    entries, rhs = [], []  # (column, sign) and right-hand side of each written bound row
    for j, (lo, hi) in enumerate(problem.bounds or []):
        if lo is not None:
            written.append(not implicit[j])
            if not implicit[j]:
                entries.append((j, -1.0))
                rhs.append(-float(lo))
        if hi is not None:
            written.append(True)
            entries.append((j, 1.0))
            rhs.append(float(hi))
    rows = np.zeros((len(entries), n))
    for i, (j, sign) in enumerate(entries):
        rows[i, j] = sign
    written = np.array(written, dtype=bool)
    if problem.a_le is None:
        return a_eq, b_eq, rows, np.array(rhs, dtype=float), written
    return a_eq, b_eq, np.vstack([problem.a_le, rows]), np.concatenate([problem.b_le, rhs]), written


def _bounds_to_rows(problem: LpProblem):
    """Every folded row, implicit bound rows included: (a_eq, b_eq, a_le, b_le)."""
    return _fold_bounds(problem, np.zeros(problem.n_vars, dtype=bool))[:4]


def _eliminate(t: np.ndarray, r: int, j: int):
    """Pivot the tableau t on entry (r, j): row r scaled to t[r, j] = 1,
    column j cleared from every other row."""
    t[r] /= t[r, j]
    col = t[:, j].copy()
    col[r] = 0.0
    t -= col[:, None] * t[r]


class _StandardForm:
    """min c'z, Az = b for an LpProblem, z >= 0 except on the free columns.
    A variable bounded by exactly (0, None) is one nonnegative column whose
    bound row stays implicit; every other variable is one free column and
    its finite bounds are slack rows, as _fold_bounds writes them."""

    def __init__(self, problem: LpProblem):
        n = self.n = problem.n_vars
        bounds = problem.bounds or [(None, None)] * n
        self.nonneg = np.array([lo == 0.0 and hi is None for lo, hi in bounds], dtype=bool)
        # the explicit rows alone: implicit bound rows are never written
        a_eq, b_eq, a_le, b_le, self.explicit = _fold_bounds(problem, self.nonneg)
        self.explicit_rows = a_eq, b_eq, a_le, b_le
        self.free = np.flatnonzero(~self.nonneg)
        me, mi = a_eq.shape[0], a_le.shape[0]
        a = self.a = np.zeros((me + mi, n + mi))
        a[:me, :n], a[me:, :n] = a_eq, a_le
        a[me:, n:] = np.eye(mi)
        self.b = np.concatenate([b_eq, b_le])
        self.c = np.concatenate([problem.c, np.zeros(mi)])
        self.me = me
        self.slack_of_row = np.concatenate([np.full(me, -1), n + np.arange(mi)])

    def folded(self, y: np.ndarray, c_x: np.ndarray) -> tuple:
        """(y_eq, y_le) over the folded rows from row multipliers y: an
        implicit row -x_j <= 0 gets (y'A - c)_j, which is <= 0 wherever
        the reduced cost of column j is >= 0."""
        y_le = np.zeros(self.explicit.size)
        y_le[self.explicit] = y[self.me :]
        y_le[~self.explicit] = (y @ self.a[:, : self.n] - c_x)[self.nonneg]
        return y[: self.me].copy(), y_le


class _Simplex:
    """Two-phase tableau simplex on a _StandardForm.

    The constructor eliminates the free columns (module docstring).  Rows
    of the frozen block F have a free basic variable, in elimination
    order; T holds the live rows, then the phase-2 and (until phase 2) the
    phase-1 objective row of reduced costs, and its last column is the
    right-hand side.  A live row keeps its slack as the crash basis when
    its right-hand side is nonnegative; every other live row gets an
    artificial column (n + j for the j-th artificial).
    """

    def __init__(self, form: _StandardForm, max_iter: int):
        m, n = form.a.shape
        self.form, self.m, self.n = form, m, n
        self.max_iter = max_iter
        self.iterations = self.phase1_pivots = 0
        self.bland = False  # whether Bland's rule started in any phase
        t = np.zeros((m + 1, n + 1))
        t[:m, :n], t[:m, -1], t[m, :n] = form.a, form.b, form.c
        order = np.arange(m)  # original row of each row of t
        # rows k .. k + ne - 1 are the live equality rows, then the live
        # inequality rows; rows above k are frozen
        k, ne = 0, form.me
        frozen_cols, dead = [], []

        def swap(i, j):
            t[[i, j]], order[[i, j]] = t[[j, i]], order[[j, i]]

        for f in form.free:
            mag = np.abs(t[k:m, f])
            r = int(np.argmax(mag[:ne])) if ne else 0
            if not ne or mag[r] <= PIVOT_EPS:
                r = ne + int(np.argmax(mag[ne:])) if m - k > ne else 0
                if m - k == ne or mag[r] <= PIVOT_EPS:
                    dead.append(f)
                    continue
                swap(k + ne, k + r)  # the equality block stays contiguous
                r = ne
            else:
                ne -= 1
            swap(k, k + r)
            self._count_pivot()
            _eliminate(t[k:], 0, f)  # frozen rows above k are not updated
            frozen_cols.append(f)
            k += 1
        self.frozen, self.frozen_cols = t[:k].copy(), np.array(frozen_cols, dtype=int)
        self.dead = np.array(dead, dtype=int)
        live = t[k:m]
        live[:, self.dead] = 0.0
        self.rows = order[k:]
        self.sign = np.where(live[:, -1] < 0, -1.0, 1.0)
        live *= self.sign[:, None]
        slack = form.slack_of_row[self.rows]
        self.art_rows = np.flatnonzero((slack < 0) | (self.sign < 0))
        self.n_art = na = self.art_rows.size
        ml = m - k
        T = self.T = np.zeros((ml + 2, n + na + 1))
        T[:ml, :n], T[:ml, -1] = live[:, :n], live[:, -1]
        T[self.art_rows, n + np.arange(na)] = 1.0
        T[ml, :n], T[ml, -1] = t[m, :n], t[m, -1]
        T[ml + 1, :n] = -live[self.art_rows, :n].sum(axis=0)
        T[ml + 1, -1] = -live[self.art_rows, -1].sum()
        self.basis = slack.copy()
        self.basis[self.art_rows] = n + np.arange(na)
        self.alive = np.ones(ml, dtype=bool)

    def _count_pivot(self):
        if self.iterations >= self.max_iter:
            raise NumericalFailure(f"simplex exceeded iteration cap {self.max_iter}")
        self.iterations += 1

    def _pivot(self, r: int, j: int):
        self._count_pivot()
        _eliminate(self.T, r, j)
        self.basis[r] = j

    def _run(self, allowed: np.ndarray, stop: float | None = None):
        """Price on the last row of T and pivot to optimality, or until the
        basic artificials total at most stop; returns None there, else
        (column, direction) of an unbounded ray.

        Pricing is Dantzig (most negative reduced cost) until a run of
        degenerate pivots signals possible cycling, then switches to
        Bland's anti-cycling rule for the rest of the phase.  Both rules
        are deterministic.  A free column enters downward when its reduced
        cost is positive; its live column is zero, so it enters only along
        a ray.
        """
        T = self.T
        ml = self.basis.size
        bland = False
        degenerate_run = 0
        while True:
            if stop is not None and self._infeasibility() <= stop:
                return None
            reduced = T[-1, :-1] * allowed
            if self.dead.size:
                reduced[self.dead] = -np.abs(reduced[self.dead])
            if bland:
                candidates = np.flatnonzero(reduced < -ENTER_EPS)
                if candidates.size == 0:
                    return None
                j = int(candidates[0])  # Bland: lowest eligible index enters
            else:
                j = int(np.argmin(reduced))
                if reduced[j] >= -ENTER_EPS:
                    return None
            direction = -1.0 if T[-1, j] > 0 else 1.0
            colj = direction * T[:ml, j]
            rows = np.flatnonzero(self.alive & (colj > PIVOT_EPS))
            if rows.size == 0:
                return j, direction
            ratios = np.maximum(T[rows, -1], 0.0) / colj[rows]
            best = ratios.min()
            ties = rows[ratios <= best + RATIO_TIE_TOL]
            # among ties the row whose basic variable has lowest index leaves
            r = int(ties[np.argmin(self.basis[ties])])
            self._pivot(r, j)
            if best <= DEGENERATE_TOL:
                degenerate_run += 1
                if degenerate_run >= BLAND_TRIGGER:
                    bland = self.bland = True
            else:
                degenerate_run = 0

    def _infeasibility(self) -> float:
        """The phase-1 value: the total level of the basic artificials."""
        level = self.T[: self.basis.size, -1][self.basis >= self.n]
        return float(np.maximum(level, 0.0).sum())

    def solve_phase1(self, stop: float) -> float:
        """Phase 1 until its value is at most stop, or to optimality;
        returns the value reached."""
        start = self.iterations
        if self.n_art:
            self._run(np.ones(self.T.shape[1] - 1), stop)
        self.phase1_pivots = self.iterations - start
        return self._infeasibility()

    def solve_phase2(self):
        """Drop the phase-1 row, pivot each basic artificial out on the
        largest structural entry of its row, lowest index first among equal
        ones (a row where none exceeds PIVOT_EPS is redundant and leaves the
        ratio tests), then price the phase-2 row.  Returns None at an
        optimum, else an unbounded ray over the columns."""
        self.T = self.T[:-1]
        for r in np.flatnonzero(self.basis >= self.n):
            mag = np.abs(self.T[r, : self.n])
            j = int(np.argmax(mag))
            if mag[j] > PIVOT_EPS:
                self._pivot(int(r), j)
            else:
                self.alive[r] = False
        allowed = np.arange(self.n + self.n_art) < self.n
        hit = self._run(allowed)
        if hit is None:
            return None
        j, direction = hit
        d = np.zeros(self.n + self.n_art)
        d[j] = direction
        d[self.basis[self.alive]] = -direction * self.T[: self.basis.size][self.alive, j]
        return self._back_substitute(d, 0.0)

    def _back_substitute(self, z: np.ndarray, rhs: float) -> np.ndarray:
        """Fill in the free basic values of the frozen rows, last frozen
        first (a frozen row holds no column frozen before it); rhs = 0
        for a direction."""
        for i in range(self.frozen_cols.size - 1, -1, -1):
            f = self.frozen_cols[i]
            z[f] = 0.0
            z[f] = rhs * self.frozen[i, -1] - self.frozen[i, : self.n] @ z[: self.n]
        return z

    def primal(self) -> np.ndarray:
        z = np.zeros(self.n + self.n_art)
        live = self.T[: self.basis.size]
        z[self.basis[self.alive]] = np.maximum(live[self.alive, -1], 0.0)
        return self._back_substitute(z, 1.0)[: self.n]

    def dual(self, cost: np.ndarray) -> np.ndarray:
        """Row multipliers y for the original rows: B'y = cost_B over the
        square basis B of the original rows (a free column per frozen row,
        the live basis otherwise; the artificial of live row i is the
        column sign_i e_i of its original row)."""
        basis = np.concatenate([self.frozen_cols, self.basis])
        cols = np.zeros((self.m, self.m))
        struct = basis < self.n
        cols[:, struct] = self.form.a[:, basis[struct]]
        art = np.flatnonzero(~struct)
        live_row = self.art_rows[basis[art] - self.n]
        cols[self.rows[live_row], art] = self.sign[live_row]
        return np.linalg.solve(cols.T, cost[basis])


def _phase1(problem: LpProblem, max_iter: int | None):
    """Standard form, iteration cap and phase 1, shared by lp_solve and
    feasibility.  Returns (form, simplex, phase-1 value, farkas), farkas
    None when the constraints are feasible."""
    form = _StandardForm(problem)
    if max_iter is None:
        max_iter = 50 * (form.a.shape[1] + form.a.shape[0])
    sx = _Simplex(form, max_iter)
    scale = 1.0 + float(np.abs(form.b).max(initial=0.0))
    phase1 = sx.solve_phase1(PHASE1_STOP_TOL * scale)
    if phase1 <= PHASE1_RTOL * scale:
        return form, sx, phase1, None
    cost1 = (np.arange(sx.n + sx.n_art) >= sx.n).astype(float)
    return form, sx, phase1, form.folded(sx.dual(cost1), np.zeros(form.n))


def _counts(sx: _Simplex) -> dict:
    return {"iterations": sx.iterations, "phase1_pivots": sx.phase1_pivots, "bland": sx.bland}


def _residuals(form: _StandardForm, x: np.ndarray, y: np.ndarray, c: np.ndarray, pivots: int) -> dict:
    """Primal residuals of x over the folded rows (an implicit row -x_j <= 0
    read off x directly) and the duality gap of (x, y); raises
    NumericalFailure when one fails its RESIDUAL_RTOL test."""
    value = float(c @ x)
    a_eq, b_eq, a_le, b_le = form.explicit_rows
    res_eq = float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0))
    res_le = float(max(np.max(a_le @ x - b_le, initial=0.0), np.max(-x[form.nonneg], initial=0.0)))
    gap = abs(value - float(y @ form.b)) if form.b.size else 0.0
    size = 1.0 + max(np.abs(b_eq).max(initial=0.0), np.abs(b_le).max(initial=0.0)) + np.abs(x).max(initial=0.0)
    if max(res_eq, res_le) > RESIDUAL_RTOL * size or gap > RESIDUAL_RTOL * (1.0 + abs(value)):
        raise NumericalFailure(f"optimum fails its residual test: primal_eq {res_eq:.3g}, "
                               f"primal_le {res_le:.3g}, duality gap {gap:.3g} after {pivots} pivots")
    return {"primal_eq": res_eq, "primal_le": res_le, "duality_gap": gap}


def lp_solve(problem: LpProblem, max_iter: int | None = None) -> LpSolution:
    """Solve the LP; status plus certificates as described on LpSolution.
    An optimum failing its RESIDUAL_RTOL test raises NumericalFailure."""
    form, sx, phase1, farkas = _phase1(problem, max_iter)
    if farkas is not None:
        return LpSolution(status=INFEASIBLE, farkas=farkas, residuals={"phase1": phase1}, **_counts(sx))
    ray = sx.solve_phase2()
    if ray is not None:
        return LpSolution(status=UNBOUNDED, ray=ray[: form.n], **_counts(sx))
    x = sx.primal()[: form.n]
    y = sx.dual(np.concatenate([form.c, np.zeros(sx.n_art)]))
    y_eq, y_le = form.folded(y, problem.c)
    residuals = _residuals(form, x, y, problem.c, sx.iterations)
    return LpSolution(status=OPTIMAL, x=x, value=float(problem.c @ x), y_eq=y_eq, y_le=y_le,
                      residuals=residuals, **_counts(sx))


def feasibility(problem: LpProblem, max_iter: int | None = None) -> FeasibilityResult:
    """Phase-1 feasibility of the constraint system (objective ignored).

    Returns a witness point when feasible, else a Farkas certificate
    (y_eq, y_le) with y_le <= 0, y_eq'a_eq + y_le'a_le = 0 and
    y_eq'b_eq + y_le'b_le > 0 within tolerance.
    """
    form, sx, phase1, farkas = _phase1(problem, max_iter)
    witness = None if farkas is not None else sx.primal()[: form.n]
    return FeasibilityResult(farkas is None, witness, farkas, phase1, **_counts(sx))
