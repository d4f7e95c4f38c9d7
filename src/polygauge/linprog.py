"""Small dense linear-programming solver.

Two-phase primal simplex on the full tableau with Bland's anti-cycling
rule.  Built for the many small feasibility and minimization questions
this package asks (row-space/face intersections, gauge epigraphs,
min-sup-norm representations); determinism and certificates matter more
than speed at these sizes.

Geometry convention: variables are free unless bounds are given,
``a_le @ x <= b_le`` for inequalities, ``a_eq @ x = b_eq`` for equalities.
Internally everything is rewritten to standard form before pivoting: a
variable bounded by exactly (0, None) is one nonnegative column and its
bound stays implicit; every other variable is split into x+ - x- and its
finite bounds become slack rows.  lp_solve and feasibility share one
phase 1.  Certificates (duals, Farkas vectors) are reported over the
folded rows of _bounds_to_rows, implicit bound rows included.
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
# Constraints count as feasible when the phase-1 value (the least total
# artificial infeasibility) is at most PHASE1_RTOL * (1 + ||b||_inf) over
# the standard-form right-hand side b.
PHASE1_RTOL = 1e-8


class NumericalFailure(RuntimeError):
    """Raised when pivoting exceeds the iteration cap without terminating."""


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
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    y_eq: np.ndarray | None = None
    y_le: np.ndarray | None = None
    farkas: tuple | None = None
    ray: np.ndarray | None = None
    iterations: int = 0
    residuals: dict = field(default_factory=dict)


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None
    farkas: tuple | None
    phase1_value: float
    iterations: int = 0


def _bounds_to_rows(problem: LpProblem):
    """Fold variable bounds into extra a_le rows; return (a_eq,b_eq,a_le,b_le)."""
    n = problem.n_vars
    a_eq = problem.a_eq if problem.a_eq is not None else np.zeros((0, n))
    b_eq = problem.b_eq if problem.b_eq is not None else np.zeros(0)
    le_rows = [problem.a_le] if problem.a_le is not None else []
    le_rhs = [problem.b_le] if problem.b_le is not None else []
    if problem.bounds is not None:
        extra_rows = []
        extra_rhs = []
        for j, (lo, hi) in enumerate(problem.bounds):
            if lo is not None:
                row = np.zeros(n)
                row[j] = -1.0
                extra_rows.append(row)
                extra_rhs.append(-float(lo))
            if hi is not None:
                row = np.zeros(n)
                row[j] = 1.0
                extra_rows.append(row)
                extra_rhs.append(float(hi))
        if extra_rows:
            le_rows.append(np.asarray(extra_rows))
            le_rhs.append(np.asarray(extra_rhs))
    a_le = np.vstack(le_rows) if le_rows else np.zeros((0, n))
    b_le = np.concatenate(le_rhs) if le_rhs else np.zeros(0)
    return a_eq, b_eq, a_le, b_le


class _Simplex:
    """Two-phase tableau simplex on min c'z, A z = b, z >= 0.

    slack_of_row maps each row to its slack column (or -1): slack columns
    whose row was not sign-flipped start basic (crash basis), so
    artificial variables are only created where actually needed.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int, slack_of_row):
        m, n = a.shape
        self.sign = np.where(b < 0, -1.0, 1.0)
        self.a_f = a * self.sign[:, None]  # flipped constraint matrix, pre-pivot
        self.m, self.n = m, n
        self.c = c
        self.max_iter = max_iter
        self.iterations = 0
        self.basis = []
        art_rows = []
        for r in range(m):
            if slack_of_row[r] >= 0 and self.sign[r] > 0:
                self.basis.append(slack_of_row[r])
            else:
                self.basis.append(-1)  # placeholder, artificial below
                art_rows.append(r)
        self.art = np.zeros((m, len(art_rows)))
        for j, r in enumerate(art_rows):
            self.art[r, j] = 1.0
            self.basis[r] = n + j
        self.n_art = len(art_rows)
        self.T = np.hstack([self.a_f, self.art, (b * self.sign)[:, None]])
        self.art_start = n
        self.row_alive = np.ones(m, dtype=bool)

    def _pivot(self, r: int, j: int):
        T = self.T
        T[r] = T[r] / T[r, j]
        col = T[:, j].copy()
        col[r] = 0.0
        T -= col[:, None] * T[r]
        self.basis[r] = j

    def _run(self, cost: np.ndarray, allowed: np.ndarray):
        """Pivot to optimality; returns None at an optimum, else the
        unbounded column.

        Pricing is Dantzig (most negative reduced cost) until a run of
        degenerate pivots signals possible cycling, then switches to
        Bland's anti-cycling rule for the rest of the phase.  Both rules
        are deterministic.
        """
        T = self.T
        bland = False
        degenerate_run = 0
        while True:
            if self.iterations > self.max_iter:
                raise NumericalFailure(f"simplex exceeded iteration cap {self.max_iter}")
            self.iterations += 1
            cb = cost[self.basis]
            reduced = cost - cb @ T[:, :-1]
            reduced[~allowed] = 0.0
            if bland:
                candidates = np.flatnonzero(reduced < -ENTER_EPS)
                if candidates.size == 0:
                    return None
                j = int(candidates[0])  # Bland: lowest eligible index enters
            else:
                j = int(np.argmin(reduced))
                if reduced[j] >= -ENTER_EPS:
                    return None
            colj = T[:, j]
            rows = np.flatnonzero(self.row_alive & (colj > PIVOT_EPS))
            if rows.size == 0:
                return j
            ratios = np.maximum(T[rows, -1], 0.0) / colj[rows]
            best = ratios.min()
            ties = rows[ratios <= best + 1e-12]
            # among ties the row whose basic variable has lowest index leaves
            r = min(ties, key=lambda i: self.basis[i])
            self._pivot(int(r), j)
            if best <= 1e-12:
                degenerate_run += 1
                if degenerate_run >= 40:
                    bland = True
            else:
                degenerate_run = 0

    def solve_phase1(self):
        cost = np.zeros(self.n + self.n_art)
        cost[self.n :] = 1.0
        if self.n_art:
            allowed = np.ones(self.n + self.n_art, dtype=bool)
            self._run(cost, allowed)
        value = float(cost[self.basis] @ np.maximum(self.T[:, -1], 0.0))
        return value, cost

    def drive_out_artificials(self):
        """Pivot basic artificials onto structural columns; deactivate redundant rows."""
        for r in range(self.m):
            if not self.row_alive[r]:
                continue
            if self.basis[r] >= self.art_start:
                row = self.T[r, : self.n]
                j = np.flatnonzero(np.abs(row) > PIVOT_EPS)
                if j.size:
                    self._pivot(r, int(j[0]))
                else:
                    self.row_alive[r] = False

    def solve_phase2(self):
        cost = np.concatenate([self.c, np.zeros(self.n_art)])
        allowed = np.ones(self.n + self.n_art, dtype=bool)
        allowed[self.art_start :] = False
        return self._run(cost, allowed), cost

    def primal(self) -> np.ndarray:
        z = np.zeros(self.n + self.n_art)
        for r in range(self.m):
            if self.row_alive[r]:
                z[self.basis[r]] = max(self.T[r, -1], 0.0)
        return z[: self.n]

    def dual(self, cost: np.ndarray) -> np.ndarray:
        """Row multipliers for the ORIGINAL (unflipped) rows, recomputed
        from pre-pivot data for accuracy: solves M_f[:,B]' y_f = c_B and
        unflips."""
        full = np.hstack([self.a_f, self.art])
        cols = full[:, self.basis]
        cb = cost[self.basis]
        y_f, *_ = np.linalg.lstsq(cols.T, cb, rcond=None)
        return self.sign * y_f


class _StandardForm:
    """min c'z, Az = b, z >= 0 for an LpProblem.  A variable bounded by
    exactly (0, None) is one column whose bound row stays implicit; every
    other variable j is split into z_j - z_{n+i} (j = free[i]) and its
    bounds are folded into slack rows, as _bounds_to_rows writes them."""

    def __init__(self, problem: LpProblem):
        self.folded_rows = a_eq, b_eq, a_le, b_le = _bounds_to_rows(problem)
        n = self.n = problem.n_vars
        nonneg = [False] * n
        # a variable's folded rows follow a_le's own rows, lower bound first
        explicit = [True] * (0 if problem.a_le is None else problem.a_le.shape[0])
        for j, (lo, hi) in enumerate(problem.bounds or []):
            nonneg[j] = lo == 0.0 and hi is None
            explicit += [not nonneg[j]] * (lo is not None) + [True] * (hi is not None)
        self.nonneg, self.explicit = np.array(nonneg, dtype=bool), np.array(explicit, dtype=bool)
        self.free = np.flatnonzero(~self.nonneg)
        me, mi, nz = a_eq.shape[0], int(self.explicit.sum()), n + self.free.size
        a = self.a = np.zeros((me + mi, nz + mi))
        a[:me, :n], a[me:, :n] = a_eq, a_le[self.explicit]
        a[:, n:nz] = -a[:, self.free]
        a[me:, nz:] = np.eye(mi)
        self.b = np.concatenate([b_eq, b_le[self.explicit]])
        self.c = np.concatenate([problem.c, -problem.c[self.free], np.zeros(mi)])
        self.me = me
        self.slack_of_row = [-1] * me + [nz + i for i in range(mi)]

    def x(self, z: np.ndarray) -> np.ndarray:
        """Original-space point (or direction) of a standard-form z."""
        x = z[: self.n].copy()
        x[self.free] -= z[self.n : self.n + self.free.size]
        return x

    def folded(self, y: np.ndarray, c_x: np.ndarray) -> tuple:
        """(y_eq, y_le) over the folded rows from row multipliers y: an
        implicit row -x_j <= 0 gets (y'A - c)_j, which is <= 0 wherever
        the reduced cost of column j is >= 0."""
        y_le = np.zeros(self.explicit.size)
        y_le[self.explicit] = y[self.me :]
        y_le[~self.explicit] = (y @ self.a[:, : self.n] - c_x)[self.nonneg]
        return y[: self.me].copy(), y_le


def _phase1(problem: LpProblem, max_iter: int | None):
    """Standard form, iteration cap and phase 1, shared by lp_solve and
    feasibility.  Returns (form, simplex, phase-1 value, farkas), farkas
    None when the constraints are feasible."""
    form = _StandardForm(problem)
    if max_iter is None:
        max_iter = 50 * (form.a.shape[1] + form.a.shape[0])
    sx = _Simplex(form.a, form.b, form.c, max_iter, form.slack_of_row)
    phase1, cost1 = sx.solve_phase1()
    scale = 1.0 + float(np.abs(form.b).max(initial=0.0))
    if phase1 <= PHASE1_RTOL * scale:
        return form, sx, phase1, None
    return form, sx, phase1, form.folded(sx.dual(cost1), np.zeros(form.n))


def lp_solve(problem: LpProblem, max_iter: int | None = None) -> LpSolution:
    """Solve the LP; status plus certificates as described on LpSolution."""
    form, sx, phase1, farkas = _phase1(problem, max_iter)
    if farkas is not None:
        return LpSolution(
            status=INFEASIBLE,
            farkas=farkas,
            iterations=sx.iterations,
            residuals={"phase1": phase1},
        )
    sx.drive_out_artificials()
    unbounded_col, cost2 = sx.solve_phase2()
    if unbounded_col is not None:
        d = np.zeros(sx.n + sx.n_art)
        d[unbounded_col] = 1.0
        for r in range(sx.m):
            if sx.row_alive[r]:
                d[sx.basis[r]] = -sx.T[r, unbounded_col]
        return LpSolution(status=UNBOUNDED, ray=form.x(d), iterations=sx.iterations)
    x = form.x(sx.primal())
    y = sx.dual(cost2)
    y_eq, y_le = form.folded(y, problem.c)
    value = float(problem.c @ x)
    a_eq, b_eq, a_le, b_le = form.folded_rows
    res_eq = float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0))
    res_le = float(np.max(a_le @ x - b_le, initial=0.0))
    gap = abs(value - float(y @ form.b)) if form.b.size else 0.0
    return LpSolution(
        status=OPTIMAL,
        x=x,
        value=value,
        y_eq=y_eq,
        y_le=y_le,
        iterations=sx.iterations,
        residuals={"primal_eq": res_eq, "primal_le": res_le, "duality_gap": gap},
    )


def feasibility(problem: LpProblem, max_iter: int | None = None) -> FeasibilityResult:
    """Phase-1 feasibility of the constraint system (objective ignored).

    Returns a witness point when feasible, else a Farkas certificate
    (y_eq, y_le) with y_le <= 0, y_eq'a_eq + y_le'a_le = 0 and
    y_eq'b_eq + y_le'b_le > 0 within tolerance.
    """
    form, sx, phase1, farkas = _phase1(problem, max_iter)
    if farkas is not None:
        return FeasibilityResult(False, None, farkas, phase1, sx.iterations)
    return FeasibilityResult(True, form.x(sx.primal()), None, phase1, sx.iterations)
