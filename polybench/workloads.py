"""The three workloads: seeded inputs, the operations run on them, and the
checks of each output.

An operation is one call to a public polygauge function (a fig-5
replication is the three calls of one sweep replication).  Every
operation builds its own GaugeSpec, as a CLI call does, so generator
expansion is timed instead of hidden by the per-spec cache.  Functions are
looked up through their modules at call time, so the traced run sees the
wrappers installed by spans.py.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from polygauge import cli, conditions, experiments, gauge, solvers, threshold

import checks

# Criterion 7's frozen 4x6 design and probe (tests/test_acceptance.py).
STRONG_SIGNAL_X = np.array(
    [
        [0.07964773300311641, -0.8870942604008607, 0.6632559409415446,
         0.6024045489746578, -0.01955185604958931, -0.2597096485014618],
        [-0.5566479547136393, -0.8836901507702446, 0.01988380418195147,
         0.185164006862455, 0.683721044443231, 0.06080912645042298],
        [-0.5061834236666928, -0.04545401082128761, -1.257459173099757,
         -0.0397548892079035, -0.15067787912546857, -0.3819530468288456],
        [0.3750564373294266, 0.3333108610257515, 0.22771431766640124,
         0.3789489651337251, -0.5566291328548234, -0.2779846467522697],
    ]
)
STRONG_SIGNAL_BETA = np.array([1.0, 1.0, 1.0, 1.0, 0.4, -0.3])
STRONG_SIGNAL_EPS = np.array(
    [-0.3720095871346854, -0.00721230487034002, 0.25269699583246236,
     -0.8761130173540643]
)
# Criterion 3's generalized lasso, non-unique at the vertex (4, 2, 2).
GENLASSO_X = np.array([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [np.sqrt(2.0), 0.0, 0.0]])
GENLASSO_D = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]])
# Criterion 1's sup-norm path.
PATH_X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
PATH_BETA = np.array([0.0, 2.0, 2.0])
# The tf(5) input on which zero_threshold runs away (true value 0.6106).
TF5_RUNAWAY_Y = np.array(
    [0.6106217760071733, -1.1011730103651076, 0.7608029600113063,
     -0.6605739929559828, 0.3903222673026109]
)
# Fig 6 runs at the README's example seed for every --seed: whether a
# threshold recovers the pattern is a random outcome (seed 1 gives none),
# and it is the largest operation of solver_paths.
FIG6_SEED = 7
# Key of the desk-scale and tv inputs of solver_paths, fixed.  These calls
# (6 ms to 220 ms each) make up the tail of the latency distribution, and
# with one draw each per seed they moved its 90th percentile by 30%
# between seeds.  The 240 lasso solves, which hold the median, stay seeded.
SOLVER_TAIL_KEY = 2023
# Key of the custom-gauge ADMM inputs, fixed: the ADMM stops unconverged
# after 100000 iterations (about 50 s) on some inputs (seed 12, and the
# second draw of SOLVER_TAIL_KEY), so a run could not count that failure.
CUSTOM_ADMM_KEY = 2307
# Key of the zero_threshold inputs, fixed so that their failure count is
# the same for every --seed (see README: known fault).
ZERO_THRESHOLD_KEY = 10158

# Key of the l1 instances, fixed: check_nrc_geometric for l1 at p = 10
# fails on some seeded instances and not on others (a garbage witness with
# weights near -7e8, or the simplex iteration cap), so the l1 set is drawn
# once, from a key on which two of its eight instances show the fault.
NRC_L1_KEY = 15

SWEEP_N, SWEEP_P, SWEEP_KS, SWEEP_REPS = 40, 60, (5, 20, 35), 80
# Noise draws of criterion 6's lasso grid in solver_paths.
LASSO_DRAWS = 48
# Thresholds of the recovery operations.  0.3 and 2.0 joined the first six
# because the verifier passes on them at every signal scale; with 24
# verifier calls the 90th percentile stays inside their cluster.
THRESHOLDS = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0)

# The operations that fail on every run, whatever the seed, because of
# program faults (README: known faults).  Their inputs do not depend on
# --seed.  They are counted in `failed`; a failure of any other operation
# sets `correct` to false.
KNOWN_FAULTS = {
    "zero/0/tf5": "zero_threshold runs away on tf(5): 9.48e10, true 0.6106",
    "zero/5/tv7": "zero_threshold gives 1.99249, true 1.66955",
    "zero/18/tf5": "zero_threshold gives 0.9639, true 0.955644",
    "l1/2/geometric": "check_nrc_geometric verdict true with witness weights near -7e8",
    "l1/7/geometric": "check_nrc_geometric hits the simplex iteration cap",
    "path/criterion1": "breakpoint at 20 comes out as 20.00043, 4.3 x refine_tol away",
    "verify/10/0.05": "verify_thresholded condition 1 fails on a gap of about 1e-16",
    "verify/100/0.2": "verify_thresholded condition 1 fails on a gap of about 1e-16",
}


@dataclass
class Op:
    """One operation: call(outputs) -> output; check(output) -> None or a
    reason.  outputs maps the keys of earlier operations of the same round
    to their outputs (warm starts, verifier inputs)."""

    key: str
    kind: str
    call: Callable[[dict], object]
    check: Callable[[object], str | None]
    reference: Reference | None = None


@dataclass
class Workload:
    ops: list
    warmups: list  # one cheap call per operation type, run during set-up
    round_check: Callable[[dict], list] = field(default=lambda outputs: [])

    @property
    def known_faults(self) -> frozenset:
        """Keys of the operations listed in KNOWN_FAULTS; a failure of any
        other operation makes the run incorrect."""
        return frozenset(op.key for op in self.ops if op.key in KNOWN_FAULTS)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


class Reference:
    """A HiGHS reference value that depends only on the inputs.

    The measured process never imports scipy, so that peak_rss_mb is the
    program's: run.py computes every reference in a separate process
    (compute) and hands the values over (value) before the first round.
    """

    def __init__(self, compute: Callable[[], float]):
        self.compute = compute
        self.value: float | None = None

    def __call__(self) -> float:
        if self.value is None:
            raise RuntimeError("reference value not loaded")
        return self.value


def interleave(*groups) -> list:
    """The operations of all groups, each group spread evenly over the
    round in its own order (so warm starts still follow their source).
    Every kind of operation then samples the speed of the host over the
    whole round, instead of over one burst of calls; on a host whose speed
    drifts within seconds, this steadies the percentiles."""
    placed = [((i + 0.5) / len(g), j, op) for j, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


# ---------------------------------------------------------------------------
# mc_sweep


@dataclass
class SweepRep:
    x: np.ndarray
    target: np.ndarray
    value: float
    nrc: bool


def _sweep_inputs(seed: int, k: int, rep: int):
    """The design and the target X 1_{maximal set} of one replication,
    drawn as run_accessibility_sweep draws them."""
    n, p = SWEEP_N, SWEEP_P
    rng = experiments.replication_rng(seed, (k << 32) | rep)
    x = rng.standard_normal((n, p)) / np.sqrt(n)
    return x, x[:, : p - k] @ np.ones(p - k)


def _sweep_call(seed: int, k: int, rep: int):
    p = SWEEP_P

    def call(_outputs):
        x, target = _sweep_inputs(seed, k, rep)
        beta = np.concatenate([np.ones(p - k), np.full(k, 0.5)])
        value = conditions.min_linf_representation(x, target)
        nrc = conditions.check_nrc_sup(x, beta).verdict
        return SweepRep(x, target, value, nrc)

    return call


def _sweep_op(seed: int, k: int, rep: int) -> Op:
    ref = Reference(lambda: checks.min_linf_reference(*_sweep_inputs(seed, k, rep)))
    return Op(f"rep/{k}/{rep}", "sweep_replication", _sweep_call(seed, k, rep),
              lambda out: checks.sweep_replication(out.value, out.nrc, ref()), ref)


def mc_sweep(seed: int, workdir: Path) -> Workload:
    ops = [_sweep_op(seed, k, rep) for rep in range(SWEEP_REPS) for k in SWEEP_KS]

    def round_check(outputs):
        p_acc = {}
        for k in SWEEP_KS:
            vals = [outputs[f"rep/{k}/{rep}"].value for rep in range(SWEEP_REPS)
                    if f"rep/{k}/{rep}" in outputs]
            p_acc[k] = float(np.mean(np.array(vals) >= 1.0 - 1e-6)) if vals else float("nan")
        problem = checks.sweep_frequencies(p_acc)
        return [problem] if problem else []

    warm = _sweep_call(seed, 35, SWEEP_REPS)
    return Workload(ops, [lambda: warm({})], round_check)


# ---------------------------------------------------------------------------
# face_geometry


def _spec(kind: str, p: int, w=None, d=None, u=None, d_name=None):
    if kind == "l1":
        return gauge.GaugeSpec.l1(p)
    if kind == "sup":
        return gauge.GaugeSpec.sup(p)
    if kind == "slope":
        return gauge.GaugeSpec.slope(w)
    if kind == "genlasso":
        if d_name == "tv":
            return gauge.GaugeSpec.tv(p)
        if d_name == "tf":
            return gauge.GaugeSpec.tf(p)
        return gauge.GaugeSpec.genlasso(d)
    return gauge.GaugeSpec.custom(u)


@dataclass
class Instance:
    """A design, a probe vector and the gauge (kind plus its data)."""

    name: str
    kind: str
    x: np.ndarray
    beta: np.ndarray
    w: np.ndarray | None = None
    d: np.ndarray | None = None
    u: np.ndarray | None = None
    d_name: str | None = None

    @property
    def data(self) -> dict:
        return {"w": self.w, "d": self.d, "u": self.u}

    def spec(self):
        return _spec(self.kind, self.x.shape[1], self.w, self.d, self.u, self.d_name)


def _instances(seed: int) -> list:
    out = []
    rng = rng_for(NRC_L1_KEY, 1)
    for i in range(8):  # l1: n = 6, p = 10, support of 1 to 3; fixed
        x = rng.standard_normal((6, 10)) / np.sqrt(6)
        beta = np.zeros(10)
        supp = rng.choice(10, size=int(rng.integers(1, 4)), replace=False)
        beta[supp] = rng.choice([-1.0, 1.0], supp.size) * rng.uniform(0.5, 2.0, supp.size)
        out.append(Instance(f"l1/{i}", "l1", x, beta))
    rng = rng_for(seed, 2)
    for i in range(64):  # sup: n = 8, p = 10, 3 to 8 maximal entries
        x = rng.standard_normal((8, 10)) / np.sqrt(8)
        m = int(rng.integers(3, 9))
        beta = rng.choice([-1.0, 1.0], 10) * np.where(np.arange(10) < m, 1.0, rng.uniform(0.0, 0.9, 10))
        out.append(Instance(f"sup/{i}", "sup", x, rng.permutation(beta)))
    rng = rng_for(seed, 3)
    for i in range(20):  # tv: n = 6, p = 10, piecewise constant with 3 pieces
        x = rng.standard_normal((6, 10)) / np.sqrt(6)
        cuts = np.sort(rng.choice(np.arange(1, 10), 2, replace=False))
        levels = rng.choice([-1.0, 0.0, 1.0, 2.0], 3)
        beta = np.repeat(levels, np.diff(np.concatenate([[0], cuts, [10]])))
        out.append(Instance(f"tv/{i}", "genlasso", x, beta, d=checks.difference_matrix(10, 1), d_name="tv"))
    rng = rng_for(seed, 4)
    for i in range(20):  # custom: symmetric U = [0; V; -V], V 4x4, n = 3
        v = rng.standard_normal((4, 4))
        u = np.vstack([np.zeros((1, 4)), v, -v])
        out.append(Instance(f"custom/{i}", "custom", rng.standard_normal((3, 4)), rng.standard_normal(4), u=u))
    rng = rng_for(seed, 5)
    for i in range(4):  # slope at p = 8, n = 5, clustered magnitudes
        x = rng.standard_normal((5, 8)) / np.sqrt(5)
        beta = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], 8)
        out.append(Instance(f"slope/{i}", "slope", x, beta, w=np.arange(8.0, 0.0, -1.0)))
    return out


def _access_op(inst: Instance) -> Op:
    ref = Reference(lambda: checks.fiber_min_reference(inst.kind, inst.x, inst.x @ inst.beta, **inst.data))
    return Op(
        f"{inst.name}/access",
        "check_accessibility",
        lambda _o: conditions.check_accessibility(inst.spec(), inst.x, inst.beta),
        lambda rep: checks.accessibility(inst.kind, inst.x, inst.beta, rep, ref(), **inst.data),
        ref,
    )


def _geometric_op(inst: Instance) -> Op:
    return Op(
        f"{inst.name}/geometric",
        "check_nrc_geometric",
        lambda _o: conditions.check_nrc_geometric(inst.spec(), inst.x, inst.beta),
        lambda rep: checks.nrc_geometric(inst.kind, inst.x, inst.beta, rep, **inst.data),
    )


def _analytic_op(inst: Instance) -> Op:
    fn = "check_nrc_lasso" if inst.kind == "l1" else "check_nrc_sup"

    def check(rep):
        if inst.kind == "sup" and rep.verdict != checks.nrc_sup_analytic(inst.x, inst.beta):
            return "analytic sup-norm NRC disagrees with its numpy recomputation"
        return None

    return Op(f"{inst.name}/analytic", fn,
              lambda _o: getattr(conditions, fn)(inst.x, inst.beta), check)


@dataclass
class Design:
    """A design for the uniform-uniqueness scan."""

    name: str
    kind: str
    x: np.ndarray
    d: np.ndarray | None = None
    d_name: str | None = None
    expect: bool | None = None
    vertex: tuple | None = None

    def spec(self):
        return _spec(self.kind, self.x.shape[1], d=self.d, d_name=self.d_name)


def _designs(seed: int) -> list:
    rng = rng_for(seed, 6)
    return [
        Design("sup6-criterion7", "sup", STRONG_SIGNAL_X, expect=True),
        Design("genlasso-criterion3", "genlasso", GENLASSO_X, d=GENLASSO_D,
               expect=False, vertex=(4.0, 2.0, 2.0)),
        Design("l1-3", "l1", rng.standard_normal((2, 3))),
        Design("tv-4", "genlasso", rng.standard_normal((2, 4)), d=checks.difference_matrix(4, 1), d_name="tv"),
        Design("sup-5", "sup", rng.standard_normal((3, 5))),
    ]


def _unique_op(des: Design) -> Op:
    return Op(
        f"unique/{des.name}",
        "check_uniform_uniqueness",
        lambda _o: conditions.check_uniform_uniqueness(des.spec(), des.x),
        lambda rep: checks.uniqueness(des.kind, des.x, rep, d=des.d, expect=des.expect, vertex=des.vertex),
    )


def zero_threshold_inputs() -> list:
    """(d_name, p, y, truth): X = I and y = D'z0, so lambda_0 = ||z0||_inf.

    Drawn from a fixed key, not from --seed, plus the tf(5) runaway input.
    """
    rng = rng_for(ZERO_THRESHOLD_KEY, 0)
    out = [("tf", 5, TF5_RUNAWAY_Y, None)]
    for _ in range(12):
        for d_name, order in (("tv", 1), ("tf", 2)):
            p = int(rng.integers(5, 11))
            z0 = rng.uniform(-1.0, 1.0, p - order) * rng.uniform(0.5, 2.0)
            out.append((d_name, p, checks.difference_matrix(p, order).T @ z0, float(np.max(np.abs(z0)))))
    return out


def _zero_threshold_op(i: int, d_name: str, p: int, y, truth) -> Op:
    order = 1 if d_name == "tv" else 2
    ref = None if truth is not None else \
        Reference(lambda: checks.min_linf_reference(checks.difference_matrix(p, order).T, y))

    def call(_o):
        spec = gauge.GaugeSpec.tv(p) if d_name == "tv" else gauge.GaugeSpec.tf(p)
        return conditions.zero_threshold(spec, np.eye(p), y)

    return Op(f"zero/{i}/{d_name}{p}", "zero_threshold", call,
              lambda value: checks.zero_threshold(value, truth if ref is None else ref()), ref)


def _run_cli(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, json.loads(buf.getvalue())


def _write_csv(path: Path, a) -> Path:
    np.savetxt(path, np.atleast_2d(np.asarray(a, dtype=float)).reshape(len(a), -1), delimiter=",", fmt="%.17g")
    return path


def _cli_ops(workdir: Path, l1: Instance, sup: Instance, des: Design) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    files = {
        "l1x": _write_csv(workdir / "l1_x.csv", l1.x),
        "l1b": _write_csv(workdir / "l1_beta.csv", l1.beta),
        "supx": _write_csv(workdir / "sup_x.csv", sup.x),
        "supb": _write_csv(workdir / "sup_beta.csv", sup.beta),
        "ux": _write_csv(workdir / "unique_x.csv", des.x),
    }
    ref = Reference(lambda: checks.fiber_min_reference("l1", l1.x, l1.x @ l1.beta))

    def access_check(out):
        code, payload = out
        if code != (0 if payload["verdict"] else 4):
            return f"exit code {code} for verdict {payload['verdict']}"
        return checks.accessibility("l1", l1.x, l1.beta, payload, ref())

    def nrc_check(out):
        code, payload = out
        if payload["verdict"] != checks.nrc_sup_analytic(sup.x, sup.beta):
            return "geometric NRC from the CLI disagrees with the analytic test"
        return checks.nrc_geometric("sup", sup.x, sup.beta, payload)

    return [
        Op("cli/check-access", "cli.main",
           lambda _o: _run_cli(["check-access", "--penalty", "l1", "--x", files["l1x"], "--beta", files["l1b"]]),
           access_check, ref),
        Op("cli/check-nrc", "cli.main",
           lambda _o: _run_cli(["check-nrc", "--penalty", "sup", "--method", "geometric",
                                "--x", files["supx"], "--beta", files["supb"]]),
           nrc_check),
        Op("cli/check-unique", "cli.main",
           lambda _o: _run_cli(["check-unique", "--penalty", "l1", "--x", files["ux"]]),
           lambda out: checks.uniqueness("l1", des.x, out[1])),
    ]


def face_geometry(seed: int, workdir: Path) -> Workload:
    insts = _instances(seed)
    designs = _designs(seed)
    per_kind = {}
    for inst in insts:
        group = per_kind.setdefault(inst.kind, [])
        group.append(_access_op(inst))
        if inst.kind in ("l1", "sup"):
            group += [_analytic_op(inst), _geometric_op(inst)]
    ops = interleave(
        *per_kind.values(),
        [_unique_op(des) for des in designs],
        [_zero_threshold_op(i, *args) for i, args in enumerate(zero_threshold_inputs())],
        _cli_ops(workdir, insts[0], insts[8], designs[2]),
    )

    def round_check(outputs):
        problems = []
        for inst in insts:
            acc = outputs.get(f"{inst.name}/access")
            geo = outputs.get(f"{inst.name}/geometric")
            ana = outputs.get(f"{inst.name}/analytic")
            for rep in (geo, ana):
                if rep is not None and acc is not None and rep.verdict and not acc.verdict:
                    problems.append(f"{inst.name}: NRC holds but the pattern is not accessible")
            if geo is not None and ana is not None and geo.verdict != ana.verdict:
                problems.append(f"{inst.name}: analytic and geometric NRC disagree")
        return problems

    small = Instance("warm", "sup", np.array([[1.0, 0.5, -0.2], [0.3, 1.0, 0.4]]), np.array([1.0, -1.0, 0.2]))
    warm_dir = workdir / "warm"
    warm_cli = _cli_ops(warm_dir, small, small, Design("warm", "l1", small.x))[0]
    warmups = [
        lambda: conditions.check_accessibility(small.spec(), small.x, small.beta),
        lambda: conditions.check_nrc_lasso(small.x, small.beta),
        lambda: conditions.check_nrc_sup(small.x, small.beta),
        lambda: conditions.check_nrc_geometric(small.spec(), small.x, small.beta),
        lambda: conditions.check_uniform_uniqueness(gauge.GaugeSpec.sup(2), np.array([[1.0, 0.5]])),
        lambda: conditions.zero_threshold(gauge.GaugeSpec.tv(4), np.eye(4), np.array([1.0, -0.5, 0.25, -0.75])),
        lambda: warm_cli.call({}),
    ]
    return Workload(ops, warmups, round_check)


# ---------------------------------------------------------------------------
# solver_paths


def _solve_op(key, kind, x, y, lam, opts, data=None, warm_key=None, spec=None) -> Op:
    data = data or {}

    def call(outputs):
        start = outputs[warm_key].beta if warm_key else None
        return solvers.solve(spec(), x, y, lam, opts, start=start)

    return Op(key, "solve", call, lambda res: checks.solve_result(kind, x, y, lam, res, opts.tol, **data))


def _criterion6_design() -> np.ndarray:
    n, p = 6, 10
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    x = np.zeros((n, p))
    x[0, 0] = x[1, 1] = 1.0
    x[:, 2] = 0.9 * (x[:, 0] + x[:, 1])
    x[:, 3:] = rng.standard_normal((n, p - 3)) / np.sqrt(n)
    return x


def _lasso_grid_ops(seed: int) -> list:
    """Criterion 6's warm-started grid: 48 noise draws, each with 5 lambdas
    from lambda_max / 2.5 down to lambda_max / 100.  Many draws, and a KKT
    check on every iteration so that iteration counts are not multiples of
    10, keep the median over them steady across seeds."""
    x = _criterion6_design()
    beta = np.zeros(10)
    beta[:2] = 1.0
    opts = solvers.SolveOptions(check_every=1)
    rng = rng_for(seed, 11)
    ops = []
    for draw in range(LASSO_DRAWS):
        y = x @ beta + 0.5 * rng.standard_normal(6)
        lam_max = float(np.max(np.abs(x.T @ y)))
        prev = None
        for j, lam in enumerate(np.geomspace(lam_max, lam_max / 100.0, 6)[1:]):
            key = f"lasso6x10/{draw}/{j}"
            ops.append(_solve_op(key, "l1", x, y, float(lam), opts, warm_key=prev,
                                 spec=lambda: gauge.GaugeSpec.l1(10)))
            prev = key
    return ops


def _desk_grid_ops() -> list:
    """l1, sup and slope at 100 x 200, three warm-started lambdas each."""
    n, p = 100, 200
    rng = rng_for(SOLVER_TAIL_KEY, 12)
    x = rng.standard_normal((n, p)) / np.sqrt(n)
    beta = np.zeros(p)
    beta[rng.choice(p, 10, replace=False)] = 2.0 * rng.choice([-1.0, 1.0], 10)
    y = x @ beta + 0.5 * rng.standard_normal(n)
    w = np.linspace(2.0, 1.0, p)
    v = np.abs(x.T @ y)
    lam0 = {
        "l1": float(v.max()),
        "sup": float(v.sum()),
        "slope": float(np.max(np.cumsum(np.sort(v)[::-1]) / np.cumsum(w))),
    }
    makers = {
        "l1": lambda: gauge.GaugeSpec.l1(p),
        "sup": lambda: gauge.GaugeSpec.sup(p),
        "slope": lambda: gauge.GaugeSpec.slope(w),
    }
    opts = solvers.SolveOptions()
    ops = []
    for kind in ("l1", "sup", "slope"):
        prev = None
        for frac in (0.5, 0.2, 0.1):
            key = f"desk/{kind}/{frac}"
            ops.append(_solve_op(key, kind, x, y, frac * lam0[kind], opts, {"w": w},
                                 warm_key=prev, spec=makers[kind]))
            prev = key
    return ops


def _admm_ops() -> list:
    """tv denoising (X = I, p = 20 and 48) and a symmetric custom gauge
    U = [0; V; -V] with V 3x3 and X 5x3."""
    rng = rng_for(SOLVER_TAIL_KEY, 13)
    opts = solvers.SolveOptions()
    ops = []
    for p in (20, 20, 48, 48):
        y = np.repeat(rng.standard_normal(4), p // 4) + 0.3 * rng.standard_normal(p)
        ops.append(_solve_op(f"tv/{p}/{len(ops)}", "genlasso", np.eye(p), y, 0.5, opts,
                             {"d": checks.difference_matrix(p, 1)},
                             spec=(lambda p=p: gauge.GaugeSpec.tv(p))))
    fixed = rng_for(CUSTOM_ADMM_KEY, 0)
    for i in range(2):
        v = fixed.standard_normal((3, 3))
        u = np.vstack([np.zeros((1, 3)), v, -v])
        x = fixed.standard_normal((5, 3))
        y = fixed.standard_normal(5)
        ops.append(_solve_op(f"custom/{i}", "custom", x, y, 0.5, opts, {"u": u},
                             spec=(lambda u=u: gauge.GaugeSpec.custom(u))))
    return ops


def _path_op() -> Op:
    refine_tol = 1e-4

    def call(_o):
        return solvers.solution_path(
            gauge.GaugeSpec.sup(3), PATH_X, PATH_X @ PATH_BETA, 0.5, 30.0,
            grid_size=40, refine_tol=refine_tol, opts=solvers.SolveOptions(tol=1e-9),
        )

    # A known fault: the breakpoint at 20 comes out as 20.00043.
    return Op("path/criterion1", "solution_path", call, lambda path: checks.path_result(path, refine_tol))


def _threshold_ops() -> list:
    """recover_with_threshold then verify_thresholded on criterion 7's
    instance at signal scales r = 1, 10, 100 and eight thresholds.  Fixed:
    the verifier's condition 1 compares a float gap with 0 exactly, so on
    seeded noise it fails on some seeds only; on this instance it fails on
    every run at (r, tau) = (10, 0.05) and (100, 0.2).  The 24 verifier
    calls (80 to 130 ms, fixed inputs) hold the 90th percentile of the
    latencies."""
    x = STRONG_SIGNAL_X
    opts = solvers.SolveOptions(tol=1e-8)
    ops = []
    for r in (1, 10, 100):
        y = x @ (r * STRONG_SIGNAL_BETA) + STRONG_SIGNAL_EPS
        for tau in THRESHOLDS:
            key = f"recover/{r}/{tau}"

            def recover(_o, y=y, tau=tau):
                return threshold.recover_with_threshold(gauge.GaugeSpec.sup(6), x, y, 1.0, tau, opts)

            def recover_check(out, y=y, tau=tau):
                return checks.solve_result("sup", x, y, 1.0, out.solve_result, opts.tol) or \
                    checks.thresholded(out.input, out.output, tau)

            def verify(outputs, key=key, tau=tau):
                out = outputs[key]
                return (out.input, out.output,
                        threshold.verify_thresholded(gauge.GaugeSpec.sup(6), out.input, out.output, tau))

            ops.append(Op(key, "recover_with_threshold", recover, recover_check))
            ops.append(Op(f"verify/{r}/{tau}", "verify_thresholded", verify,
                          lambda out, tau=tau: checks.verify_report(out[2], out[0], out[1], tau)))
    return ops


def _fig6_op() -> Op:
    return Op("fig6", "run_recovery_experiment",
              lambda _o: experiments.run_recovery_experiment(experiments.ExperimentConfig(seed=FIG6_SEED)),
              checks.recovery_summary)


def solver_paths(seed: int, workdir: Path) -> Workload:
    ops = interleave(_lasso_grid_ops(seed), _desk_grid_ops(), [_path_op()], _admm_ops(),
                     _threshold_ops(), [_fig6_op()])
    tiny = experiments.ExperimentConfig(seed=FIG6_SEED, n=10, p=15, cluster_sizes=(6, 6, 3),
                                        lam_grid_size=4, tau_fracs=(0.1, 0.3))
    sx, sy = STRONG_SIGNAL_X, STRONG_SIGNAL_X @ STRONG_SIGNAL_BETA
    warmups = [
        lambda: solvers.solve(gauge.GaugeSpec.l1(6), sx, sy, 0.5),
        lambda: solvers.solution_path(gauge.GaugeSpec.sup(3), PATH_X, PATH_X @ PATH_BETA, 0.5, 30.0,
                                      grid_size=5, refine_tol=1e-1),
        lambda: threshold.verify_thresholded(
            gauge.GaugeSpec.sup(6),
            threshold.recover_with_threshold(gauge.GaugeSpec.sup(6), sx, sy, 1.0, 0.1).input,
            STRONG_SIGNAL_BETA, 0.1, samples=10),
        lambda: experiments.run_recovery_experiment(tiny),
    ]
    return Workload(ops, warmups)


WORKLOADS = {"mc_sweep": mc_sweep, "solver_paths": solver_paths, "face_geometry": face_geometry}
