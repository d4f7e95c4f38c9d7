"""Spans recorded from the benchmark's side, around calls into each layer.

install() replaces every public function of each polygauge module, in
every polygauge namespace that holds it (so `conditions.generators` and
`gauge.generators` are both wrapped), and the GaugeSpec factories.  Each
call records one span: name, start, end, parent span and operation id.
Spans live in flat arrays while the run lasts and are written out when it
ends; per_layer() derives the layer metrics from them.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# The package's modules, the layers, with the public functions wrapped.
LAYERS = {
    "linprog": ("lp_solve", "feasibility"),
    "numerics": ("pseudoinverse", "rank", "null_space_basis", "row_space_basis", "in_row_space"),
    "gauge": (
        "generators", "pen_eval", "dual_feasibility", "active_set", "active_indices",
        "complexity", "pattern_subspace", "subdifferential_face", "subdiff_includes",
        "enumerate_faces",
    ),
    "solvers": (
        "solve", "solution_path", "kkt_residual", "prox_l1", "prox_linf", "prox_sorted_l1",
        "project_simplex", "project_l1_ball",
    ),
    "conditions": (
        "check_accessibility", "check_nrc_geometric", "check_nrc_lasso", "check_nrc_sup",
        "check_nrc_path", "zero_threshold", "min_linf_representation", "check_uniform_uniqueness",
    ),
    "threshold": ("threshold_lasso", "threshold_sup", "verify_thresholded", "recover_with_threshold"),
    "experiments": ("replication_rng", "run_accessibility_sweep", "run_recovery_experiment", "sure_select"),
    "cli": ("main",),
}
SPEC_FACTORIES = ("l1", "sup", "slope", "genlasso", "tv", "tf", "custom")
FISTA_KINDS = ("l1", "sup", "slope")


def _iterations(result) -> float:
    return float(result.iterations)


def _faces_scanned(report) -> float:
    return float(report.certificate.get("faces_scanned", 0))


def _grid_size(path) -> float:
    return float(len(path.lambdas))


# Value recorded on the span of a call, from its result.
VALUES = {
    "linprog.lp_solve": _iterations,
    "linprog.feasibility": _iterations,
    "solvers.solve": _iterations,
    "conditions.check_uniform_uniqueness": _faces_scanned,
    "solvers.solution_path": _grid_size,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.value = array("d")
        self._stack = [-1]
        self._op = -1
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int, op: int | None = None) -> int:
        if op is not None:
            self._op = op
        sid = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.op.append(self._op)
        self.value.append(0.0)
        self._stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, value=None, name_of=None):
        nid = self.name_id(name)
        enter, exit_, values = self.enter, self.exit, self.value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = enter(name_of(args) if name_of else nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(sid)
            if value is not None:
                values[sid] = value(out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer where callers look them up."""
        import polygauge
        from polygauge import gauge

        modules = [m for k, m in sorted(sys.modules.items()) if k == "polygauge" or k.startswith("polygauge.")]
        solve_ids = {k: self.name_id(f"solvers.solve.{'fista' if k in FISTA_KINDS else 'admm'}")
                     for k in FISTA_KINDS + ("genlasso", "custom")}
        for layer, fnames in LAYERS.items():
            mod = getattr(polygauge, layer)
            for fname in fnames:
                orig = getattr(mod, fname)
                full = f"{layer}.{fname}"
                if full == "solvers.solve":
                    wrapped = self.wrap(full, orig, VALUES.get(full), lambda a: solve_ids[a[0].kind])
                else:
                    wrapped = self.wrap(full, orig, VALUES.get(full))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))
        cls = gauge.GaugeSpec
        for fname in SPEC_FACTORIES:
            orig = cls.__dict__[fname]
            setattr(cls, fname, classmethod(self.wrap(f"gauge.GaugeSpec.{fname}", orig.__func__)))
            self._restore.append((cls, fname, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def per_layer(tr: Tracer, rounds: int, ok_ops: int) -> dict:
    """Layer metrics from the spans.  Counts and seconds are per round (a
    round is one pass over the workload's fixed operation list, so they
    repeat exactly between runs); ms and us figures are per call."""
    a = tr.arrays()
    names = tr.names
    nm, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    def sel(*wanted):
        ids = [i for i, n in enumerate(names) if n in wanted]
        return np.isin(nm, ids)

    def under(ancestor: str):
        """Spans with an ancestor named `ancestor`."""
        target = np.zeros(len(names) + 1, dtype=bool)
        if ancestor in names:
            target[names.index(ancestor)] = True
        found = np.zeros(dur.size, dtype=bool)
        cur = parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                return found
            found[live] |= target[nm[cur[live]]]
            cur[live] = parent[cur[live]]

    def per_call(mask, scale=1e3, weights=None):
        total = weights[mask].sum() if weights is not None else mask.sum()
        return float(dur[mask].sum() * scale / total) if total else 0.0

    def count(mask):
        return float(mask.sum()) / rounds

    def secs(mask, arr=dur):
        return float(arr[mask].sum()) / rounds

    layer_of = np.array([n.split(".")[0] for n in names] + [""])[nm]
    lp = sel("linprog.lp_solve")
    feas = sel("linprog.feasibility")
    lps = lp | feas
    faces = sel("gauge.enumerate_faces")
    exposure = lp & under("gauge.enumerate_faces")
    uniq = sel("conditions.check_uniform_uniqueness")
    zt = sel("conditions.zero_threshold")
    fista = sel("solvers.solve.fista")
    admm = sel("solvers.solve.admm")
    solves = fista | admm
    paths = sel("solvers.solution_path")
    path_solves = solves & under("solvers.solution_path")
    verify = sel("threshold.verify_thresholded")
    ops = np.array([n.startswith("bench.op.") for n in names] + [False])[nm]
    rounds_mask = sel("bench.round")
    checks_mask = sel("bench.check")
    wall = secs(rounds_mask)
    m = {
        "linprog.lp_calls": count(lp),
        "linprog.feasibility_calls": count(feas),
        "linprog.pivots_per_call": float(a["value"][lps].sum() / lps.sum()) if lps.any() else 0.0,
        "linprog.ms_per_call": per_call(lps),
        "gauge.enumerate_faces_s": secs(faces),
        "gauge.exposure_lps": count(exposure),
        "gauge.faces_useful_ratio": float(a["value"][uniq].sum() / exposure.sum()) if exposure.any() else 0.0,
        "gauge.generators_s": secs(sel("gauge.generators")),
        "gauge.dual_feasibility_calls": count(sel("gauge.dual_feasibility")),
        "gauge.dual_feasibility_ms": per_call(sel("gauge.dual_feasibility")),
        "gauge.active_set_calls": count(sel("gauge.active_set")),
        "conditions.uniqueness_s": secs(uniq),
        "conditions.uniqueness_lps": count(lps & under("conditions.check_uniform_uniqueness")),
        "conditions.zero_threshold_ms": per_call(zt),
        "conditions.zero_threshold_lps": (float((lps & under("conditions.zero_threshold")).sum()) / zt.sum())
        if zt.any() else 0.0,
        "conditions.accessibility_ms": per_call(sel("conditions.check_accessibility")),
        "conditions.nrc_geometric_ms": per_call(sel("conditions.check_nrc_geometric")),
        "conditions.min_linf_ms": per_call(sel("conditions.min_linf_representation")),
        "numerics.pinv_calls": count(sel("numerics.pseudoinverse")),
        "numerics.pinv_ms": per_call(sel("numerics.pseudoinverse")),
        "numerics.rank_ms": per_call(sel("numerics.rank")),
        "solvers.solve_calls": count(solves),
        "solvers.iterations_per_solve": float(a["value"][solves].sum() / solves.sum()) if solves.any() else 0.0,
        "solvers.fista_us_per_iter": per_call(fista, 1e6, a["value"]),
        "solvers.admm_us_per_iter": per_call(admm, 1e6, a["value"]),
        "solvers.prox_l1_us": per_call(sel("solvers.prox_l1"), 1e6),
        "solvers.prox_linf_us": per_call(sel("solvers.prox_linf"), 1e6),
        "solvers.prox_sorted_l1_us": per_call(sel("solvers.prox_sorted_l1"), 1e6),
        "solvers.kkt_self_s": secs(sel("solvers.kkt_residual"), self_t),
        "solvers.path_solves_per_path": float(path_solves.sum() / paths.sum()) if paths.any() else 0.0,
        "solvers.bisection_share": float((path_solves.sum() - a["value"][paths].sum()) / path_solves.sum())
        if path_solves.any() else 0.0,
        "threshold.verify_ms": per_call(verify),
        "threshold.complexity_calls_per_verify": (float((sel("gauge.complexity") & under("threshold.verify_thresholded")).sum())
                                                  / verify.sum()) if verify.any() else 0.0,
        "experiments.rep_ms": per_call(sel("bench.op.sweep_replication")),
        "cli.main_ms": per_call(sel("cli.main")),
    }
    for layer in tuple(LAYERS) + ("bench",):
        mask = layer_of == layer
        if layer == "bench":
            mask &= ~checks_mask
        m[f"{layer}.self_s"] = secs(mask, self_t)
    m["bench.check_s"] = secs(checks_mask)
    m["trace.wall_s"] = wall
    # The self times of the layers, the benchmark and the checks add up to
    # the wall time by construction; the share that falls in the layers is
    # what can move.
    m["trace.layer_share"] = (wall - m["bench.self_s"] - m["bench.check_s"]) / wall if wall else 0.0
    op_time = secs(ops)
    m["trace.throughput_ops_s"] = ok_ops / rounds / op_time if op_time else 0.0
    return m
