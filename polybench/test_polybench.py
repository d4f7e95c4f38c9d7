"""Tests of the benchmark itself: every check rejects a wrong answer, the
seed changes inputs but not the operation list, and the harness and the
spans count what they should.

    PYTHONPATH=src python -m pytest -q polybench
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from polygauge import GaugeSpec, SolveOptions, conditions, solution_path, solve, solvers

import checks
import run
import spans
import workloads


def _shifted(res, delta=1e-3):
    return replace(res, beta=res.beta + delta)


@pytest.mark.parametrize("kind", ["l1", "sup", "slope", "tv", "custom"])
def test_solve_check_rejects_perturbed_beta(kind):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    data, spec = {}, None
    if kind == "slope":
        data["w"] = np.array([3.0, 2.0, 1.0])
        spec = GaugeSpec.slope(data["w"])
    elif kind == "tv":
        data["d"] = checks.difference_matrix(3, 1)
        spec = GaugeSpec.tv(3)
    elif kind == "custom":
        v = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]])
        data["u"] = np.vstack([np.zeros((1, 3)), v, -v])
        spec = GaugeSpec.custom(data["u"])
    else:
        spec = GaugeSpec.l1(3) if kind == "l1" else GaugeSpec.sup(3)
    check_kind = {"tv": "genlasso"}.get(kind, kind)
    opts = SolveOptions(tol=1e-7, max_iter=5000)
    res = solve(spec, x, y, 0.5, opts)
    assert checks.solve_result(check_kind, x, y, 0.5, res, opts.tol, **data) is None
    assert checks.solve_result(check_kind, x, y, 0.5, _shifted(res), opts.tol, **data) is not None
    assert checks.solve_result(check_kind, x, y, 0.5, replace(res, converged=False), opts.tol, **data)


def test_path_check_rejects_shifted_breakpoint():
    seg = lambda v: SimpleNamespace(fingerprint=SimpleNamespace(named=SimpleNamespace(values=v)))
    segments = [seg((0, 1, 1)), seg((1, 1, 1)), seg((0, 0, 0))]
    good = SimpleNamespace(breakpoints=[8.0 / 3.0 + 2e-5, 20.0 - 3e-5], segments=segments)
    assert checks.path_result(good, 1e-4) is None
    shifted = SimpleNamespace(breakpoints=[8.0 / 3.0, 20.0 + 5e-4], segments=segments)
    assert checks.path_result(shifted, 1e-4) is not None
    swapped = SimpleNamespace(breakpoints=good.breakpoints, segments=segments[::-1])
    assert checks.path_result(swapped, 1e-4) is not None


def test_path_check_on_the_program():
    """The criterion-1 path misses 20 by more than refine_tol: a known
    fault that the workload counts as a failed operation."""
    x, beta = workloads.PATH_X, workloads.PATH_BETA
    path = solution_path(GaugeSpec.sup(3), x, x @ beta, 0.5, 30.0, grid_size=40,
                         refine_tol=1e-4, opts=SolveOptions(tol=1e-9))
    assert checks.path_result(path, 1e-2) is None
    assert checks.path_result(path, 1e-4) is not None


def test_lp_value_checks_reject_wrong_values():
    rng = workloads.rng_for(1, 99)
    x = rng.standard_normal((8, 12)) / np.sqrt(8)
    target = x[:, :9].sum(axis=1)
    value = conditions.min_linf_representation(x, target)
    ref = checks.min_linf_reference(x, target)
    assert checks.sweep_replication(value, False, ref) is None
    assert checks.sweep_replication(value + 1e-3, False, ref) is not None
    assert checks.sweep_replication(1.5, False, 1.5) is not None  # above 1
    assert checks.sweep_replication(0.9, True, 0.9) is not None  # NRC without accessibility


@pytest.mark.parametrize("name", ["l1/0", "sup/1", "tv/0", "custom/0", "slope/0"])
def test_accessibility_check_rejects_wrong_lp_value_and_witness(name):
    inst = {i.name: i for i in workloads._instances(5)}[name]
    rep = conditions.check_accessibility(inst.spec(), inst.x, inst.beta)
    ref = checks.fiber_min_reference(inst.kind, inst.x, inst.x @ inst.beta, **inst.data)
    assert checks.accessibility(inst.kind, inst.x, inst.beta, rep, ref, **inst.data) is None
    wrong = replace(rep, certificate={**rep.certificate, "lp_value": rep.certificate["lp_value"] + 1e-3})
    assert checks.accessibility(inst.kind, inst.x, inst.beta, wrong, ref, **inst.data) is not None
    moved = rep.certificate["minimizer"] + 1e-3
    wrong = replace(rep, certificate={**rep.certificate, "minimizer": moved})
    assert checks.accessibility(inst.kind, inst.x, inst.beta, wrong, ref, **inst.data) is not None
    flipped = replace(rep, verdict=not rep.verdict)
    assert checks.accessibility(inst.kind, inst.x, inst.beta, flipped, ref, **inst.data) is not None


def test_geometric_nrc_check_rejects_bad_witness():
    x = workloads.PATH_X
    beta = workloads.PATH_BETA
    rep = conditions.check_nrc_geometric(GaugeSpec.sup(3), x, beta)
    assert rep.verdict and checks.nrc_geometric("sup", x, beta, rep) is None
    bad = replace(rep, certificate={**rep.certificate, "witness_point": rep.certificate["witness_point"] * 1.1})
    assert checks.nrc_geometric("sup", x, beta, bad) is not None
    assert checks.nrc_sup_analytic(x, beta) is True


def test_uniqueness_check_rejects_bad_certificates():
    x = workloads.GENLASSO_X
    d = workloads.GENLASSO_D
    rep = conditions.check_uniform_uniqueness(GaugeSpec.genlasso(d), x)
    assert checks.uniqueness("genlasso", x, rep, d=d, expect=False, vertex=(4.0, 2.0, 2.0)) is None
    assert checks.uniqueness("genlasso", x, rep, d=d, expect=True) is not None
    assert checks.uniqueness("genlasso", x, rep, d=d, vertex=(1.0, 1.0, 1.0)) is not None
    faces = [dict(f) for f in rep.certificate["violating_faces"]]
    faces[0]["witness_z"] = faces[0]["witness_z"] + 0.1
    bad = replace(rep, certificate={**rep.certificate, "violating_faces": faces})
    assert checks.uniqueness("genlasso", x, bad, d=d) is not None
    xs = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0]])
    rep = conditions.check_uniform_uniqueness(GaugeSpec.sup(3), xs)
    assert checks.uniqueness("sup", xs, rep) is None
    bad = replace(rep, certificate={**rep.certificate, "faces_scanned": rep.certificate["faces_scanned"] - 1})
    assert checks.uniqueness("sup", xs, bad) is not None


def test_zero_threshold_check_rejects_wrong_value():
    d_name, p, y, truth = workloads.zero_threshold_inputs()[1]
    value = conditions.zero_threshold(GaugeSpec.tv(p), np.eye(p), y)
    assert checks.zero_threshold(value, truth) is None
    assert checks.zero_threshold(value * 1.01, truth) is not None
    assert checks.zero_threshold(float("inf"), truth) is not None


def test_threshold_and_frequency_checks_reject_wrong_answers():
    b = np.array([3.0, 2.9, -1.0, 0.5])
    out = np.array([2.8, 2.8, -1.0, 0.5])
    assert checks.thresholded(b, out, 0.2) is None
    assert checks.thresholded(b, out, 0.1) is not None  # moved too far
    assert checks.thresholded(b, np.array([2.8, 2.9, -1.0, 0.5]), 0.2) is not None  # lost the maximum
    assert checks.sweep_frequencies({5: 0.97, 20: 0.45, 35: 0.0}) is None
    assert checks.sweep_frequencies({5: 0.97, 20: 0.95, 35: 0.0}) is not None
    assert checks.recovery_summary({"solver_converged": True, "any_threshold_match": False}) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_operations(name, tmp_path):
    a = workloads.WORKLOADS[name](1, tmp_path / "a")
    b = workloads.WORKLOADS[name](2, tmp_path / "b")
    assert [(o.key, o.kind) for o in a.ops] == [(o.key, o.kind) for o in b.ops]
    assert a.known_faults == b.known_faults
    key = {"mc_sweep": "rep/5/0", "face_geometry": "sup/0/access", "solver_paths": "lasso6x10/0/1"}[name]
    first = [o.key for o in a.ops].index(key)
    out_a = a.ops[first].call({a.ops[0].key: a.ops[0].call({})})
    out_b = b.ops[first].call({b.ops[0].key: b.ops[0].call({})})
    if name == "mc_sweep":
        assert not np.array_equal(out_a.x, out_b.x)
    elif name == "face_geometry":
        assert out_a.certificate["lp_value"] != out_b.certificate["lp_value"]
    else:
        assert not np.array_equal(out_a.beta, out_b.beta)
    fault_a = [o.call({}) for o in a.ops if o.key in a.known_faults and o.kind == "zero_threshold"]
    fault_b = [o.call({}) for o in b.ops if o.key in b.known_faults and o.kind == "zero_threshold"]
    assert fault_a == fault_b  # the known-fault inputs do not depend on the seed


def test_known_faults_name_single_operations(tmp_path):
    """Every listed key is one operation of one workload, and only those
    keys are known faults."""
    found = []
    for name, make in workloads.WORKLOADS.items():
        wl = make(1, tmp_path / name)
        keys = [o.key for o in wl.ops]
        assert len(keys) == len(set(keys))
        assert wl.known_faults <= set(workloads.KNOWN_FAULTS)
        found += sorted(wl.known_faults)
    assert sorted(found) == sorted(workloads.KNOWN_FAULTS)


def test_failure_outside_the_known_faults_is_a_problem(tmp_path):
    wl = workloads.face_geometry(1, tmp_path)
    zero = [o for o in wl.ops if o.kind == "zero_threshold" and o.reference is None][:6]
    wrong = [replace(o, call=lambda _o: -1.0) for o in zero]  # every true value is > 0
    res = run.measure(workloads.Workload(wrong, []), rounds=1)
    assert res["failed"] == 6
    listed = {o.key for o in zero} & set(workloads.KNOWN_FAULTS)
    assert listed == {"zero/5/tv7"}
    flagged = {p.split(":")[0] for p in res["problems"]}
    assert flagged == {o.key for o in zero} - listed


def _toy_workload():
    ops = [
        workloads.Op("ok", "solve", lambda o: solvers.solve(GaugeSpec.l1(2), np.eye(2), np.ones(2), 0.5),
                     lambda res: None),
        workloads.Op("zero/0/tf5", "zero_threshold", lambda o: 1 / 0, lambda v: None),
    ]
    return workloads.Workload(ops, [])


def test_rounds_depend_on_seconds_only():
    assert run.rounds_for("mc_sweep", 30, 240) == 3
    assert run.rounds_for("face_geometry", 30, 293) == 1
    assert run.rounds_for("face_geometry", 1, 293) == 1
    assert run.rounds_for("solver_paths", 30, 2) * 2 >= run.MIN_OPERATIONS


def test_measure_runs_whole_rounds_and_counts_failures():
    res = run.measure(_toy_workload(), rounds=3)
    assert res["attempted"] == 6
    assert res["failed"] == 3
    assert res["problems"] == []
    assert "ZeroDivisionError" in res["failures"]["zero/0/tf5"]


def test_spans_account_for_the_traced_wall_time():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solvers.solve is not solve
        res = run.measure(_toy_workload(), rounds=50, tracer=tracer)
    finally:
        tracer.uninstall()
    assert solvers.solve is solve
    m = spans.per_layer(tracer, res["rounds"], res["attempted"] - res["failed"])
    assert m["solvers.solve_calls"] == 1.0
    assert m["solvers.iterations_per_solve"] >= 1.0
    assert m["gauge.self_s"] > 0.0
    selfs = sum(m[f"{layer}.self_s"] for layer in tuple(spans.LAYERS) + ("bench",))
    assert abs(selfs + m["bench.check_s"] - m["trace.wall_s"]) < 1e-9 * max(1.0, m["trace.wall_s"])
    assert 0.0 < m["trace.layer_share"] < 1.0
    assert set(m) == {entry["name"] for entry in _per_layer_spec()}


def _per_layer_spec():
    import json

    return json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
