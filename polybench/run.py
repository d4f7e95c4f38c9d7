#!/usr/bin/env python3
"""The polygauge benchmark.

    python3 polybench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  One client issues the workload's fixed,
seeded operation list one call after another (a closed loop), in whole
rounds; the number of rounds follows from --seconds alone, so attempted
and failed are the same in every run.  Every output is checked outside the
timed region, against reference LPs computed beforehand in a separate
process, so that scipy is never imported into the measured one.  The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1).  Progress and failure reasons go to stderr.
"""

import os

# One BLAS thread: the client is single and the runs stay comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# A run attempts at least this many operations, so that ten latencies lie
# beyond the 90th percentile.
MIN_OPERATIONS = 100
# Nominal length of one round on the reference machine (README).  A run
# does floor(--seconds / this) rounds, at least one: the count depends on
# --seconds only, never on how fast the host happens to run.
ROUND_SECONDS = {"mc_sweep": 9.0, "solver_paths": 18.0, "face_geometry": 20.0}
# Set-up is timed this many times, each in a fresh interpreter; the median is setup_s.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150
REFERENCES_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["mc_sweep", "solver_paths", "face_geometry"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--references", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def build(workload: str, seed: int, workdir: Path):
    """Import polygauge and generate the inputs from the seed."""
    src = ROOT / "src"
    if not (src / "polygauge" / "__init__.py").is_file():
        raise SystemExit(f"polybench: no polygauge sources under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads.WORKLOADS[workload](seed, workdir)


def set_up(workload: str, seed: int, workdir: Path):
    """build(), then warm up each operation type once."""
    wl = build(workload, seed, workdir)
    for warm in wl.warmups:
        warm()
    return wl


def write_references(wl, path: Path) -> None:
    """Compute every reference LP of the workload (this imports scipy)."""
    refs = {op.key: op.reference.compute() for op in wl.ops if op.reference}
    path.write_text(json.dumps(refs))


def load_references(wl, args, workdir: Path) -> None:
    """Fill in the reference values from a separate process, so that the
    measured process never imports scipy."""
    if not any(op.reference for op in wl.ops):
        return
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "references.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--references", str(path),
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=REFERENCES_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("polybench: reference LPs failed")
    refs = json.loads(path.read_text())
    for op in wl.ops:
        if op.reference:
            op.reference.value = refs[op.key]


def rounds_for(workload: str, seconds: float, ops_per_round: int) -> int:
    rounds = max(1, int(seconds // ROUND_SECONDS[workload]))
    return max(rounds, -(-MIN_OPERATIONS // ops_per_round))


def time_set_up(args) -> float:
    """Median wall time of SETUP_REPEATS set-ups, each a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("polybench: set-up failed")
    return statistics.median(times)


def measure(wl, rounds: int, tracer=None) -> dict:
    """`rounds` passes over the operation list.  Only outputs that passed
    their check reach later operations and the round check; a failure of an
    operation outside wl.known_faults is a problem."""
    latencies, failures, problems = [], {}, []
    attempted = failed = 0
    known_faults = wl.known_faults
    if tracer:
        op_ids = {op.kind: tracer.name_id(f"bench.op.{op.kind}") for op in wl.ops}
        round_id, check_id = tracer.name_id("bench.round"), tracer.name_id("bench.check")
    for _ in range(rounds):
        if tracer:
            rsid = tracer.enter(round_id)
        outputs = {}
        for op in wl.ops:
            attempted += 1
            if tracer:
                sid = tracer.enter(op_ids[op.kind], op=attempted)
            t0 = time.perf_counter()
            try:
                out = op.call(outputs)
                error = None
            except Exception as exc:  # the operation failed; count it and go on
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer:
                tracer.exit(sid)
            latencies.append(t1 - t0)
            if error is None:
                if tracer:
                    csid = tracer.enter(check_id)
                error = op.check(out)
                if tracer:
                    tracer.exit(csid)
            if error is None:
                outputs[op.key] = out
            else:
                failed += 1
                failures[op.key] = error
                if op.key not in known_faults:
                    problems.append(f"{op.key}: {error}")
        if tracer:
            csid = tracer.enter(check_id)
        problems += wl.round_check(outputs)
        if tracer:
            tracer.exit(csid)
            tracer.exit(rsid)
    return {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "failures": failures,
        "problems": problems,
    }


def end_to_end(res: dict, setup_s: float) -> dict:
    lat = res["latencies"]
    deciles = statistics.quantiles(lat, n=10)
    return {
        "setup_s": setup_s,
        "throughput_ops_s": (res["attempted"] - res["failed"]) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            return 0
        if args.references:
            write_references(build(args.workload, args.seed, workdir), args.references)
            return 0
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        section = "per_layer" if args.trace else "end_to_end"
        setup_s = None if args.trace else time_set_up(args)
        wl = set_up(args.workload, args.seed, workdir)
        load_references(wl, args, workdir)
        rounds = rounds_for(args.workload, args.seconds, len(wl.ops))
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        gc.collect()
        try:
            res = measure(wl, rounds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if "scipy" in sys.modules:
            raise SystemExit("polybench: scipy was imported into the measured process")
        if tracer:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}.npz")
            values = spans.per_layer(tracer, res["rounds"], res["attempted"] - res["failed"])
        else:
            values = end_to_end(res, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, reason in sorted(res["failures"].items()):
        print(f"failed: {key}: {reason}", file=sys.stderr)
    for problem in res["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, {res['attempted']} operations, "
          f"{res['failed']} failed", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[section]}
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
