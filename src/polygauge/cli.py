"""Command-line front end.

Subcommands: solve, path, pattern, check-access, check-nrc, check-unique,
threshold, experiment fig5, experiment fig6.  Matrices and vectors travel
as headerless CSV; results print as JSON on stdout and, with --out, land
as files in the given directory.  The CLI serves scripts: no plotting, no
interaction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .conditions import (
    check_accessibility,
    check_nrc_geometric,
    check_nrc_lasso,
    check_nrc_path,
    check_nrc_sup,
    check_uniform_uniqueness,
)
from .gauge import GaugeSpec, GeneratorBlowup, active_set, named_pattern, round_sig
from .numerics import read_matrix, read_vector, write_vector
from .solvers import SolveOptions, solution_path, solve
from .threshold import _THRESHOLDERS


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (experiments)")
    common.add_argument("--tol", type=float, default=1e-7, help="solver KKT tolerance")
    common.add_argument("--out", type=Path, default=None, help="output directory")
    common.add_argument("--config", type=Path, default=None, help="key=value config file")
    return common


def _add_penalty_args(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--penalty",
        required=True,
        choices=["l1", "slope", "sup", "tv", "tf", "genlasso", "custom"],
    )
    parser.add_argument("--weights", type=Path, help="slope weights CSV (one column)")
    parser.add_argument("--d", type=Path, help="generalized-lasso D matrix CSV")
    parser.add_argument("--u", type=Path, help="custom generator matrix CSV")
    parser.add_argument("--dim", type=int, help="ambient dimension (when no X is read)")


def _build_spec(args, p: int | None) -> GaugeSpec:
    kind = args.penalty
    if kind == "slope":
        if not args.weights:
            raise SystemExit("--weights is required for the slope penalty")
        return GaugeSpec.slope(read_vector(args.weights))
    if kind == "genlasso":
        if not args.d:
            raise SystemExit("--d is required for the genlasso penalty")
        return GaugeSpec.genlasso(read_matrix(args.d))
    if kind == "custom":
        if not args.u:
            raise SystemExit("--u is required for the custom penalty")
        return GaugeSpec.custom(read_matrix(args.u))
    dim = p if p is not None else args.dim
    if dim is None:
        raise SystemExit("--dim is required when the dimension cannot be inferred")
    if kind == "l1":
        return GaugeSpec.l1(dim)
    if kind == "sup":
        return GaugeSpec.sup(dim)
    if kind == "tv":
        return GaugeSpec.tv(dim)
    return GaugeSpec.tf(dim)


def _emit(payload: dict, args, filename: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / filename).write_text(text + "\n")


def _fingerprint_payload(fp) -> dict:
    out: dict = {"key": [str(x) for x in fp.key], "pen_value": fp.pen_value}
    if fp.named is not None:
        out["pattern"] = list(fp.named.values)
        out["pattern_variant"] = fp.named.variant
    if fp.active is not None:
        out["active_generators"] = list(fp.active)
    return out


def _cmd_solve(args) -> int:
    x = read_matrix(args.x)
    y = read_vector(args.y)
    spec = _build_spec(args, x.shape[1])
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter,
                        restart_period=args.restart_period)
    res = solve(spec, x, y, args.lam, opts)
    fp = active_set(spec, res.beta, rel_tol=opts.pattern_rel_tol)
    payload = {
        "lambda": args.lam,
        "converged": res.converged,
        "iterations": res.iterations,
        "polished": res.polished,
        "kkt_residual": res.kkt_residual,
        "objective": res.objective,
        "beta": res.beta.tolist(),
        "fitted": res.fitted.tolist(),
        "dual_certificate": res.dual_certificate.tolist(),
        "fingerprint": _fingerprint_payload(fp),
    }
    _emit(payload, args, "solve.json")
    if args.out is not None:
        write_vector(args.out / "beta.csv", res.beta)
    return 0 if res.converged else 3


def _cmd_path(args) -> int:
    x = read_matrix(args.x)
    y = read_vector(args.y)
    spec = _build_spec(args, x.shape[1])
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter,
                        restart_period=args.restart_period)
    path = solution_path(
        spec, x, y, args.lam_min, args.lam_max,
        grid_size=args.grid, refine_tol=args.refine_tol, opts=opts,
    )
    payload = {
        "breakpoints": [float(b) for b in path.breakpoints],
        "segments": [
            {
                "lam_lo": seg.lam_lo,
                "lam_hi": seg.lam_hi,
                "fingerprint": _fingerprint_payload(seg.fingerprint),
            }
            for seg in path.segments
        ],
        "grid": [float(l) for l in path.lambdas],
    }
    _emit(payload, args, "path.json")
    return 0


def _cmd_pattern(args) -> int:
    beta = round_sig(read_vector(args.beta))
    pattern = named_pattern(args.kind, beta)
    payload = {"variant": pattern.variant, "pattern": list(pattern.values)}
    _emit(payload, args, "pattern.json")
    return 0


def _cmd_check_access(args) -> int:
    x = read_matrix(args.x)
    beta = read_vector(args.beta)
    spec = _build_spec(args, x.shape[1])
    report = check_accessibility(spec, x, beta)
    _emit(report.to_dict(), args, "access.json")
    return 0 if report.verdict else 4


def _cmd_check_nrc(args) -> int:
    x = read_matrix(args.x)
    beta = read_vector(args.beta)
    method = args.method
    if method == "auto":
        method = {"l1": "l1", "sup": "sup"}.get(args.penalty, "geometric")
    if method == "l1":
        report = check_nrc_lasso(x, beta)
    elif method == "sup":
        report = check_nrc_sup(x, beta)
    else:
        spec = _build_spec(args, x.shape[1])
        if method == "geometric":
            try:
                report = check_nrc_geometric(spec, x, beta)
            except GeneratorBlowup:
                report = check_nrc_path(spec, x, beta, opts=SolveOptions(tol=args.tol))
        else:
            report = check_nrc_path(spec, x, beta, opts=SolveOptions(tol=args.tol))
    _emit(report.to_dict(), args, "nrc.json")
    return 0 if report.verdict else 4


def _cmd_check_unique(args) -> int:
    x = read_matrix(args.x)
    spec = _build_spec(args, x.shape[1])
    report = check_uniform_uniqueness(spec, x)
    _emit(report.to_dict(), args, "unique.json")
    return 0 if report.verdict else 4


def _cmd_threshold(args) -> int:
    beta = read_vector(args.beta)
    result = _THRESHOLDERS[args.penalty](beta, args.tau)
    payload = {
        "tau": args.tau,
        "input": result.input.tolist(),
        "output": result.output.tolist(),
        "diagnostics": {k: v for k, v in result.diagnostics.items()},
    }
    _emit(payload, args, "threshold.json")
    if args.out is not None:
        write_vector(args.out / "thresholded.csv", result.output)
    return 0


def load_config(path: Path) -> dict:
    """Parse a `key = value` config file; values are ints, floats, or
    comma-separated tuples thereof."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line: {raw!r}")
        out[key.strip()] = _parse_value(val.strip())
    return out


def _parse_value(s: str):
    if "," in s:
        return tuple(_parse_value(part.strip()) for part in s.split(",") if part.strip())
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            continue
    return s


def _experiment_config(args) -> experiments.ExperimentConfig:
    values: dict = {}
    if args.config is not None:
        values.update(load_config(args.config))
    for key in ("n", "p", "reps"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "k_values", None):
        values["k_values"] = tuple(int(k) for k in args.k_values)
    if getattr(args, "sigma", None) is not None:
        values["noise_sigma"] = args.sigma
    seed = args.seed if args.seed is not None else values.pop("seed", None)
    if seed is None:
        raise SystemExit("a seed is mandatory for experiments (--seed or config)")
    values.pop("seed", None)
    if "k_values" in values and not isinstance(values["k_values"], tuple):
        values["k_values"] = (int(values["k_values"]),)
    return experiments.ExperimentConfig(seed=int(seed), **values)


def _cmd_experiment(args) -> int:
    config = _experiment_config(args)
    if args.which == "fig5":
        rows = experiments.run_accessibility_sweep(config)
        csv_text = experiments.sweep_to_csv(rows)
        payload = {
            "rows": [
                {
                    "k": r.k,
                    "p_access": r.p_access,
                    "p_nrc": r.p_nrc,
                    "reps": r.reps,
                    "se": r.se,
                    "failures": r.failures,
                }
                for r in rows
            ]
        }
        _emit(payload, args, "fig5.json")
        if args.out is not None:
            (args.out / "fig5.csv").write_text(csv_text)
        else:
            sys.stdout.write(csv_text)
        return 0
    summary = experiments.run_recovery_experiment(config, out_dir=args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="polygauge",
        description="Penalized least squares with polyhedral gauge penalties: "
        "solvers, pattern calculus, recovery checkers, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[common], help="solve one penalized problem")
    _add_penalty_args(ps)
    ps.add_argument("--x", type=Path, required=True)
    ps.add_argument("--y", type=Path, required=True)
    ps.add_argument("--lam", type=float, required=True)
    ps.add_argument("--max-iter", type=int, default=100000)
    ps.add_argument("--restart-period", type=int, default=2000)
    ps.set_defaults(func=_cmd_solve)

    pp = sub.add_parser("path", parents=[common], help="lambda path with breakpoints")
    _add_penalty_args(pp)
    pp.add_argument("--x", type=Path, required=True)
    pp.add_argument("--y", type=Path, required=True)
    pp.add_argument("--lam-min", type=float, required=True)
    pp.add_argument("--lam-max", type=float, required=True)
    pp.add_argument("--grid", type=int, default=40)
    pp.add_argument("--refine-tol", type=float, default=1e-4)
    pp.add_argument("--max-iter", type=int, default=100000)
    pp.add_argument("--restart-period", type=int, default=2000)
    pp.set_defaults(func=_cmd_path)

    pt = sub.add_parser("pattern", parents=[common], help="extract a named pattern")
    pt.add_argument("--kind", required=True, choices=["sign", "slope", "sup", "tv", "tf"])
    pt.add_argument("--beta", type=Path, required=True)
    pt.set_defaults(func=_cmd_pattern)

    pa = sub.add_parser("check-access", parents=[common], help="pattern accessibility")
    _add_penalty_args(pa)
    pa.add_argument("--x", type=Path, required=True)
    pa.add_argument("--beta", type=Path, required=True)
    pa.set_defaults(func=_cmd_check_access)

    pn = sub.add_parser("check-nrc", parents=[common], help="noiseless recovery condition")
    _add_penalty_args(pn)
    pn.add_argument("--x", type=Path, required=True)
    pn.add_argument("--beta", type=Path, required=True)
    pn.add_argument(
        "--method", default="auto", choices=["auto", "geometric", "l1", "sup", "path"]
    )
    pn.set_defaults(func=_cmd_check_nrc)

    pu = sub.add_parser("check-unique", parents=[common], help="uniform uniqueness")
    _add_penalty_args(pu)
    pu.add_argument("--x", type=Path, required=True)
    pu.set_defaults(func=_cmd_check_unique)

    pth = sub.add_parser("threshold", parents=[common], help="threshold an estimate")
    pth.add_argument("--penalty", required=True, choices=sorted(_THRESHOLDERS))
    pth.add_argument("--tau", type=float, required=True)
    pth.add_argument("--beta", type=Path, required=True)
    pth.set_defaults(func=_cmd_threshold)

    pe = sub.add_parser("experiment", parents=[common], help="Monte-Carlo experiments")
    pe.add_argument("which", choices=["fig5", "fig6"])
    pe.add_argument("--n", type=int, default=None)
    pe.add_argument("--p", type=int, default=None)
    pe.add_argument("--reps", type=int, default=None)
    pe.add_argument("--k-values", type=int, nargs="+", default=None)
    pe.add_argument("--sigma", type=float, default=None)
    pe.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
