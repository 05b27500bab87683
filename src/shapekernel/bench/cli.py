"""Command-line front end for the benchmark experiments.

Two subcommands::

    shapekernel run <experiment> [--config cfg.json] [--out DIR]
                    [--seed N] [--scheme S] [--eta-safety E] [--grid-res R]
                    [--strict]
    shapekernel verify --model model.json --config cfg.json
                    [--grid-res R] [--tol T]

``run`` executes one experiment and writes CSV tables, model JSON files,
and a ``summary.json`` into the output directory.  It prints each of the
run's warnings (a solve that did not end ``optimal``, a missing data file)
to stderr; with ``--strict`` it then exits 1 if there was any.
``verify`` reloads a saved model and re-checks the experiment's
constraints on a dense grid, exiting nonzero if any violation exceeds the
tolerance; its JSON report gives each constraint's grid resolution, and
``null`` for a check that is not finite.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from ..atoms import Model
from ..tighten import verify_pointwise
from .config import EXPERIMENTS, SCHEMES, ExperimentConfig, default_config
from .experiments import constraints_for, run_experiment
from .results import clean_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapekernel",
        description="Shape-constrained kernel regression benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment end to end")
    run_p.add_argument("experiment", choices=EXPERIMENTS)
    run_p.add_argument("--config", help="JSON config file (merged over "
                       "the experiment defaults)")
    run_p.add_argument("--out", dest="out_dir", help="output directory "
                       "(default: results/<experiment>)")
    run_p.add_argument("--seed", type=int, help="master random seed")
    run_p.add_argument("--scheme", choices=SCHEMES,
                       help="run a single covering scheme instead of the "
                       "experiment's full set")
    run_p.add_argument("--eta-safety", type=float, dest="eta_safety",
                       help="relative inflation applied to sampled "
                       "buffer radii")
    run_p.add_argument("--grid-res", type=int, dest="grid_res",
                       help="resolution of exported solution grids")
    run_p.add_argument("--strict", action="store_true",
                       help="exit 1 if the run raised any warning")

    ver_p = sub.add_parser("verify", help="re-check a saved model against "
                           "the experiment's constraints")
    ver_p.add_argument("--model", required=True, help="model JSON file")
    ver_p.add_argument("--config", required=True, help="config JSON file "
                       "naming the experiment")
    ver_p.add_argument("--grid-res", type=int, dest="grid_res",
                       help="points per axis for the check grid (default: "
                       "400, or at most 400^2 points in all beyond 2-D)")
    ver_p.add_argument("--tol", type=float, default=1e-6,
                       help="largest acceptable constraint violation")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.load(args.config)
        if getattr(args, "experiment", None) and \
                cfg.experiment != args.experiment:
            raise SystemExit(
                f"config file is for {cfg.experiment!r} but the command "
                f"line asked for {args.experiment!r}"
            )
    else:
        cfg = default_config(args.experiment)
    return cfg


def _cmd_run(args) -> int:
    # replace() re-runs the config's checks (a scheme the experiment
    # cannot run, a grid below 2 points) on the command-line values
    overrides = {key: getattr(args, key) for key in
                 ("out_dir", "seed", "scheme", "grid_res")
                 if getattr(args, key) is not None}
    try:
        cfg = dataclasses.replace(_load_config(args), **overrides)
        if args.eta_safety is not None:
            cfg.covering = dataclasses.replace(cfg.covering,
                                               eta_safety=args.eta_safety)
    except ValueError as err:
        raise SystemExit(f"shapekernel run: {err}") from None
    summary = run_experiment(cfg)
    print(f"wrote {len(summary['files'])} files to {summary['out_dir']}")
    for name in summary["files"]:
        print(f"  {name}")
    total = summary.get("timings", {}).get("total_s")
    if total is not None:
        print(f"done in {total:.2f}s")
    warnings = summary.get("warnings", [])
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 1 if args.strict and warnings else 0


def _cmd_verify(args) -> int:
    if args.grid_res is not None and args.grid_res < 2:
        raise SystemExit("shapekernel verify: --grid-res must be at least 2")
    if not args.tol >= 0:
        raise SystemExit("shapekernel verify: --tol must be at least 0")
    try:
        cfg = ExperimentConfig.load(args.config)
        with open(args.model, "r", encoding="utf-8") as fh:
            model = Model.from_json(json.load(fh))
    except (OSError, ValueError) as err:
        raise SystemExit(f"shapekernel verify: {err}") from None
    report = {"experiment": cfg.experiment, "model": args.model,
              "tol": args.tol, "constraints": []}
    worst = 0.0
    for label, constraint in constraints_for(cfg):
        dim = len(constraint.region)
        # 400 per axis, at most 400^2 points: 54 per axis in 3-D, 20 in 4-D
        res = args.grid_res or max((r for r in range(2, 401)
                                    if r ** dim <= 400 ** 2), default=2)
        check = verify_pointwise(model, constraint, grid_res=res)
        report["constraints"].append({
            "label": label, "grid_res": res,
            "max_violation": check["maxViolation"],
            "min_eigenvalue": check["minEig"],
            "worst_point": list(check["worstPoint"])})
        worst = max(worst, check["maxViolation"])
    report["max_violation"] = worst
    report["passed"] = bool(worst <= args.tol)
    print(json.dumps(clean_json(report), indent=2, sort_keys=True,
                     allow_nan=False))
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
