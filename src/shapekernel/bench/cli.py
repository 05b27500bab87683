"""Command-line front end for the benchmark experiments.

Two subcommands::

    shapekernel run <experiment> [--config cfg.json] [--out DIR]
                    [--seed N] [--scheme S] [--eta-safety E] [--grid-res R]
    shapekernel verify --model model.json --config cfg.json
                    [--grid-res R] [--tol T]

``run`` executes one experiment and writes CSV tables, model JSON files,
and a ``summary.json`` into the output directory.  ``verify`` reloads a
saved model and re-checks the experiment's constraints on a dense grid,
exiting nonzero if any violation exceeds the tolerance.
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

    ver_p = sub.add_parser("verify", help="re-check a saved model against "
                           "the experiment's constraints")
    ver_p.add_argument("--model", required=True, help="model JSON file")
    ver_p.add_argument("--config", required=True, help="config JSON file "
                       "naming the experiment")
    ver_p.add_argument("--grid-res", type=int, dest="grid_res", default=400,
                       help="points per axis for the check grid")
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
    return 0


def _cmd_verify(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = Model.from_json(json.load(fh))
    cfg = ExperimentConfig.load(args.config)
    report = {"experiment": cfg.experiment, "model": args.model,
              "grid_res": args.grid_res, "tol": args.tol,
              "constraints": []}
    worst = 0.0
    for label, constraint in constraints_for(cfg):
        check = verify_pointwise(model, constraint, grid_res=args.grid_res)
        entry = {"label": label,
                 "max_violation": check["maxViolation"],
                 "worst_point": list(check["worstPoint"])}
        if check.get("minEig") is not None:
            entry["min_eigenvalue"] = check["minEig"]
        report["constraints"].append(entry)
        worst = max(worst, check["maxViolation"])
    report["max_violation"] = worst
    report["passed"] = bool(worst <= args.tol)
    print(json.dumps(report, indent=2, sort_keys=True))
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
