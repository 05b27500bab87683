"""Digest every cone solve of one experiment run, and compare two digests.

A change that claims to keep every solve's bits can be checked by running
the same experiment on the old and the new source and comparing digests.
Run from the root of a checkout, with the source to test on ``PYTHONPATH``::

    PYTHONPATH=src python3 tools/solve_digest.py --workload econ --seed 1 \\
        --out DIR
    PYTHONPATH=src python3 tools/solve_digest.py --config cfg.json \\
        [--seed N] --out DIR
    python3 tools/solve_digest.py --compare DIR_A DIR_B

``--workload`` runs a benchmark workload's config overlay
(``perfbench/workloads.py``); ``--config`` runs a config file merged over
the experiment defaults, as ``shapekernel run --config`` does.  The run is
in this process, and its outputs go to ``DIR/run``.  Unless the
environment says otherwise, BLAS is pinned to one thread, as the benchmark
pins it, so ``run_tasks`` forks its worker.

Every ``conic.solve`` call, in this process and in forked workers, appends
one line to ``DIR/solves-<pid>.txt`` when it returns: status, stop reason,
iteration count, objective as ``float.hex``, the sha256 of x, y, z and s,
its time in seconds and the process's peak resident memory so far
(``ru_maxrss``, in kB).  After the run, ``DIR/files.txt`` lists the sha256
of every CSV, every ``model_*.json`` and ``summary.json`` without its
timings, configuration and output directory, and the run prints each
process's peak at its last solve: the caller's and each forked worker's,
where the benchmark's ``peak_rss_mb`` reports only the largest.

``--compare`` reads two digests and compares their solve lines as sorted
multisets, times and memory ignored, and their file hashes.  It prints
what differs and exits 1 if anything does.  With ``--rtol R`` the solve
lines are still compared byte for byte, but a file whose hash differs is
read back from each side's ``run`` directory and compared value by value:
numeric CSV cells and JSON numbers match when ``|a - b| <= R * max(|a|,
|b|)``, and text cells, JSON keys, strings and booleans must be equal.
The largest relative difference of each file is printed.
"""

from __future__ import annotations

import argparse
import collections
import csv
import glob
import hashlib
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: summary keys that hold times or paths, left out of its hash
SUMMARY_VOLATILE = ("timings", "timing_table", "out_dir", "config")


def _sha(array) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array, dtype=float)
                          .tobytes()).hexdigest()


def _wrap(solve, out: str):
    def digest_solve(*args, **kwargs):
        t0 = time.perf_counter()
        line = "raised"
        try:
            sol = solve(*args, **kwargs)
            line = " ".join([
                f"status={sol.status}", f"stop={sol.stop_reason}",
                f"iters={sol.iterations}",
                f"obj={float(sol.objective).hex()}",
                *(f"{name}={_sha(getattr(sol, attr))}" for name, attr in
                  (("x", "x"), ("y", "y_eq"), ("z", "z"), ("s", "s")))])
            return sol
        except Exception as err:
            line = f"raised={type(err).__name__}"
            raise
        finally:
            path = os.path.join(out, f"solves-{os.getpid()}.txt")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{line} t={time.perf_counter() - t0:.6f} "
                         f"rss_kb={rss}\n")
    return digest_solve


def _install(out: str) -> None:
    """Route every module-level name bound to ``conic.solve`` through the
    digest wrapper; forked workers inherit it."""
    from shapekernel import conic

    solve = conic.solve
    wrapped = _wrap(solve, out)
    for name, module in list(sys.modules.items()):
        if name == "shapekernel" or name.startswith("shapekernel."):
            for attr, value in list(vars(module).items()):
                if value is solve:
                    setattr(module, attr, wrapped)


def _file_hashes(run_dir: str) -> list[str]:
    lines = []
    for path in sorted(glob.glob(os.path.join(run_dir, "*"))):
        name = os.path.basename(path)
        if name == "summary.json":
            with open(path, encoding="utf-8") as fh:
                summary = json.load(fh)
            for key in SUMMARY_VOLATILE:
                summary.pop(key, None)
            data = json.dumps(summary, sort_keys=True).encode()
        elif name.endswith(".csv") or (name.startswith("model_")
                                       and name.endswith(".json")):
            with open(path, "rb") as fh:
                data = fh.read()
        else:
            continue
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return lines


def run(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.workload:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import workloads

        overlay = workloads.overlay(args.workload, args.seed, "")
    else:
        with open(args.config, encoding="utf-8") as fh:
            overlay = json.load(fh)
        if args.seed is not None:
            overlay["seed"] = args.seed
    out = os.path.abspath(args.out)
    if glob.glob(os.path.join(out, "solves-*.txt")):
        raise SystemExit(f"{out} already holds a digest")
    overlay["out_dir"] = os.path.join(out, "run")
    os.makedirs(out, exist_ok=True)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(overlay, fh, indent=2, sort_keys=True)

    from shapekernel.bench.config import ExperimentConfig
    from shapekernel.bench.experiments import run_experiment

    _install(out)
    run_experiment(ExperimentConfig.load(config_path))
    with open(os.path.join(out, "files.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in _file_hashes(overlay["out_dir"]))
    solves = sum(_read_solves(out).values())
    print(f"{solves} solves digested in {out}")
    for pid, (count, rss) in sorted(_peaks(out).items()):
        who = "caller" if pid == os.getpid() else "worker"
        print(f"{who} {pid}: {count} solves, peak RSS {rss / 1024:.1f} MB")
    return 0


def _read_solves(out: str) -> collections.Counter:
    lines = collections.Counter()
    for path in glob.glob(os.path.join(out, "solves-*.txt")):
        with open(path, encoding="utf-8") as fh:
            lines.update(line.rsplit(" t=", 1)[0] for line in fh)
    return lines


def _peaks(out: str) -> dict:
    """``{pid: (solves, ru_maxrss in kB at the last one)}``."""
    peaks = {}
    for path in glob.glob(os.path.join(out, "solves-*.txt")):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        pid = int(os.path.basename(path)[len("solves-"):-len(".txt")])
        peaks[pid] = (len(lines), int(lines[-1].rsplit(" rss_kb=", 1)[1]))
    return peaks


def _read_files(out: str) -> dict:
    with open(os.path.join(out, "files.txt"), encoding="utf-8") as fh:
        return {name: digest for digest, name in
                (line.rstrip("\n").split("  ", 1) for line in fh)}


def _load(path: str):
    """A run's output as values: CSV rows of cells, or the JSON document
    (``summary.json`` without the keys its hash leaves out)."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".csv"):
            return list(csv.reader(fh))
        data = json.load(fh)
    if os.path.basename(path) == "summary.json":
        for key in SUMMARY_VOLATILE:
            data.pop(key, None)
    return data


def _number(value):
    """``value`` as a float if it is a JSON number or a numeric CSV cell,
    else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _rel_diff(a, b) -> float:
    """The largest relative difference of two loaded outputs, or inf where
    their structure, a text value or a key differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_rel_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max(map(_rel_diff, a, b), default=0.0)
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if a == b and type(a) is type(b) else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def compare(a: str, b: str, rtol: float | None = None) -> int:
    solves = {side: _read_solves(side) for side in (a, b)}
    files = {side: _read_files(side) for side in (a, b)}
    differ, close = False, []
    for side, other in ((a, b), (b, a)):
        for line, count in sorted((solves[side] - solves[other]).items()):
            differ = True
            print(f"solve only in {side} (x{count}): {line}")
    for name in sorted(set(files[a]) | set(files[b])):
        if files[a].get(name) == files[b].get(name):
            continue
        if rtol is None or name not in files[a] or name not in files[b]:
            differ = True
            print(f"file differs: {name}")
            continue
        rel = _rel_diff(*(_load(os.path.join(side, "run", name))
                          for side in (a, b)))
        close.append(name)
        differ = differ or not rel <= rtol
        print(f"file {name}: largest relative difference {rel:.3g}")
    if not differ:
        print(f"identical: {sum(solves[a].values())} solves, "
              f"{len(files[a]) - len(close)} files"
              + (f"; {len(close)} within rtol {rtol:g}" if close else ""))
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="benchmark workload name")
    source.add_argument("--config", help="experiment config JSON file")
    source.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest directories")
    parser.add_argument("--rtol", type=float,
                        help="with --compare: compare differing files "
                        "value by value within this relative tolerance")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out", help="digest directory to write")
    args = parser.parse_args(argv)
    if args.rtol is not None and not (args.compare and args.rtol >= 0):
        parser.error("--rtol needs --compare and a value of at least 0")
    if args.compare:
        return compare(*args.compare, rtol=args.rtol)
    if args.out is None or (args.workload and args.seed is None):
        parser.error("a run needs --out, and a workload also --seed")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
