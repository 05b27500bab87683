"""Run experiments at their default configs and print one table.

Each row holds an experiment's wall time, each of its processes' peak
memory, and every solve that did not end ``optimal``, by runner label.

Run from the root of a checkout, with the source to test on
``PYTHONPATH``::

    PYTHONPATH=src python3 tools/defaults.py --out DIR [--repeat N] \\
        [EXPERIMENT ...]

With no experiment named, all four run.  Each runs at seed 0 under
``tools/solve_digest.py``, in a process of its own so that no peak
carries over to the next, and its digest goes to ``DIR/EXPERIMENT``.
The wall time is that process's, from start to exit.  The peaks are
``solve_digest``'s per-process records: the caller's and each forked
worker's resident memory at its last solve.  The statuses come from the
run's ``summary.json``.  The last row sums the wall times and the solves
and takes the largest peak.

``--repeat N`` runs each experiment N times in a row, the later runs'
digests going to ``DIR/EXPERIMENT-2`` and on.  The wall time is then the
median of the N, and a column gives their least and largest; the peaks
and statuses are the first run's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import solve_digest

EXPERIMENTS = ("catenary", "control", "robotarm", "econ")


def run(experiment: str, out: str, repeat: int = 1) -> dict:
    """One experiment's row: ``walls``, each run's seconds, ``peaks``
    (``{role: MB}``), ``solves`` and the ``not_optimal`` ones as ``label:
    status (stop)``."""
    config = os.path.join(out, f"{experiment}.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"experiment": experiment}, fh)
    walls = []
    for k in range(repeat):
        digest = os.path.join(out, experiment + (f"-{k + 1}" if k else ""))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, solve_digest.__file__, "--config",
                        config, "--seed", "0", "--out", digest], check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    digest = os.path.join(out, experiment)
    solves = solve_digest._summary(digest)["solves"]
    return {"walls": walls, "peaks": solve_digest._roles(digest),
            "solves": len(solves),
            "not_optimal": [f"{s['label']}: {s['status']} "
                            f"({s['stop_reason']})"
                            for s in solves if s["status"] != "optimal"]}


def table(rows: dict) -> str:
    """The rows as text, one line per experiment and a total; the wall
    time is the median of an experiment's runs, with their range when it
    ran more than once."""
    spread = any(len(row["walls"]) > 1 for row in rows.values())
    lines = [f"{'experiment':<10} {'wall_s':>7} "
             + (f"{'min-max':>11} " if spread else "")
             + f"{'solves':>6}  peak MB by process; solves not optimal"]
    for name, row in rows.items():
        walls = row["walls"]
        peaks = ", ".join(f"{role} {mb:.1f}"
                          for role, mb in row["peaks"].items())
        lines.append(
            f"{name:<10} {statistics.median(walls):7.2f} "
            + (f"{f'{min(walls):.2f}-{max(walls):.2f}':>11} " if spread
               else "")
            + f"{row['solves']:6d}  "
            f"{peaks}; {', '.join(row['not_optimal']) or '-'}")
    peak = max((mb for row in rows.values() for mb in row["peaks"].values()),
               default=0.0)
    lines.append(
        f"{'total':<10} "
        f"{sum(statistics.median(r['walls']) for r in rows.values()):7.2f} "
        + (f"{'':>11} " if spread else "")
        + f"{sum(r['solves'] for r in rows.values()):6d}  largest "
        f"{peak:.1f}; "
        f"{sum(len(r['not_optimal']) for r in rows.values())} not optimal")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help=f"any of {', '.join(EXPERIMENTS)} (all four "
                        "by default)")
    parser.add_argument("--out", required=True,
                        help="directory for the digests")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="runs of each experiment (default 1)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.experiments) - set(EXPERIMENTS))
    if unknown:
        parser.error(f"unknown experiments {unknown}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    os.makedirs(args.out, exist_ok=True)
    rows = {name: run(name, os.path.abspath(args.out), args.repeat)
            for name in args.experiments or EXPERIMENTS}
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
