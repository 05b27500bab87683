"""Repository benchmark: cold, thread-pinned passes of three experiments.

Run from the root of a checkout::

    python3 perfbench/run.py --workload control --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``control``, ``econ``, ``catenary-soap``.
Each pass is one ``run_experiment`` call -- the path ``shapekernel run``
takes -- in a fresh interpreter with OpenMP/OpenBLAS/MKL pinned to one
thread.  Passes run one at a time, so no pass sees another's caches.

``--trace 0`` prints the end-to-end metrics:

``wall_s``       interpreter start to ``run_experiment`` returning, median
                 over the untraced passes of this run: passes repeat until
                 ``--seconds`` is used, at least one
``setup_s``      interpreter start through imports, config and data
                 generation to the first pipeline call; median of several
                 set-up-only runs
``peak_rss_mb``  peak resident memory of a pass (median)

Both times are paced (``pace.py``): each child samples the speed of the
shared host while it runs, and its wall time is scaled to the speed of a
reference host.  The raw wall times and pace factors are in the run
information.

``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics of ``tracer.LAYER_METRICS``; ``trace.overhead_s`` is the
difference of their wall times.  Solver statuses, ``failed_frac`` (solves
not ``optimal``, or raising, over solves attempted) and ``gap_rel``
((tightened - relaxed objective) / relaxed) are reported there: they are
exact for a seed but vary widely from seed to seed.

Outputs are checked after every pass, outside the timed interval; a pass
that raises or fails a check counts as failed.  The next-to-last output
line holds run information (versions, thread pins, ``src/`` line count)
and per-pass objectives and statuses; the last line is the result.
Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (both stdlib-only at import time)
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
#: a child still running this long after the run began is killed, so that
#: a run, with its closing set-up runs, ends inside three minutes
RUN_LIMIT_S = 160.0

#: end-to-end metrics of an untraced run, with their units
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts one child at a time and collects its result and rusage."""

    def __init__(self, root: str, work: str, args):
        self.root = root
        self.work = work
        self.args = args
        self.env = _child_env(root)
        self.count = 0
        self.started = time.monotonic()

    def child(self, mode: str) -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{mode}"
        req = {
            "mode": mode,
            "workload": self.args.workload,
            "seed": self.args.seed,
            "tiny": self.args.tiny,
            "out": os.path.join(self.work, tag),
            "result": os.path.join(self.work, tag + ".json"),
            "spans": os.path.join(self.work, "spans.json"),
        }
        with open(os.path.join(self.work, tag + ".log"), "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 json.dumps(req)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
            status, usage = self._wait(
                proc, max(self.started + RUN_LIMIT_S, t_spawn + 1.0))
        shutil.rmtree(req["out"], ignore_errors=True)
        try:
            with open(req["result"], encoding="utf-8") as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            res = {"mode": mode, "error": f"child exited with {status}; "
                   f"see {tag}.log"}
        res["t_spawn"] = t_spawn
        res["exit"] = status
        res["rss_mb"] = usage.ru_maxrss / 1024.0
        res["cpu_s"] = usage.ru_utime + usage.ru_stime
        return res

    @staticmethod
    def _wait(proc, deadline: float):
        """Reap ``proc`` with its resource usage; kill it at ``deadline``."""
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage


def _failed(res: dict) -> bool:
    if res.get("exit") != 0 or res.get("error"):
        return True
    if res["mode"] != "trace" and not (res.get("pace") or {}).get("factor"):
        return True
    if res["mode"] == "setup":
        return "t_first_call" not in res
    return bool(res.get("failures")) or "gap_rel" not in res


def _wall(res: dict, key: str = "t_end") -> float:
    return res[key] - res["t_spawn"]


def _has(res: dict, key: str) -> bool:
    """Whether ``res`` holds the time ``key`` and a pace to scale it by."""
    return key in res and bool((res.get("pace") or {}).get("factor"))


def _net(res: dict, key: str) -> float:
    """Spawn to ``res[key]``, less the time of the pace blocks."""
    return _wall(res, key) - (res.get("pace") or {}).get("blocks_s", 0.0)


def _paced(res: dict, key: str) -> float:
    """Spawn to ``res[key]`` at the reference pace, without the pace blocks."""
    return _net(res, key) * res["pace"]["factor"]


def _git_commit(root: str) -> str:
    try:
        # the ceiling keeps git from taking a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True).stdout.strip() \
            or "unknown"
    except OSError:
        return "unknown"


def _src_lines(root: str) -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _pass_record(res: dict) -> dict:
    rec = {
        "mode": res["mode"],
        "failed": _failed(res),
        "rss_mb": res.get("rss_mb"),
        "cpu_s": res.get("cpu_s"),
    }
    if res.get("pace"):
        rec["pace"] = res["pace"]
    if "t_first_call" in res:
        rec["setup_raw_s"] = _wall(res, "t_first_call")
    if "t_end" in res:
        rec["wall_raw_s"] = _wall(res)
        rec["gap_rel"] = res.get("gap_rel")
        rec["solves"] = res.get("solves")
        rec["failures"] = res.get("failures")
    if res.get("error"):
        rec["error"] = res["error"].strip().splitlines()[-1]
    return rec


def measure(runner: Runner, args) -> tuple[dict, list]:
    """All children of one run; returns (metrics, child results)."""
    if args.trace:
        # the set-up run compiles bytecode, so both passes start alike
        warm = runner.child("setup")
        plain = runner.child("pass")
        traced = runner.child("trace")
        results = [warm, plain, traced]
        metrics = dict(traced.get("layers", {}))
        if "gap_rel" in traced:
            metrics["gap_rel"] = traced["gap_rel"]
        if "t_end" in plain and "t_end" in traced:
            # raw times: the traced pass samples no pace
            metrics["trace.overhead_s"] = (_net(traced, "t_end")
                                           - _net(plain, "t_end"))
        return metrics, results

    # set-up runs bracket the passes, so that their median spans the run
    setups = [runner.child("setup") for _ in range(SETUP_RUNS // 2)]
    passes = []
    t0 = time.monotonic()
    # passes repeat until --seconds is used, at least one
    while not passes or time.monotonic() - t0 < args.seconds:
        passes.append(runner.child("pass"))
        if "t_end" not in passes[-1]:
            break
    setups += [runner.child("setup")
               for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    results = setups + passes
    timed = [p for p in passes if _has(p, "t_end")]
    first_calls = [_paced(s, "t_first_call") for s in setups
                   if _has(s, "t_first_call")]
    metrics = {
        "wall_s": statistics.median(_paced(p, "t_end") for p in timed)
        if timed else 0.0,
        "setup_s": statistics.median(first_calls) if first_calls else 0.0,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in timed)
        if timed else 0.0,
    }
    return metrics, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sized configs (not for timing)")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shapekernel",
                                       "__init__.py")):
        print("perfbench: run from the root of a checkout that holds "
              "src/shapekernel", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench",
                        f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    runner = Runner(root, work, args)
    metrics, results = measure(runner, args)
    units = tracer.LAYER_METRICS if args.trace else END_TO_END
    failed = sum(1 for r in results if _failed(r))
    versions = next((r["versions"] for r in results if "versions" in r), {})
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        **versions,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {var: runner.env[var] for var in THREAD_VARS},
        "src_lines": _src_lines(root),
        "children": [_pass_record(r) for r in results],
    }
    with open(os.path.join(work, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    print(json.dumps({"run_info": info}))
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
