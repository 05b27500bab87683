"""One benchmark pass in a fresh interpreter.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py '<request JSON>'

The request names a ``mode``:

``setup``  import the package, load the workload config and run the
           experiment up to its first call into the pipeline (the data
           generators run first), then stop.  Reports when that call came.
``pass``   one untraced pass: only the solver call sites carry a
           counting wrapper.  Reports when ``run_experiment`` returned.
``trace``  one pass with every layer wrapped; also writes the spans.

``setup`` and ``pass`` sample the host pace (``pace.py``) from the start
of this script to the end of the timed interval and report it with the
result; ``trace`` does not, so that no span holds a pace sample.
After ``pass`` and ``trace`` the outputs are checked, outside the timed
interval.  The result is written as JSON to ``request["result"]``.  A pass
that raises still reports its time, its solver counts and the error.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

import pace


class _SetupDone(Exception):
    """Raised at the first pipeline call of a ``setup`` run."""


def _stop(*args, **kwargs):
    raise _SetupDone(time.monotonic())


def _stop_at_first_call(experiments) -> None:
    """Make every pipeline function the runners import end the run."""
    for name, obj in list(vars(experiments).items()):
        module = getattr(obj, "__module__", "") or ""
        if callable(obj) and not isinstance(obj, type) and \
                module.startswith("shapekernel.") and \
                not module.startswith("shapekernel.bench"):
            setattr(experiments, name, _stop)


def _capture_models(experiments, store: dict) -> None:
    """Keep the models a pass saves, for the output checks."""
    emit = experiments.emit_results

    def capture(summary, tables, out_dir, models=None):
        store.update(models or {})
        return emit(summary, tables, out_dir, models)
    experiments.emit_results = capture


def _versions() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def run(req: dict, clock: pace.Pace | None) -> dict:
    import workloads

    mode, workload = req["mode"], req["workload"]
    out = {"mode": mode}
    os.makedirs(req["out"], exist_ok=True)
    config_path = os.path.join(req["out"], "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workloads.overlay(workload, req["seed"], req["out"],
                                    req.get("tiny", False)), fh)

    from shapekernel.bench.config import ExperimentConfig
    from shapekernel.bench.experiments import run_experiment
    import tracer

    experiments = sys.modules["shapekernel.bench.experiments"]
    out["t_imported"] = time.monotonic()
    cfg = ExperimentConfig.load(config_path)

    if mode == "setup":
        _stop_at_first_call(experiments)
        try:
            run_experiment(cfg)
        except _SetupDone as done:
            out["t_first_call"] = done.args[0]
            out["pace"] = _stop_clock(clock, out["t_first_call"])
        else:
            out["error"] = "the run made no pipeline call"
        return out

    models: dict = {}
    _capture_models(experiments, models)
    if mode == "trace":
        recorder = tracer.Tracer()
        recorder.install()
        counter = recorder.solves
    else:
        recorder = None
        counter = tracer.SolveCounter()
        counter.install()

    summary = None
    try:
        if recorder is None:
            summary = run_experiment(cfg)
        else:
            summary = recorder.span(tracer.ROOT, run_experiment, cfg)
    except Exception:
        out["error"] = traceback.format_exc(limit=4)
    out["t_end"] = time.monotonic()
    out["pace"] = _stop_clock(clock, out["t_end"])
    out["solves"] = counter.solves
    if recorder is not None:
        # read before the checks, whose kernel calls are counted too
        out["layers"] = recorder.layer_metrics()
        with open(req["spans"], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans_json(), fh)
    if summary is not None:
        out["gap_rel"] = workloads.gap_rel(workload, summary)
        out["failures"] = workloads.check(workload, cfg, summary, models)
    out["versions"] = _versions()
    return out


def _stop_clock(clock: pace.Pace | None, t_end: float) -> dict | None:
    if clock is None:
        return None
    clock.stop()
    return clock.report(t_end)


def main(argv) -> int:
    req = json.loads(argv[1])
    clock = None if req["mode"] == "trace" else pace.Pace()
    if clock is not None:
        clock.start()
    try:
        result = run(req, clock)
    finally:
        if clock is not None:
            clock.stop()
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
