"""Smoke tests of the benchmark experiments on tiny configs.

Each experiment runs end to end through ``run_experiment`` (the path
``shapekernel run`` takes), and ``shapekernel verify`` re-checks one saved
tightened model against the experiment's constraints on a small grid.
Also checked: the scheme each experiment accepts, that every name the
benchmark tracer (``perfbench/tracer.py``) wraps still exists, that no
module imports a name it never uses but for the tracer, that the
outputs do not depend on how many CPUs run the independent fits, and that
``tools/solve_digest.py`` records each process's peak memory, leaves it
out of its comparison and prints the two sides' peaks by role, and under
``--rtol`` matches solves by label, compares output files within the
tolerance (CSV cells against their column's scale) and reports iteration
counts without judging them.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import types

import pytest

from shapekernel import (ConeBlock, ConeProgram, Model, conic, covering,
                         cpus, verify_pointwise)
from shapekernel.bench import cli
from shapekernel.bench.cli import main
from shapekernel.bench.config import (SCHEMES, CoveringConfig,
                                      ExperimentConfig, default_config)
from shapekernel.bench.experiments import constraints_for, run_experiment

#: experiment -> (config overlay, saved tightened model, verify grid per axis)
TINY = {
    "catenary": ({"covering": {"k_max": 1},
                  "params": {"m_list": [30], "reference_points": 400,
                             "verify_res": 400},
                  "grid_res": 21},
                 "model_ball", 200),
    "control": ({"covering": {"n_x": 40},
                 "params": {"m_intervals": 10, "wall_clearance": 0.7,
                            "verify_res": 200},
                 "grid_res": 21},
                "model_ball", 50),
    "econ": ({"params": {"counts": [4, 4], "synthetic_rows": 120,
                         "dataset_path": ""}},
             "model_both", 21),
    # two anchor counts: the saved models come from the last one, so they
    # are checked against the 16-anchor constraints, not the 1-anchor ones
    "robotarm": ({"covering": {"n_x": 100},
                  "params": {"m_list": [1, 16], "cv": False}},
                 "model_ball", 5),
}


def _run_tiny(name, out, **extra):
    """Write the tiny config of ``name`` (with ``extra`` keys) to ``out``
    and run it through ``run_experiment``; returns the config path and the
    summary."""
    config = out / "config.json"
    config.write_text(json.dumps({"experiment": name, "out_dir": str(out),
                                  **TINY[name][0], **extra}))
    return config, run_experiment(ExperimentConfig.load(config))


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny_run(request, tmp_path_factory):
    name = request.param
    _, model, grid = TINY[name]
    out = tmp_path_factory.mktemp(name)
    # two usable CPUs and BLAS taken as pinned on any host, so that the
    # runners fork their workers
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cpus, "usable_cpus", lambda: 2)
        patch.setattr(cpus, "blas_pinned", lambda: True)
        config, summary = _run_tiny(name, out)
    return name, config, out / f"{model}.json", grid, summary


def test_run_writes_every_artifact(tiny_run):
    name, _, model_path, _, summary = tiny_run
    assert summary["experiment"] == name
    assert "summary.json" in summary["files"]
    assert model_path.name in summary["files"]
    assert model_path.exists()


def test_summary_records_every_solve(tiny_run):
    name, _, model_path, _, _ = tiny_run
    saved = json.loads((model_path.parent / "summary.json").read_text())
    solves = saved["solves"]
    assert solves
    for entry in solves:
        assert set(entry) == {"label", "status", "stop_reason",
                              "iterations", "objective", "n", "trace"}
        assert entry["iterations"] >= 1
        assert isinstance(entry["n"], int) and entry["n"] >= 1
        assert isinstance(entry["objective"], float)
        # a program without cone rows (robotarm's unconstrained fit) is
        # one direct solve, with no trace
        direct = name == "robotarm" and entry["label"].endswith(" none")
        assert set(entry["trace"]) == {"pres", "dres", "gap", "mu", "reg",
                                       "sigma", "step"}
        assert {len(column) for column in entry["trace"].values()} == \
            {0 if direct else entry["iterations"]}
    labels = [entry["label"] for entry in solves]
    assert len(set(labels)) == len(labels)
    expected = {"catenary": ["ball m=30", "ball m=30 relaxation"],
                "control": ["ball", "disc"],
                "econ": ["rep 4 both", "rep 4 both relaxation"],
                "robotarm": ["seed 0 m=16 ball"]}[name]
    assert set(expected) <= set(labels)
    if name == "catenary":
        assert labels[0] == "reference round 0"
        assert "soap-hyp round 1" in labels
    # every solve that did not end optimal is also a warning
    failed = [entry["label"] for entry in solves
              if entry["status"] != "optimal"]
    assert [w.split(":")[0] for w in saved["warnings"]
            if w.split(":")[0] in labels] == failed


def _outputs(out: pathlib.Path) -> dict:
    """Every file a run wrote, by name; ``summary.json`` without what
    depends on the clock or on the output directory."""
    files = {path.name: path.read_bytes() for path in out.iterdir()
             if path.name != "config.json"}
    summary = json.loads(files.pop("summary.json"))
    for key in ("timings", "timing_table", "out_dir", "config"):
        summary.pop(key, None)
    files["summary.json"] = summary
    return files


def test_outputs_do_not_depend_on_the_cpu_count(tiny_run, tmp_path,
                                                monkeypatch):
    # the module's run forked a worker (catenary runs all four schemes,
    # econ its four regimes and the relaxation, robotarm two anchor counts
    # by four schemes); here every fit runs in this process
    name, _, model_path, _, _ = tiny_run
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 1)
    # a width cached by an earlier run would spare this one its work
    monkeypatch.setattr(covering, "_eta_cache", {})
    _run_tiny(name, tmp_path)
    serial = _outputs(tmp_path)
    assert serial == _outputs(model_path.parent)
    assert any(file.endswith(".csv") for file in serial)
    assert any(file.startswith("model_") for file in serial)


def test_verify_passes_on_the_saved_tightened_model(tiny_run, capsys):
    name, config, model_path, grid, summary = tiny_run
    code = main(["verify", "--model", str(model_path), "--config",
                 str(config), "--grid-res", str(grid)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report["max_violation"]
    assert report["passed"]
    if name == "robotarm":
        assert len(report["constraints"]) == \
            summary["medians"]["m16_ball"]["kept"]


@pytest.mark.parametrize("tiny_run", ["econ"], indirect=True)
def test_econ_tightened_models_hold_on_the_region(tiny_run):
    # each tightened econ model is over its program's Gram pivots only (one
    # more column for the epigraph's t) and meets its regime's constraints
    # on a grid of the region
    _, config, model_path, grid, summary = tiny_run
    checks = dict(constraints_for(ExperimentConfig.load(config)))
    n = {s["label"]: s["n"] for s in summary["solves"]}
    for regime, labels in (("monot", ["monot_x1", "monot_x2"]),
                           ("conv", ["convexity"]),
                           ("both", list(checks))):
        model = Model.from_json(json.loads(
            (model_path.parent / f"model_{regime}.json").read_text()))
        assert n[f"rep 4 {regime}"] == len(model.basis) + 1
        for label in labels:
            report = verify_pointwise(model, checks[label], grid_res=grid)
            assert report["maxViolation"] <= 1e-6, (regime, label)


def test_verify_fails_a_model_with_a_nan_coefficient(tiny_run, tmp_path,
                                                     capsys):
    name, config, model_path, grid, _ = tiny_run
    data = json.loads(model_path.read_text())
    data["coeffs"][-1] = float("nan")
    broken = tmp_path / "model_nan.json"
    broken.write_text(json.dumps(data))
    code = main(["verify", "--model", str(broken), "--config", str(config),
                 "--grid-res", str(grid)])

    def non_standard(token):
        raise ValueError(f"{token} is not JSON")

    # strict JSON: the infinite violation and NaN eigenvalue are null
    report = json.loads(capsys.readouterr().out,
                        parse_constant=non_standard)
    assert code == 1 and not report["passed"]
    assert report["max_violation"] is None
    assert all(c["max_violation"] is None and c["min_eigenvalue"] is None
               for c in report["constraints"])


def test_verify_default_grid_scales_with_the_dimension(tiny_run, capsys,
                                                       monkeypatch):
    # 400 points per axis up to 2-D; robotarm's 4-D joint region gets 20,
    # 160,000 points checked in chunks.  One constraint keeps it short.
    name, config, model_path, _, _ = tiny_run
    first = constraints_for(ExperimentConfig.load(config))[0][1]
    monkeypatch.setattr(cli, "constraints_for",
                        lambda cfg: constraints_for(cfg)[:1])
    code = main(["verify", "--model", str(model_path), "--config",
                 str(config)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report["max_violation"]
    dim = len(first.region)
    assert (dim, report["constraints"][0]["grid_res"]) == \
        {"robotarm": (4, 20), "econ": (2, 400)}.get(name, (1, 400))


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-res", "1", "--grid-res must be at least 2"),
    ("--grid-res", "-3", "--grid-res must be at least 2"),
    ("--tol", "-0.5", "--tol must be at least 0"),
    ("--tol", "nan", "--tol must be at least 0"),
])
def test_verify_rejects_bad_settings(tmp_path, flag, value, message):
    # checked before the files are read: these paths do not exist
    with pytest.raises(SystemExit, match="shapekernel verify: " + message):
        main(["verify", "--model", str(tmp_path / "m.json"), "--config",
              str(tmp_path / "c.json"), flag, value])


#: (experiment, scheme) pairs the runner cannot honour
REJECTED = [("control", s) for s in ("hyp", "soap-ball", "soap-hyp", "none")]
REJECTED += [("robotarm", s) for s in ("soap-ball", "soap-hyp")]
REJECTED += [("econ", s) for s in SCHEMES]


@pytest.mark.parametrize("experiment, scheme", REJECTED)
def test_scheme_the_experiment_cannot_run_is_rejected(experiment, scheme):
    with pytest.raises(ValueError, match="not available"):
        ExperimentConfig(experiment=experiment, scheme=scheme)


def test_accepted_schemes():
    for scheme in SCHEMES:
        assert ExperimentConfig("catenary", scheme=scheme).scheme == scheme
    for scheme in ("ball", "disc"):
        ExperimentConfig("control", scheme=scheme)
    for scheme in ("none", "disc", "ball", "hyp"):
        ExperimentConfig("robotarm", scheme=scheme)


def test_cli_rejects_scheme_before_running(tmp_path):
    # a tiny config, so a missing check would cost seconds, not minutes
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "econ", **TINY["econ"][0]}))
    with pytest.raises(SystemExit, match="not available"):
        main(["run", "econ", "--config", str(config), "--out",
              str(tmp_path / "out"), "--scheme", "ball"])
    # the same check on a scheme named in the config file
    config.write_text(json.dumps({"experiment": "econ", "scheme": "ball",
                                  **TINY["econ"][0]}))
    with pytest.raises(SystemExit, match="not available"):
        main(["run", "econ", "--config", str(config), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("key, value", [
    ("eta_safety", -0.05), ("n_x", 0), ("n_u", 0), ("delta0", 0.0),
    ("delta0", -0.01), ("gamma", 0.0), ("gamma", 1.0), ("k_max", -1),
])
def test_out_of_range_covering_value_is_rejected(key, value):
    # a negative eta_safety shrinks every sampled buffer width, so the
    # "tightened" model would no longer be certified
    with pytest.raises(ValueError, match=key):
        CoveringConfig(**{key: value})


def test_cli_rejects_negative_eta_safety_before_running(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "econ", **TINY["econ"][0]}))
    with pytest.raises(SystemExit, match="shapekernel run: .*eta_safety"):
        main(["run", "econ", "--config", str(config), "--out",
              str(tmp_path / "out"), "--eta-safety", "-0.1"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [("params", "wall_clearence"),
                                          ("covering", "nx"),
                                          ("solver", "max_iters")])
def test_unknown_config_key_is_rejected(tmp_path, section, key):
    # a misspelled key would otherwise run at the default value
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "control",
                                  section: {key: 0.7}}))
    with pytest.raises(ValueError, match=f"unknown .*{key}"):
        ExperimentConfig.load(config)
    with pytest.raises(SystemExit, match=f"shapekernel run: unknown .*{key}"):
        main(["run", "control", "--config", str(config), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_out_of_range_solver_setting_is_rejected_before_running(tmp_path):
    # max_iter 0 used to run every solve for no iterations
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "control",
                                  "solver": {"max_iter": 0}}))
    with pytest.raises(SystemExit,
                       match="shapekernel run: max_iter must be at least 1"):
        main(["run", "control", "--config", str(config), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("strict, max_iter", [(False, 1), (True, 1),
                                              (True, 200)])
def test_run_prints_warnings_and_strict_fails_on_them(tmp_path, capsys,
                                                      strict, max_iter):
    # at one iteration per solve both control solves end max_iter
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "control",
                                  **TINY["control"][0],
                                  "solver": {"max_iter": max_iter}}))
    code = main(["run", "control", "--config", str(config), "--out",
                 str(tmp_path / "out"), *(["--strict"] if strict else [])])
    warned = max_iter == 1
    assert code == (1 if strict and warned else 0)
    text = "solver status 'max_iter' (stop reason 'max_iter')"
    assert capsys.readouterr().err.splitlines() == (
        [f"warning: ball: {text}", f"warning: disc: {text}"]
        if warned else [])
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("params, message", [
    ({"regimes": ["both", "bogus"]}, r"unknown econ regimes \['bogus'\]"),
    ({"regimes": []}, "at least one"),
    ({"regimes": ["both", "both"]}, "at most once"),
    ({"reps": 0}, "reps must be at least 1"),
    ({"folds": 1}, "folds must be at least 2"),
    ({"folds": 0}, "folds must be at least 2"),
    ({"train_fraction": 0.0}, r"train_fraction must lie in \(0, 1\]"),
    ({"train_fraction": 1.5}, r"train_fraction must lie in \(0, 1\]"),
    # (experiment, params) for the other runners' params
    (("catenary", {"m_list": [0]}), r"catenary m_list \[0\] must name"),
    (("catenary", {"m_list": []}), r"catenary m_list \[\] must name"),
    (("control", {"m_intervals": 0}), "m_intervals must be at least 1"),
    (("robotarm", {"m_list": [16, 15]}),
     r"m_list \[16, 15\] must name .* each a perfect 4-th power"),
    (("robotarm", {"m_list": []}), r"robotarm m_list \[\] must name"),
    (("robotarm", {"segments": 0}), "segments must be at least 1"),
    (("catenary", {"verify_res": 1}),
     "catenary verify_res must be at least 2"),
    (("control", {"verify_res": 0}), "control verify_res must be at least 2"),
    (("control", {"verify_res": 1}), "control verify_res must be at least 2"),
    (("catenary", {"tol_sat": -1}), "catenary tol_sat must be positive"),
    (("catenary", {"tol_sat": 0}), "catenary tol_sat must be positive"),
])
def test_econ_params_are_checked_before_running(tmp_path, params, message):
    # an unknown regime used to end in a KeyError traceback, reps 0 in an
    # empty table with NaN medians, folds 0 in a mid-run ValueError; a
    # catenary anchor count or control interval count of 0 in a mid-run
    # ZeroDivisionError, a robotarm anchor count that is no perfect power
    # in a ValueError after data generation and cross-validation; a
    # verify_res of 0 or 1 in a ValueError after the solves, or a
    # violation read at one point, and a tol_sat of -1 in a SOAP run that
    # stopped at "no saturation" in round 0
    experiment, params = params if isinstance(params, tuple) else \
        ("econ", params)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment,
                                  "params": params}))
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.load(config)
    with pytest.raises(SystemExit, match="shapekernel run: .*" + message):
        main(["run", experiment, "--config", str(config), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_unknown_top_level_config_key_is_rejected(tmp_path):
    # "sede" used to reach ExperimentConfig(**merged) as a TypeError
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "control", "sede": 3}))
    unknown = r"unknown config keys \['sede'\]"
    with pytest.raises(ValueError, match=unknown):
        ExperimentConfig.load(config)
    with pytest.raises(SystemExit, match="shapekernel run: " + unknown):
        main(["run", "control", "--config", str(config), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_params_built_in_code_are_checked_and_completed():
    # an unknown key used to be checked only in config files, and the run
    # silently used the default of the key it misspelt
    with pytest.raises(ValueError, match=r"unknown econ params keys "
                       r"\['repz'\]"):
        ExperimentConfig("econ", params={"repz": 1})
    cfg = ExperimentConfig("econ", params={"reps": 2})
    assert cfg.params == {**default_config("econ").params, "reps": 2}


def test_verify_reports_config_and_file_errors(tmp_path):
    model = tmp_path / "model.json"
    model.write_text("{}")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "control",
                                  "params": {"wall_clearence": 0.7}}))
    with pytest.raises(SystemExit, match="shapekernel verify: unknown "
                       "control params keys .*wall_clearence"):
        main(["verify", "--model", str(model), "--config", str(config)])
    config.write_text(json.dumps({"experiment": "control"}))
    for missing in ("--model", "--config"):
        paths = {"--model": str(model), "--config": str(config),
                 missing: str(tmp_path / "missing.json")}
        with pytest.raises(SystemExit,
                           match="shapekernel verify: .*missing.json"):
            main(["verify", *(x for kv in paths.items() for x in kv)])


def _load_tool(directory: str, name: str):
    path = pathlib.Path(__file__).resolve().parents[1] / directory \
        / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_digest_records_each_process_peak(tmp_path, capsys):
    # every solve line ends with the process's ru_maxrss, which --compare
    # ignores as it ignores times
    digest = _load_tool("tools", "solve_digest")
    prog = ConeProgram(n=1, P=[[2.0]],
                       blocks=[ConeBlock("nonneg", [[-1.0]], [-1.0])])
    sides = [tmp_path / "a", tmp_path / "b"]
    for side in sides:
        side.mkdir()
        (side / "files.txt").write_text("")
        digest._wrap(conic.solve, str(side))(prog)
    [path] = sides[1].glob("solves-*.txt")
    line = path.read_text()
    assert " rss_kb=" in line.rsplit(" t=", 1)[1]
    path.write_text(line.rsplit(" rss_kb=", 1)[0] + " rss_kb=1\n")
    assert digest.compare(*map(str, sides)) == 0
    assert "identical: 1 solves" in capsys.readouterr().out
    assert digest._peaks(str(sides[1])) == {os.getpid(): (1, 1)}


def test_solve_digest_compares_files_within_a_tolerance(tmp_path, capsys):
    # with --rtol, a file whose hash differs is compared value by value:
    # numbers within the tolerance, text exactly; solves are judged by
    # label from the summaries, so a solve line alone does not decide
    digest = _load_tool("tools", "solve_digest")
    prog = ConeProgram(n=1, P=[[2.0]],
                       blocks=[ConeBlock("nonneg", [[-1.0]], [-1.0])])
    a, b = tmp_path / "a", tmp_path / "b"

    def write(side, z=0.3, label="ball", violation=0.25):
        run = side / "run"
        run.mkdir(parents=True, exist_ok=True)
        (run / "trajectory.csv").write_text(
            f"t,z_{label}\n0.0,0.0\n0.5,{z!r}\n")
        (run / "summary.json").write_text(json.dumps(
            {"schemes": {label: {"max_violation": violation,
                                 "violated_points": 3}},
             "timings": {"total_s": z}}))
        (side / "files.txt").write_text(
            "".join(f"{line}\n" for line in digest._file_hashes(str(run))))

    def compare(rtol=1e-12):
        code = digest.main(["--compare", str(a), str(b), "--rtol",
                            str(rtol)])
        return code, capsys.readouterr().out

    for side in (a, b):
        write(side)
        digest._wrap(conic.solve, str(side))(prog)
    assert compare() == (0, "identical: 1 solves, 2 files\n")
    write(b, z=0.3 * (1 + 1e-15), violation=0.25 * (1 - 1e-15))
    code, out = compare()
    assert code == 0 and "2 within rtol 1e-12" in out
    assert "trajectory.csv: largest relative difference 1.11e-15" in out
    assert digest.compare(str(a), str(b)) == 1  # bytes by default
    write(b, z=0.3 * (1 + 1e-9))
    code, out = compare()
    assert code == 1 and "trajectory.csv: largest relative difference 1e-09" \
        in out
    write(b, label="disc")  # a text cell and a key
    code, out = compare(rtol=1.0)
    assert code == 1 and out.count("largest relative difference inf") == 2
    write(b)
    [path] = b.glob("solves-*.txt")
    path.write_text(path.read_text().replace("iters=", "iters=1"))
    assert compare(rtol=1.0)[0] == 0
    assert digest.compare(str(a), str(b)) == 1
    assert "solve only in" in capsys.readouterr().out


def digest_side(side, objective=1.0314, status="optimal", elements=106,
                iterations=30, peaks=()):
    """A digest directory whose summary holds one econ-like solve and one
    SOAP scheme, with ``peaks`` lines ``(role, pid, kB)``."""
    run = side / "run"
    run.mkdir(parents=True, exist_ok=True)
    (run / "summary.json").write_text(json.dumps({
        "solves": [{"label": "rep 0 both", "status": status,
                    "stop_reason": status, "iterations": iterations,
                    "objective": objective, "trace": {"pres": [1e-9]}}],
        "schemes": {"soap-ball": {"elements": elements,
                                  "stop": "no saturation",
                                  "iterations": 11}}}))
    (side / "files.txt").write_text("".join(
        f"{line}\n" for line in _load_tool("tools", "solve_digest")
        ._file_hashes(str(run))))
    (side / "peaks.txt").write_text(
        "".join(f"{role} {pid} {kb}\n" for role, pid, kb in peaks))


def test_solve_digest_judges_solves_by_label(tmp_path, capsys):
    # the tolerance mode accepts an objective moved by rounding (3.3e-16,
    # as iterative refinement moved econ's) and reports a changed iteration
    # count; it rejects a changed status, a changed SOAP element count and
    # a 1e-6 objective shift
    digest = _load_tool("tools", "solve_digest")
    a, b = tmp_path / "a", tmp_path / "b"
    digest_side(a)

    def compare(**change):
        digest_side(b, **change)
        code = digest.main(["--compare", str(a), str(b), "--rtol", "1e-8"])
        return code, capsys.readouterr().out

    code, out = compare(objective=1.0314 * (1 + 3.3e-16), iterations=27)
    assert code == 0, out
    assert "solve 'rep 0 both': iterations 30 -> 27" in out
    assert "within rtol 1e-08" in out
    code, out = compare(status="max_iter")
    assert code == 1 and "status optimal -> max_iter" in out
    code, out = compare(elements=112)
    assert code == 1
    assert "SOAP soap-ball: 106 elements, stop 'no saturation' -> 112 " \
        "elements" in out
    code, out = compare(objective=1.0314 * (1 + 1e-6))
    assert code == 1 and "objective relative difference 1e-06" in out
    assert digest.compare(str(a), str(b)) == 1  # bytes by default


def test_solve_digest_scales_csv_cells_by_their_column(tmp_path, capsys):
    # a trajectory cell near zero that moves by 1e-18 in a column whose
    # largest value is 1 passes at 1e-13; the per-cell rule alone fails it
    digest = _load_tool("tools", "solve_digest")
    a, b = tmp_path / "a", tmp_path / "b"
    near = 8.4e-12
    for side, z in ((a, near), (b, near + 1e-18)):
        digest_side(side)
        (side / "run" / "trajectory.csv").write_text(
            f"t,z,iterations\n0.0,{z!r},30\n0.5,1.0,31\n")
        (side / "files.txt").write_text("".join(
            f"{line}\n" for line in digest._file_hashes(str(side / "run"))))
    assert digest._diff(repr(near), repr(near + 1e-18)) > 1e-13
    assert digest.main(["--compare", str(a), str(b), "--rtol",
                        "1e-13"]) == 0
    out = capsys.readouterr().out
    assert "trajectory.csv: largest relative difference 1e-18" in out
    # a column headed "iterations" is reported with the solves, not judged
    rows = [["t", "iterations"], ["0.0", "30"]]
    assert digest._csv_diff(rows, [rows[0], ["0.0", "27"]]) == 0.0
    assert digest._csv_diff(rows, [rows[0], ["0.1", "30"]]) == 1.0
    # a column of zeros and non-finite cells has no scale: a cell changed
    # there differs at any tolerance
    rows = [["t", "z"], ["0.0", "nan"], ["0.5", "inf"]]
    for changed in (["0.0", "0.0"], ["0.5", "-inf"]):
        other = [changed if row[0] == changed[0] else row for row in rows]
        assert digest._csv_diff(rows, other) == math.inf
    for side, z in ((a, "nan"), (b, "0.0")):
        (side / "run" / "trajectory.csv").write_text(f"t,z\n0.0,{z}\n")
        (side / "files.txt").write_text("".join(
            f"{line}\n" for line in digest._file_hashes(str(side / "run"))))
    assert digest.main(["--compare", str(a), str(b), "--rtol",
                        "1e-13"]) == 1


def test_solve_digest_judges_models_as_functions(tmp_path, capsys):
    # one function on two bases (reordered, a zero coefficient, and an
    # atom held as twice another) passes at 1e-8, as two f = 0 models do;
    # a change of 1e-6 of the model norm fails
    from shapekernel import Atom, DiffFunctional, GaussianKernel

    digest = _load_tool("tools", "solve_digest")
    kernel = GaussianKernel([0.3])

    def atom(x, beta=1.0):
        return Atom((x,), DiffFunctional.value(1, beta=beta))

    def side(name, atoms, coeffs):
        path = tmp_path / name
        digest_side(path)
        (path / "config.json").write_text('{"experiment": "catenary"}')
        (path / "run" / "model_ball.json").write_text(json.dumps(
            Model(kernel, atoms, coeffs).to_json()))
        (path / "files.txt").write_text("".join(
            f"{line}\n" for line in digest._file_hashes(str(path / "run"))))
        return str(path)

    def compare(a, b, rtol=1e-8):
        code = digest.main(["--compare", a, b, "--rtol", str(rtol)])
        return code, capsys.readouterr().out

    a = side("a", [atom(0.2), atom(0.7)], [1.0, -0.5])
    b = side("b", [atom(0.7), atom(0.45), atom(0.2, beta=2.0)],
             [-0.5, 0.0, 0.5])
    code, out = compare(a, b)
    assert code == 0, out
    assert "model_ball.json: function difference" in out
    norm = Model(kernel, [atom(0.2), atom(0.7)], [1.0, -0.5]).norm
    moved = side("moved", [atom(0.7), atom(0.45), atom(0.2, beta=2.0)],
                 [-0.5, 1e-6 * norm, 0.5])
    code, out = compare(a, moved)
    assert code == 1
    assert "function difference 1e-06" in out
    assert compare(a, moved, rtol=2e-6)[0] == 0
    zero_a = side("zero_a", [atom(0.2), atom(0.7)], [3e-12, -2e-12])
    zero_b = side("zero_b", [atom(0.4)], [-4e-12])
    assert compare(zero_a, zero_b)[0] == 0
    assert digest.compare(a, b) == 1  # bytes by default


def test_solve_digest_compares_peaks_by_role(tmp_path, capsys):
    # each side's caller and workers, side by side, workers in pid order
    digest = _load_tool("tools", "solve_digest")
    a, b = tmp_path / "a", tmp_path / "b"
    digest_side(a, peaks=[("caller", 10, 131481), ("worker", 12, 135885),
                          ("worker", 11, 102400)])
    digest_side(b, peaks=[("caller", 20, 121549), ("worker", 21, 116326)])
    assert digest.compare(str(a), str(b)) == 0
    out = capsys.readouterr().out
    assert "peak RSS caller: 128.4 MB -> 118.7 MB" in out
    assert "peak RSS worker 1: 100.0 MB -> 113.6 MB" in out
    assert "peak RSS worker 2: 132.7 MB -> -" in out
    # and the largest over all processes, whichever did the work
    assert "peak RSS largest: 132.7 MB -> 118.7 MB" in out


def test_every_traced_name_resolves():
    tracer = _load_tool("perfbench", "tracer")
    sites = [entry[:2] for entry in tracer.TRACED] + list(tracer.SOLVE_SITES)
    missing = [(mod, attr) for mod, attr in sites
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing
    model = importlib.import_module("shapekernel.atoms").Model
    assert callable(model.eval_component_many)


def _modules():
    """(dotted name, parsed tree) of every module under ``src/`` but the
    package ``__init__`` files."""
    package = pathlib.Path(covering.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name != "__init__.py":
            parts = path.relative_to(package).with_suffix("").parts
            yield ".".join(("shapekernel", *parts)), \
                ast.parse(path.read_text(encoding="utf-8"))


def _test_modules():
    """(name, parsed tree) of every test module."""
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_imports_a_name_it_never_uses():
    # a name bound only for the benchmark tracer is in its tables
    tracer = _load_tool("perfbench", "tracer")
    traced = {entry[:2] for entry in tracer.TRACED} | set(tracer.SOLVE_SITES)
    unused = []
    for module, tree in [*_modules(), *_test_modules()]:
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0],
                                 node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno)
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{module}:{line} {name}"
                   for name, line in imported.items()
                   if name not in used and (module, name) not in traced]
    assert not unused


def _at_load(node):
    """The nodes under ``node`` that run when its module is imported: all
    but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _at_load(child)


def test_no_module_imports_scipy_at_load():
    # scipy.linalg takes about 0.2 s to load and scipy.optimize 0.3 s; a
    # module imports them only inside the function that needs them
    def scipy_names(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and not node.level:
            return [node.module]
        return []

    loaded = [f"{module}:{node.lineno}" for module, tree in _modules()
              for node in _at_load(tree)
              if any(name.split(".")[0] == "scipy"
                     for name in scipy_names(node))]
    assert not loaded


def test_non_optimal_status_becomes_a_warning(tmp_path, monkeypatch):
    assemble = sys.modules["shapekernel.assemble"]
    solve = assemble.solve

    def stalled(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), status="max_iter",
                                   stop_reason="dual_stall")

    monkeypatch.setattr(assemble, "solve", stalled)
    _, summary = _run_tiny("control", tmp_path)
    assert summary["warnings"] == [
        "ball: solver status 'max_iter' (stop reason 'dual_stall')",
        "disc: solver status 'max_iter' (stop reason 'dual_stall')"]


def test_reference_solve_status_becomes_a_warning(tmp_path, monkeypatch):
    assemble = sys.modules["shapekernel.assemble"]
    solve = assemble.solve

    def stalled(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), status="max_iter",
                                   stop_reason="dual_stall")

    monkeypatch.setattr(assemble, "solve", stalled)
    _, summary = _run_tiny("catenary", tmp_path, scheme="ball")
    reference = [w for w in summary["warnings"]
                 if w.startswith("reference round")]
    text = "solver status 'max_iter' (stop reason 'dual_stall')"
    assert reference[0] == f"reference round 0: {text}"
    assert summary["warnings"][len(reference):] == [
        f"ball m=30: {text}", f"ball m=30 relaxation: {text}"]


def test_submodule_import_binds_the_module():
    # a package re-export of the same name would bind the function
    import shapekernel.assemble as m
    assert isinstance(m, types.ModuleType)


def test_experiments_load_no_scipy(tmp_path):
    # neither the import nor a run whose solves reach the dual polish
    # loads scipy: the triangular solves bind numpy's own LAPACK, and the
    # polish takes numpy's least-squares point or none.  BLAS is left
    # unpinned, so no worker is forked and every solve runs in the process
    # that is checked.
    src = pathlib.Path(importlib.import_module("shapekernel").__file__)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "catenary",
                                  "out_dir": str(tmp_path),
                                  **TINY["catenary"][0], "scheme": "ball"}))
    code = ("import sys, shapekernel.bench.experiments as e; "
            "from shapekernel.bench.config import ExperimentConfig; "
            "print('scipy' in sys.modules); "
            f"e.run_experiment(ExperimentConfig.load({str(config)!r})); "
            "print('scipy' in sys.modules)")
    env = {key: value for key, value in os.environ.items()
           if key not in cpus.BLAS_THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**env, "PYTHONPATH": str(src.parents[1])})
    assert out.stdout.split() == ["False", "False"]
    solves = json.loads((tmp_path / "summary.json").read_text())["solves"]
    assert "polished" in {entry["stop_reason"] for entry in solves}


def test_merge_keeps_fit_order_and_concatenates_table_rows():
    from shapekernel.bench.experiments import Fit, merge

    first = Fit(timings={"a_s": 1.0}, tables={"t": (["x"], [[1]])},
                models={"model_a": "A"},
                summary={"schemes": {"a": {"v": 1}}, "n": 1})
    first.solved("a", {"status": "optimal"})
    second = Fit(timings={"b_s": 2.0},
                 tables={"t": (["x"], [[2], [3]]), "u": (["y"], [])},
                 summary={"schemes": {"b": {"v": 2}}, "n": 2})
    second.solved("b 0", {"status": "max_iter"})
    second.solved("b 1", {"status": "optimal"})
    run = merge([first, second, Fit(tables={"t": (["z"], [[4]])})])
    assert run.solves == [{"label": "a", "status": "optimal"},
                          {"label": "b 0", "status": "max_iter"},
                          {"label": "b 1", "status": "optimal"}]
    assert run.tables == {"t": (["x"], [[1], [2], [3], [4]]),
                          "u": (["y"], [])}
    assert run.summary == {"schemes": {"a": {"v": 1}, "b": {"v": 2}},
                           "n": 2}
    assert run.timings == {"a_s": 1.0, "b_s": 2.0}
    assert run.models == {"model_a": "A"}
    # the fits' own records are left as they were
    assert first.tables == {"t": (["x"], [[1]])}
    assert first.summary["schemes"] == {"a": {"v": 1}}


def test_econ_relaxation_follows_the_fit_it_relaxes(tmp_path):
    # with ``both`` first of the regimes, the relaxation (the first task,
    # run by the caller) still comes right after the last rep's ``both``
    # fit, and the bound report reads both solves
    params = {**TINY["econ"][0]["params"], "regimes": ["both", "none"],
              "reps": 2}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cpus, "usable_cpus", lambda: 2)
        patch.setattr(cpus, "blas_pinned", lambda: True)
        _, summary = _run_tiny("econ", tmp_path, params=params)
    solves = {s["label"]: s for s in summary["solves"]}
    assert list(solves) == ["rep 0 both", "rep 0 none", "rep 1 both",
                            "rep 1 both relaxation", "rep 1 none"]
    saved = json.loads((tmp_path / "summary.json").read_text())
    report = saved["bound_report"]
    assert report["v_app"] == solves["rep 1 both"]["objective"]
    assert report["v_relax"] == solves["rep 1 both relaxation"]["objective"]


def test_control_fits_fork_nothing(tmp_path, monkeypatch):
    # control's two fits run in the calling process: with BLAS pinned and
    # two CPUs, where run_tasks forks, the run makes no fork
    from shapekernel.bench.tasks import run_tasks

    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    monkeypatch.setattr(cpus, "blas_pinned", lambda: True)
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    _run_tiny("control", tmp_path)
    assert not forks
    assert run_tasks(abs, [(-1,), (-2,)]) == [1, 2]
    assert len(forks) == 1


def test_econ_caller_loads_neither_numpy_ma_nor_multiprocessing(tmp_path):
    # with BLAS pinned and two CPUs the run forks its worker through the
    # operating system's pipes, and it takes its training rows, quantile
    # and medians without np.unique, whose first call imports numpy.ma
    src = pathlib.Path(importlib.import_module("shapekernel").__file__)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "econ",
                                  "out_dir": str(tmp_path),
                                  **TINY["econ"][0]}))
    code = ("import os, sys, shapekernel.cpus as cpus, "
            "shapekernel.bench.experiments as e; "
            "from shapekernel.bench.config import ExperimentConfig; "
            "cpus.usable_cpus = lambda: 2; forks = []; fork = os.fork; "
            "os.fork = lambda: forks.append(0) or fork(); "
            f"e.run_experiment(ExperimentConfig.load({str(config)!r})); "
            "print(len(forks), 'numpy.ma' in sys.modules, "
            "'multiprocessing' in sys.modules)")
    env = {**os.environ, **dict.fromkeys(cpus.BLAS_THREAD_VARS, "1"),
           "PYTHONPATH": str(src.parents[1])}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["1", "False", "False"]


def test_control_never_evaluates_the_kernel_pair_by_pair(tmp_path,
                                                         monkeypatch):
    # the closed-form blocks carry every control evaluation; a wrong
    # eigenbasis test would fall back to one Van Loan exponential per time
    # pair without failing any other test
    from shapekernel import covering
    from shapekernel.kernels import LTIControlKernel

    # widths cached by an earlier run would skip the sampler
    monkeypatch.setattr(covering, "_eta_cache", {})
    calls = []
    for name in ("eval_partial", "_eval_van_loan"):
        def counted(self, *args, _method=getattr(LTIControlKernel, name),
                    **kwargs):
            calls.append(args)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(LTIControlKernel, name, counted)
    _run_tiny("control", tmp_path)
    assert not calls


def _broadcast_bandwidth(X):
    """Econ's bandwidth through one n x n x d difference array: the
    reference the row-by-row form must match bit for bit."""
    import numpy as np

    diff = X[:, None, :] - X[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    iu = np.triu_indices(X.shape[0], k=1)
    return float(math.sqrt(np.quantile(d2[iu], 0.8)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_econ_bandwidth_keeps_the_broadcast_bits(dim):
    import numpy as np

    from shapekernel.bench.experiments import _econ_bandwidth

    rng = np.random.default_rng(dim)
    for n in (2, 3, 157):
        X = rng.lognormal(size=(n, dim))
        assert _econ_bandwidth(X) == _broadcast_bandwidth(X)


def test_econ_bandwidth_holds_no_n_by_n_array():
    import tracemalloc

    import numpy as np

    from shapekernel.bench.experiments import _econ_bandwidth

    X = np.random.default_rng(5).normal(size=(600, 2))
    _econ_bandwidth(X[:10])  # first calls load their code
    tracemalloc.start()
    try:
        _econ_bandwidth(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the upper triangle's squared distances take n^2 / 2 * 8 bytes; the
    # broadcast form held n x n x 2 differences, five times that in all
    assert peak < 600 * 600 * 8 * 0.75


@pytest.fixture
def defaults(monkeypatch):
    """``tools/defaults.py``, running the package under test."""
    tools = pathlib.Path(__file__).resolve().parents[1] / "tools"
    src = pathlib.Path(importlib.import_module("shapekernel").__file__)
    monkeypatch.setenv("PYTHONPATH", str(src.parents[1]))
    monkeypatch.syspath_prepend(str(tools))
    return _load_tool("tools", "defaults")


def test_defaults_tool_reports_control(defaults, tmp_path, capsys):
    # control's default config in a process of its own: its row carries a
    # wall time, the solve count, the caller's peak and every solve the
    # summary marks as not optimal
    assert defaults.main(["--out", str(tmp_path), "control"]) == 0
    header, row, total = capsys.readouterr().out.splitlines()
    solves = json.loads((tmp_path / "control" / "run" / "summary.json")
                        .read_text())["solves"]
    name, wall, count, rest = row.split(maxsplit=3)
    assert name == "control" and float(wall) > 0
    assert int(count) == len(solves) == 2
    assert rest.startswith("caller ")
    not_optimal = [s for s in solves if s["status"] != "optimal"]
    for s in not_optimal:
        assert f"{s['label']}: {s['status']} ({s['stop_reason']})" in rest
    assert rest.endswith("; -") == (not not_optimal)
    assert total.split()[:3] == ["total", wall, count]
    with pytest.raises(SystemExit):
        defaults.main(["--out", str(tmp_path), "bogus"])


def test_defaults_tool_repeats_a_run(defaults, tmp_path, capsys):
    # with --repeat the wall time is the median of the runs, next to their
    # range, and each run leaves its own digest
    assert defaults.main(["--out", str(tmp_path), "--repeat", "3",
                          "control"]) == 0
    header, row, total = capsys.readouterr().out.splitlines()
    assert "min-max" in header
    name, wall, spread, count, rest = row.split(maxsplit=4)
    low, high = map(float, spread.split("-"))
    assert name == "control" and low <= float(wall) <= high
    assert int(count) == 2 and rest.startswith("caller ")
    assert total.split()[:3] == ["total", wall, count]
    for digest in ("control", "control-2", "control-3"):
        assert (tmp_path / digest / "files.txt").exists()
    with pytest.raises(SystemExit):
        defaults.main(["--out", str(tmp_path), "--repeat", "0", "control"])


@pytest.mark.parametrize("q", [0.0, 0.8, 1.0])
def test_quantile_keeps_numpys_bits(q):
    import numpy as np

    from shapekernel.bench.experiments import _quantile

    rng = np.random.default_rng(int(10 * q))
    for n in range(1, 2001):
        # every other size draws from a few values, so it holds duplicates
        a = rng.exponential(size=n) if n % 2 else \
            rng.integers(0, 1 + n // 4, size=n).astype(float)
        want = np.quantile(a, q)
        assert _quantile(a.copy(), q) == want, n


def test_median_keeps_numpys_bits():
    import numpy as np

    from shapekernel.bench.experiments import _median

    rng = np.random.default_rng(7)
    for n in range(1, 400):  # odd and even counts
        values = rng.lognormal(size=n).tolist()
        if n % 3 == 0:
            values[: n // 2] = values[n // 2: 2 * (n // 2)]  # duplicates
        assert _median(values) == float(np.median(values)), n
    assert math.isnan(_median([1.0, math.nan, 2.0]))


def _scalar_ridge_weight(s, c, n, target):
    """One target's ridge weight by its own bisection: the lockstep form
    must match it bit for bit."""
    import numpy as np

    s = np.maximum(s, 0.0)

    def norm2(lam):
        return float(((s * c ** 2) / (s + n * lam) ** 2).sum())

    t2 = target * target
    lo = 1e-12
    if norm2(lo) <= t2:
        return lo
    hi = 1.0
    while norm2(hi) > t2 and hi < 1e8:
        hi *= 10.0
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if norm2(mid) > t2:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_lockstep_ridge_weights_keep_the_scalar_bits():
    import numpy as np

    from shapekernel.bench.experiments import _ridge_weights_for_norms

    rng = np.random.default_rng(3)
    # econ's cap grid, with a cap met at the smallest weight and one that
    # stops the growth of the upper bracket at its limit
    caps = [1e-9, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1e6]
    for trial in range(100):
        m = int(rng.integers(2, 250))
        s = rng.lognormal(sigma=3.0, size=m) * (rng.random(m) > 0.1)
        s[0] = -1e-12  # a rounding-negative eigenvalue
        c = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
        got = _ridge_weights_for_norms(s, c, m, caps)
        assert got == [_scalar_ridge_weight(s, c, m, cap) for cap in caps]
