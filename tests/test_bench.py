"""Smoke tests of the benchmark experiments on tiny configs.

Each experiment runs end to end through ``run_experiment`` (the path
``shapekernel run`` takes), and ``shapekernel verify`` re-checks one saved
tightened model against the experiment's constraints on a small grid.
Also checked: the scheme each experiment accepts, that every name the
benchmark tracer (``perfbench/tracer.py``) wraps still exists, that no
module imports a name it never uses but for the tracer, that the
outputs do not depend on how many CPUs run the independent fits, and that
``tools/solve_digest.py`` records each process's peak memory and leaves
it out of its comparison.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

from shapekernel import ConeBlock, ConeProgram, conic, covering, cpus
from shapekernel.bench import cli
from shapekernel.bench.cli import main
from shapekernel.bench.config import (SCHEMES, CoveringConfig,
                                      ExperimentConfig)
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
                              "iterations", "trace"}
        assert entry["iterations"] >= 1
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
    # polish imports scipy.optimize only when its least-squares point
    # leaves the bounds.  BLAS is left unpinned, so no worker is forked and
    # every solve runs in the process that is checked.
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


def test_control_never_evaluates_the_kernel_pair_by_pair(tmp_path,
                                                         monkeypatch):
    # the closed-form blocks carry every control evaluation; a lost
    # override or a wrong eigenbasis test would fall back to one Van Loan
    # exponential per time pair without failing any other test
    from shapekernel import covering
    from shapekernel.kernels import LTIControlKernel

    # widths cached by an earlier run would skip the sampler
    monkeypatch.setattr(covering, "_eta_cache", {})
    calls = []
    scalar = LTIControlKernel.eval_partial

    def counted(self, *args, **kwargs):
        calls.append(args)
        return scalar(self, *args, **kwargs)

    monkeypatch.setattr(LTIControlKernel, "eval_partial", counted)
    _run_tiny("control", tmp_path)
    assert not calls
