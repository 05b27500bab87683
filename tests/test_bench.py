"""Smoke tests of the benchmark experiments on tiny configs.

Each experiment runs end to end through ``run_experiment`` (the path
``shapekernel run`` takes), and ``shapekernel verify`` re-checks one saved
tightened model against the experiment's constraints on a small grid.
"""

import json

import pytest

from shapekernel.bench.cli import main
from shapekernel.bench.config import ExperimentConfig
from shapekernel.bench.experiments import run_experiment

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


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny_run(request, tmp_path_factory):
    name = request.param
    overlay, model, grid = TINY[name]
    out = tmp_path_factory.mktemp(name)
    config = out / "config.json"
    config.write_text(json.dumps({"experiment": name, "out_dir": str(out),
                                  **overlay}))
    summary = run_experiment(ExperimentConfig.load(config))
    return name, config, out / f"{model}.json", grid, summary


def test_run_writes_every_artifact(tiny_run):
    name, _, model_path, _, summary = tiny_run
    assert summary["experiment"] == name
    assert "summary.json" in summary["files"]
    assert model_path.name in summary["files"]
    assert model_path.exists()


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
