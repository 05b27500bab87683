"""Scripted benchmark experiments, data generators, and the CLI."""

from .config import (
    EXPERIMENTS,
    SCHEMES,
    CoveringConfig,
    ExperimentConfig,
    default_config,
)
from .data import (
    Dataset,
    RobotGeometry,
    cobb_douglas_data,
    latin_hypercube,
    load_labour_csv,
    preprocess_econ,
    synth_robot_data,
)
from .experiments import (
    constraints_for,
    records_for,
    run_catenary,
    run_control,
    run_econ,
    run_experiment,
    run_robotarm,
)
from .results import clean_json, emit_results, format_cell, write_csv

__all__ = [
    "EXPERIMENTS",
    "SCHEMES",
    "CoveringConfig",
    "ExperimentConfig",
    "default_config",
    "Dataset",
    "RobotGeometry",
    "cobb_douglas_data",
    "latin_hypercube",
    "load_labour_csv",
    "preprocess_econ",
    "synth_robot_data",
    "constraints_for",
    "records_for",
    "run_catenary",
    "run_control",
    "run_econ",
    "run_experiment",
    "run_robotarm",
    "clean_json",
    "emit_results",
    "format_cell",
    "write_csv",
]
