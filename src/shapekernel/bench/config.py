"""Run configuration for the benchmark experiments.

A single JSON-round-trippable bundle holds everything a runner needs:
experiment name, covering parameters, solver settings, runner
parameters, random seed, and output choices.  Every random draw inside a run derives
from the seed, so a fixed config reproduces all numeric outputs exactly.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields

from ..conic import SolverSettings


EXPERIMENTS = ("catenary", "control", "robotarm", "econ")

#: covering schemes selectable from the command line
SCHEMES = ("ball", "hyp", "soap-ball", "soap-hyp", "disc", "none")

#: the schemes each experiment's runner can run on its own (econ compares
#: fixed regimes and reads no scheme)
EXPERIMENT_SCHEMES = {
    "catenary": SCHEMES,
    "control": ("ball", "disc"),
    "robotarm": ("none", "disc", "ball", "hyp"),
    "econ": (),
}

#: the constraint regimes econ compares
ECON_REGIMES = ("none", "monot", "conv", "both")


@dataclass
class CoveringConfig:
    """Covering construction knobs shared by all experiments.

    ``delta0``/``gamma``/``k_max`` drive the adaptive refinement loop;
    ``n_x``/``n_u`` size the buffer sampling; ``eta_safety`` >= 0 inflates
    sampled buffers by a relative margin (guards against the sampled
    supremum sitting slightly below the true one).
    """

    delta0: float = 0.01
    gamma: float = 0.8
    k_max: int = 30
    n_x: int = 50
    n_u: int = 20
    eta_safety: float = 0.0

    def __post_init__(self):
        for ok, rule in ((self.delta0 > 0, "delta0 must be positive"),
                         (0 < self.gamma < 1, "gamma must lie in (0, 1)"),
                         (self.k_max >= 0, "k_max must be nonnegative"),
                         (self.n_x >= 1, "n_x must be at least 1"),
                         (self.n_u >= 1, "n_u must be at least 1"),
                         (self.eta_safety >= 0,
                          "eta_safety must be nonnegative")):
            if not ok:
                raise ValueError(f"covering {rule}")


#: per-experiment defaults (covering overrides + runner parameters)
_DEFAULTS: dict = {
    "catenary": {
        "covering": {},
        "params": {
            "m_list": [30, 60, 120],
            "objective": "norm",          # "norm" or "norm_squared"
            "reference_points": 10_000,
            "tol_sat": 1e-8,
            "max_elements": 4000,
            "verify_res": 10_000,
        },
    },
    "control": {
        # sampled buffers on a non-translation-invariant kernel: use a
        # dense sample and a safety margin so the guarantee survives the
        # gap between the sampled and true supremum.
        "covering": {"n_x": 400, "eta_safety": 0.05},
        "params": {
            "system_a": [[0.0, 1.0], [0.0, -1.0]],
            "system_b": [0.0, 1.0],
            "m_intervals": 25,
            "wall_centers": 10,
            "wall_lengthscale": 0.15,
            "wall_amplitude": 0.35,
            "wall_clearance": 0.3,
            "verify_res": 10_000,
        },
    },
    "robotarm": {
        "covering": {"n_x": 1000},
        "params": {
            "segments": 2,
            "n_obs": 40,
            "noise": 0.2,
            "m_list": [16, 81],
            "seeds": None,                # None -> [cfg.seed]
            "schemes": ["none", "disc", "ball", "hyp"],
            "coeff_floor": 0.1,
            "ball_shrink": 100.0,         # anchor ball radius = cell/shrink
            "cv": True,
            "cv_folds": 3,
            "cv_sigma_grid": [0.5, 1.0],
            "cv_lambda_grid": [1e-3, 1e-2],
            "metric_grid": 5,
            "cons_samples": 400,
            "covered_samples": 20,
        },
    },
    "econ": {
        "params": {
            "dataset_path": "data/Labour.csv",
            "synthetic_rows": 569,
            "expected_kept": 543,
            "counts": [15, 15],
            "reps": 5,
            "folds": 5,
            "lambda_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
            "train_fraction": 0.1,
            "regimes": list(ECON_REGIMES),
        },
    },
}


@dataclass
class ExperimentConfig:
    """Validated experiment configuration with JSON round-trip.

    ``params`` may name any of the experiment's runner parameters; an
    unknown name raises ``ValueError``, and the config keeps the given
    values over the defaults of the rest, so runners read every key.
    """

    experiment: str
    seed: int = 0
    out_dir: str | None = None
    scheme: str | None = None
    grid_res: int = 1001
    covering: CoveringConfig = field(default_factory=CoveringConfig)
    solver: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {EXPERIMENTS}"
            )
        allowed = EXPERIMENT_SCHEMES[self.experiment]
        if self.scheme is not None and self.scheme not in allowed:
            raise ValueError(
                f"scheme {self.scheme!r} not available for "
                f"{self.experiment!r}; expected one of {allowed}"
            )
        if isinstance(self.covering, dict):
            _check_keys("covering", self.covering,
                        [f.name for f in fields(CoveringConfig)])
            self.covering = CoveringConfig(**self.covering)
        # ``solver`` stays the dict the config file gave; the settings it
        # names are checked and built here, before any run starts
        _check_keys("solver", self.solver,
                    [f.name for f in fields(SolverSettings)])
        self.settings = SolverSettings(**self.solver)
        self.seed = int(self.seed)
        self.grid_res = int(self.grid_res)
        if self.grid_res < 2:
            raise ValueError("grid_res must be at least 2")
        defaults = _DEFAULTS[self.experiment]["params"]
        _check_keys(f"{self.experiment} params", self.params, defaults)
        self.params = {**copy.deepcopy(defaults), **self.params}
        _check_params(self.experiment, self.params)

    # ---------------------------------------------------------- round-trip
    def to_json(self) -> dict:
        data = asdict(self)
        return data

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        return ExperimentConfig(**data)

    @staticmethod
    def load(path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if "experiment" not in data:
            raise ValueError("config file must name an experiment")
        base = default_config(data["experiment"])
        return _merge_config(base, data)


def default_config(experiment: str) -> ExperimentConfig:
    """Fully-populated defaults for one experiment."""
    if experiment not in _DEFAULTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}"
        )
    covering = _DEFAULTS[experiment].get("covering", {})
    return ExperimentConfig(experiment=experiment,
                            covering=CoveringConfig(**covering))


def _check_params(experiment: str, p: dict) -> None:
    """Reject runner params the runner would crash on mid-run, or run to an
    empty or meaningless result.  Catenary needs at least one anchor count,
    each at least 1, and a positive saturation tolerance ``tol_sat``;
    control at least one wall interval; both a ``verify_res`` of at least 2
    grid points.  Robotarm needs at least one segment and at least one
    anchor count, each a perfect ``2 * segments``-th power.  Econ rejects
    an unknown or repeated regime, no regime, no rep, fewer than two
    cross-validation folds and a training fraction outside (0, 1]."""
    if experiment == "catenary":
        m_list = [int(m) for m in p["m_list"]]
        rules = [(m_list and min(m_list) >= 1,
                  f"catenary m_list {m_list} must name at least one anchor "
                  "count, each at least 1"),
                 (float(p["tol_sat"]) > 0, "catenary tol_sat must be "
                  "positive")]
    elif experiment == "control":
        rules = [(int(p["m_intervals"]) >= 1,
                  "control m_intervals must be at least 1")]
    elif experiment == "robotarm":
        if int(p["segments"]) < 1:
            raise ValueError("robotarm segments must be at least 1")
        d = 2 * int(p["segments"])
        m_list = [int(m) for m in p["m_list"]]
        bad = [m for m in m_list if m < 1 or round(m ** (1.0 / d)) ** d != m]
        rules = [(m_list and not bad, f"robotarm m_list {m_list} must name "
                  f"at least one anchor count, each a perfect {d}-th power")]
    else:
        regimes = list(p["regimes"])
        unknown = [r for r in regimes if r not in ECON_REGIMES]
        rules = [
            (not unknown, f"unknown econ regimes {unknown}; expected some "
             f"of {list(ECON_REGIMES)}"),
            (regimes and len(set(regimes)) == len(regimes),
             f"econ regimes {regimes} must name each regime at most once, "
             "and at least one"),
            (int(p["reps"]) >= 1, "econ reps must be at least 1"),
            (int(p["folds"]) >= 2, "econ folds must be at least 2"),
            (0 < float(p["train_fraction"]) <= 1,
             "econ train_fraction must lie in (0, 1]")]
    if experiment in ("catenary", "control"):
        rules.append((int(p["verify_res"]) >= 2, f"{experiment} verify_res "
                      "must be at least 2"))
    for ok, rule in rules:
        if not ok:
            raise ValueError(rule)


def _check_keys(section: str, given: dict, known) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"unknown {section} keys {unknown}; expected some "
                         f"of {sorted(known)}")


def _merge_config(base: ExperimentConfig, data: dict) -> ExperimentConfig:
    """Overlay a JSON dict onto a default config (params merge per key).

    An unknown top-level, ``params`` or ``covering`` key raises
    ``ValueError`` rather than leaving the setting it misspells at its
    default.
    """
    _check_keys("config", data, [f.name for f in fields(ExperimentConfig)])
    merged = base.to_json()
    for key, value in data.items():
        if key == "params" and isinstance(value, dict):
            merged["params"].update(value)
        elif key == "covering" and isinstance(value, dict):
            merged["covering"].update(value)
        else:
            merged[key] = value
    return ExperimentConfig.from_json(merged)
