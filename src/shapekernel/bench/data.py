"""Benchmark datasets: synthetic generators and CSV ingestion.

Two data sources feed the experiments.  The planar-linkage generator
produces pose observations with analytic input partials for the
sign-constrained fits.  The firm-production loader ingests a CSV of
capital/labour/output columns, applies a negative-log output transform
with per-column standardization and an outlier rule, and records every
preprocessing step so the transform stays invertible; a seeded
Cobb–Douglas generator stands in when no file is available.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Dataset:
    """Inputs, outputs, and the preprocessing record that produced them."""

    X: np.ndarray
    Y: np.ndarray
    preprocessing: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.shape[0] != Y.shape[0]:
            raise ValueError(
                f"row mismatch: {X.shape[0]} inputs vs {Y.shape[0]} outputs"
            )
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Y)):
            raise ValueError("dataset contains non-finite entries")
        self.X = X
        self.Y = Y

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def out_dim(self) -> int:
        return self.Y.shape[1]


def latin_hypercube(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n stratified samples of [0,1]^dim: one point per axis bin."""
    if n < 1 or dim < 1:
        raise ValueError("need n >= 1 samples and dim >= 1")
    out = np.empty((n, dim))
    for j in range(dim):
        perm = rng.permutation(n)
        out[:, j] = (perm + rng.random(n)) / n
    return out


# --------------------------------------------------------------------------
# Planar linkage pose data
# --------------------------------------------------------------------------

class RobotGeometry:
    """Pose map of a planar linkage and its analytic input partials.

    Input ``x = [lengths; turns]`` stacks the segment lengths and the
    per-joint turns (full revolutions); the pose is the end-point position
    plus the terminal orientation sine.
    """

    def __init__(self, segments: int):
        if segments < 1:
            raise ValueError("need at least one segment")
        self.segments = int(segments)
        self.dim = 2 * self.segments

    # ---------------------------------------------------------------- pose
    def _angles(self, X: np.ndarray) -> np.ndarray:
        return 2.0 * np.pi * np.cumsum(X[:, self.segments:], axis=1)

    def pose(self, X) -> np.ndarray:
        """End-point position and orientation sine, rows of X -> (n, 3)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} input columns")
        L = X[:, :self.segments]
        ang = self._angles(X)
        return np.column_stack([
            (L * np.cos(ang)).sum(axis=1),
            (L * np.sin(ang)).sum(axis=1),
            np.sin(ang[:, -1]),
        ])

    # ------------------------------------------------------------ partials
    def length_coeffs(self, x) -> np.ndarray:
        """(segments, 2) array of cos/sin factors multiplying each length.

        Entry ``[i, l]`` equals the partial of position component ``l``
        with respect to segment length ``i`` — the sign pattern the
        derivative constraints enforce.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ang = self._angles(x)[0]
        return np.column_stack([np.cos(ang), np.sin(ang)])

    def partials(self, X) -> np.ndarray:
        """(n, dim, 2) true partials of the two position components."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        ns = self.segments
        L = X[:, :ns]
        ang = self._angles(X)
        out = np.zeros((n, self.dim, 2))
        out[:, :ns, 0] = np.cos(ang)
        out[:, :ns, 1] = np.sin(ang)
        # turn k moves every segment at or beyond k: suffix sums.
        ls = L * np.sin(ang)
        lc = L * np.cos(ang)
        suff_s = np.cumsum(ls[:, ::-1], axis=1)[:, ::-1]
        suff_c = np.cumsum(lc[:, ::-1], axis=1)[:, ::-1]
        out[:, ns:, 0] = -2.0 * np.pi * suff_s
        out[:, ns:, 1] = 2.0 * np.pi * suff_c
        return out


def synth_robot_data(segments: int, n: int, noise: float, seed
                     ) -> tuple[Dataset, RobotGeometry]:
    """Noisy pose observations at Latin-hypercube inputs on [0,1]^dim.

    Returns the dataset together with the geometry object that provides the
    reference pose and the coefficient functions the derivative
    constraints need.
    """
    if segments not in (2, 3):
        raise ValueError("segments must be 2 or 3")
    if n < 1:
        raise ValueError("need at least one observation")
    geom = RobotGeometry(segments)
    rng = np.random.default_rng(seed)
    X = latin_hypercube(n, geom.dim, rng)
    Y = geom.pose(X) + rng.normal(0.0, float(noise), size=(n, 3))
    ds = Dataset(X, Y, preprocessing={
        "generator": "planar_linkage",
        "segments": int(segments),
        "noise": float(noise),
        "seed": int(seed) if np.isscalar(seed) else list(np.ravel(seed)),
    })
    return ds, geom


# --------------------------------------------------------------------------
# Firm production data
# --------------------------------------------------------------------------

_OUTLIER_Z = 3.0


def _zscore(col: np.ndarray) -> tuple[np.ndarray, float, float]:
    mean = float(np.mean(col))
    std = float(np.std(col))
    if std <= 0.0:
        raise ValueError("cannot standardize a constant column")
    return (col - mean) / std, mean, std


def preprocess_econ(x_raw: np.ndarray, y_raw: np.ndarray,
                    source: str = "synthetic") -> Dataset:
    """Negative-log output, z-scored columns, |z| > 3 output outliers out.

    The outlier rule runs on the first-pass standardized output; the kept
    rows are then re-standardized so the final columns have exactly zero
    mean and unit variance.  The record stores the final means/stds (the
    invertible transform) plus the dropped row indices.
    """
    x_raw = np.atleast_2d(np.asarray(x_raw, dtype=float))
    y_raw = np.asarray(y_raw, dtype=float).ravel()
    if np.any(y_raw <= 0.0):
        raise ValueError("output column must be positive for the log "
                         "transform")
    g_raw = -np.log(y_raw)

    z_first, _, _ = _zscore(g_raw)
    keep = np.abs(z_first) <= _OUTLIER_Z
    dropped = np.where(~keep)[0]

    X = np.empty((int(keep.sum()), x_raw.shape[1]))
    x_stats = []
    for j in range(x_raw.shape[1]):
        X[:, j], mean, std = _zscore(x_raw[keep, j])
        x_stats.append({"mean": mean, "std": std})
    g, g_mean, g_std = _zscore(g_raw[keep])

    record = {
        "source": source,
        "log_output": True,
        "x_columns": x_stats,
        "y_mean": g_mean,
        "y_std": g_std,
        "outlier_rule": f"|standardized log-output| > {_OUTLIER_Z}",
        "rows_dropped": [int(i) for i in dropped],
        "n_raw": int(y_raw.size),
        "n_kept": int(keep.sum()),
    }
    return Dataset(X, g, preprocessing=record)


def load_labour_csv(path, expected_kept: int = 543) -> Dataset:
    """Load a capital/labour/output CSV and preprocess it.

    Malformed rows (missing or non-numeric fields, non-positive output)
    raise with the offending file line numbers.  The preprocessing record
    carries a ``count_mismatch`` flag when the kept-row count differs from
    ``expected_kept``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        lookup = {name.strip().lower(): name for name in reader.fieldnames}
        try:
            cols = [lookup["capital"], lookup["labour"], lookup["output"]]
        except KeyError as exc:
            raise ValueError(
                f"{path}: missing required column {exc.args[0]!r} "
                "(need capital, labour, output)"
            ) from None
        rows = []
        bad_lines = []
        for row in reader:
            line = reader.line_num
            try:
                vals = [float(row[c]) for c in cols]
            except (TypeError, ValueError, KeyError):
                bad_lines.append(line)
                continue
            if not all(math.isfinite(v) for v in vals) or vals[2] <= 0.0:
                bad_lines.append(line)
                continue
            rows.append(vals)
    if bad_lines:
        shown = ", ".join(str(i) for i in bad_lines[:20])
        more = "" if len(bad_lines) <= 20 else f" (+{len(bad_lines) - 20} more)"
        raise ValueError(f"{path}: malformed rows at lines {shown}{more}")
    if not rows:
        raise ValueError(f"{path}: no data rows")

    arr = np.asarray(rows)
    ds = preprocess_econ(arr[:, :2], arr[:, 2], source=str(path))
    ds.preprocessing["count_mismatch"] = (
        ds.preprocessing["n_kept"] != int(expected_kept)
    )
    ds.preprocessing["expected_kept"] = int(expected_kept)
    return ds


def cobb_douglas_data(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic two-input production data ``y = x1^0.4 * x2^0.5 * noise``.

    The noiseless generator is increasing in both inputs and its negative
    log is jointly convex on the positive orthant, so the preprocessed
    data admits every shape constraint the production fit imposes.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 2.0, size=(int(n), 2))
    y = x[:, 0] ** 0.4 * x[:, 1] ** 0.5 * np.exp(rng.normal(0.0, 0.1, int(n)))
    return x, y
