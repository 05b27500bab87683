"""Benchmark experiment runners.

Four fully scripted studies exercise the whole pipeline end to end:

``catenary``  1-D shape optimization under a floor constraint — compares
              uniform and adaptive coverings, with and without halfspace
              enclosures, against a dense discretized reference.
``control``   minimum-energy trajectory between piecewise-constant walls
              for a second-order linear system — buffered rows keep the
              guarantee where plain discretization crashes through walls.
``robotarm``  vector-valued regression of a planar linkage pose with
              signed-derivative side constraints near grid anchors.
``econ``      production-function regression under monotonicity and
              concavity (after a negative-log transform), with a norm cap
              cross-validated on held-out data.

Each runner returns one :class:`Fit` record, its fits' records joined by
:func:`merge`; :func:`run_experiment` looks the runner up in a fixed table
by experiment name and writes all artifacts, and :func:`constraints_for`
gives the constraints a saved model is re-checked against.  The covering
schemes ``disc``, ``ball`` and ``hyp`` build their rows through one
function, :func:`records_for` (``ball`` and ``hyp`` through the adaptive
scheme's own pair of functions); every solve goes through
:func:`~shapekernel.assemble.solve_problem`.  All randomness derives from
the config seed, so numeric outputs are reproducible bit-for-bit;
wall-clock timings live only in the summary.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..assemble import (
    Equality,
    NormBound,
    NormMin,
    Observation,
    ProblemSpec,
    Ridge,
    compute_bounds,
    relax_records,
    solve_problem,
    solve_reference,
)
from ..atoms import DiffFunctional, SdpOperator
from ..covering import InputBall, cover_box, eta_for, grid_cover
from ..kernels import (
    DecomposableGaussianKernel,
    GaussianKernel,
    LaplacianKernel,
    LTIControlKernel,
)
from ..soap import run_soap, scheme_rows, scheme_widths
from ..tighten import (
    ShapeConstraint,
    discretize,
    tighten_soc,
    verify_pointwise,
)
from .config import ExperimentConfig
from .data import (
    RobotGeometry,
    cobb_douglas_data,
    latin_hypercube,
    load_labour_csv,
    preprocess_econ,
    synth_robot_data,
)
from .results import emit_results
from .tasks import run_tasks

# ``omega_cover`` and ``tighten_omega`` stay bound only because the
# benchmark tracer (perfbench/tracer.py) looks them up here.
from ..covering import omega_cover  # noqa: F401
from ..tighten import tighten_omega  # noqa: F401


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

def _ball_samples(center, radius: float, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n points uniform in the euclidean ball around ``center``."""
    center = np.asarray(center, dtype=float)
    d = center.size
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / d)
    return center[None, :] + radius * v * r[:, None]


# ``np.setdiff1d``, ``np.quantile`` and ``np.median`` call ``np.unique``,
# whose first call imports ``numpy.ma`` (10-20 ms).  The runners take
# training rows from ``np.delete``, and these two keep numpy's bits.

def _quantile(a: np.ndarray, q: float) -> float:
    """``np.quantile(a, q)`` of a 1-D array without NaN, by numpy's linear
    interpolation; partitions ``a`` in place."""
    v = (a.size - 1) * q  # numpy's virtual index
    i = -1 if v >= a.size - 1 else math.floor(v)
    j = -1 if i == -1 else i + 1
    a.partition([i, j])
    lo, hi, t = float(a[i]), float(a[j]), v - i
    return hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t


def _median(values) -> float:
    """``np.median`` of a list of floats."""
    if any(math.isnan(v) for v in values):
        return math.nan
    s = sorted(values)
    k = len(s) // 2
    return float(s[k]) if len(s) % 2 else (s[k - 1] + s[k]) / 2


@dataclass
class Fit:
    """One fit's part of a run, or a run's fits joined by :func:`merge`:
    ``solves``, its labelled solve records
    (:meth:`~shapekernel.conic.Solution.record`); ``timings``, seconds by
    name; ``tables``, ``name: (header, rows)``; ``models``, by file stem;
    and ``summary``, its other summary entries."""

    solves: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    def solved(self, label: str, record: dict) -> None:
        """Add one solve's record under its runner label."""
        self.solves.append({"label": label, **record})


def merge(fits) -> Fit:
    """The fits joined in order: a table several give has their rows, under
    the first header, and a dict summary entry their keys; any other entry,
    timing or model replaces one of its name."""
    run = Fit()
    for fit in fits:
        run.solves += fit.solves
        run.timings.update(fit.timings)
        run.models.update(fit.models)
        for name, (header, rows) in fit.tables.items():
            run.tables.setdefault(name, (header, []))[1].extend(rows)
        for key, value in fit.summary.items():
            if isinstance(value, dict):
                value = {**run.summary.get(key, {}), **value}
            run.summary[key] = value
    return run


def records_for(scheme: str, c: ShapeConstraint, balls: list, kernel, cov,
                seed, constraint_index: int = 0) -> list:
    """Rows of one constraint over a ball covering, by covering scheme.

    ``disc`` enforces the constraint at the ball centers only (a
    relaxation); ``ball`` and ``hyp`` rows come from the balls'
    :func:`~shapekernel.soap.scheme_widths`, as in the adaptive scheme.
    ``cov`` supplies the sampling sizes and the safety margin, ``seed`` the
    sampling seed.
    """
    if scheme == "disc":
        return discretize(c, [b.center for b in balls],
                          constraint_index=constraint_index)
    widths = scheme_widths(scheme, kernel, c, balls, cov.n_x, cov.n_u, seed,
                           cov.eta_safety)
    return scheme_rows(scheme, c, balls, widths, constraint_index)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the named experiment and write its artifacts.  The summary
    holds the runner's entries, its timings with ``total_s``, its solves,
    its ``warnings`` and one per solve not ``optimal``, the name and
    config, and the written ``files`` and ``out_dir``."""
    t0 = time.perf_counter()
    run = _RUNNERS[cfg.experiment](cfg)
    summary = {
        **run.summary,
        "timings": {**run.timings, "total_s": time.perf_counter() - t0},
        "solves": run.solves,
        "warnings": run.summary.get("warnings", []) + [
            f"{s['label']}: solver status {s['status']!r} "
            f"(stop reason {s['stop_reason']!r})"
            for s in run.solves if s["status"] != "optimal"],
        "experiment": cfg.experiment, "config": cfg.to_json(),
    }
    out_dir = cfg.out_dir or os.path.join("results", cfg.experiment)
    written = emit_results(summary, run.tables, out_dir, run.models)
    summary["files"] = sorted(os.path.basename(p) for p in written)
    summary["out_dir"] = str(out_dir)
    return summary


def constraints_for(cfg: ExperimentConfig) -> list:
    """(label, constraint) pairs for re-checking a saved model."""
    return _CONSTRAINT_BUILDERS[cfg.experiment](cfg)


# --------------------------------------------------------------------------
# Catenary: 1-D floor-constrained shape optimization
# --------------------------------------------------------------------------

_CAT_RATE = 5.0
_CAT_REGION = ((0.2, 0.8),)
_CAT_FLOOR = 0.5
_CAT_SAMPLES = ((0.0, 0.0), (0.5, 1.5), (1.0, 0.0))


def _catenary_constraint() -> ShapeConstraint:
    return ShapeConstraint(
        region=_CAT_REGION,
        operator=SdpOperator.scalar(DiffFunctional.value(1)),
        offset=(_CAT_FLOOR,),
    )


def _catenary_spec(objective: str = "norm",
                   constrained: bool = True) -> ProblemSpec:
    val = DiffFunctional.value(1)
    if objective == "norm":
        reg = NormMin()
    elif objective == "norm_squared":
        reg = Ridge(1.0)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return ProblemSpec(
        kernel=LaplacianKernel(_CAT_RATE, dim=1),
        loss="none",
        equalities=[Equality(val, (x,), y) for x, y in _CAT_SAMPLES],
        regularizer=reg,
        constraints=[_catenary_constraint()] if constrained else [],
    )


def run_catenary(cfg: ExperimentConfig) -> Fit:
    p = cfg.params
    cov = cfg.covering
    settings = cfg.settings
    objective = p["objective"]
    mu_f = 2.0 if objective == "norm_squared" else None
    m_list = [int(m) for m in p["m_list"]]
    schemes = [cfg.scheme] if cfg.scheme else \
        ["ball", "hyp", "soap-ball", "soap-hyp"]
    verify_res = int(p["verify_res"])

    spec = _catenary_spec(objective)
    c = spec.constraints[0]

    t0 = time.perf_counter()
    _, v_ref, ref_active, ref_solves = solve_reference(
        spec, c, int(p["reference_points"]), settings=settings)
    reference = Fit(
        timings={"reference_s": time.perf_counter() - t0},
        summary={"objective": objective,
                 "reference": {"value": v_ref, "grid_points":
                               int(p["reference_points"]),
                               "active_points": ref_active}})
    for k, record in enumerate(ref_solves):
        reference.solved(f"reference round {k}", record)

    grid = np.linspace(0.0, 1.0, cfg.grid_res).reshape(-1, 1)

    def run_scheme(scheme):
        """One covering scheme's fit: its solves, its rows of the
        convergence and timing tables, its own tables, model and summary,
        and its time."""
        conv_rows, timing_rows = [], []
        # the summary's timing table goes through the tables until the merge
        fit = Fit(tables={
            "convergence": (["scheme", "step", "elements", "v_app", "v_relax",
                             "gap", "err_vs_ref", "max_eta"], conv_rows),
            "timing": (["scheme", "elements", "err_vs_ref", "seconds"],
                       timing_rows)})
        t0 = time.perf_counter()
        if scheme in ("ball", "hyp", "disc"):
            (lo, hi), = c.region
            for m in m_list:
                ts = time.perf_counter()
                cover = cover_box(c.region, (hi - lo) / (2.0 * m), norm="max")
                records = records_for(scheme, c, cover, spec.kernel, cov,
                                      cfg.seed)
                model, sol = solve_problem(spec, records,
                                           settings=settings)[:2]
                fit.solved(f"{scheme} m={m}", sol.record())
                v_app = sol.objective
                v_relax = None
                if scheme != "disc":
                    # the relaxation: the same anchors without buffers
                    relaxed = discretize(c, [b.center for b in cover])
                    rsol = solve_problem(spec, relaxed, settings=settings)[1]
                    fit.solved(f"{scheme} m={m} relaxation", rsol.record())
                    v_relax = rsol.objective
                max_eta = max((r.width for r in records), default=0.0)
                gap = None if v_relax is None else v_app - v_relax
                conv_rows.append([scheme, m, m, v_app, v_relax, gap,
                                  v_app - v_ref, max_eta])
                timing_rows.append([scheme, m, v_app - v_ref,
                                    time.perf_counter() - ts])
            elements = m_list[-1]
            extra = {"iterations": sol.iterations, "status": sol.status}
        elif scheme in ("soap-ball", "soap-hyp"):
            model, state = run_soap(
                spec, mode=scheme[len("soap-"):], gamma=cov.gamma,
                k_max=cov.k_max, delta0=cov.delta0,
                tol_sat=float(p["tol_sat"]), settings=settings,
                n_x=cov.n_x, n_u=cov.n_u, seed=cfg.seed,
                safety=cov.eta_safety,
                max_elements=int(p["max_elements"]))
            hist_rows = []
            for row in state.history:
                fit.solved(f"{scheme} round {row['k']}", row["solve"])
                conv_rows.append([scheme, row["k"], row["M_total"], row["v"],
                                  None, None, row["v"] - v_ref,
                                  row["maxEta"]])
                hist_rows.append([row["k"], row["M_total"], row["v"],
                                  row["bursts"], row["maxEta"]])
                timing_rows.append([scheme, row["M_total"],
                                    row["v"] - v_ref, row["wallTime"]])
            fit.tables[f"history_{scheme}"] = (
                ["k", "M_total", "v", "bursts", "max_eta"], hist_rows)
            v_app = state.history[-1]["v"]
            # relaxation at the final anchors
            balls = state.coverings[0]
            records = discretize(c, [b.center for b in balls])
            rsol = solve_problem(spec, records, settings=settings)[1]
            fit.solved(f"{scheme} relaxation", rsol.record())
            v_relax = rsol.objective
            records = scheme_rows(state.mode, c, balls, state.widths[0])
            elements = state.total_elements()
            extra = {"iterations": state.iteration,
                     "stop": state.stopped_reason}
        elif scheme == "none":
            spec_free = _catenary_spec(objective, constrained=False)
            model, sol = solve_problem(spec_free, [], settings=settings)[:2]
            fit.solved(scheme, sol.record())
            v_app, v_relax, records, elements = sol.objective, None, [], 0
            extra = {"iterations": sol.iterations, "status": sol.status}
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        fit.timings[f"{scheme}_s"] = time.perf_counter() - t0

        check = verify_pointwise(model, c, grid_res=verify_res)
        report = compute_bounds(spec, records, v_app, v_relax=v_relax,
                                mu_f=mu_f)
        fit.summary["schemes"] = {scheme: {
            "v_app": v_app,
            "v_relax": v_relax,
            "gap": None if v_relax is None else v_app - v_relax,
            "err_vs_ref": v_app - v_ref,
            "elements": elements,
            "max_violation": check["maxViolation"],
            "norm": model.norm,
            "bound_report": report.to_json(),
            **extra,
        }}
        fit.tables[f"solution_{scheme}"] = (
            ["x", "f"],
            [[float(x), float(v)] for x, v in
             zip(grid[:, 0], model.eval_component_many(grid, 0))],
        )
        fit.models[f"model_{scheme}"] = model
        return fit

    run = merge([reference, *run_tasks(run_scheme, [(s,) for s in schemes])])
    columns, rows = run.tables.pop("timing")
    run.summary["timing_table"] = {"columns": columns, "rows": rows}
    return run


def _catenary_verify_constraints(cfg: ExperimentConfig) -> list:
    return [("floor", _catenary_constraint())]


# --------------------------------------------------------------------------
# Control: wall-bounded minimum-energy trajectory
# --------------------------------------------------------------------------

def _wall_generator(p: dict, seed):
    """Seeded smooth random profile, pinned to zero at t = 0."""
    rng = np.random.default_rng([int(seed), 17])
    n = int(p["wall_centers"])
    centers = rng.uniform(0.0, 1.0, n)
    weights = rng.normal(0.0, float(p["wall_amplitude"]), n)
    ls = float(p["wall_lengthscale"])

    def profile(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (weights * np.exp(
            -(t[:, None] - centers[None, :]) ** 2 / (2.0 * ls * ls)
        )).sum(axis=1)

    shift = profile(np.zeros(1))[0]
    return lambda t: profile(t) - shift


def _control_walls(p: dict, seed):
    """Piecewise-constant wall levels hugging the random profile."""
    m = int(p["m_intervals"])
    clear = float(p["wall_clearance"])
    gen = _wall_generator(p, seed)
    delta = 0.5 / m
    walls = []
    for i in range(m):
        t_lo, t_hi = 2 * i * delta, 2 * (i + 1) * delta
        local = gen(np.linspace(t_lo, t_hi, 65))
        walls.append({
            "center": (i * 2 + 1) * delta,
            "delta": delta,
            "t_lo": t_lo,
            "t_hi": t_hi,
            "low": float(local.min() - clear),
            "up": float(local.max() + clear),
        })
    return walls, gen


def _control_constraints(p: dict, seed):
    """Two value constraints (floor and ceiling) per wall interval."""
    walls, gen = _control_walls(p, seed)
    floor_op = SdpOperator.scalar(DiffFunctional.value(1, q=0))
    ceil_op = SdpOperator.scalar(DiffFunctional.value(1, q=0, beta=-1.0))
    cons = []
    for w in walls:
        region = ((w["t_lo"], w["t_hi"]),)
        cons.append(ShapeConstraint(region, floor_op, (w["low"],)))
        cons.append(ShapeConstraint(region, ceil_op, (-w["up"],)))
    return cons, walls, gen


def run_control(cfg: ExperimentConfig) -> Fit:
    p = cfg.params
    cov = cfg.covering
    settings = cfg.settings
    kernel = LTIControlKernel(p["system_a"], p["system_b"])
    cons, walls, gen = _control_constraints(p, cfg.seed)
    spec = ProblemSpec(kernel=kernel, loss="none", regularizer=Ridge(1.0),
                       constraints=cons)
    schemes = [cfg.scheme] if cfg.scheme else ["ball", "disc"]
    verify_res = int(p["verify_res"])

    # one anchor ball per wall; the walls table reports the widths, and the
    # ``ball`` records below find them in the buffer cache (same arguments)
    balls = [InputBall((w["center"],), w["delta"], "max") for w in walls]
    t0 = time.perf_counter()
    etas = [eta_for(kernel, c.operator, balls[i // 2].center,
                    balls[i // 2].radius, norm="max", n_x=cov.n_x,
                    n_u=cov.n_u, seed=cfg.seed, safety=cov.eta_safety)
            for i, c in enumerate(cons)]
    buffers_s = time.perf_counter() - t0

    low_arr = np.array([w["low"] for w in walls])
    up_arr = np.array([w["up"] for w in walls])
    width = 2.0 * walls[0]["delta"]

    def wall_index(t):
        return np.minimum((t / width).astype(int), len(walls) - 1)

    def violations(model, n_grid):
        t = np.linspace(0.0, 1.0, n_grid)
        z = model.eval_component_many(t.reshape(-1, 1), 0)
        idx = wall_index(t)
        viol = np.maximum(np.maximum(low_arr[idx] - z, z - up_arr[idx]), 0.0)
        return float(viol.max()), int((viol > 1e-9).sum())

    def fit(scheme):
        """One scheme's fit, in this process: its solve, its time, model
        and summary."""
        records = []
        for i, c in enumerate(cons):
            records.extend(records_for(scheme, c, [balls[i // 2]], kernel,
                                       cov, cfg.seed, constraint_index=i))
        t0 = time.perf_counter()
        model, sol = solve_problem(spec, records, settings=settings)[:2]
        out = Fit(timings={f"{scheme}_s": time.perf_counter() - t0},
                  models={f"model_{scheme}": model})
        out.solved(scheme, sol.record())
        max_violation, n_violated = violations(model, verify_res)
        out.summary["schemes"] = {scheme: {
            "v_app": sol.objective,
            "norm": model.norm,
            "max_violation": max_violation,
            "violated_points": n_violated,
            "iterations": sol.iterations,
            "status": sol.status,
            "min_buffer": float(min(etas) * model.norm),
        }}
        return out

    run = merge([Fit(timings={"buffers_s": buffers_s}),
                 *(fit(scheme) for scheme in schemes)])

    t_grid = np.linspace(0.0, 1.0, cfg.grid_res)
    idx = wall_index(t_grid)
    traj_header = ["t", "generator", "wall_low", "wall_up"]
    traj_cols = [t_grid, gen(t_grid), low_arr[idx], up_arr[idx]]
    for scheme in schemes:
        traj_header += [f"z_{scheme}", f"zdot_{scheme}"]
        traj_cols += [run.models[f"model_{scheme}"].eval_component_many(
            t_grid.reshape(-1, 1), q) for q in (0, 1)]
    run.tables = {
        "trajectory": (traj_header,
                       [list(row) for row in zip(*traj_cols)]),
        "walls": (
            ["m", "t_center", "delta", "z_low", "z_up", "eta_low", "eta_up"],
            [[i, w["center"], w["delta"], w["low"], w["up"],
              etas[2 * i], etas[2 * i + 1]]
             for i, w in enumerate(walls)],
        ),
    }
    run.summary.update(n_intervals=len(walls), n_constraints=len(cons),
                       max_eta=float(max(etas)))
    return run


def _control_verify_constraints(cfg: ExperimentConfig) -> list:
    cons, walls, _ = _control_constraints(cfg.params, cfg.seed)
    out = []
    for i, c in enumerate(cons):
        side = "floor" if i % 2 == 0 else "ceiling"
        out.append((f"{side}_{i // 2}", c))
    return out


# --------------------------------------------------------------------------
# Robot arm: signed-derivative constraints near grid anchors
# --------------------------------------------------------------------------

def _robot_anchors(geom: RobotGeometry, m_per_axis: int, p: dict):
    """Kept anchor constraints: one per (anchor, length axis, component)."""
    d = geom.dim
    cells = grid_cover([(0.0, 1.0)] * d, m_per_axis, norm="max")
    delta = (1.0 / m_per_axis) / float(p["ball_shrink"])
    floor = float(p["coeff_floor"])
    kept = []
    n_candidates = 0
    for cell in cells:
        coeffs = geom.length_coeffs(cell.center)
        for i in range(geom.segments):
            for l in (0, 1):
                n_candidates += 1
                cval = float(coeffs[i, l])
                if abs(cval) < floor:
                    continue
                sign = 1.0 if cval > 0 else -1.0
                func = DiffFunctional.partial(d, axis=i, order=1, q=l,
                                              beta=sign)
                region = tuple(
                    (max(0.0, x - delta), min(1.0, x + delta))
                    for x in cell.center
                )
                kept.append({
                    "constraint": ShapeConstraint(
                        region, SdpOperator.scalar(func), (0.0,)),
                    "ball": InputBall(cell.center, delta, "euclidean"),
                    "axis": i,
                    "component": l,
                })
    return kept, n_candidates


def _robot_cv(X, Y, output_cov, p: dict, seed):
    """Small-grid k-fold search for the kernel width and ridge weight."""
    folds = int(p["cv_folds"])
    sig_grid = [float(s) for s in p["cv_sigma_grid"]]
    lam_grid = [float(v) for v in p["cv_lambda_grid"]]
    if not p["cv"]:
        return sig_grid[0], lam_grid[0]
    w, U = np.linalg.eigh(np.asarray(output_cov, dtype=float))
    w = np.maximum(w, 0.0)
    Yt = np.asarray(Y) @ U
    n = X.shape[0]
    rng = np.random.default_rng([int(seed), 101])
    splits = np.array_split(rng.permutation(n), folds)
    best = None
    zero = (0,) * X.shape[1]
    for sig in sig_grid:
        K = GaussianKernel([sig] * X.shape[1]).partial_block(
            zero, zero, 0, 0, X, X)
        for lam in lam_grid:
            err = 0.0
            for f in range(folds):
                val = splits[f]
                tr = np.delete(np.arange(n), val)
                for q in range(Yt.shape[1]):
                    A = w[q] * K[np.ix_(tr, tr)] \
                        + len(tr) * lam * np.eye(len(tr))
                    a = np.linalg.solve(A, Yt[tr, q])
                    pred = w[q] * K[np.ix_(val, tr)] @ a
                    err += float(((pred - Yt[val, q]) ** 2).sum())
            if best is None or err < best[0]:
                best = (err, sig, lam)
    return best[1], best[2]


def _robot_metrics(model, geom: RobotGeometry, kept, p: dict, seed):
    d = geom.dim
    g = int(p["metric_grid"])
    axes = [np.linspace(0.0, 1.0, g)] * d
    Z = np.array(list(itertools.product(*axes)))
    F = geom.pose(Z)
    Fh = np.column_stack([model.eval_component_many(Z, q) for q in range(3)])
    l2_err = float(((F - Fh) ** 2).sum(axis=1).mean())

    rng = np.random.default_rng([int(seed), 202])
    Zc = latin_hypercube(int(p["cons_samples"]), d, rng)
    C = geom.partials(Zc)
    total = 0.0
    for i in range(d):
        for l in (0, 1):
            df = model.apply(DiffFunctional.partial(d, axis=i, q=l), Zc)
            total += float(np.maximum(0.0, -(C[:, i, l] * df)).sum())
    l1_cons = total / Zc.shape[0]

    rng = np.random.default_rng([int(seed), 303])
    n_ball = int(p["covered_samples"])
    worst = 0.0
    covered_total = 0.0
    covered_n = 0
    for item in kept:
        pts = _ball_samples(item["ball"].center, item["ball"].radius,
                            n_ball, rng)
        df = model.apply(
            DiffFunctional.partial(d, axis=item["axis"], q=item["component"]),
            pts)
        coeffs = geom.partials(pts)[:, item["axis"], item["component"]]
        v = np.maximum(0.0, -(coeffs * df))
        worst = max(worst, float(v.max()))
        covered_total += float(v.sum())
        covered_n += pts.shape[0]
    l1_covered = covered_total / max(covered_n, 1)
    return l2_err, l1_cons, l1_covered, worst


def run_robotarm(cfg: ExperimentConfig) -> Fit:
    p = cfg.params
    cov = cfg.covering
    settings = cfg.settings
    segments = int(p["segments"])
    n_obs = int(p["n_obs"])
    noise = float(p["noise"])
    seeds = p.get("seeds") or [cfg.seed]
    seeds = [int(s) for s in seeds]
    m_list = [int(m) for m in p["m_list"]]
    schemes = [cfg.scheme] if cfg.scheme else list(p["schemes"])
    d = 2 * segments

    per_seed: dict = {}
    t_all = time.perf_counter()
    contexts = []  # per seed: seed, geometry, kernel, observations, ridge
    anchors: dict = {}  # (seed index, anchor count) -> kept, candidates
    for k, seed in enumerate(seeds):
        data, geom = synth_robot_data(segments, n_obs, noise, seed)
        rng_cov = np.random.default_rng([seed, 1])
        ref_samples = latin_hypercube(1000, d, rng_cov)
        output_cov = np.cov(geom.pose(ref_samples).T)
        sigma, lam = _robot_cv(data.X, data.Y, output_cov, p, seed)
        kernel = DecomposableGaussianKernel([sigma] * d, output_cov)
        obs = [
            Observation(DiffFunctional.value(d, q=q), tuple(x), y[q])
            for x, y in zip(data.X, data.Y) for q in range(3)
        ]
        per_seed.setdefault(str(seed), {"sigma": sigma, "lambda": lam})
        contexts.append((seed, geom, kernel, obs, lam))
        for m_per_axis_pow in m_list:  # perfect d-th powers (config.py)
            m_axis = round(m_per_axis_pow ** (1.0 / d))
            anchors[k, m_per_axis_pow] = _robot_anchors(geom, m_axis, p)

    header = ["seed", "anchors", "scheme", "candidates", "kept", "l2_err",
              "l1_cons", "l1_cons_covered", "l1_cons_covered_max", "norm",
              "iterations"]

    def fit(k, m, scheme):
        """One scheme at one seed and anchor count: its solve, its time,
        its ``results`` row, and its model if it is saved (the last seed's
        at the last anchor count)."""
        seed, geom, kernel, obs, lam = contexts[k]
        kept, n_candidates = anchors[k, m]
        spec = ProblemSpec(
            kernel=kernel, observations=obs, loss="squared",
            regularizer=Ridge(lam),
            constraints=[] if scheme == "none"
            else [item["constraint"] for item in kept])
        records = []
        if scheme != "none":
            for j, item in enumerate(kept):
                records.extend(records_for(
                    scheme, item["constraint"], [item["ball"]],
                    kernel, cov, cfg.seed, constraint_index=j))
        t0 = time.perf_counter()
        model, sol = solve_problem(spec, records, settings=settings)[:2]
        out = Fit(timings={f"seed{seed}_m{m}_{scheme}_s":
                           time.perf_counter() - t0})
        out.solved(f"seed {seed} m={m} {scheme}", sol.record())
        out.tables["results"] = (header, [[
            seed, m, scheme, n_candidates, len(kept),
            *_robot_metrics(model, geom, kept, p, seed), model.norm,
            sol.iterations]])
        if k == len(seeds) - 1 and m == m_list[-1]:
            out.models[f"model_{scheme}"] = model
        return out

    fits = [(k, m, scheme) for k in range(len(seeds)) for m in m_list
            for scheme in schemes]
    run = merge([Fit(tables={"results": (header, [])}),
                 *run_tasks(fit, fits)])
    rows = run.tables["results"][1]
    medians: dict = {}
    for m in m_list:
        for scheme in schemes:
            sel = [r for r in rows if r[1] == m and r[2] == scheme]
            if not sel:
                continue
            medians[f"m{m}_{scheme}"] = {
                "l2_err": _median([r[5] for r in sel]),
                "l1_cons": _median([r[6] for r in sel]),
                "l1_cons_covered": _median([r[7] for r in sel]),
                "l1_cons_covered_max": float(max(r[8] for r in sel)),
                "kept": int(sel[0][4]),
                "candidates": int(sel[0][3]),
            }
    orderings = {}
    for m in m_list:
        have = {s: medians.get(f"m{m}_{s}", {}).get("l1_cons")
                for s in ("ball", "disc", "none")}
        if all(v is not None for v in have.values()):
            orderings[f"m{m}"] = bool(
                have["ball"] <= have["disc"] <= have["none"])
    run.timings["all_seeds_s"] = time.perf_counter() - t_all
    run.summary.update(
        dimension=d, seeds=seeds, hyperparams=per_seed, medians=medians,
        l1_ordering_ball_le_disc_le_none=orderings,
        constraint_cap={str(m): int(d * m) for m in m_list})
    return run


def _robot_verify_constraints(cfg: ExperimentConfig) -> list:
    p = cfg.params
    geom = RobotGeometry(int(p["segments"]))
    # the runner saves the models of the last anchor count
    m = int(p["m_list"][-1])
    m_axis = round(m ** (1.0 / geom.dim))
    kept, _ = _robot_anchors(geom, m_axis, p)
    return [
        (f"anchor{j}_axis{item['axis']}_q{item['component']}",
         item["constraint"])
        for j, item in enumerate(kept)
    ]


# --------------------------------------------------------------------------
# Econ: shape-constrained production-function regression
# --------------------------------------------------------------------------

def _econ_dataset(cfg: ExperimentConfig):
    p = cfg.params
    path = p["dataset_path"]
    if path and os.path.exists(path):
        return load_labour_csv(
            path, expected_kept=int(p["expected_kept"])), False
    x_raw, y_raw = cobb_douglas_data(int(p["synthetic_rows"]),
                                     [cfg.seed, 11])
    ds = preprocess_econ(x_raw, y_raw)
    ds.preprocessing["count_mismatch"] = (
        ds.preprocessing["n_kept"] != int(p["expected_kept"]))
    return ds, True


def _econ_bandwidth(X: np.ndarray) -> float:
    """The 0.8 quantile of the distances between the rows of ``X``, from
    the upper triangle's in chunks of 2^14 pairs (no n x n array), each
    summed axis by axis, in order, as numpy sums fewer than eight terms."""
    n = X.shape[0]
    d2 = np.empty(n * (n - 1) // 2)
    k = 0
    step = max((1 << 14) // n, 1)
    for a in range(0, n - 1, step):
        b = min(a + step, n - 1)
        block = sum((X[a:b, None, i] - X[None, a + 1:, i]) ** 2
                    for i in range(X.shape[1]))
        upper = block[np.arange(a, b)[:, None] < np.arange(a + 1, n)]
        d2[k:k + upper.size] = upper
        k += upper.size
    return math.sqrt(_quantile(d2, 0.8))


def _econ_constraints(box) -> dict:
    monot = [
        ShapeConstraint(
            box,
            SdpOperator.scalar(
                DiffFunctional.partial(2, axis=i, order=1, beta=-1.0)),
            (0.0,))
        for i in (0, 1)
    ]
    d11 = DiffFunctional.mixed(2, (0, 0))
    d12 = DiffFunctional.mixed(2, (0, 1))
    d22 = DiffFunctional.mixed(2, (1, 1))
    convex = ShapeConstraint(
        box, SdpOperator(((d11, d12), (d12, d22))), (0.0, 0.0))
    return {
        "none": [],
        "monot": monot,
        "conv": [convex],
        "both": monot + [convex],
    }


def _ridge_weights_for_norms(s: np.ndarray, c: np.ndarray, n: int,
                             targets) -> list:
    """Ridge weights at which the fitted norm equals each target: one
    bisection per target, all in lockstep.  Each target's squared norm is
    the sum of its own row, the reduction a bisection of its own would
    take, so each weight keeps its bits."""
    s = np.maximum(s, 0.0)
    sc2 = s * c ** 2
    t2 = np.asarray(targets, dtype=float) ** 2

    def above(lam):  # whether the norm at each weight exceeds its target
        return (sc2 / (s + n * lam[:, None]) ** 2).sum(axis=1) > t2

    lo = np.full(t2.size, 1e-12)
    met = ~above(lo)  # already at the smallest weight
    hi = np.ones(t2.size)
    while (grow := above(hi) & (hi < 1e8)).any():
        hi[grow] *= 10.0
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        up = above(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return np.where(met, 1e-12, np.sqrt(lo * hi)).tolist()


def _cv_norm_cap(X, y, kernel, folds: int, grid, rng) -> float:
    """k-fold search for the norm cap, scored along the ridge path."""
    n = X.shape[0]
    splits = np.array_split(rng.permutation(n), folds)
    zero = (0,) * X.shape[1]
    K = kernel.partial_block(zero, zero, 0, 0, X, X)
    scores = np.zeros(len(grid))
    for f in range(folds):
        val = splits[f]
        tr = np.delete(np.arange(n), val)
        s, U = np.linalg.eigh(K[np.ix_(tr, tr)])
        s = np.maximum(s, 0.0)
        c = U.T @ y[tr]
        Kvt = K[np.ix_(val, tr)]
        lams = _ridge_weights_for_norms(s, c, len(tr), grid)
        for gi, lam in enumerate(lams):
            a = U @ (c / (s + len(tr) * lam))
            scores[gi] += float(((Kvt @ a - y[val]) ** 2).sum())
    return float(grid[int(np.argmin(scores))])


def run_econ(cfg: ExperimentConfig) -> Fit:
    p = cfg.params
    cov = cfg.covering
    settings = cfg.settings
    ds, fallback = _econ_dataset(cfg)
    X, g = ds.X, ds.Y[:, 0]
    n = X.shape[0]
    sigma = _econ_bandwidth(X)
    kernel = GaussianKernel([sigma, sigma])
    box = ((float(X[:, 0].min()), 2.0), (float(X[:, 1].min()), 2.0))
    counts = [int(v) for v in p["counts"]]
    anchors = grid_cover(box, counts, norm="max")
    regimes = _econ_constraints(box)
    regime_names = list(p["regimes"])

    # translation-invariant kernel: one buffer per constraint operator
    t0 = time.perf_counter()
    radius = anchors[0].radius

    @functools.cache  # so ``both`` reuses ``monot``'s two record sets
    def buffered(j, c):
        eta = eta_for(kernel, c.operator, (0.0, 0.0), radius,
                      norm="max", n_x=cov.n_x, n_u=cov.n_u,
                      seed=cfg.seed, safety=cov.eta_safety)
        return tighten_soc(c, anchors, [eta] * len(anchors),
                           constraint_index=j)

    records_map = {name: [r for j, c in enumerate(regimes[name])
                          for r in buffered(j, c)]
                   for name in regime_names}
    buffers_s = time.perf_counter() - t0

    reps = int(p["reps"])
    folds = int(p["folds"])
    grid = [float(v) for v in p["lambda_grid"]]
    frac = float(p["train_fraction"])

    t_all = time.perf_counter()
    splits = []  # per rep: training rows, test rows, cross-validated cap
    for rep in range(reps):
        rng = np.random.default_rng([cfg.seed, 500 + rep])
        perm = rng.permutation(n)
        n_val = n // 2
        val_idx, test_idx = perm[:n_val], perm[n_val:]
        n_train = max(2, int(round(frac * n_val)))
        cap = _cv_norm_cap(X[val_idx], g[val_idx], kernel, folds, grid,
                           np.random.default_rng([cfg.seed, 900 + rep]))
        splits.append((val_idx[:n_train], test_idx, cap))

    def spec_for(rep, regime):
        train_idx, _, cap = splits[rep]
        obs = [Observation(DiffFunctional.value(2), tuple(X[i]), g[i])
               for i in train_idx]
        return ProblemSpec(kernel=kernel, observations=obs, loss="squared",
                           regularizer=NormBound(cap),
                           constraints=regimes[regime])

    last = reps - 1
    header = ["rep", "regime", "norm_cap", "mse_train", "mse_test", "norm",
              "iterations"]

    def fit(rep, regime):
        """One regime on one rep's split: its solve, its time, its ``mse``
        row, and its model if it is saved (the last rep's)."""
        train_idx, test_idx, cap = splits[rep]
        t0 = time.perf_counter()
        model, sol = solve_problem(spec_for(rep, regime), records_map[regime],
                                   settings=settings)[:2]
        out = Fit(timings={f"rep{rep}_{regime}_s": time.perf_counter() - t0})
        out.solved(f"rep {rep} {regime}", sol.record())
        mse = [float(((model.eval_component_many(X[idx], 0) - g[idx]) ** 2)
                     .mean()) for idx in (train_idx, test_idx)]
        out.tables["mse"] = (header, [[rep, regime, cap, *mse, model.norm,
                                       sol.iterations]])
        if rep == last:
            out.models[f"model_{regime}"] = model
        return out

    def relax(rep, regime):
        """The relaxed program's fit: no buffers, same anchors."""
        out = Fit()
        out.solved(f"rep {rep} {regime} relaxation", solve_problem(
            spec_for(rep, regime), relax_records(records_map[regime]),
            settings=settings)[1].record())
        return out

    # the relaxation goes first, so the calling process runs it: at 28-31
    # iterations it is the longest solve of the benchmark's config (the
    # default config's failing ``conv`` fits take longer).  Memory does not
    # set the order: on the pivot basis the relaxation's program and
    # ``both``'s have one shape (n 85-88), and the caller peaks at 48 MB
    # with the relaxation, the worker at 38 MB (econ seeds 0-2)
    fits = [(fit, rep, regime) for rep in range(reps)
            for regime in regime_names]
    relaxed = [(relax, last, "both")] if "both" in regime_names else []
    results = run_tasks(lambda task, *args: task(*args), relaxed + fits)
    fitted = results[len(relaxed):]
    bound_json = None
    if relaxed:  # its record follows the fit it relaxes
        i = fits.index((fit, last, "both")) + 1
        fitted.insert(i, results[0])
        v_app, v_relax = (r.solves[0]["objective"]
                          for r in fitted[i - 1:i + 1])
        bound_json = compute_bounds(
            spec_for(last, "both"), records_map["both"], v_app,
            v_relax=v_relax).to_json()
    run = merge([Fit(timings={"buffers_s": buffers_s}), *fitted])
    run.timings["all_reps_s"] = time.perf_counter() - t_all

    rows = run.tables["mse"][1]
    medians = {}
    for regime in regime_names:
        sel = [r for r in rows if r[1] == regime]
        medians[regime] = {
            "mse_train": _median([r[3] for r in sel]),
            "mse_test": _median([r[4] for r in sel]),
        }
    ordered = None
    if "both" in medians and "none" in medians:
        ordered = bool(medians["both"]["mse_test"]
                       <= medians["none"]["mse_test"])
    run.summary.update(
        dataset=ds.preprocessing, fallback_dataset=fallback,
        count_mismatch=bool(ds.preprocessing.get("count_mismatch", False)),
        bandwidth=sigma, constraint_box=[list(b) for b in box],
        n_anchors=len(anchors), medians=medians,
        test_mse_both_le_none=ordered, bound_report=bound_json,
        warnings=["dataset file missing: synthetic fallback in use"]
        if fallback else [])
    return run


def _econ_verify_constraints(cfg: ExperimentConfig) -> list:
    ds, _ = _econ_dataset(cfg)
    X = ds.X
    box = ((float(X[:, 0].min()), 2.0), (float(X[:, 1].min()), 2.0))
    regimes = _econ_constraints(box)
    labels = ["monot_x1", "monot_x2", "convexity"]
    return list(zip(labels, regimes["both"]))


_RUNNERS = {
    "catenary": run_catenary,
    "control": run_control,
    "robotarm": run_robotarm,
    "econ": run_econ,
}

#: builders of the (label, constraint) pairs a saved model is checked against
_CONSTRAINT_BUILDERS = {
    "catenary": _catenary_verify_constraints,
    "control": _control_verify_constraints,
    "robotarm": _robot_verify_constraints,
    "econ": _econ_verify_constraints,
}
