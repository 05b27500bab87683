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

Each runner returns ``(summary, tables, models)``; :func:`run_experiment`
looks the runner up in a fixed table by experiment name, stamps timings,
and writes artifacts, and :func:`constraints_for` gives the constraints a
saved model is re-checked against.  The covering schemes ``disc``, ``ball``
and ``hyp`` build their rows through one function, :func:`records_for`
(``ball`` and ``hyp`` through the adaptive scheme's own pair of functions);
every solve goes through :func:`~shapekernel.assemble.solve_problem`.  All
randomness derives from the config seed, so numeric outputs are
reproducible bit-for-bit; wall-clock timings live only in the summary.
"""

from __future__ import annotations

import itertools
import math
import os
import time

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
from ..conic import TRACE_FIELDS
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


def _outcome(sol) -> tuple:
    """``(status, stop_reason, iterations, trace, objective, n)`` of one
    solution, ``n`` its program's column count."""
    return (sol.status, sol.stop_reason, sol.iterations, sol.trace,
            sol.objective, sol.x.size)


def _record_solve(solves: list, label: str, status: str, stop_reason: str,
                  iterations: int, trace: np.ndarray,
                  objective: float, n: int) -> None:
    """Add one runner solve, with its objective, its program's column count
    ``n`` and its per-iteration trace (one list per ``TRACE_FIELDS``
    column, kept as array views until written), to the summary's
    ``solves`` list."""
    solves.append({"label": label, "status": status,
                   "stop_reason": stop_reason, "iterations": iterations,
                   "objective": float(objective), "n": int(n),
                   "trace": dict(zip(TRACE_FIELDS, trace.T))})


def _solve_warnings(solves: list) -> list:
    """A warning naming each solve that did not end ``optimal`` and why it
    stopped."""
    return [f"{s['label']}: solver status {s['status']!r} "
            f"(stop reason {s['stop_reason']!r})"
            for s in solves if s["status"] != "optimal"]


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
    """Dispatch to the named runner and write all artifacts."""
    t0 = time.perf_counter()
    summary, tables, models = _RUNNERS[cfg.experiment](cfg)
    summary.setdefault("timings", {})["total_s"] = time.perf_counter() - t0
    summary["experiment"] = cfg.experiment
    summary["config"] = cfg.to_json()
    out_dir = cfg.out_dir or os.path.join("results", cfg.experiment)
    written = emit_results(summary, tables, out_dir, models)
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


def run_catenary(cfg: ExperimentConfig):
    p = cfg.params
    cov = cfg.covering
    settings = cfg.settings
    objective = p.get("objective", "norm")
    mu_f = 2.0 if objective == "norm_squared" else None
    m_list = [int(m) for m in p.get("m_list", [30, 60, 120])]
    schemes = [cfg.scheme] if cfg.scheme else \
        ["ball", "hyp", "soap-ball", "soap-hyp"]
    verify_res = int(p.get("verify_res", 10_000))
    timings: dict = {}

    spec = _catenary_spec(objective)
    c = spec.constraints[0]

    t0 = time.perf_counter()
    _, v_ref, ref_active, ref_statuses = solve_reference(
        spec, c, int(p.get("reference_points", 10_000)), settings=settings)
    timings["reference_s"] = time.perf_counter() - t0
    solves: list = []
    for k, outcome in enumerate(ref_statuses):
        _record_solve(solves, f"reference round {k}", *outcome)

    grid = np.linspace(0.0, 1.0, cfg.grid_res).reshape(-1, 1)
    conv_header = ["scheme", "step", "elements", "v_app", "v_relax", "gap",
                   "err_vs_ref", "max_eta"]

    def run_scheme(scheme):
        """One covering scheme: its solves, its rows of the convergence and
        timing tables, its own tables, model and summary, and its time."""
        solves: list = []
        conv_rows: list = []
        timing_rows: list = []
        tables: dict = {}
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
                _record_solve(solves, f"{scheme} m={m}", *_outcome(sol))
                v_app = sol.objective
                v_relax = None
                if scheme != "disc":
                    # the relaxation: the same anchors without buffers
                    relaxed = discretize(c, [b.center for b in cover])
                    rsol = solve_problem(spec, relaxed, settings=settings)[1]
                    _record_solve(solves, f"{scheme} m={m} relaxation",
                                  *_outcome(rsol))
                    v_relax = rsol.objective
                max_eta = max(
                    (getattr(r, "eta", 0.0) for r in records), default=0.0)
                gap = None if v_relax is None else v_app - v_relax
                conv_rows.append([scheme, m, m, v_app, v_relax, gap,
                                  v_app - v_ref, max_eta])
                timing_rows.append([scheme, m, v_app - v_ref,
                                    time.perf_counter() - ts])
            relax_value = v_relax
            elements = m_list[-1]
            extra = {"iterations": sol.iterations, "status": sol.status}
        elif scheme in ("soap-ball", "soap-hyp"):
            model, state = run_soap(
                spec, mode=scheme[len("soap-"):], gamma=cov.gamma,
                k_max=cov.k_max, delta0=cov.delta0,
                tol_sat=float(p.get("tol_sat", 1e-8)), settings=settings,
                n_x=cov.n_x, n_u=cov.n_u, seed=cfg.seed,
                safety=cov.eta_safety,
                max_elements=int(p.get("max_elements", 4000)))
            hist = state.history
            hist_rows = []
            for row in hist:
                _record_solve(solves, f"{scheme} round {row['k']}",
                              row["status"], row["stop_reason"],
                              row["iterations"], row["trace"], row["v"],
                              row["n"])
                conv_rows.append([scheme, row["k"], row["M_total"], row["v"],
                                  None, None, row["v"] - v_ref,
                                  row["maxEta"]])
                hist_rows.append([row["k"], row["M_total"], row["v"],
                                  row["bursts"], row["maxEta"]])
                timing_rows.append([scheme, row["M_total"],
                                    row["v"] - v_ref, row["wallTime"]])
            tables[f"history_{scheme}"] = (
                ["k", "M_total", "v", "bursts", "max_eta"], hist_rows)
            v_app = hist[-1]["v"]
            # relaxation at the final anchors
            balls = state.coverings[0]
            records = discretize(c, [b.center for b in balls])
            rsol = solve_problem(spec, records, settings=settings)[1]
            _record_solve(solves, f"{scheme} relaxation", *_outcome(rsol))
            relax_value = rsol.objective
            records = scheme_rows(state.mode, c, balls, state.widths[0])
            elements = state.total_elements()
            extra = {"iterations": state.iteration,
                     "stop": state.stopped_reason}
        elif scheme == "none":
            spec_free = _catenary_spec(objective, constrained=False)
            model, sol = solve_problem(spec_free, [], settings=settings)[:2]
            _record_solve(solves, scheme, *_outcome(sol))
            v_app = sol.objective
            records = []
            relax_value = None
            elements = 0
            extra = {"iterations": sol.iterations, "status": sol.status}
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        seconds = time.perf_counter() - t0

        check = verify_pointwise(model, c, grid_res=verify_res)
        report = compute_bounds(spec, records, v_app, v_relax=relax_value,
                                mu_f=mu_f)
        scheme_summary = {
            "v_app": v_app,
            "v_relax": relax_value,
            "gap": None if relax_value is None else v_app - relax_value,
            "err_vs_ref": v_app - v_ref,
            "elements": elements,
            "max_violation": check["maxViolation"],
            "norm": model.norm,
            "bound_report": report.to_json(),
            **extra,
        }
        tables[f"solution_{scheme}"] = (
            ["x", "f"],
            [[float(x), float(v)] for x, v in
             zip(grid[:, 0], model.eval_component_many(grid, 0))],
        )
        return (solves, conv_rows, timing_rows, tables, model,
                scheme_summary, seconds)

    conv_rows: list = []
    timing_table: list = []
    tables: dict = {}
    models: dict = {}
    scheme_summaries: dict = {}
    for scheme, (scheme_solves, scheme_conv, scheme_timing, scheme_tables,
                 model, scheme_summary, seconds) in zip(
            schemes, run_tasks(run_scheme, [(s,) for s in schemes])):
        solves += scheme_solves
        conv_rows += scheme_conv
        timing_table += scheme_timing
        tables.update(scheme_tables)
        models[f"model_{scheme}"] = model
        scheme_summaries[scheme] = scheme_summary
        timings[f"{scheme}_s"] = seconds

    tables["convergence"] = (conv_header, conv_rows)
    summary = {
        "objective": objective,
        "reference": {"value": v_ref, "grid_points":
                      int(p.get("reference_points", 10_000)),
                      "active_points": ref_active},
        "schemes": scheme_summaries,
        "timing_table": {
            "columns": ["scheme", "elements", "err_vs_ref", "seconds"],
            "rows": timing_table,
        },
        "timings": timings,
        "solves": solves,
        "warnings": _solve_warnings(solves),
    }
    return summary, tables, models


def _catenary_verify_constraints(cfg: ExperimentConfig) -> list:
    return [("floor", _catenary_constraint())]


# --------------------------------------------------------------------------
# Control: wall-bounded minimum-energy trajectory
# --------------------------------------------------------------------------

def _wall_generator(p: dict, seed):
    """Seeded smooth random profile, pinned to zero at t = 0."""
    rng = np.random.default_rng([int(seed), 17])
    n = int(p.get("wall_centers", 10))
    centers = rng.uniform(0.0, 1.0, n)
    weights = rng.normal(0.0, float(p.get("wall_amplitude", 0.35)), n)
    ls = float(p.get("wall_lengthscale", 0.15))

    def profile(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (weights * np.exp(
            -(t[:, None] - centers[None, :]) ** 2 / (2.0 * ls * ls)
        )).sum(axis=1)

    shift = profile(np.zeros(1))[0]
    return lambda t: profile(t) - shift


def _control_walls(p: dict, seed):
    """Piecewise-constant wall levels hugging the random profile."""
    m = int(p.get("m_intervals", 25))
    clear = float(p.get("wall_clearance", 0.3))
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


def run_control(cfg: ExperimentConfig):
    p = cfg.params
    cov = cfg.covering
    settings = cfg.settings
    kernel = LTIControlKernel(p["system_a"], p["system_b"])
    cons, walls, gen = _control_constraints(p, cfg.seed)
    spec = ProblemSpec(kernel=kernel, loss="none", regularizer=Ridge(1.0),
                       constraints=cons)
    schemes = [cfg.scheme] if cfg.scheme else ["ball", "disc"]
    verify_res = int(p.get("verify_res", 10_000))
    timings: dict = {}

    # one anchor ball per wall; the walls table reports the widths, and the
    # ``ball`` records below find them in the buffer cache (same arguments)
    balls = [InputBall((w["center"],), w["delta"], "max") for w in walls]
    t0 = time.perf_counter()
    etas = [eta_for(kernel, c.operator, balls[i // 2].center,
                    balls[i // 2].radius, norm="max", n_x=cov.n_x,
                    n_u=cov.n_u, seed=cfg.seed, safety=cov.eta_safety)
            for i, c in enumerate(cons)]
    timings["buffers_s"] = time.perf_counter() - t0

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

    scheme_summaries: dict = {}
    models: dict = {}
    solved: dict = {}
    solves: list = []
    for scheme in schemes:
        records = []
        for i, c in enumerate(cons):
            records.extend(records_for(scheme, c, [balls[i // 2]], kernel,
                                       cov, cfg.seed, constraint_index=i))
        t0 = time.perf_counter()
        model, sol = solve_problem(spec, records, settings=settings)[:2]
        timings[f"{scheme}_s"] = time.perf_counter() - t0
        _record_solve(solves, scheme, *_outcome(sol))
        max_violation, n_violated = violations(model, verify_res)
        scheme_summaries[scheme] = {
            "v_app": sol.objective,
            "norm": model.norm,
            "max_violation": max_violation,
            "violated_points": n_violated,
            "iterations": sol.iterations,
            "status": sol.status,
            "min_buffer": float(min(etas) * model.norm),
        }
        models[f"model_{scheme}"] = model
        solved[scheme] = model

    t_grid = np.linspace(0.0, 1.0, cfg.grid_res)
    idx = wall_index(t_grid)
    traj_header = ["t", "generator", "wall_low", "wall_up"]
    traj_cols = [t_grid, gen(t_grid), low_arr[idx], up_arr[idx]]
    for scheme, model in solved.items():
        X = t_grid.reshape(-1, 1)
        traj_header += [f"z_{scheme}", f"zdot_{scheme}"]
        traj_cols += [model.eval_component_many(X, 0),
                      model.eval_component_many(X, 1)]
    tables = {
        "trajectory": (traj_header,
                       [list(row) for row in zip(*traj_cols)]),
        "walls": (
            ["m", "t_center", "delta", "z_low", "z_up", "eta_low", "eta_up"],
            [[i, w["center"], w["delta"], w["low"], w["up"],
              etas[2 * i], etas[2 * i + 1]]
             for i, w in enumerate(walls)],
        ),
    }
    summary = {
        "schemes": scheme_summaries,
        "n_intervals": len(walls),
        "n_constraints": len(cons),
        "max_eta": float(max(etas)),
        "timings": timings,
        "solves": solves,
        "warnings": _solve_warnings(solves),
    }
    return summary, tables, models


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
    delta = (1.0 / m_per_axis) / float(p.get("ball_shrink", 100.0))
    floor = float(p.get("coeff_floor", 0.1))
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
    folds = int(p.get("cv_folds", 3))
    sig_grid = [float(s) for s in p.get("cv_sigma_grid", [0.5, 1.0])]
    lam_grid = [float(v) for v in p.get("cv_lambda_grid", [1e-3, 1e-2])]
    if not p.get("cv", True):
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
                tr = np.setdiff1d(np.arange(n), val)
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
    g = int(p.get("metric_grid", 5))
    axes = [np.linspace(0.0, 1.0, g)] * d
    Z = np.array(list(itertools.product(*axes)))
    F = geom.pose(Z)
    Fh = np.column_stack([model.eval_component_many(Z, q) for q in range(3)])
    l2_err = float(((F - Fh) ** 2).sum(axis=1).mean())

    rng = np.random.default_rng([int(seed), 202])
    Zc = latin_hypercube(int(p.get("cons_samples", 400)), d, rng)
    C = geom.partials(Zc)
    total = 0.0
    for i in range(d):
        for l in (0, 1):
            df = model.apply(DiffFunctional.partial(d, axis=i, q=l), Zc)
            total += float(np.maximum(0.0, -(C[:, i, l] * df)).sum())
    l1_cons = total / Zc.shape[0]

    rng = np.random.default_rng([int(seed), 303])
    n_ball = int(p.get("covered_samples", 20))
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


def run_robotarm(cfg: ExperimentConfig):
    p = cfg.params
    cov = cfg.covering
    settings = cfg.settings
    segments = int(p.get("segments", 2))
    n_obs = int(p.get("n_obs", 40))
    noise = float(p.get("noise", 0.2))
    seeds = p.get("seeds") or [cfg.seed]
    seeds = [int(s) for s in seeds]
    m_list = [int(m) for m in p.get("m_list", [16, 81])]
    schemes = [cfg.scheme] if cfg.scheme else \
        list(p.get("schemes", ["none", "disc", "ball", "hyp"]))
    d = 2 * segments

    per_seed: dict = {}
    timings: dict = {}
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

    def fit(k, m_per_axis_pow, scheme):
        """One scheme at one seed and anchor count: its ``results`` row, the
        solution, the solve time, and the model if it is saved (the last
        seed's at the last anchor count)."""
        seed, geom, kernel, obs, lam = contexts[k]
        kept, n_candidates = anchors[k, m_per_axis_pow]
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
        elapsed = time.perf_counter() - t0
        l2_err, l1_cons, l1_cov, l1_cov_max = _robot_metrics(
            model, geom, kept, p, seed)
        row = [seed, m_per_axis_pow, scheme, n_candidates, len(kept), l2_err,
               l1_cons, l1_cov, l1_cov_max, model.norm, sol.iterations]
        saved = k == len(seeds) - 1 and m_per_axis_pow == m_list[-1]
        return row, sol, elapsed, model if saved else None

    fits = [(k, m, scheme) for k in range(len(seeds)) for m in m_list
            for scheme in schemes]
    rows = []
    models: dict = {}
    solves: list = []
    for (k, m, scheme), (row, sol, elapsed, model) in zip(
            fits, run_tasks(fit, fits)):
        seed = seeds[k]
        timings[f"seed{seed}_m{m}_{scheme}_s"] = elapsed
        _record_solve(solves, f"seed {seed} m={m} {scheme}", *_outcome(sol))
        rows.append(row)
        if model is not None:
            models[f"model_{scheme}"] = model

    header = ["seed", "anchors", "scheme", "candidates", "kept", "l2_err",
              "l1_cons", "l1_cons_covered", "l1_cons_covered_max", "norm",
              "iterations"]
    medians: dict = {}
    for m in m_list:
        for scheme in schemes:
            sel = [r for r in rows if r[1] == m and r[2] == scheme]
            if not sel:
                continue
            medians[f"m{m}_{scheme}"] = {
                "l2_err": float(np.median([r[5] for r in sel])),
                "l1_cons": float(np.median([r[6] for r in sel])),
                "l1_cons_covered": float(np.median([r[7] for r in sel])),
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
    summary = {
        "dimension": d,
        "seeds": seeds,
        "hyperparams": per_seed,
        "medians": medians,
        "l1_ordering_ball_le_disc_le_none": orderings,
        "constraint_cap": {str(m): int(d * m) for m in m_list},
        "timings": {**timings, "all_seeds_s": time.perf_counter() - t_all},
        "solves": solves,
        "warnings": _solve_warnings(solves),
    }
    return summary, {"results": (header, rows)}, models


def _robot_verify_constraints(cfg: ExperimentConfig) -> list:
    p = cfg.params
    geom = RobotGeometry(int(p.get("segments", 2)))
    # the runner saves the models of the last anchor count
    m = int(p.get("m_list", [16, 81])[-1])
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
    path = p.get("dataset_path", "")
    if path and os.path.exists(path):
        return load_labour_csv(
            path, expected_kept=int(p.get("expected_kept", 543))), False
    x_raw, y_raw = cobb_douglas_data(int(p.get("synthetic_rows", 569)),
                                     [cfg.seed, 11])
    ds = preprocess_econ(x_raw, y_raw)
    ds.preprocessing["count_mismatch"] = (
        ds.preprocessing["n_kept"] != int(p.get("expected_kept", 543)))
    return ds, True


def _econ_bandwidth(X: np.ndarray) -> float:
    """The 0.8 quantile of the distances between the rows of ``X``, from
    the upper triangle's, row by row, with no n x n array."""
    n = X.shape[0]
    d2 = np.empty(n * (n - 1) // 2)
    k = 0
    for i in range(n - 1):
        d2[k:k + n - 1 - i] = ((X[i] - X[i + 1:]) ** 2).sum(axis=1)
        k += n - 1 - i
    return float(math.sqrt(np.quantile(d2, 0.8, overwrite_input=True)))


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


def _ridge_weight_for_norm(s: np.ndarray, c: np.ndarray, n: int,
                           target: float) -> float:
    """Ridge weight at which the fitted norm equals ``target`` (bisection)."""
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


def _cv_norm_cap(X, y, kernel, folds: int, grid, rng) -> float:
    """k-fold search for the norm cap, scored along the ridge path."""
    n = X.shape[0]
    splits = np.array_split(rng.permutation(n), folds)
    zero = (0,) * X.shape[1]
    K = kernel.partial_block(zero, zero, 0, 0, X, X)
    scores = np.zeros(len(grid))
    for f in range(folds):
        val = splits[f]
        tr = np.setdiff1d(np.arange(n), val)
        s, U = np.linalg.eigh(K[np.ix_(tr, tr)])
        s = np.maximum(s, 0.0)
        c = U.T @ y[tr]
        Kvt = K[np.ix_(val, tr)]
        for gi, cap in enumerate(grid):
            lam = _ridge_weight_for_norm(s, c, len(tr), float(cap))
            a = U @ (c / (s + len(tr) * lam))
            scores[gi] += float(((Kvt @ a - y[val]) ** 2).sum())
    return float(grid[int(np.argmin(scores))])


def run_econ(cfg: ExperimentConfig):
    p = cfg.params
    cov = cfg.covering
    settings = cfg.settings
    ds, fallback = _econ_dataset(cfg)
    X, g = ds.X, ds.Y[:, 0]
    n = X.shape[0]
    sigma = _econ_bandwidth(X)
    kernel = GaussianKernel([sigma, sigma])
    box = ((float(X[:, 0].min()), 2.0), (float(X[:, 1].min()), 2.0))
    counts = [int(v) for v in p.get("counts", [15, 15])]
    anchors = grid_cover(box, counts, norm="max")
    regimes = _econ_constraints(box)
    regime_names = list(p.get("regimes", ["none", "monot", "conv", "both"]))
    timings: dict = {}

    # translation-invariant kernel: one buffer per constraint operator
    t0 = time.perf_counter()
    radius = anchors[0].radius

    def buffered(clist):
        recs = []
        for j, c in enumerate(clist):
            eta = eta_for(kernel, c.operator, (0.0, 0.0), radius,
                          norm="max", n_x=cov.n_x, n_u=cov.n_u,
                          seed=cfg.seed, safety=cov.eta_safety)
            recs.extend(tighten_soc(c, anchors, [eta] * len(anchors),
                                    constraint_index=j))
        return recs

    records_map = {name: buffered(regimes[name]) for name in regime_names}
    timings["buffers_s"] = time.perf_counter() - t0

    reps = int(p.get("reps", 5))
    folds = int(p.get("folds", 5))
    grid = [float(v) for v in p.get("lambda_grid",
                                    [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])]
    frac = float(p.get("train_fraction", 0.1))

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

    def fit(rep, regime):
        """One regime on one rep's split: its ``mse`` row, the solution,
        the solve time, and the model if it is saved (the last rep's)."""
        train_idx, test_idx, cap = splits[rep]
        spec = spec_for(rep, regime)
        t0 = time.perf_counter()
        model, sol = solve_problem(spec, records_map[regime],
                                   settings=settings)[:2]
        elapsed = time.perf_counter() - t0
        pred_tr = model.eval_component_many(X[train_idx], 0)
        pred_te = model.eval_component_many(X[test_idx], 0)
        mse_tr = float(((pred_tr - g[train_idx]) ** 2).mean())
        mse_te = float(((pred_te - g[test_idx]) ** 2).mean())
        row = [rep, regime, cap, mse_tr, mse_te, model.norm, sol.iterations]
        return row, sol, elapsed, model if rep == last else None

    def relax(rep, regime):
        """The solution of the relaxed program: no buffers, same anchors."""
        return solve_problem(spec_for(rep, regime),
                             relax_records(records_map[regime]),
                             settings=settings)[1]

    # the relaxation goes first, so the calling process runs it: it is the
    # longest solve of the benchmark's config (the default config's failing
    # ``conv`` fits take longer), and the ``both`` fit, which needs more
    # memory, runs in a worker, whose resident set holds fewer of the
    # caller's pages
    fits = [(fit, rep, regime) for rep in range(reps)
            for regime in regime_names]
    relaxed = [(relax, last, "both")] if "both" in regime_names else []
    results = run_tasks(lambda task, *args: task(*args), relaxed + fits)
    rsol = results[0] if relaxed else None

    rows = []
    models: dict = {}
    bound_json = None
    solves: list = []
    for (_, rep, regime), (row, sol, elapsed, model) in zip(
            fits, results[len(relaxed):]):
        timings[f"rep{rep}_{regime}_s"] = elapsed
        _record_solve(solves, f"rep {rep} {regime}", *_outcome(sol))
        rows.append(row)
        if model is not None:
            models[f"model_{regime}"] = model
        if regime == "both" and rep == last:
            _record_solve(solves, f"rep {rep} {regime} relaxation",
                          *_outcome(rsol))
            report = compute_bounds(spec_for(rep, regime),
                                    records_map[regime], sol.objective,
                                    v_relax=rsol.objective)
            bound_json = report.to_json()
    timings["all_reps_s"] = time.perf_counter() - t_all

    header = ["rep", "regime", "norm_cap", "mse_train", "mse_test", "norm",
              "iterations"]
    medians = {}
    for regime in regime_names:
        sel = [r for r in rows if r[1] == regime]
        medians[regime] = {
            "mse_train": float(np.median([r[3] for r in sel])),
            "mse_test": float(np.median([r[4] for r in sel])),
        }
    ordered = None
    if "both" in medians and "none" in medians:
        ordered = bool(medians["both"]["mse_test"]
                       <= medians["none"]["mse_test"])
    summary = {
        "dataset": ds.preprocessing,
        "fallback_dataset": fallback,
        "count_mismatch": bool(ds.preprocessing.get("count_mismatch",
                                                    False)),
        "bandwidth": sigma,
        "constraint_box": [list(b) for b in box],
        "n_anchors": len(anchors),
        "medians": medians,
        "test_mse_both_le_none": ordered,
        "bound_report": bound_json,
        "timings": timings,
        "solves": solves,
        "warnings": (["dataset file missing: synthetic fallback in use"]
                     if fallback else []) + _solve_warnings(solves),
    }
    return summary, {"mse": (header, rows)}, models


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
