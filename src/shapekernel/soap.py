"""Adaptive covering refinement: solve, burst saturated elements, repeat.

Uniform coverings waste elements where the constraint is slack.  The loop
here starts from a coarse uniform covering, solves the tightened program,
finds the covering elements whose buffered rows hold with equality (the
"saturated" ones --- the only places the buffer actually binds), and
replaces each with a sub-covering at a geometrically contracted scale.
Elements that never saturate are left untouched, so refinement concentrates
where the solution touches the constraint.

Two element flavors are supported: input-space balls with buffer widths
(``ball`` mode) and feature-space ball/halfspace enclosures (``omega``
mode).  Both contract by at least the factor ``gamma`` per burst.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# The loop solves through ``solve_problem``; ``assemble``,
# ``collect_atoms``, ``recover_model`` and ``conic_solve`` stay bound only
# because the benchmark tracer (perfbench/tracer.py) looks them up here.
from .assemble import (  # noqa: F401
    ProblemSpec,
    _oriented,
    assemble,
    collect_atoms,
    recover_model,
    solve_problem,
)
from .atoms import apply_functional
from .conic import SolverSettings, solve as conic_solve  # noqa: F401
from .covering import (
    InputBall,
    OmegaElement,
    cover_box,
    eta_for,
    omega_cover,
    refine_radius,
)
from .tighten import AnchorRecord, InclusionRecord, tighten_omega, tighten_soc


@dataclass
class SoapState:
    """Loop bookkeeping: current coverings, model, and history rows."""

    mode: str
    iteration: int = 0
    coverings: list = field(default_factory=list)  # per constraint
    etas: list = field(default_factory=list)  # ball mode: per element
    model: object | None = None
    history: list = field(default_factory=list)
    stopped_reason: str = ""

    def total_elements(self) -> int:
        return sum(len(c) for c in self.coverings)


class SoapInfeasible(RuntimeError):
    """Solver declared a soap iterate infeasible; carries the loop state."""

    def __init__(self, message: str, state: SoapState):
        super().__init__(message)
        self.state = state

    def __reduce__(self):
        # the default rebuilds from ``args`` alone, without ``state``
        return type(self), (self.args[0], self.state)


# --------------------------------------------------------------------------
# Saturation detection
# --------------------------------------------------------------------------

def record_slack(model, rec) -> float:
    """Signed slack of one record at the model (0 = saturated).

    Size-1 anchor records return the scalar slack, size-2 ones the smallest
    eigenvalue of the buffered slack matrix; enclosure records return the
    margin of their cone at the model's auxiliary ``xi``.
    """
    bias = np.asarray(model.bias, dtype=float)

    def gval(gamma):
        g = np.asarray(gamma, dtype=float)
        return float(g @ bias[: g.size]) if g.size and bias.size else 0.0

    def fval(atom):
        return apply_functional(atom.functional, model, atom.x)

    if isinstance(rec, AnchorRecord):
        # eta = 0 (a relaxed row) needs no norm: x - 0.0 is exact
        nrm = model.norm if rec.eta else 0.0
        M = np.empty((rec.size, rec.size))
        for i in range(rec.size):
            M[i, i] = (fval(rec.atoms[i][i])
                       + gval(rec.gamma[i]) - rec.offset[i]
                       - rec.eta * nrm)
        if rec.size == 1:
            return float(M[0, 0])
        M[0, 1] = M[1, 0] = fval(rec.atoms[0][1])
        return float(np.linalg.eigvalsh(M)[0])
    if isinstance(rec, InclusionRecord):
        xi = float(model.aux.get("xi", {}).get(tuple(rec.provenance), 0.0))
        pos, sign = _oriented(rec.normal)
        index = {atom.key(): i for i, atom in enumerate(model.basis)}
        w = np.asarray(model.coeffs, dtype=float).copy()
        w[index[pos.key()]] += sign * xi
        nrm = float(np.linalg.norm(model.factor.T @ w))
        return gval(rec.gamma) - rec.offset - xi * rec.rho - rec.r0 * nrm
    raise TypeError(f"unknown record type {type(rec).__name__}")


def detect_saturated(model, records: list, tol_sat: float = 1e-8
                     ) -> list[int]:
    """Indices of records whose inequality binds at the model.

    The threshold is scaled by ``(1 + ||f||)`` so it stays meaningful for
    large-norm solutions.
    """
    tol_eff = tol_sat * (1.0 + model.norm)
    out = []
    for idx, rec in enumerate(records):
        slack = record_slack(model, rec)
        if abs(slack) <= tol_eff:
            out.append(idx)
    return out


# --------------------------------------------------------------------------
# Refinement helpers
# --------------------------------------------------------------------------

def _clip_box(region, center, radius) -> list:
    return [
        (max(lo, c - radius), min(hi, c + radius))
        for (lo, hi), c in zip(region, center)
    ]


def _burst_ball(kernel, op, constraint, ball: InputBall, eta_old: float,
                gamma: float, eta_kwargs: dict) -> list[InputBall]:
    """Sub-cover a burst ball at the gamma-contracted buffer target."""
    target = gamma * eta_old
    refined = refine_radius(kernel, op, ball.center, target, ball.radius,
                            norm=ball.norm, **eta_kwargs)
    delta_new = min(refined, gamma * ball.radius)
    delta_new = max(delta_new, 1e-12)
    sub_box = _clip_box(constraint.region, ball.center, ball.radius)
    return cover_box(sub_box, delta_new, norm=ball.norm)


def _omega_diameter(kernel, functional, ball: InputBall, n_x, seed,
                    safety) -> float:
    elems = omega_cover(kernel, functional, [ball], n_x=n_x, seed=seed,
                        safety=safety)
    return elems[0].diameter_bound


def _burst_omega(kernel, functional, constraint, elem: OmegaElement,
                 gamma: float, n_x: int, seed, safety: float
                 ) -> list[InputBall]:
    """Sub-cover a burst enclosure at the gamma-contracted diameter."""
    ball = elem.source
    target = gamma * elem.diameter_bound
    lo, hi = 0.0, float(ball.radius)
    tol = 1e-6 * ball.radius
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= 0:
            break
        if _omega_diameter(kernel, functional,
                           InputBall(ball.center, mid, ball.norm),
                           n_x, seed, safety) <= target:
            lo = mid
        else:
            hi = mid
    delta_new = min(lo if lo > 0 else 0.5 * ball.radius,
                    gamma * ball.radius)
    delta_new = max(delta_new, 1e-12)
    sub_box = _clip_box(constraint.region, ball.center, ball.radius)
    return cover_box(sub_box, delta_new, norm=ball.norm)


# --------------------------------------------------------------------------
# Main loop
# --------------------------------------------------------------------------

def run_soap(spec: ProblemSpec, mode: str = "ball", gamma: float = 0.8,
             k_max: int = 30, delta0: float = 0.01, tol_sat: float = 1e-8,
             settings: SolverSettings | None = None, n_x: int = 50,
             n_u: int = 20, seed=0, safety: float = 0.0,
             max_elements: int = 4000):
    """Adaptive refinement loop.  Returns ``(model, state)``.

    Starts from a uniform covering of every constraint region at radius
    ``delta0``, then alternates solve / burst until no element saturates,
    ``k_max`` bursts have happened, or the element budget ``max_elements``
    is hit (recorded in ``state.stopped_reason``).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if delta0 <= 0:
        raise ValueError("initial radius must be positive")
    if mode not in ("ball", "omega"):
        raise ValueError(f"unknown soap mode {mode!r}")

    kernel = spec.kernel
    state = SoapState(mode=mode)
    eta_kwargs = dict(n_x=n_x, n_u=n_u, seed=seed, safety=safety)

    # Initial uniform coverings (one list per constraint).
    for c in spec.constraints:
        balls = cover_box(c.region, delta0, norm="max")
        if mode == "ball":
            ops = c.operator
            etas = [eta_for(kernel, ops, b.center, b.radius, norm=b.norm,
                            **eta_kwargs) for b in balls]
            state.coverings.append(balls)
            state.etas.append(etas)
        else:
            if c.size != 1:
                raise ValueError("omega mode needs scalar constraints")
            elems = omega_cover(kernel, c.operator.entries[0][0], balls,
                                n_x=n_x, seed=seed, safety=safety)
            state.coverings.append(elems)
            state.etas.append([])

    model = None
    for k in range(k_max + 1):
        t0 = time.perf_counter()
        state.iteration = k
        records = []
        rec_elem: list[tuple[int, int]] = []  # record idx -> (ci, ei)
        for ci, c in enumerate(spec.constraints):
            if mode == "ball":
                recs = tighten_soc(c, state.coverings[ci],
                                   state.etas[ci], constraint_index=ci)
            else:
                recs = tighten_omega(c, state.coverings[ci],
                                     constraint_index=ci)
            for ei in range(len(recs)):
                rec_elem.append((ci, ei))
            records.extend(recs)

        try:
            # Warm start from the previous iterate (None in round 0).  The
            # program is dropped at once: held, it would stay alive through
            # the next round's solve next to that round's program.
            model, sol = solve_problem(spec, records, settings=settings,
                                       warm=model)[:2]
        except RuntimeError as err:
            if k == 0:
                raise SoapInfeasible(
                    "initial covering already infeasible; reduce delta0 or "
                    "review the constraint offsets", state,
                ) from err
            raise SoapInfeasible(
                f"iterate {k} became infeasible: {err}", state,
            ) from err

        saturated = detect_saturated(model, records, tol_sat)
        widths = []
        for ci in range(len(spec.constraints)):
            if mode == "ball":
                widths.extend(state.etas[ci])
            else:
                widths.extend(e.diameter_bound
                              for e in state.coverings[ci])
        state.history.append({
            "k": k,
            "M_total": state.total_elements(),
            "v": float(sol.objective),
            "status": sol.status,
            "stop_reason": sol.stop_reason,
            "iterations": sol.iterations,
            "trace": sol.trace,
            "bursts": len(saturated),
            "maxEta": float(max(widths)) if widths else 0.0,
            "wallTime": time.perf_counter() - t0,
        })
        state.model = model

        if not saturated:
            state.stopped_reason = "no saturation"
            break
        if k == k_max:
            state.stopped_reason = "k_max reached"
            break
        if state.total_elements() >= max_elements:
            state.stopped_reason = "element budget reached"
            break

        # Burst: group saturated records per constraint, replace elements.
        per_ci: dict[int, set] = {}
        for ridx in saturated:
            ci, ei = rec_elem[ridx]
            per_ci.setdefault(ci, set()).add(ei)
        for ci, burst_set in per_ci.items():
            c = spec.constraints[ci]
            keep, keep_etas = [], []
            new_elems = []
            if mode == "ball":
                for ei, (ball, eta) in enumerate(
                        zip(state.coverings[ci], state.etas[ci])):
                    if ei in burst_set:
                        new_elems.extend(_burst_ball(
                            kernel, c.operator, c, ball, eta, gamma,
                            eta_kwargs))
                    else:
                        keep.append(ball)
                        keep_etas.append(eta)
                new_etas = [
                    eta_for(kernel, c.operator, b.center, b.radius,
                            norm=b.norm, **eta_kwargs)
                    for b in new_elems
                ]
                state.coverings[ci] = keep + new_elems
                state.etas[ci] = keep_etas + new_etas
            else:
                func = c.operator.entries[0][0]
                for ei, elem in enumerate(state.coverings[ci]):
                    if ei in burst_set:
                        balls = _burst_omega(kernel, func, c, elem, gamma,
                                             n_x, seed, safety)
                        new_elems.extend(omega_cover(
                            kernel, func, balls, n_x=n_x, seed=seed,
                            safety=safety))
                    else:
                        keep.append(elem)
                state.coverings[ci] = keep + new_elems

    return model, state
