"""Adaptive covering refinement: solve, burst saturated elements, repeat.

Uniform coverings waste elements where the constraint is slack.  The loop
here starts from a coarse uniform covering, solves the tightened program,
finds the covering elements whose buffered rows hold with equality (the
"saturated" ones --- the only places the buffer actually binds), and
replaces each with a sub-covering at a geometrically contracted scale.
Elements that never saturate are left untouched, so refinement concentrates
where the solution touches the constraint.

Every element is an input ball with a width in one of the covering schemes
``ball`` (a buffer) or ``hyp`` (a feature-space enclosure);
:func:`scheme_widths` and :func:`scheme_rows` are the only code that tells
them apart.  One bisection contracts a burst ball's width by ``gamma``.
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
from .covering import InputBall, cover_box, eta_for, omega_cover
from .tighten import AnchorRecord, InclusionRecord, tighten_omega, tighten_soc


@dataclass
class SoapState:
    """Loop bookkeeping: each constraint's input balls (``coverings``) and
    their :func:`scheme_widths` in scheme ``mode``, model, history rows."""

    mode: str
    iteration: int = 0
    coverings: list = field(default_factory=list)  # per constraint
    widths: list = field(default_factory=list)  # per constraint, per ball
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
        w = np.asarray(model.coeffs, dtype=float).copy()
        w[model.basis_index[pos.key()]] += sign * xi
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
# Covering schemes
# --------------------------------------------------------------------------

def scheme_widths(scheme: str, kernel, c, balls: list, n_x: int, n_u: int,
                  seed, safety: float) -> list:
    """One width per input ball of constraint ``c``: its buffer from
    :func:`eta_for` (``ball``) or its halfspace enclosure from
    :func:`omega_cover` (``hyp``, scalar constraints only)."""
    if scheme == "ball":
        return [eta_for(kernel, c.operator, b.center, b.radius, norm=b.norm,
                        n_x=n_x, n_u=n_u, seed=seed, safety=safety)
                for b in balls]
    if scheme == "hyp":
        if c.size != 1:
            raise ValueError("the hyp scheme needs scalar constraints")
        return omega_cover(kernel, c.operator.entries[0][0], balls,
                           n_x=n_x, seed=seed, safety=safety)
    raise ValueError(f"unknown covering scheme {scheme!r}")


def scheme_rows(scheme: str, c, balls: list, widths: list,
                constraint_index: int = 0) -> list:
    """The rows of constraint ``c`` over its balls and their
    :func:`scheme_widths`."""
    if scheme == "ball":
        return tighten_soc(c, balls, widths,
                           constraint_index=constraint_index)
    return tighten_omega(c, widths, constraint_index=constraint_index)


def _size(width) -> float:
    """A width as one number: the buffer, or the enclosure's diameter."""
    return getattr(width, "diameter_bound", width)


def _burst(scheme: str, kernel, c, ball: InputBall, width, gamma: float,
           n_x: int, n_u: int, seed, safety: float) -> list[InputBall]:
    """Sub-cover a burst ball of ``c`` (clipped to its region) at the
    largest radius, bisected to 1e-6 of the ball's, whose width is at most
    ``gamma`` times ``width`` (half the ball's radius if none is found),
    and at most ``gamma`` times the ball's radius."""
    target = gamma * _size(width)
    lo, hi = 0.0, float(ball.radius)
    tol = 1e-6 * ball.radius
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        probe = InputBall(ball.center, mid, ball.norm)
        if _size(scheme_widths(scheme, kernel, c, [probe], n_x, n_u, seed,
                               safety)[0]) <= target:
            lo = mid
        else:
            hi = mid
    delta = min(lo if lo > 0 else 0.5 * ball.radius, gamma * ball.radius)
    sub_box = [(max(a, x - ball.radius), min(b, x + ball.radius))
               for (a, b), x in zip(c.region, ball.center)]
    return cover_box(sub_box, max(delta, 1e-12), norm=ball.norm)


# --------------------------------------------------------------------------
# Main loop
# --------------------------------------------------------------------------

def run_soap(spec: ProblemSpec, mode: str = "ball", gamma: float = 0.8,
             k_max: int = 30, delta0: float = 0.01, tol_sat: float = 1e-8,
             settings: SolverSettings | None = None, n_x: int = 50,
             n_u: int = 20, seed=0, safety: float = 0.0,
             max_elements: int = 4000):
    """Adaptive refinement loop.  Returns ``(model, state)``.

    ``mode`` is the covering scheme, ``ball`` or ``hyp`` (see
    :func:`scheme_widths`).  Starts from a uniform covering of every
    constraint region at radius ``delta0``, then alternates solve / burst
    until no element saturates, ``k_max`` bursts have happened, or the
    element budget ``max_elements`` is hit (recorded in
    ``state.stopped_reason``).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if delta0 <= 0:
        raise ValueError("initial radius must be positive")
    if not tol_sat > 0:
        raise ValueError("saturation tolerance must be positive")
    if mode not in ("ball", "hyp"):
        raise ValueError(f"unknown soap mode {mode!r}")

    state = SoapState(mode=mode)
    sampling = (n_x, n_u, seed, safety)

    # Initial uniform coverings (one list per constraint).
    for c in spec.constraints:
        balls = cover_box(c.region, delta0, norm="max")
        state.coverings.append(balls)
        state.widths.append(scheme_widths(mode, spec.kernel, c, balls,
                                          *sampling))

    model = None
    for k in range(k_max + 1):
        t0 = time.perf_counter()
        state.iteration = k
        records = []  # provenance (ci, ei): constraint, element
        for ci, c in enumerate(spec.constraints):
            records += scheme_rows(mode, c, state.coverings[ci],
                                   state.widths[ci], constraint_index=ci)

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
        sizes = [_size(w) for widths in state.widths for w in widths]
        state.history.append({
            "k": k,
            "M_total": state.total_elements(),
            "v": float(sol.objective),
            "status": sol.status,
            "stop_reason": sol.stop_reason,
            "iterations": sol.iterations,
            "trace": sol.trace,
            "bursts": len(saturated),
            "maxEta": float(max(sizes)) if sizes else 0.0,
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
            ci, ei = records[ridx].provenance
            per_ci.setdefault(ci, set()).add(ei)
        for ci, burst_set in per_ci.items():
            c = spec.constraints[ci]
            keep, keep_widths, new_balls = [], [], []
            for ei, (ball, width) in enumerate(
                    zip(state.coverings[ci], state.widths[ci])):
                if ei in burst_set:
                    new_balls.extend(_burst(mode, spec.kernel, c, ball,
                                            width, gamma, *sampling))
                else:
                    keep.append(ball)
                    keep_widths.append(width)
            state.coverings[ci] = keep + new_balls
            state.widths[ci] = keep_widths + scheme_widths(
                mode, spec.kernel, c, new_balls, *sampling)

    return model, state
