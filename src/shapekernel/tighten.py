"""Turn a shape constraint over a compact region into finitely many rows.

A :class:`ShapeConstraint` demands that the slack matrix

    S(x) = [D_{p1,p2} f(x)]_{p1,p2} + diag(Gamma b - b0)

stay positive semidefinite for every ``x`` in a box.  Two row families
reduce it to finitely many conic rows:

* :class:`AnchorRecord` — ``S(x_m) >= eta_m ||f|| I`` at one anchor
  ``x_m``, for operators of size P in {1, 2}.  :func:`tighten_soc` takes
  ``eta_m`` from the covering module's buffer width of the ball around
  ``x_m``, a guaranteed tightening (the solution is feasible on the whole
  region); :func:`discretize` sets ``eta_m = 0``, the pointwise relaxation
  (nothing is guaranteed between anchors).
* :class:`InclusionRecord` — :func:`tighten_omega`'s rows built from
  feature-space enclosures (guaranteed as well, often tighter).

Records carry provenance ``(constraint index, element index)`` so assembled
rows, solver duals, and refinement bookkeeping can be traced back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import Atom, Model, SdpOperator
from .covering import InputBall, OmegaElement

_PSD_HOOK_MSG = (
    "operators larger than 2x2 need a PSD-capable external solver; "
    "the embedded cone set stops at rotated second-order cones, which "
    "assemble writes as second-order cone blocks"
)


# --------------------------------------------------------------------------
# Constraint description
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeConstraint:
    """Affine matrix shape constraint over an axis-aligned box.

    ``operator`` holds the functionals filling the slack matrix; ``bias_map``
    (P x B) and ``offset`` (length P) give the affine part
    ``diag(bias_map @ b - offset)``.
    """

    region: tuple
    operator: SdpOperator
    offset: tuple
    bias_map: tuple = ()

    def __post_init__(self):
        region = tuple((float(lo), float(hi)) for lo, hi in self.region)
        for lo, hi in region:
            if hi < lo:
                raise ValueError("region has hi < lo on some axis")
        object.__setattr__(self, "region", region)
        P = self.operator.size
        off = tuple(
            float(v)
            for v in np.atleast_1d(np.asarray(self.offset, dtype=float)).ravel()
        )
        if len(off) != P:
            raise ValueError("offset length must match operator size")
        object.__setattr__(self, "offset", off)
        gm = np.atleast_2d(np.asarray(self.bias_map, dtype=float)) \
            if len(self.bias_map) else np.zeros((P, 0))
        if gm.shape[0] != P:
            raise ValueError("bias_map row count must match operator size")
        object.__setattr__(
            self, "bias_map", tuple(tuple(row) for row in gm))

    @property
    def size(self) -> int:
        return self.operator.size

    @property
    def bias_dim(self) -> int:
        return len(self.bias_map[0]) if self.bias_map else 0

    def gamma(self) -> np.ndarray:
        return np.asarray(self.bias_map, dtype=float).reshape(
            self.size, self.bias_dim)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return all(lo - tol <= v <= hi + tol
                   for v, (lo, hi) in zip(x, self.region))


# --------------------------------------------------------------------------
# Conic constraint records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnchorRecord:
    """Buffered slack matrix at one anchor: ``M - eta ||f|| I >= 0``.

    ``M[p,q] = <f, atoms[p][q]> + (gamma b - offset)[p] delta_{pq}``
    for P in {1, 2}.  A size-1 record is one nonnegative row; a size-2
    record is two diagonal rows plus one rotated cone
    ``2 (M11 - eta t)(M22 - eta t) >= 2 M12^2``, which ``assemble`` writes
    as a second-order cone block.  The norm is shared across
    all buffered records through one epigraph variable ``t >= ||f||``
    introduced at assembly time; ``eta = 0`` drops it (the discretized
    relaxation).
    """

    atoms: tuple  # P x P
    eta: float
    gamma: tuple  # P x B
    offset: tuple  # length P
    provenance: tuple = ()

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("buffer width must be nonnegative")
        if self.size not in (1, 2) or any(len(r) != self.size
                                          for r in self.atoms):
            raise ValueError("need a 1x1 or 2x2 atom block")

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def width(self) -> float:
        """The buffer width: ``eta``."""
        return self.eta


@dataclass(frozen=True)
class InclusionRecord:
    """Feature-enclosure row for a scalar constraint.

    Demands ``gamma.b - offset - xi*rho >= r0 ||f + xi*normal||`` with
    one auxiliary ``xi >= 0``.  ``normal`` carries its own sign in the
    functional.
    """

    r0: float
    normal: Atom
    rho: float
    gamma: tuple
    offset: float
    diameter: float = 0.0
    provenance: tuple = ()

    def __post_init__(self):
        if not self.r0 > 0:
            raise ValueError("ambient ball radius must be positive")
        if not np.isfinite(self.rho):
            raise ValueError("halfspace level must be finite")

    @property
    def width(self) -> float:
        """The buffer width: the enclosure's ``diameter``."""
        return self.diameter


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------

def _anchor_records(c: ShapeConstraint, points, etas,
                    constraint_index: int) -> list[AnchorRecord]:
    """One :class:`AnchorRecord` per point, buffered by its eta."""
    P = c.size
    if P > 2:
        raise ValueError(_PSD_HOOK_MSG)
    ent = c.operator.entries
    gamma = tuple(tuple(row) for row in c.gamma())
    out = []
    for m, (x, eta) in enumerate(zip(points, etas)):
        if eta is None:
            raise ValueError(f"missing buffer width for element {m}")
        if not c.contains(x):
            raise ValueError(f"anchor {x!r} outside region")
        x = tuple(float(v) for v in np.atleast_1d(x))
        out.append(AnchorRecord(
            atoms=tuple(tuple(Atom(x, ent[i][j]) for j in range(P))
                        for i in range(P)),
            eta=float(eta), gamma=gamma, offset=c.offset,
            provenance=(constraint_index, m),
        ))
    return out


def discretize(c: ShapeConstraint, points, constraint_index: int = 0
               ) -> list:
    """Pointwise relaxation: enforce the slack matrix at sample points only."""
    points = list(points)
    return _anchor_records(c, points, [0.0] * len(points), constraint_index)


def tighten_soc(c: ShapeConstraint, cover: list[InputBall], etas,
                constraint_index: int = 0) -> list:
    """Ball-covering tightening: buffer each anchor row by its eta."""
    if len(etas) != len(cover):
        raise ValueError("need one buffer width per covering ball")
    return _anchor_records(c, [ball.center for ball in cover], etas,
                           constraint_index)


def tighten_omega(c: ShapeConstraint, omegas: list[OmegaElement],
                  constraint_index: int = 0) -> list:
    """Inclusion tightening from feature enclosures (scalar constraints).

    Each element must be the ambient ball cut by one halfspace (what
    :func:`~shapekernel.covering.omega_cover` builds); it maps to an
    :class:`InclusionRecord` with auxiliary ``xi``.
    """
    if c.size != 1:
        raise ValueError("feature enclosures apply to scalar constraints")
    gm = c.gamma()
    out = []
    for m, elem in enumerate(omegas):
        if not elem.halfspaces and len(elem.balls) == 1 \
                and elem.balls[0][0] is None:
            raise ValueError("origin-ball element without halfspace is vacuous")
        if len(elem.balls) != 1 or len(elem.halfspaces) != 1 \
                or elem.balls[0][0] is not None:
            raise ValueError("general inclusion not implemented")
        normal, rho = elem.halfspaces[0]
        out.append(InclusionRecord(
            r0=float(elem.balls[0][1]), normal=normal, rho=float(rho),
            gamma=tuple(gm[0]), offset=c.offset[0],
            diameter=float(elem.diameter_bound),
            provenance=(constraint_index, m),
        ))
    return out


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

#: grid points :func:`verify_pointwise` evaluates at once
VERIFY_CHUNK = 1 << 16


def verify_pointwise(model: Model, c: ShapeConstraint, grid_res: int) -> dict:
    """Evaluate the constraint slack on a dense grid of the region.

    Returns the most negative slack (scalar constraints) or most negative
    eigenvalue (matrix constraints), where it occurs (its first point in C
    order), and the clamped violation ``max(0, -min_slack)``.  A point whose
    slack is not finite counts as slack NaN, the minimum, and makes the
    violation infinite.  The grid is checked :data:`VERIFY_CHUNK` points at
    a time, each point on its own.
    """
    if grid_res < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    shape = (int(grid_res),) * len(c.region)
    axes = [np.linspace(lo, hi, shape[0]) for lo, hi in c.region]
    P = c.size
    gm = c.gamma()
    B = c.bias_dim
    bias = np.zeros(B)
    if B and model.bias.size:
        bias = np.asarray(model.bias, dtype=float)[:B]
    affine = gm @ bias - np.asarray(c.offset)
    lowest = []  # (min, its point) of each chunk
    total = shape[0] ** len(shape)
    for start in range(0, total, VERIFY_CHUNK):
        index = np.unravel_index(
            np.arange(start, min(start + VERIFY_CHUNK, total)), shape)
        X = np.column_stack([ax[i] for ax, i in zip(axes, index)])
        S = np.empty((X.shape[0], P, P))
        for i in range(P):
            for j in range(i, P):
                func = c.operator.entries[i][j]
                S[:, i, j] = S[:, j, i] = model.apply(func, X)
            S[:, i, i] += affine[i]
        bad = ~np.isfinite(S).all(axis=(1, 2))
        S[bad] = 0.0  # LAPACK may give a NaN matrix finite eigenvalues
        lams = S[:, 0, 0] if P == 1 else np.linalg.eigvalsh(S)[:, 0]
        lams[bad] = np.nan
        idx = int(np.argmin(lams))
        lowest.append((lams[idx], X[idx]))
    min_eig, point = lowest[int(np.argmin([lam for lam, _ in lowest]))]
    return {
        "maxViolation": max(0.0, -float(min_eig)) if np.isfinite(min_eig)
        else np.inf,
        "worstPoint": tuple(float(v) for v in point),
        "minEig": float(min_eig),
    }
