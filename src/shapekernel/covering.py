"""Coverings of input boxes and of their images in the RKHS.

Three ingredients turn a hard shape constraint over a compact box into
finitely many conic rows:

* a finite ball covering of the box (axis-aligned grid, max-norm or
  euclidean balls),
* for each covering ball, a buffer width measuring how much a constraint
  functional can vary over the ball (the margin added to the constraint so
  that enforcing it at the ball center implies it on the whole ball),
* optionally, an explicit enclosure of the functional's image in the
  RKHS --- the intersection of the ambient norm ball with a halfspace ---
  which yields tighter rows for kernels whose correlation profile is
  known.

Buffer widths come either from the closed-form profile of radial kernels or
from sampling; sampling *under*-estimates the true supremum, so an optional
inflation factor is exposed.  Deterministic probe points (ball center, axis
extremes, corners) are always added to the sample so that radial cases are
recovered exactly.  Refining a covering where its rows bind is the adaptive
scheme's job (:mod:`shapekernel.soap`), through the same widths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .atoms import Atom, DiffFunctional, SdpOperator, atom_inner
from .kernels import Kernel

_NORMS = ("euclidean", "max")


# --------------------------------------------------------------------------
# Input-space covering
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InputBall:
    """Ball ``{x : ||x - center|| <= radius}`` in the declared norm."""

    center: tuple
    radius: float
    norm: str = "max"

    def __post_init__(self):
        if self.norm not in _NORMS:
            raise ValueError(f"unknown norm kind {self.norm!r}")
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")
        object.__setattr__(self, "center",
                           tuple(float(c) for c in self.center))


def _check_box(box) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray([b[0] for b in box], dtype=float)
    hi = np.asarray([b[1] for b in box], dtype=float)
    if np.any(hi < lo):
        raise ValueError("box has hi < lo on some axis")
    return lo, hi


def grid_cover(box, counts, norm: str = "max") -> list[InputBall]:
    """Uniform grid covering with a prescribed per-axis cell count.

    Cell half-widths set the ball radius: the max over axes for max-norm
    balls, the half-diagonal for euclidean balls.
    """
    lo, hi = _check_box(box)
    counts = [int(c) for c in (counts if np.ndim(counts) else
                               [counts] * lo.size)]
    if len(counts) != lo.size or min(counts) < 1:
        raise ValueError("need a positive count per axis")
    half = (hi - lo) / (2.0 * np.asarray(counts))
    if norm == "max":
        radius = float(np.max(half))
    elif norm == "euclidean":
        radius = float(np.linalg.norm(half))
    else:
        raise ValueError(f"unknown norm kind {norm!r}")
    axes = [lo[i] + (2 * np.arange(counts[i]) + 1) * half[i]
            for i in range(lo.size)]
    return [
        InputBall(center=tuple(float(v) for v in pt), radius=radius,
                  norm=norm)
        for pt in itertools.product(*axes)
    ]


def cover_box(box, delta_max: float, norm: str = "max") -> list[InputBall]:
    """Cover an axis-aligned box by balls of radius at most ``delta_max``.

    Max-norm: per-axis count ``ceil((hi-lo)/(2*delta_max))``.  Euclidean:
    the grid is refined so the cell half-diagonal stays within
    ``delta_max``.
    """
    if delta_max <= 0:
        raise ValueError("delta_max must be positive")
    lo, hi = _check_box(box)
    d = lo.size
    if norm == "max":
        per_axis = delta_max
    elif norm == "euclidean":
        nondeg = max(int(np.sum(hi > lo)), 1)
        per_axis = delta_max / np.sqrt(nondeg)
    else:
        raise ValueError(f"unknown norm kind {norm!r}")
    # Quantize the ratio before ceil so exact multiples don't round up on
    # float fuzz (0.6 / 0.02 evaluates a hair above 30).
    counts = [
        max(int(np.ceil(round((hi[i] - lo[i]) / (2.0 * per_axis), 9))), 1)
        for i in range(d)
    ]
    return grid_cover(box, counts, norm)


def fill_distance(points, box, grid_res: int) -> float:
    """Max over a grid of the box of the euclidean distance to the points.

    The grid goes in chunks of at most 2^15 grid-point and point pairs, so
    no grid x points array is formed, and the squares are summed axis by
    axis, in order, as numpy sums fewer than eight terms."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("need at least one point")
    lo, hi = _check_box(box)
    axes = [np.linspace(lo[i], hi[i], max(int(grid_res), 2))
            for i in range(lo.size)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, lo.size)
    nearest = np.empty(len(grid))  # squared distance to the nearest point
    step = max((1 << 15) // len(pts), 1)
    for k in range(0, len(grid), step):
        nearest[k:k + step] = sum(
            (grid[k:k + step, None, i] - pts[None, :, i]) ** 2
            for i in range(lo.size)).min(axis=1)
    return float(np.sqrt(nearest.max()))


# --------------------------------------------------------------------------
# Buffer widths (how much a functional moves over a ball)
# --------------------------------------------------------------------------

def _is_identity_eval(op: SdpOperator) -> bool:
    if op.size != 1:
        return False
    terms = op.entries[0][0].terms
    if len(terms) != 1:
        return False
    q, r, beta = terms[0]
    return q == 0 and all(o == 0 for o in r) and abs(beta - 1.0) < 1e-15


def eta_radial(kernel: Kernel, delta: float) -> float:
    """Closed-form buffer for point evaluation under a radial kernel.

    For a monotonically decreasing radial profile ``k0`` the evaluation
    functional moves by at most ``sqrt(2 k0(0) - 2 k0(delta))`` over a ball
    of radius ``delta``.
    """
    if not kernel.is_radial:
        raise ValueError(
            "closed-form buffer needs a radial scalar kernel; "
            "use eta_sampled instead"
        )
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    k0 = kernel.radial_profile
    val = 2.0 * k0(0.0) - 2.0 * k0(float(delta))
    return float(np.sqrt(max(val, 0.0)))


def _unit_offsets(d: int, norm: str, n_x: int, seed) -> np.ndarray:
    """Random offsets in the unit ball plus deterministic boundary probes."""
    rng = np.random.default_rng(seed)
    if norm == "max":
        rand = rng.uniform(-1.0, 1.0, size=(n_x, d))
    else:
        dirs = rng.normal(size=(n_x, d))
        nrm = np.linalg.norm(dirs, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        radii = rng.uniform(0.0, 1.0, size=(n_x, 1)) ** (1.0 / d)
        rand = dirs / nrm * radii
    probes = [np.zeros(d)]
    for i in range(d):
        for sgn in (1.0, -1.0):
            e = np.zeros(d)
            e[i] = sgn
            probes.append(e)
    if d <= 6:
        scale = 1.0 if norm == "max" else 1.0 / np.sqrt(d)
        for corner in itertools.product((-1.0, 1.0), repeat=d):
            probes.append(scale * np.asarray(corner))
    return np.vstack([rand, np.asarray(probes)])


def _directions(P: int, n_u: int, seed) -> np.ndarray:
    if P == 1:
        return np.ones((1, 1))
    if P == 2:
        theta = np.arange(n_u) * np.pi / n_u
        return np.column_stack([np.cos(theta), np.sin(theta)])
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n_u, P))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


_eta_cache: dict = {}


def eta_sampled(kernel: Kernel, op: SdpOperator, z, delta: float,
                norm: str = "max", n_x: int = 50, n_u: int = 20,
                seed=0, safety: float = 0.0) -> float:
    """Sampled buffer width for an operator over the ball B(z, delta).

    Maximizes ``|v^T Delta(x) v|^(1/2)`` over sampled ``x`` in the ball and
    directions ``u`` (``v = vec(u u^T)``), where ``Delta(x) = Mzz + Mxx -
    Mzx - Mzx^T`` collects the pairwise inner products of the operator's
    P^2 entry functionals anchored at ``z`` and ``x``.  All offsets are
    handled at once, with no atom objects: one one-row
    :meth:`~shapekernel.kernels.Kernel.partial_block` per term pair of
    entries gives ``Mzx`` at every ``x``; ``Mxx`` equals ``Mzz`` for
    translation-invariant kernels and otherwise comes from
    :meth:`~shapekernel.kernels.Kernel.partial_pairs`; one ``einsum`` forms
    every quadratic form.  For size-1 operators the direction set is
    ``{1}``; for size 2 the directions are equidistant angles on half the
    circle.  The result is a lower estimate of the supremum; ``safety``
    inflates it by ``(1 + safety)``.
    """
    if n_x < 1 or n_u < 1:
        raise ValueError("need at least one sample per loop")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return 0.0
    zkey = None if kernel.translation_invariant \
        else tuple(round(float(c), 12) for c in np.atleast_1d(z))
    # op and -op have equal widths bit for bit: every sampled entry is a
    # product of two term weights, so the key is sign-normalized.
    key = (kernel.fingerprint(), op.oriented_canonical(), zkey,
           round(float(delta), 12), norm, n_x, n_u, seed)
    raw = _eta_cache.get(key)
    if raw is None:
        raw = _eta_sampled_raw(kernel, op, z, delta, norm, n_x, n_u, seed)
        _eta_cache[key] = raw
    return raw * (1.0 + safety)


def _entry_products(evaluate, funcs, X1, X2) -> np.ndarray:
    """(n, P^2, P^2) inner products of the entry functionals ``funcs``, one
    P^2 x P^2 matrix per row of ``X2``; ``evaluate(r1, r2, q1, q2, X1, X2)``
    is a kernel's ``partial_block`` (``X1`` one row) or ``partial_pairs``,
    giving one value per row of ``X2``."""
    out = np.zeros((len(X2), len(funcs), len(funcs)))
    for (i, f1), (j, f2) in itertools.product(enumerate(funcs), repeat=2):
        for q1, r1, b1 in f1.terms:
            for q2, r2, b2 in f2.terms:
                out[:, i, j] += (b1 * b2 * evaluate(r1, r2, q1, q2, X1,
                                                    X2)).ravel()
    return out


def _eta_sampled_raw(kernel, op, z, delta, norm, n_x, n_u, seed) -> float:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    base = np.zeros_like(z) if kernel.translation_invariant else z
    X = base + _unit_offsets(z.size, norm, n_x, seed) * float(delta)
    funcs = [f for row in op.entries for f in row]
    Mzz = _entry_products(kernel.partial_block, funcs, base[None], base[None])
    Mzx = _entry_products(kernel.partial_block, funcs, base[None], X)
    # translation invariance: the kernel sees only x - x = 0 = z - z
    Mxx = Mzz if kernel.translation_invariant else \
        _entry_products(kernel.partial_pairs, funcs, X, X)
    D = Mzz + Mxx - Mzx - Mzx.transpose(0, 2, 1)
    vs = np.stack([np.outer(u, u).ravel()
                   for u in _directions(op.size, n_u, seed)])
    quad = np.abs(np.einsum("ki,nij,kj->nk", vs, D, vs))
    return float(np.sqrt(np.max(quad)))


def _radial_radius(kernel: Kernel, op: SdpOperator, delta: float,
                   norm: str) -> float | None:
    """The radius at which the radial form reads a ball of radius ``delta``
    (a max-norm ball's corner distance past one dimension), or ``None``
    unless ``op`` is point evaluation under a radial kernel."""
    if not (_is_identity_eval(op) and kernel.is_radial):
        return None
    d = kernel.dim
    scale = 1.0 if norm == "euclidean" or d == 1 else float(np.sqrt(d))
    return float(delta) * scale


def eta_for(kernel: Kernel, op: SdpOperator, z, delta: float,
            norm: str = "max", n_x: int = 50, n_u: int = 20, seed=0,
            safety: float = 0.0) -> float:
    """Dispatch: exact radial formula at :func:`_radial_radius` when it
    applies, else sampling."""
    eff = _radial_radius(kernel, op, delta, norm)
    if eff is not None:
        return eta_radial(kernel, eff)
    return eta_sampled(kernel, op, z, delta, norm=norm, n_x=n_x, n_u=n_u,
                       seed=seed, safety=safety)


# --------------------------------------------------------------------------
# Feature-space cover elements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaElement:
    """Intersection of feature-space balls and halfspaces enclosing the
    image of one input ball under a constraint functional.

    ``balls`` holds ``(center, radius)`` pairs where ``center`` is an Atom
    or ``None`` for the origin; ``halfspaces`` holds ``(normal, offset)``
    pairs describing ``{g : <g, normal> <= offset}``.  ``diameter_bound``
    caches an upper bound on the element's diameter, the width the
    adaptive scheme contracts.
    """

    balls: tuple
    halfspaces: tuple
    diameter_bound: float

    def __post_init__(self):
        if not self.balls and not self.halfspaces:
            raise ValueError("element needs at least one ball or halfspace")
        for _, r in self.balls:
            if not r > 0:
                raise ValueError("feature ball radius must be positive")
        for v, _ in self.halfspaces:
            if v is None or all(abs(b) < 1e-300 for _, _, b in
                                v.functional.terms):
                raise ValueError("halfspace normal must be nonzero")


def omega_cover(kernel: Kernel, functional: DiffFunctional,
                input_cover: list[InputBall], n_x: int = 50, seed=0,
                safety: float = 0.0) -> list[OmegaElement]:
    """Enclose the image of each input ball under the functional.

    Each element is the ambient norm ball of radius ``sqrt(<phi, phi>)``
    intersected with ``{g : <g, phi_center> >= rho}``, where ``rho`` is the
    minimum correlation of the functional between the center and any point
    of the input ball (translation-invariant kernels only); it is stored in
    ``<=`` form with the negated normal.  ``safety`` lowers ``rho`` by that
    fraction of its magnitude.
    """
    if not kernel.translation_invariant:
        raise ValueError(
            "halfspace enclosures need a translation-invariant kernel"
        )
    out = []
    r0 = None
    for ball in input_cover:
        if r0 is None:
            anchor = Atom(ball.center, functional)
            r0 = float(np.sqrt(max(atom_inner(anchor, anchor, kernel), 0.0)))
        rho = _min_correlation(kernel, functional, ball, n_x, seed)
        rho = rho - safety * abs(rho)
        if not rho > 0:
            raise ValueError(
                "halfspace level must stay positive; shrink the input balls"
            )
        gap = max(r0 * r0 - (rho / r0) ** 2, 0.0)
        out.append(OmegaElement(
            balls=((None, r0),),
            halfspaces=((Atom(ball.center, functional.scaled(-1.0)),
                         -float(rho)),),
            diameter_bound=2.0 * float(np.sqrt(gap)),
        ))
    return out


def _min_correlation(kernel: Kernel, functional: DiffFunctional,
                     ball: InputBall, n_x: int, seed) -> float:
    """min over x in the ball of <phi_center, phi_x>: the radial profile at
    :func:`_radial_radius`, else over one :func:`_entry_products` row."""
    eff = _radial_radius(kernel, SdpOperator.scalar(functional), ball.radius,
                         ball.norm)
    if eff is not None:
        return float(kernel.radial_profile(eff))
    center = np.asarray(ball.center, dtype=float)
    base = np.zeros_like(center) if kernel.translation_invariant else center
    X = base + _unit_offsets(center.size, ball.norm, n_x, seed) * ball.radius
    return float(np.min(_entry_products(kernel.partial_block, [functional],
                                        base[None], X)))
