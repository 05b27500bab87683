"""Embedded dense primal-dual interior-point solver.

Solves convex quadratic cone programs

    minimize    (1/2) x^T P x + q^T x + const
    subject to  A_eq x = b_eq
                G x + s = h,   s in C

where ``C`` is a product of nonnegative-orthant and second-order cones.
The rows ``G``, ``h`` arrive in one store in canonical order, every
nonnegative row first and then the second-order blocks, and the solver
works on that store as it is: ``Solution.s`` and ``Solution.z`` come out
in the same order.

The iteration is a Mehrotra-style predictor-corrector with Nesterov-Todd
scaling, dense linear algebra, and infeasible start: problem sizes here are a
few thousand variables at most, so each Newton step is a Cholesky-backed
Schur-complement solve.  Everything is deterministic for fixed inputs.

Newton matrix.  Eliminating the slack and cone-multiplier steps leaves
``H = P + G^T W^{-2} G`` over ``x`` (equality rows add a Schur complement
on top), factored once per iteration.  ``W^{-2}`` is diagonal on the
nonnegative rows and ``(2 wt wt^T - J) / eta^2`` on a second-order block,
with ``wt = J wbar`` and ``J = diag(1, -1, ..., -1)``.  Blocks enter ``H``
through one dense product over their rows, except wide ones: a block with
``d >= n`` rows (a norm cap or norm epigraph over the whole coefficient
vector) adds ``(2 v v^T - G_b^T J G_b) / eta^2`` with ``v = G_b^T wt``, a
rank-one update of an ``n x n`` matrix formed once per solve, so it costs
O(n^2) per iteration instead of O(d n^2).  That matrix is kept as its
diagonal when it has no off-diagonal nonzero (identity rows, as in econ).
Each solve forms H in one workspace of two ``n x n`` buffers, so the matrix
one call returns is overwritten by the next, and the other blocks' rows
are a view of G when they come first.  Where :func:`cpus.spare_cpu`
allows, a tall program (n >= 64, at least 8 n narrow rows) forms that
product in two column halves, the second on a helper thread.  Only shapes
measured to keep the one product's bits are split: with OpenBLAS 0.3.31,
n <= 192 or n a multiple of 8.

Block runs.  Consecutive SOC blocks of one dimension sit on contiguous
canonical rows, so each per-block step works on a whole run at once through
the view ``v[r0:r0 + c*d].reshape(c, d)`` (econ's 225 anchor cones are one
run).  Every output keeps the bits of the one-block-at-a-time code, because
SOAP's saturation test reads slacks at the solver's own tolerance, so its
stop turns on last bits: reductions are ``np.vecdot`` or stacked ``@``,
Python's ``min``/``max`` NaN rules are kept, and a block's leading entry is
squared by libm ``pow`` (``np.float_power``), as the numpy scalar was, not
as ``x * x``.  The Cholesky back half is a triangular solve, bit-equal to
an LU solve with ``L^T``; the forward half stays an LU solve, since a
triangular one changes its bits.  Both holdovers can go once SOAP's stop
no longer depends on rounding.  L gets one LU per Newton matrix, through
numpy's own LAPACK: ``dgetrf`` once, then ``dgetrs`` per right-hand side
are the ``dgesv`` that ``np.linalg.solve`` runs, so each solve keeps its
bits.  scipy's ``lu_factor`` would not: scipy loads another OpenBLAS build.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from . import cpus

# --------------------------------------------------------------------------
# Program description
# --------------------------------------------------------------------------

@dataclass
class ConeBlock:
    """One cone-constrained row block ``h - G x in cone(kind)``.  In a
    :class:`ConeProgram`, ``G`` and ``h`` are views of the program's rows."""

    kind: str  # 'nonneg' | 'soc'
    G: np.ndarray
    h: np.ndarray
    provenance: tuple = ()

    def __post_init__(self):
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.h = np.asarray(self.h, dtype=float).ravel()
        if self.kind not in ("nonneg", "soc"):
            raise ValueError(f"unsupported cone kind {self.kind!r}")
        if self.G.shape[0] != self.h.size:
            raise ValueError("cone block G/h row mismatch")


@dataclass
class ConeProgram:
    """Finite-dimensional conic program with provenance-tagged rows.

    The cone rows live in one C-contiguous ``(m, n)`` store ``G``, ``h`` in
    the solver's order, every nonneg block before the SOC blocks, and each
    block's ``G``, ``h`` are views of its rows there.  ``assemble`` passes
    the store it wrote; blocks given without one are stacked into it here.
    ``block_slices`` holds each block's rows of the store.
    """

    n: int
    P: np.ndarray | None = None
    q: np.ndarray | None = None
    const: float = 0.0
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    blocks: list[ConeBlock] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    G: np.ndarray | None = None
    h: np.ndarray | None = None

    def __post_init__(self):
        self.P = np.asarray(np.zeros((self.n, self.n)) if self.P is None
                            else self.P, dtype=float)
        self.q = np.asarray(np.zeros(self.n) if self.q is None else self.q,
                            dtype=float).ravel()
        if self.A_eq is None:
            self.A_eq = np.zeros((0, self.n))
        self.A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
        if self.A_eq.size == 0:
            self.A_eq = self.A_eq.reshape(0, self.n)
        self.b_eq = np.asarray(np.zeros(0) if self.b_eq is None
                               else self.b_eq, dtype=float).ravel()
        if self.P.shape != (self.n, self.n):
            raise ValueError("objective Hessian has wrong shape")
        if self.q.size != self.n:
            raise ValueError("objective gradient has wrong length")
        kinds = [blk.kind for blk in self.blocks]
        if kinds != sorted(kinds):  # "nonneg" sorts before "soc"
            raise ValueError("nonneg blocks must come before every SOC "
                             "block")
        for blk in self.blocks:
            if blk.G.shape[1] != self.n:
                raise ValueError(
                    f"cone block {blk.provenance} has {blk.G.shape[1]} "
                    f"columns, expected {self.n}"
                )
        stacked = self.G is None
        if stacked:  # the blocks' rows, stacked once
            self.G = np.vstack([blk.G for blk in self.blocks]
                               or [np.zeros((0, self.n))])
            self.h = np.concatenate([blk.h for blk in self.blocks]
                                    or [np.zeros(0)])
        ends = np.cumsum([0] + [blk.h.size for blk in self.blocks]).tolist()
        if ends[-1] != self.h.size:
            raise ValueError("cone blocks do not cover the program's rows")
        self.block_slices = [slice(a, b) for a, b in zip(ends, ends[1:])]
        for blk, sl in zip(self.blocks, self.block_slices):
            rows = self.G[sl], self.h[sl]
            if not stacked and [v.__array_interface__ for v in rows] != \
                    [blk.G.__array_interface__, blk.h.__array_interface__]:
                raise ValueError(f"cone block {blk.provenance} is not a "
                                 "view of the program's rows")
            blk.G, blk.h = rows

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.P @ x + self.q @ x + self.const)


@dataclass
class SolverSettings:
    max_iter: int = 200
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    step_fraction: float = 0.99

    def __post_init__(self):
        if min(self.feas_tol, self.gap_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.step_fraction < 1:
            raise ValueError("step_fraction must lie in (0, 1)")


#: the columns of ``Solution.trace``
TRACE_FIELDS = ("pres", "dres", "gap", "mu", "reg", "sigma", "step")


@dataclass
class Solution:
    """``stop_reason`` is the status, or why a ``max_iter`` solve stopped:
    ``dual_stall``, ``non_finite`` (iterate, Newton matrix or direction),
    ``factorization`` (or a direct equality solve off its residuals) or
    ``max_iter``; ``polished`` if the dual polish made it ``optimal``.

    ``trace`` has one row per iteration, its columns named by
    :data:`TRACE_FIELDS`: the relative primal and dual residuals ``pres``
    and ``dres``, the relative gap ``gap`` and ``mu`` that the stopping
    test read, then, as far as the iteration got (NaN beyond), the static
    regularization ``reg`` added to the Newton matrix before factoring,
    the centering ``sigma`` and the ``step`` length taken."""

    x: np.ndarray
    y_eq: np.ndarray
    z: np.ndarray
    s: np.ndarray
    status: str
    stop_reason: str
    objective: float
    residuals: dict
    iterations: int
    trace: np.ndarray = field(
        default_factory=lambda: np.zeros((0, len(TRACE_FIELDS))))


# --------------------------------------------------------------------------
# Cone bookkeeping (canonical form: nonneg entries first, then SOC blocks)
# --------------------------------------------------------------------------

class _Cones:
    def __init__(self, nonneg: int, soc_dims: list[int]):
        self.l = nonneg
        self.soc_dims = soc_dims
        self.m = nonneg + sum(soc_dims)
        ends = np.cumsum([nonneg, *soc_dims]).tolist()
        self.soc_slices = [slice(a, b) for a, b in zip(ends, ends[1:])]
        # Barrier degree: each nonneg entry and each SOC block counts one.
        self.degree = max(nonneg + len(soc_dims), 1)
        self.runs = self.runs_of(range(len(soc_dims)))

    @classmethod
    def of(cls, prog: ConeProgram) -> "_Cones":
        """The cones of a program's rows."""
        return cls(sum(blk.h.size for blk in prog.blocks
                       if blk.kind == "nonneg"),
                   [blk.h.size for blk in prog.blocks if blk.kind == "soc"])

    def runs_of(self, blocks) -> list[tuple[int, int, int, int]]:
        """Runs ``(row0, count, dim, block0)``: consecutive equal-dimension
        SOC blocks among ``blocks``, ``row0`` counted in a vector of the
        nonneg rows and then the rows of ``blocks``, in order."""
        runs, row = [], self.l
        for k in blocks:
            r0, c, d, k0 = runs[-1] if runs else (0, 0, 0, 0)
            if d == self.soc_dims[k] and k0 + c == k:
                runs[-1] = (r0, c + 1, d, k0)
            else:
                runs.append((row, 1, self.soc_dims[k], k))
            row += self.soc_dims[k]
        return runs

    def identity(self) -> np.ndarray:
        e = np.zeros(self.m)
        e[: self.l] = 1.0
        e[[sl.start for sl in self.soc_slices]] = 1.0
        return e


def _run(v: np.ndarray, row0: int, count: int, dim: int) -> np.ndarray:
    """Rows ``row0 ..`` of ``v`` as ``count`` blocks of ``dim``: a view."""
    return v[row0: row0 + count * dim].reshape(count, dim, *v.shape[1:])


def _max(a, b):
    """Python's ``max(a, b)`` elementwise: ``b`` only where ``b > a``."""
    return np.where(b > a, b, a)


def _max_step(v: np.ndarray, dv: np.ndarray, cones: _Cones) -> float:
    """Largest alpha with v + alpha*dv in the cone (inf -> 1e18)."""
    alpha = 1e18
    vn, dn = v[: cones.l], dv[: cones.l]
    if (dn < 0).any():
        alpha = min(alpha, float(np.min(-vn[dn < 0] / dn[dn < 0])))
    for r0, c, d, _ in cones.runs:
        vb, db = _run(v, r0, c, d), _run(dv, r0, c, d)
        v0, d0, v1, d1 = vb[:, 0], db[:, 0], vb[:, 1:], db[:, 1:]
        # f(a) = ||vb1 + a db1||^2 - (vb0 + a db0)^2 is negative strictly
        # inside the cone; the boundary is hit at the first positive root.
        # A step of 1e18 or more never beats alpha, so it stands for "none".
        a = np.vecdot(d1, d1) - d0 * d0
        b = 2.0 * (np.vecdot(v1, d1) - v0 * d0)
        cc = np.vecdot(v1, v1) - v0 * v0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sq = np.sqrt(b * b - 4.0 * a * cc)  # NaN: no real root
            roots = np.stack([-b - sq, -b + sq]) / (2 * a)
            step = np.where(roots > 0, roots, 1e18).min(axis=0)
            linear = np.abs(a) < 1e-300
            if linear.any():
                step[linear] = np.where(b > 0, _max(-cc / b, 0.0),
                                        1e18)[linear]
            edge = -v0 / d0
        hit = (d0 < 0) & (edge < step)
        step[hit] = edge[hit]
        alpha = min(alpha, *step.tolist())
    return alpha


# --------------------------------------------------------------------------
# Nesterov-Todd scaling
# --------------------------------------------------------------------------

class _Scaling:
    """Blockwise NT scaling point: W z = W^{-1} s = lambda.  Per SOC block
    a scale ``eta[k]`` and a unit point ``wbar`` on the block's rows."""

    def __init__(self, s: np.ndarray, z: np.ndarray, cones: _Cones):
        self.cones = cones
        l = cones.l
        self.w_nn = np.sqrt(s[:l] / z[:l]) if l else np.zeros(0)
        self.lmbda = np.zeros(cones.m)
        if l:
            self.lmbda[:l] = np.sqrt(s[:l] * z[:l])
        self.eta = np.empty(len(cones.soc_dims))
        self.wbar = np.zeros(cones.m)
        for r0, c, d, k0 in cones.runs:
            sb, zb = _run(s, r0, c, d), _run(z, r0, c, d)
            ds = np.sqrt(_max(np.float_power(sb[:, 0], 2)
                              - np.vecdot(sb[:, 1:], sb[:, 1:]), 1e-300))
            dz = np.sqrt(_max(np.float_power(zb[:, 0], 2)
                              - np.vecdot(zb[:, 1:], zb[:, 1:]), 1e-300))
            sbar, zbar = sb / ds[:, None], zb / dz[:, None]
            gamma2 = 2.0 * np.sqrt((1.0 + np.vecdot(sbar, zbar)) / 2.0)
            wbar = _run(self.wbar, r0, c, d)
            wbar[:, 0] = (sbar[:, 0] + zbar[:, 0]) / gamma2
            wbar[:, 1:] = (sbar[:, 1:] - zbar[:, 1:]) / gamma2[:, None]
            eta = self.eta[k0: k0 + c] = np.sqrt(ds / dz)
            self._apply_run(eta, wbar, zb, _run(self.lmbda, r0, c, d), 1.0)

    @staticmethod
    def _apply_run(eta, wbar, u, out, sign: float) -> None:
        """``out = W u`` (sign 1) or ``W^{-1} u`` (sign -1) on a run, with
        W = eta * [[w0, w1^T], [w1, I + w1 w1^T / (1 + w0)]] and
        W^{-1} = (1/eta) * J W_bar J."""
        dot = np.vecdot(wbar[:, 1:], u[:, 1:])
        out[:, 0] = wbar[:, 0] * u[:, 0] + sign * dot
        coef = sign * u[:, 0] + dot / (1.0 + wbar[:, 0])
        out[:, 1:] = u[:, 1:] + coef[:, None] * wbar[:, 1:]
        (np.multiply if sign > 0 else np.divide)(out, eta[:, None], out=out)

    def _apply(self, u: np.ndarray, sign: float) -> np.ndarray:
        out = np.empty_like(u)
        l = self.cones.l
        out[:l] = self.w_nn * u[:l] if sign > 0 else u[:l] / self.w_nn
        for r0, c, d, k0 in self.cones.runs:
            self._apply_run(self.eta[k0: k0 + c], _run(self.wbar, r0, c, d),
                            _run(u, r0, c, d), _run(out, r0, c, d), sign)
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        return self._apply(u, 1.0)

    def apply_inv(self, u: np.ndarray) -> np.ndarray:
        """W^{-1} u (= W^{-T} u; W is symmetric)."""
        return self._apply(u, -1.0)

    def apply_w2inv_mat(self, M: np.ndarray, blocks=None) -> np.ndarray:
        """(W^T W)^{-1} M for a matrix M, blockwise closed form.

        With ``blocks`` (SOC block indices), M holds the nonneg rows and
        then only the rows of those blocks, in that order.
        """
        out = np.empty_like(M)
        l = self.cones.l
        if l:
            np.divide(M[:l], (self.w_nn ** 2)[:, None], out=out[:l])
        cones = self.cones
        for r0, c, d, k0 in cones.runs if blocks is None else \
                cones.runs_of(blocks):
            # (2 wt (wt^T B) - J B) / eta^2 with wt = J wbar, per block
            wt = _run(self.wbar, cones.soc_slices[k0].start, c, d).copy()
            np.negative(wt[:, 1:], out=wt[:, 1:])
            blk, ob = _run(M, r0, c, d), _run(out, r0, c, d)
            np.multiply(wt[:, :, None], wt[:, None, :] @ blk, out=ob)
            ob *= 2.0
            ob[:, :1] -= blk[:, :1]
            ob[:, 1:] += blk[:, 1:]
            ob /= np.square(self.eta[k0: k0 + c])[:, None, None]
        return out


def _jordan_product(u: np.ndarray, v: np.ndarray, cones: _Cones) -> np.ndarray:
    out = np.empty(cones.m)
    l = cones.l
    out[:l] = u[:l] * v[:l]
    for r0, c, d, _ in cones.runs:
        ub, vb, ob = _run(u, r0, c, d), _run(v, r0, c, d), _run(out, r0, c, d)
        ob[:, 0] = np.vecdot(ub, vb)
        ob[:, 1:] = ub[:, :1] * vb[:, 1:] + vb[:, :1] * ub[:, 1:]
    return out


def _jordan_solve(lmbda: np.ndarray, d: np.ndarray,
                  cones: _Cones) -> np.ndarray:
    """Solve lambda o u = d blockwise."""
    out = np.empty(cones.m)
    l = cones.l
    # lambda is interior in exact arithmetic; floor the divisors relative
    # to the iterate's scale so components that underflow near convergence
    # (primal-dual degenerate blocks) give large-but-finite quotients
    # instead of inf, which would poison later products with NaNs.
    floor = 1e-30 * (1.0 + float(np.max(np.abs(lmbda), initial=0.0)))
    out[:l] = d[:l] / np.maximum(lmbda[:l], floor)
    for r0, c, dim, _ in cones.runs:
        lb, db, ob = (_run(v, r0, c, dim) for v in (lmbda, d, out))
        det = _max(np.float_power(lb[:, 0], 2)
                   - np.vecdot(lb[:, 1:], lb[:, 1:]), floor * floor)
        lb0 = _max(lb[:, 0], floor)
        u0 = (lb[:, 0] * db[:, 0] - np.vecdot(lb[:, 1:], db[:, 1:])) / det
        ob[:, 0] = u0
        ob[:, 1:] = (db[:, 1:] - u0[:, None] * lb[:, 1:]) / lb0[:, None]
    return out


# --------------------------------------------------------------------------
# Newton system
# --------------------------------------------------------------------------

def _newton_matrix_factory(P: np.ndarray, G: np.ndarray, cones: _Cones):
    """``W -> H = P + G^T W^{-2} G`` with wide SOC blocks as rank-one terms.

    A SOC block of dimension d >= n is wide: its n x n matrix
    ``C_b = G_b^T J G_b`` (J = diag(1, -1, ..., -1)) is no larger than its
    own rows, so ``C_b`` is formed once here and the block's rows leave the
    per-iteration product.  Each call then adds the block's exact term
    ``(2 v v^T - C_b) / eta_b^2`` with ``v = G_b^T J wbar_b``; a ``C_b``
    with no off-diagonal nonzero is kept as its diagonal (``x - 0`` is
    exact).  H is formed in two n x n buffers allocated here, so each call
    overwrites the matrix the last one returned.  The narrow rows are a
    view of G when they come first, as in every program ``assemble`` builds.
    """
    n = G.shape[1]
    wide = [k for k, d in enumerate(cones.soc_dims) if d >= n]
    narrow = [k for k in range(len(cones.soc_dims)) if k not in wide]
    rows = np.concatenate([np.arange(cones.l)] + [
        np.arange(cones.soc_slices[k].start, cones.soc_slices[k].stop)
        for k in narrow])
    Gn = G[rows] if (rows != np.arange(rows.size)).any() else G[: rows.size]
    terms = []
    for k in wide:
        Gb = G[cones.soc_slices[k]]
        C = np.outer(Gb[0], Gb[0]) - Gb[1:].T @ Gb[1:]
        if np.count_nonzero(C) == np.count_nonzero(np.diagonal(C)):
            C = np.diagonal(C).copy()
        terms.append((k, Gb, C))
    H, T = np.empty((n, n)), np.empty((n, n))
    T_diag = T.reshape(-1)[:: n + 1]  # a view of T's diagonal
    # tall, and two halves measured to keep the one product's bits
    split = n >= 64 and Gn.shape[0] >= 8 * n and (n <= 192 or n % 8 == 0)
    mid = n // 2 // 8 * 8

    def newton_matrix(W: _Scaling) -> np.ndarray:
        def product(cols: slice) -> None:  # H[:, cols] = Gn^T W^-2 Gn[:, cols]
            np.matmul(Gn.T, W.apply_w2inv_mat(Gn[:, cols], narrow),
                      out=H[:, cols])
        if split and cpus.spare_cpu():
            with ThreadPoolExecutor(1) as helper:  # joined at the exit
                # in a copy of this context, which holds np.errstate
                second = helper.submit(contextvars.copy_context().run,
                                       product, slice(mid, n))
                product(slice(0, mid))
                second.result()
        else:
            product(slice(0, n))
        np.add(H, P, out=H)
        for k, Gb, C in terms:
            eta, wbar = W.eta[k], W.wbar[cones.soc_slices[k]]
            v = Gb[0] * wbar[0] - Gb[1:].T @ wbar[1:]
            np.outer(v, v, out=T)
            np.multiply(T, 2.0, out=T)
            T_C = T_diag if C.ndim == 1 else T
            np.subtract(T_C, C, out=T_C)
            np.divide(T, eta * eta, out=T)
            np.add(H, T, out=H)
        np.add(H, H.T, out=T)  # _sym(H), in T
        np.multiply(T, 0.5, out=T)
        return T
    return newton_matrix


def _chol_solve_factory(H: np.ndarray):
    """Cholesky factor with escalating static regularization.  Returns the
    solve and the regularization it added to the diagonal.  The forward half
    reuses one LU of L (``np.linalg.solve`` without numpy's LAPACK)."""
    n = H.shape[0]
    scale = max(float(np.trace(H)) / max(n, 1), 1.0)
    reg = 0.0
    while True:
        try:
            L = np.linalg.cholesky(H + reg * np.eye(n) if reg else H)
            break
        except np.linalg.LinAlgError:
            reg = max(reg * 100.0, 1e-12 * scale)
            if reg > 1e-4 * scale:
                raise
    lapack = _lapack()
    if lapack is not None:
        getrf, getrs = lapack
        LU, ipiv = np.array(L, order="F"), np.empty(n, dtype=np.int64)
        N, info = ctypes.c_int64(n), ctypes.c_int64()
        getrf(N, N, LU, N, ipiv, info)
        _lapack_info(info)
    def solve(rhs: np.ndarray) -> np.ndarray:
        if lapack is not None:
            tmp = np.array(rhs, dtype=float)
            getrs(b"N", N, ctypes.c_int64(1), LU, N, ipiv, tmp, N, info, 1)
            _lapack_info(info)
        else:
            tmp = np.linalg.solve(L, rhs)
        return solve_triangular(L, tmp, trans="T", lower=True,
                                check_finite=False)
    return solve, reg


@functools.cache
def _lapack():
    """numpy's own ILP64 ``dgetrf`` and ``dgetrs``, which ``np.linalg.solve``
    runs as ``dgesv``; bound on first use, None on a numpy without them."""
    import glob  # loaded with the binding, not at import

    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]),
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:  # the loaded library: same handle, same thread pool
        lib = ctypes.CDLL(libs[0])
        getrf, getrs = lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_
    except (IndexError, OSError, AttributeError):
        return None
    i8, f8 = ctypes.POINTER(ctypes.c_int64), np.ctypeslib.ndpointer(
        np.float64, flags="F_CONTIGUOUS")
    ipiv = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    getrf.argtypes = [i8, i8, f8, i8, ipiv, i8]
    getrs.argtypes = [ctypes.c_char_p, i8, i8, f8, i8, ipiv, f8, i8, i8,
                      ctypes.c_size_t]  # the length of ``trans``
    getrf.restype = getrs.restype = None
    return getrf, getrs


def _lapack_info(info: ctypes.c_int64) -> None:
    if info.value < 0:
        raise ValueError(f"LAPACK argument {-info.value} is invalid")
    if info.value > 0:
        raise np.linalg.LinAlgError("Singular matrix")


# --------------------------------------------------------------------------
# Main solver
# --------------------------------------------------------------------------

def _centering(mu_aff: float, mu: float) -> float:
    """Mehrotra's ``(mu_aff / mu)^3``, the ratio clamped to [0, 1] first: a
    diverged predictor (|mu_aff| ~ 1e252) would overflow the cube."""
    return min(1.0, max(0.0, mu_aff / mu)) ** 3 if mu > 0 else 0.0


def solve(prog: ConeProgram, settings: SolverSettings | None = None,
          x0: np.ndarray | None = None) -> Solution:
    """Solve the cone program; see module docstring for the method."""
    st = settings or SolverSettings()
    n = prog.n
    P, q = prog.P, prog.q
    A, b = prog.A_eq, prog.b_eq
    p = A.shape[0]
    G, h = prog.G, prog.h
    cones = _Cones.of(prog)
    m = cones.m

    if m == 0:
        return _solve_equality_qp(prog, st, A, b)

    newton_matrix = _newton_matrix_factory(P, G, cones)
    # Infeasible start: x from the warm start (or zero), multipliers at the
    # cone identity.  The iteration drives the residuals to zero itself.
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.size != n:
        raise ValueError("warm-start vector has wrong length")
    y = np.zeros(p)
    e = cones.identity()
    s = e.copy()
    z = e.copy()

    bnorm = max(1.0, float(np.linalg.norm(b, np.inf)) if p else 0.0)
    hnorm = max(1.0, float(np.linalg.norm(h, np.inf)) if m else 0.0)
    qnorm = max(1.0, float(np.linalg.norm(q, np.inf)))

    status = stop = "max_iter"
    iters = 0
    best_dres = np.inf
    dual_stall = 0
    x_prev, y_prev, s_prev, z_prev = x, y, s, z
    trace = np.full((st.max_iter, len(TRACE_FIELDS)), np.nan)
    for it in range(st.max_iter):
        iters = it + 1
        rx = P @ x + q + G.T @ z + (A.T @ y if p else 0.0)
        ry = A @ x - b if p else np.zeros(0)
        rz = G @ x + s - h
        cgap = float(s @ z)
        pobj = prog.objective(x)

        pres = float(np.linalg.norm(rz, np.inf)) / hnorm
        if p:
            pres = max(pres, float(np.linalg.norm(ry, np.inf)) / bnorm)
        dres = float(np.linalg.norm(rx, np.inf)) / qnorm
        relgap = cgap / max(1.0, abs(pobj))
        mu = cgap / cones.degree
        row = trace[it]  # filled in TRACE_FIELDS order
        row[:4] = pres, dres, relgap, mu

        if not (np.isfinite(pobj) and np.isfinite(cgap)):
            x, y, s, z = x_prev, y_prev, s_prev, z_prev
            stop = "non_finite"
            break
        if pres <= st.feas_tol and dres <= st.feas_tol and relgap <= st.gap_tol:
            status = stop = "optimal"
            break
        if _infeasibility_certificate(A, b, G, h, y, z, st.feas_tol):
            status = stop = "infeasible"
            break
        if (
            float(np.linalg.norm(x, np.inf)) >= 1e8
            and pres <= st.feas_tol
            and pobj <= -1e8
        ):
            status = stop = "unbounded"
            break
        if pres <= st.feas_tol and relgap <= st.gap_tol:
            # Primal and gap are done; only dual stationarity is lagging.
            # If it stops improving the iteration is churning on a
            # degenerate face -- exit and let the dual polish finish.
            if dres < 0.5 * best_dres:
                best_dres = dres
                dual_stall = 0
            else:
                dual_stall += 1
            if dual_stall >= 15:
                stop = "dual_stall"
                break
        x_prev, y_prev, s_prev, z_prev = x, y, s, z

        # Near a degenerate face the Nesterov-Todd scaling blows up and the
        # direction solve can run through inf/nan.  Compute it with the FP
        # traps off and bail out of the loop if the result is not finite:
        # the current iterate is still the last accepted one, and the dual
        # polish below can usually finish from it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            W = _Scaling(s, z, cones)
            lmbda = W.lmbda

            hsolve = None  # free the last factor before H is formed
            H = newton_matrix(W)
            if not np.all(np.isfinite(H)):
                stop = "non_finite"
                break
            try:
                hsolve, row[4] = _chol_solve_factory(H)
            except np.linalg.LinAlgError:
                stop = "factorization"
                break

            if p:
                HinvAt = np.column_stack([hsolve(A[i]) for i in range(p)])
                S = A @ HinvAt
                s_solve = _chol_solve_factory(_sym(S))[0]

            def newton(bx, by, bz, d):
                # Solve   P dx + A^T dy + G^T dz = bx
                #         A dx                   = by
                #         G dx + ds              = bz
                #         lambda o (W dz + W^{-1} ds) = d
                # by eliminating ds = W(g - W dz), g = lambda \ d, then dz,
                # leaving the symmetric reduced system in (dx, dy).
                g = _jordan_solve(lmbda, d, cones)
                wg_minus_bz = W.apply(g) - bz
                rx_mod = bx - G.T @ W.apply_w2inv_mat(
                    wg_minus_bz.reshape(-1, 1)).ravel()
                if p:
                    t = hsolve(rx_mod)
                    dy = s_solve(A @ t - by)
                    dx = t - HinvAt @ dy
                else:
                    dy = np.zeros(0)
                    dx = hsolve(rx_mod)
                dz = W.apply_w2inv_mat(
                    (G @ dx + wg_minus_bz).reshape(-1, 1)).ravel()
                ds = bz - G @ dx
                return dx, dy, dz, ds

            # --- affine (predictor) direction
            d_aff = -_jordan_product(lmbda, lmbda, cones)
            dxa, dya, dza, dsa = newton(-rx, -ry, -rz, d_aff)
            alpha_aff = min(
                1.0,
                _max_step(s, dsa, cones),
                _max_step(z, dza, cones),
            )
            mu_aff = float((s + alpha_aff * dsa) @ (z + alpha_aff * dza))
            mu_aff /= cones.degree
            sigma = _centering(mu_aff, mu)

            # --- combined (corrector) direction
            corr = _jordan_product(W.apply_inv(dsa), W.apply(dza), cones)
            d_comb = d_aff - corr + sigma * mu * e
            dx, dy, dz, ds = newton(-rx, -ry, -rz, d_comb)
            alpha = min(
                1.0,
                st.step_fraction * _max_step(s, ds, cones),
                st.step_fraction * _max_step(z, dz, cones),
            )
        if not (np.isfinite(alpha) and np.all(np.isfinite(dx))
                and np.all(np.isfinite(ds)) and np.all(np.isfinite(dz))
                and np.all(np.isfinite(dy))):
            stop = "non_finite"
            break
        for _ in range(10):
            s_new, z_new = s + alpha * ds, z + alpha * dz
            if _strictly_interior(s_new, cones) and \
                    _strictly_interior(z_new, cones):
                break
            alpha *= 0.8
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        z = z + alpha * dz
        row[5:] = sigma, alpha

    if status == "max_iter":
        # The loop ended without a certificate.  If the primal point is
        # feasible, try to reconstruct exact multipliers from its active
        # set; degenerate programs often converge in x long before the
        # dual iterate settles.
        rz = G @ x + s - h
        pres = float(np.linalg.norm(rz, np.inf)) / hnorm
        if p:
            pres = max(pres, float(np.linalg.norm(A @ x - b, np.inf)) / bnorm)
        if pres <= st.feas_tol:
            polished = _dual_polish(P, q, A, G, h, x, s, cones,
                                    st.feas_tol, qnorm)
            if polished is not None:
                y2, z2 = polished
                cgap2 = abs(float(s @ z2))
                if cgap2 / max(1.0, abs(prog.objective(x))) <= st.gap_tol:
                    y, z = y2, z2
                    status, stop = "optimal", "polished"

    return Solution(
        x=x, y_eq=y, z=z, s=s, status=status, stop_reason=stop,
        objective=prog.objective(x),
        residuals=_final_residuals(prog, x, y, z, s), iterations=iters,
        trace=trace[:iters].copy(),
    )


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _strictly_interior(v: np.ndarray, cones: _Cones) -> bool:
    if cones.l and np.min(v[: cones.l]) <= 0:
        return False
    for r0, c, d, _ in cones.runs:
        vb = _run(v, r0, c, d)
        if (vb[:, 0] - np.sqrt(np.vecdot(vb[:, 1:], vb[:, 1:])) <= 0).any():
            return False
    return True


def _dual_polish(P, q, A, G, h, x, s, cones, feas_tol, qnorm):
    """Rebuild multipliers from the active set at a converged primal point.

    Nearly parallel covering rows and interval-valued enclosure auxiliaries
    make the endgame complementarity degenerate: the primal settles on the
    optimum while the dual estimate churns.  At such a point the exact
    multipliers solve a small sign-constrained least-squares problem over
    the active nonnegative rows (one weight each) and the active
    second-order blocks (one weight along the reflected slack ray).
    Returns ``(y, z)`` on success, ``None`` when no certifying dual exists
    at the requested tolerance.
    """
    grad = P @ x + q
    l = cones.l
    act = 1e-5
    cols: list[np.ndarray] = []
    lower: list[float] = []
    nn_idx: list[int] = []
    ray_blocks: list[tuple[slice, np.ndarray]] = []
    if l:
        for i in np.where(s[:l] <= act * (1.0 + np.abs(h[:l])))[0]:
            cols.append(G[i])
            lower.append(0.0)
            nn_idx.append(int(i))
    for sl in cones.soc_slices:
        sb = s[sl]
        tail = float(np.linalg.norm(sb[1:]))
        if sb[0] - tail > act * (1.0 + abs(sb[0])):
            continue  # strictly slack: multiplier stays zero
        if tail <= 1e-12 * (1.0 + abs(sb[0])):
            return None  # apex-degenerate block: ray undefined
        ray = np.empty(sb.size)
        ray[0] = 1.0
        ray[1:] = -sb[1:] / tail
        cols.append(G[sl].T @ ray)
        lower.append(0.0)
        ray_blocks.append((sl, ray))
    p = A.shape[0]
    for i in range(p):
        cols.append(A[i])
        lower.append(-np.inf)

    z = np.zeros(cones.m)
    y = np.zeros(p)
    if not cols:
        ok = float(np.linalg.norm(grad, np.inf)) <= feas_tol * qnorm
        return (y, z) if ok else None
    # Imported here: scipy.optimize takes about 0.3 s to load, and only
    # solves that end without a certificate get this far.
    from scipy.optimize import lsq_linear

    C = np.column_stack(cols)
    res = lsq_linear(C, -grad, bounds=(np.asarray(lower), np.inf))
    w = res.x
    if float(np.linalg.norm(grad + C @ w, np.inf)) > feas_tol * qnorm:
        return None
    k = 0
    for i in nn_idx:
        z[i] = max(w[k], 0.0)
        k += 1
    for sl, ray in ray_blocks:
        z[sl] = max(w[k], 0.0) * ray
        k += 1
    if p:
        y = w[k:]
    return y, z


def _infeasibility_certificate(A, b, G, h, y, z, tol) -> bool:
    """Approximate Farkas certificate: G^T z + A^T y ~ 0, h^T z + b^T y < 0."""
    scale = float(np.linalg.norm(z, np.inf))
    if A.shape[0]:
        scale = max(scale, float(np.linalg.norm(y, np.inf)))
    if scale < 1e6:
        return False
    resid = G.T @ z + (A.T @ y if A.shape[0] else 0.0)
    val = float(h @ z + (b @ y if A.shape[0] else 0.0))
    return (
        float(np.linalg.norm(resid, np.inf)) <= tol * scale
        and val < -tol * scale
    )


def _solve_equality_qp(prog: ConeProgram, st: SolverSettings,
                       A: np.ndarray, b: np.ndarray) -> Solution:
    """No cone rows: direct KKT solve of the equality-constrained QP."""
    n, p = prog.n, A.shape[0]
    K = np.zeros((n + p, n + p))
    K[:n, :n] = prog.P
    if p:
        K[:n, n:] = A.T
        K[n:, :n] = A
    rhs = np.concatenate([-prog.q, b])
    scale = max(float(np.trace(prog.P)) / max(n, 1), 1.0)
    sol = None
    for reg in (0.0, 1e-12 * scale, 1e-10 * scale, 1e-8 * scale):
        try:
            Kr = K.copy()
            Kr[:n, :n] += reg * np.eye(n)
            sol = np.linalg.solve(Kr, rhs)
            break
        except np.linalg.LinAlgError:
            continue
    if sol is None:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    x, y = sol[:n], sol[n:]
    residuals = _final_residuals(prog, x, y, np.zeros(0), np.zeros(0))
    ok = residuals["stationarity"] <= 1e-6 and residuals["primal_eq"] <= 1e-6
    return Solution(
        x=x, y_eq=y, z=np.zeros(0), s=np.zeros(0),
        status="optimal" if ok else "max_iter",
        stop_reason="optimal" if ok else "factorization",
        objective=prog.objective(x), residuals=residuals, iterations=1,
    )


def _final_residuals(prog: ConeProgram, x, y, z, s) -> dict:
    rx = prog.P @ x + prog.q + prog.G.T @ z
    if prog.A_eq.shape[0]:
        rx = rx + prog.A_eq.T @ y
    ry_inf = (
        float(np.linalg.norm(prog.A_eq @ x - prog.b_eq, np.inf))
        if prog.A_eq.shape[0] else 0.0
    )
    return {
        "stationarity": float(np.linalg.norm(rx, np.inf)),
        "primal_eq": ry_inf,
        "primal_cone": float(np.max(np.abs(prog.G @ x + s - prog.h),
                                    initial=0.0)),
        "comp_gap": float(s @ z) if s.size else 0.0,
    }
