"""Embedded dense primal-dual interior-point solver.

Solves convex quadratic cone programs

    minimize    (1/2) x^T P x + q^T x + const
    subject to  A_eq x = b_eq
                G x + s = h,   s in C

where ``C`` is a product of nonnegative-orthant and second-order cones.
The rows ``G``, ``h`` arrive in canonical order, every nonnegative row
first and then the second-order blocks, and the solver works on them as
they are: ``Solution.s`` and ``Solution.z`` come out in the same order.

Row store.  The rows sit in one dense store up to the first block given
as :class:`~shapekernel.rows.SparseRows` triples; that block and every
one after it stay triples (:mod:`shapekernel.rows`), so no ``m x n``
array is formed, and ``ConeProgram.rows`` applies them with the bits of
the dense products.

The iteration is a Mehrotra-style predictor-corrector with Nesterov-Todd
scaling, dense linear algebra, and infeasible start: problem sizes here are a
few thousand variables at most, so each Newton step is a Cholesky-backed
Schur-complement solve.  Everything is deterministic for fixed inputs.

Newton matrix.  Eliminating the slack and cone-multiplier steps leaves
``H = P + G^T W^{-2} G`` over ``x`` (equality rows add a Schur complement
on top), factored once per iteration.  ``W^{-2}`` is diagonal on the
nonnegative rows and ``(2 wt wt^T - J) / eta^2`` on a second-order block,
with ``wt = J wbar`` and ``J = diag(1, -1, ..., -1)``.  Blocks enter ``H``
through one dense product over their rows, except the wide ones: the
trailing run of unit-row blocks of ``d >= n`` rows (a norm cap and a norm
epigraph over the whole coefficient vector, econ's) that
:class:`~shapekernel.rows._Rows` finds, as ``rows.wide``.  Each adds ``(2
v v^T - G_b^T J G_b) / eta^2`` with ``v = G_b^T wt``, its constant a
diagonal and ``v`` read off the triples in O(n) with the dense products'
bits, where its rows would add O(d n^2) to every iteration.  Every other
row is narrow, whatever its block's shape: the narrow rows are the prefix
``G[:rows.narrow]``, views of the store, and a product densifies those
past the store a window at a time (see Workspace).

The narrow rows ``G_n`` enter through one of two products, chosen once per
solve from the program's shape.  A large, short program (n > 192 and
fewer than 8 n narrow rows, all in the store) forms ``M^T M`` with ``M =
W^{-1} G_n``, as CVXOPT's cone QP solver forms ``(W^{-T} G)^T (W^{-T}
G)``: numpy runs it as ``dsyrk``, half the flops of a general product,
and the result is exactly symmetric.  Its Cholesky factor is then used by
two triangular solves.  Every other program forms ``G_n^T (W^{-2} G_n)``
with the bits of one general product (streamed on a tall one, see
Workspace) and solves through an LU of the factor (see below), which
keeps their bits: SOAP's stop on the tall enclosure
programs and control's fragile ``ball`` solve on the small ones turn on
last bits, and up to n = 192 the shorter product would save at most
1.3 ms per iteration (n = 192 with 1,535 narrow rows, one BLAS thread).
Since ``assemble`` solves over the Gram's pivot set, econ's fits have
at most about 90 columns, and no benchmark program is large and short.
Of the shipped default configs (seed 0), one reaches the path: robotarm,
whose m = 81 ``disc`` and ``ball`` fits (n = 390 and 391, 270 narrow
rows) are 2 of its 8 solves.  The path stays, as the one all programs
are to take once no stop turns on last bits.

Workspace.  Each solve allocates one workspace, as ECOS allocates its
memory at setup: an ``n x n`` buffer and one flat buffer of max(n^2,
w x n) doubles, w being the most rows of ``W^{-2} G_n`` the product holds
at once.  A tall program (n >= 64, at least 8 n narrow rows: the SOAP
rounds, robotarm's enclosure program, econ's fits) streams its product
over the K panels of OpenBLAS's own ``dgemm`` (:func:`_k_panels`): the
first panel's ``G_n^T (W^{-2} G_n)`` by ``np.matmul``, each later one
added to it, which with BLAS on one thread sums the one call's panels in
its order and so keeps its bits.
Consecutive panels of at least :data:`WINDOW` doubles in all form their
``W^{-2} G_n`` together, on a window of whole SOC blocks, and the rows a
block carries past its panels stay for the next window, so each row is
formed once and w is about ``WINDOW / n`` plus two panels and the largest
narrow block, not the rows: on catenary-soap's largest program 956 rows,
not 9,404 (1.4 MB against 14.4 MB).  Forming one panel's rows at a
time would hold fewer, but each window's numpy calls cost some
microseconds however small it is: with windows of one panel catenary-soap
took 4-9% longer.  A window past the store's rows is densified into a
``w x n`` buffer of its own (one per column half), kept zero between
windows; its ``W^{-2} G_n`` adds the ``-J G`` term at the window's
nonzeros only, found in the solve's first call and kept
(:meth:`_Scaling.apply_w2inv_mat`'s ``nz``).  With BLAS on more threads
OpenBLAS blocks K otherwise,
and a tall product's last bits can differ from one call's, so an unpinned
run can end solves otherwise than one product would: on catenary-soap
with two BLAS threads 10 of 31 SOAP rounds changed status (between
``optimal`` and ``max_iter``, objectives within 1e-10), while the rounds,
the elements and the stop held.  The benchmark and the tools pin BLAS.
Any other program forms its product in one window of every narrow row,
densified past the store in the same way.
The product goes to the ``n x n`` buffer; the symmetrized H then takes the
flat buffer.  H is factored in place: numpy's own ``dpotrf`` factors a
copy of it in the ``n x n`` buffer.  On the LU path L replaces H and
L's LU takes the ``n x n`` buffer; on the triangular path the solves read
the factor where ``dpotrf`` left it.  So no iteration allocates an
``n x n`` array, each iteration overwrites the last one's matrix and
factor, and the solve drops the workspace before the dual polish builds
its own matrices.
Where :func:`cpus.spare_cpu` allows, a solve starts one helper thread and
joins it before it returns, and a tall program forms the product in two
column halves, the second on the helper.  Only shapes measured to keep
the one product's bits are split: with OpenBLAS 0.3.31, n <= 192 or n a
multiple of 8.  The halves pay with the product streamed too: without
them catenary-soap's benchmark pass took 5.2 s, not 4.2 s.

Block runs.  Consecutive SOC blocks of one dimension sit on contiguous
canonical rows, so each per-block step works on a whole run at once through
the view ``v[r0:r0 + c*d].reshape(c, d)`` (econ's 225 anchor cones are one
run).  Every output keeps the bits of the one-block-at-a-time code, because
SOAP's saturation test reads slacks at the solver's own tolerance, so its
stop turns on last bits: reductions are ``np.vecdot`` or stacked ``@``,
Python's ``min``/``max`` NaN rules are kept, and a block's leading entry is
squared by libm ``pow`` (``np.float_power``), as the numpy scalar was, not
as ``x * x``.  On the tall and small programs the Cholesky back half is a
triangular solve, bit-equal to an LU solve with ``L^T``; the forward half
stays an LU solve, since a triangular one changes its bits.  Taken on
every program, ``dsyrk`` alone took catenary-soap from "no saturation"
after 9 SOAP rounds to all 30 (5.5 s to 163 s, BLAS on one thread, on a
2-vCPU VM), and ``dsyrk`` with the triangular solves changed the stop or
iteration count of control's ``ball`` solve on 5 of seeds 0-29.  Both
holdovers can go once SOAP's stop no longer depends on rounding.  L gets
one LU per Newton matrix, through numpy's own LAPACK: ``dgetrf`` once,
then ``dgetrs`` per right-hand side are the ``dgesv`` that
``np.linalg.solve`` runs, so each solve keeps its bits.  scipy's
``lu_factor`` would not: scipy loads another OpenBLAS build.
Where ``dgetrf`` would swap no row, L's LU is L with its columns scaled,
written in O(n^2) with ``dgetrf``'s bits (:func:`_lu_without_pivots`).
Likewise ``dpotrf`` ('L') on a copy of H is the factor that
``np.linalg.cholesky`` computes, to the bit, with its +0.0 upper triangle.

Triangular solves (the Newton solves' back half, both halves on the
large, short programs, the whitening and the coefficient recovery in
``assemble``) run numpy's own ``dtrtrs``, bound next to
``dgetrf``, through :func:`solve_triangular`, so no run imports scipy.
It hands LAPACK the factor in the layout scipy's ``solve_triangular``
does: an F-ordered factor as it is, a C-ordered ``L`` as ``L^T`` with
``uplo`` and ``trans`` flipped.  The bits follow the layout (the other
layout changes them), and on the same layout numpy's ``dtrtrs`` gives
scipy's bits, at one BLAS thread and more; the tests compare the two.
"""

from __future__ import annotations

import bisect
import collections
import contextvars
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import cpus
from .rows import SparseRows, _Rows, store_rows

# --------------------------------------------------------------------------
# Program description
# --------------------------------------------------------------------------

@dataclass
class ConeBlock:
    """One cone-constrained row block ``h - G x in cone(kind)``.  In a
    :class:`ConeProgram`, ``h`` is a view of the program's rows, and so is
    ``G`` up to the first block given as :class:`SparseRows`; from that
    block on each SOC block keeps its triples (a dense one, its
    nonzeros)."""

    kind: str  # 'nonneg' | 'soc'
    G: np.ndarray | SparseRows
    h: np.ndarray
    provenance: tuple = ()

    def __post_init__(self):
        if not isinstance(self.G, SparseRows):
            self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.h = np.asarray(self.h, dtype=float).ravel()
        if self.kind not in ("nonneg", "soc"):
            raise ValueError(f"unsupported cone kind {self.kind!r}")
        if self.G.shape[0] != self.h.size:
            raise ValueError("cone block G/h row mismatch")


@dataclass
class ConeProgram:
    """Finite-dimensional conic program with provenance-tagged rows.

    The cone rows live in the solver's order, every nonneg block before
    the SOC blocks; ``h`` holds every row.  SOC blocks may be given as
    :class:`SparseRows`.  Every block before the first of those is dense:
    its ``G`` and ``h`` are views of the program's rows, and its rows sit
    in the dense store ``G``, C-contiguous with ``n`` columns.  Every
    block from it on is held as triples (a dense one is turned into its
    nonzeros here), so no ``m x n`` array is formed: the store ends at
    :func:`store_rows`, the triples' rows that fall inside it are written
    there, and ``rows`` applies the rest.  ``assemble`` passes the store
    it wrote; blocks given without one are stacked into it here.
    ``block_slices`` holds each block's rows.  The solver takes the
    trailing run of unit-row blocks of at least ``n`` rows (``rows.wide``)
    as rank-one terms of its Newton matrix, and every row before it
    (``rows.narrow``), a dense block's included, in its products.
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
        held = [isinstance(blk.G, SparseRows) for blk in self.blocks]
        if any(u and blk.kind != "soc" for u, blk in zip(held, self.blocks)):
            raise ValueError("sparse rows are for SOC blocks only")
        first = held.index(True) if True in held else len(held)
        dims = [blk.h.size for blk in self.blocks]
        ends = np.cumsum([0] + dims).tolist()
        R = store_rows(dims, held)
        stacked = self.G is None
        if stacked:  # the dense blocks' rows, stacked once
            self.G = np.zeros((R, self.n))
            self.h = np.concatenate([blk.h for blk in self.blocks]
                                    or [np.zeros(0)])
        if ends[-1] != self.h.size or self.G.shape[0] != R:
            raise ValueError("cone blocks do not cover the program's rows")
        self.block_slices = [slice(a, b) for a, b in zip(ends, ends[1:])]
        triples = []
        for j, (blk, sl) in enumerate(zip(self.blocks, self.block_slices)):
            if j >= first:
                if not held[j]:
                    blk.G = SparseRows.of(blk.G)
                u = blk.G
                inside = u.rows < R - sl.start
                self.G[sl.start + u.rows[inside], u.cols[inside]] = \
                    u.vals[inside]
                triples.append((sl.start, u))
                blk.h = self.h[sl]
                continue
            if stacked:
                self.G[sl] = blk.G
            rows = self.G[sl], self.h[sl]
            if not stacked and [v.__array_interface__ for v in rows] != [
                    blk.G.__array_interface__, blk.h.__array_interface__]:
                raise ValueError(f"cone block {blk.provenance} is not a "
                                 "view of the program's rows")
            blk.G, blk.h = rows
        self.rows = _Rows(self.G, triples, ends[-1])

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

    def record(self) -> dict:
        """This solve as a run summary records it: ``status``,
        ``stop_reason``, ``iterations``, ``objective``, the column count
        ``n`` and ``trace``, its columns (views) by :data:`TRACE_FIELDS`."""
        return {"status": self.status, "stop_reason": self.stop_reason,
                "iterations": self.iterations,
                "objective": float(self.objective), "n": int(self.x.size),
                "trace": dict(zip(TRACE_FIELDS, self.trace.T))}


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

    def runs_of(self, blocks, row: int | None = None
                ) -> list[tuple[int, int, int, int]]:
        """Runs ``(row0, count, dim, block0)``: consecutive equal-dimension
        SOC blocks among ``blocks``, ``row0`` counted in a vector of the
        nonneg rows (``row`` of them, all by default) and then the rows of
        ``blocks``, in order."""
        runs, row = [], self.l if row is None else row
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
        W^{-1} = (1/eta) * J W_bar J.  ``u`` holds one vector per block,
        ``(count, dim)``, or columns, ``(count, dim, k)``; no temporary is
        larger than (count x k)."""
        if u.ndim == 3:  # each block's scalars broadcast over the columns
            wbar, eta = wbar[:, :, None], eta[:, None]
            dot = np.matmul(wbar[:, None, 1:, 0], u[:, 1:])[:, 0]
        else:
            dot = np.vecdot(wbar[:, 1:], u[:, 1:])
        out[:, 0] = wbar[:, 0] * u[:, 0] + sign * dot
        coef = sign * u[:, 0] + dot / (1.0 + wbar[:, 0])
        np.multiply(coef[:, None], wbar[:, 1:], out=out[:, 1:])
        out[:, 1:] += u[:, 1:]
        (np.multiply if sign > 0 else np.divide)(out, eta[:, None], out=out)

    def _apply(self, u: np.ndarray, sign: float, blocks=None,
               out: np.ndarray | None = None) -> np.ndarray:
        cones, l = self.cones, self.cones.l
        out = np.empty_like(u) if out is None else out
        w = self.w_nn.reshape(l, *[1] * (u.ndim - 1))
        (np.multiply if sign > 0 else np.divide)(u[:l], w, out=out[:l])
        for r0, c, d, k0 in cones.runs if blocks is None else \
                cones.runs_of(blocks):
            self._apply_run(self.eta[k0: k0 + c],
                            _run(self.wbar, cones.soc_slices[k0].start, c, d),
                            _run(u, r0, c, d), _run(out, r0, c, d), sign)
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        return self._apply(u, 1.0)

    def apply_inv(self, u: np.ndarray, blocks=None,
                  out: np.ndarray | None = None) -> np.ndarray:
        """W^{-1} u (= W^{-T} u; W is symmetric) for a vector u, or column
        by column for a matrix: nonneg rows divided by ``w_nn``, each SOC
        run by ``(1/eta) J W_bar J``.  So ``(W^{-1} G)^T (W^{-1} G) = G^T
        W^{-2} G``.

        ``blocks`` and ``out`` are as in :meth:`apply_w2inv_mat`.  No
        temporary is larger than (SOC blocks x columns), so the large,
        short Newton product writes into its workspace and nothing else.
        """
        return self._apply(u, -1.0, blocks, out)

    def apply_w2inv_mat(self, M: np.ndarray, blocks=None,
                        out: np.ndarray | None = None,
                        nonneg: slice | None = None, nz=None) -> np.ndarray:
        """(W^T W)^{-1} M for a matrix M, blockwise closed form.

        With ``blocks`` (SOC block indices), M holds the nonneg rows
        ``nonneg`` (a slice of them, all by default) and then only the
        rows of those blocks, in that order: any window of the Newton
        product's narrow rows that cuts no block.  The result is written
        to ``out`` (M's shape, C-ordered), a new array if None: the Newton
        product passes a slice of its workspace.  Each row's result is
        the same bits in any window.

        ``nz``, for a window densified from triples, holds the nonzeros
        of M's SOC rows as flat indices into ``out`` and their ``-J M``:
        that term is added there alone, and the 2 is folded into ``wt``
        (``(2 wt) t`` rounds as ``(wt t) 2`` does), where four passes over
        every entry would add zeros.  Only signs of zeros can differ.
        """
        cones = self.cones
        out = np.empty_like(M) if out is None else out
        nonneg = slice(0, cones.l) if nonneg is None else nonneg
        l = nonneg.stop - nonneg.start
        if l:
            np.divide(M[:l], (self.w_nn[nonneg] ** 2)[:, None], out=out[:l])
        runs = cones.runs if blocks is None else cones.runs_of(blocks, l)
        for r0, c, d, k0 in runs:
            # (2 wt (wt^T B) - J B) / eta^2 with wt = J wbar, per block
            wt = _run(self.wbar, cones.soc_slices[k0].start, c, d).copy()
            np.negative(wt[:, 1:], out=wt[:, 1:])
            blk, ob = _run(M, r0, c, d), _run(out, r0, c, d)
            if nz is not None:
                np.multiply(2.0 * wt[:, :, None], wt[:, None, :] @ blk,
                            out=ob)
                continue
            np.multiply(wt[:, :, None], wt[:, None, :] @ blk, out=ob)
            ob *= 2.0
            ob[:, :1] -= blk[:, :1]
            ob[:, 1:] += blk[:, 1:]
            ob /= np.square(self.eta[k0: k0 + c])[:, None, None]
        if nz is not None:
            at, jg = nz
            out.reshape(-1)[at] += jg
            for r0, c, d, k0 in runs:
                ob = _run(out, r0, c, d)
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

def _newton_matrix_factory(P: np.ndarray, G: _Rows, cones: _Cones,
                           helper: ThreadPoolExecutor | None = None):
    """``(newton_matrix, factor)``: ``newton_matrix(W)`` returns ``H = P +
    G^T W^{-2} G`` with wide SOC blocks as rank-one terms, and
    ``factor(H)`` is :func:`_chol_solve_factory` on it, with the n x n
    buffer H was formed in (dead once ``newton_matrix`` returns) for its
    scratch and the solve that suits the program's shape.

    The wide blocks are ``G.wide``, the trailing run of unit-row blocks
    of d >= n rows (a norm cap and epigraph over every coefficient), and
    the rows before it, ``G_n = G[:G.narrow]``, are narrow.  A wide block
    adds its exact term ``(2 v v^T - C_b) / eta_b^2`` with ``v = G_b^T J
    wbar_b`` and ``C_b = G_b^T J G_b`` (J = diag(1, -1, ..., -1)), where
    its rows would add d x n^2 flops to each product.  ``C_b`` is a
    diagonal read off the triples once (the head's square, less 1 on each
    other row's column; ``x - 0`` is exact off it) and ``v`` costs O(n):
    the bits of the dense products, whose sums are exact.  The narrow rows
    are views of the store, and those past it are densified a window at a
    time (:meth:`_Rows.fill`).

    The narrow rows' product is decided here, once per solve.  A large,
    short program (:func:`_large_and_short`) whose narrow rows the store
    holds forms ``M^T M`` with ``M = W^{-1} G_n``
    (:meth:`_Scaling.apply_inv`), which numpy runs as ``dsyrk``, and its
    factor solves by two triangular solves.  Any other program forms
    ``G_n^T (W^{-2} G_n)`` by general products and solves through an LU
    of the factor, with the bits it always had: a tall one over
    OpenBLAS's K panels, with ``W^{-2} G_n`` on the windows of
    :func:`_windows`, and in two column halves when ``helper`` (the
    solve's one helper thread, or None) can form the second; any other
    in one window of every narrow row.

    The workspace is allocated here, once per solve: the n x n buffer and
    one flat buffer of max(n^2, w x n) doubles, w the most rows a window
    holds (every narrow row in the one window of a program that is not
    tall), and for narrow rows past the store a w x n window buffer per
    column half.  The flat buffer holds ``W^{-2} G_n`` or
    ``W^{-1} G_n`` during the product (each column half in its own part)
    and then the symmetrized H that a call returns, so each call
    overwrites the matrix the last one returned.  ``factor`` factors that
    matrix in place, in the n x n buffer.
    """
    n, r = G.n, G.narrow
    narrow = list(range(len(cones.soc_dims) - len(G.wide)))
    Gn = G.G[:r]  # views; the rows past the store are densified by window
    kd = Gn.shape[0]
    short = _large_and_short(n, r) and r <= kd
    tall = n >= 64 and r >= 8 * n
    terms = []  # (k, v(wbar) of the block, the diagonal of C_b)
    for k, (_, u) in enumerate(G.wide, len(narrow)):
        head, body = np.zeros(n), u.rows > 0
        if u.rows.size and u.rows[0] == 0:
            head[u.cols[0]] = u.vals[0]
        C = head * head
        C[u.cols[body]] -= 1.0
        terms.append((k, functools.partial(
            _unit_v, head, u.rows[body], u.cols[body], u.vals[body]), C))
    windows, R = _windows(_k_panels(r) if tall else [(0, r)], cones.l,
                          narrow, [cones.soc_dims[k] for k in narrow],
                          WINDOW // n)
    H, flat = np.empty((n, n)), np.empty(max(n * n, R * n))
    T = flat[: n * n].reshape(n, n)
    T_diag = T.reshape(-1)[:: n + 1]  # a view of T's diagonal
    # two halves measured to keep the one product's bits
    split = helper is not None and tall and (n <= 192 or n % 8 == 0)
    mid = n // 2 // 8 * 8
    # A window past the store's rows is densified into its half's buffer
    # (:meth:`_Rows.fill`), kept zero between windows.  The -J G term of
    # W^-2 G_n goes on at the nonzeros of its SOC rows, found in the first
    # call and kept for the solve, per window and half.
    bufs = {a: np.zeros((R, n)) for a in ((0, mid) if split else (0,))
            } if kd < r else {}
    minus_jg = {}

    def nonzeros(M: np.ndarray, nonneg: slice, blocks: list) -> tuple:
        """Flat indices into ``W^-2 M`` of the nonzeros of M's SOC rows,
        and their ``-J M``: less on each block's head row, more on the
        others."""
        l = nonneg.stop - nonneg.start
        i, j = np.nonzero(M[l:])
        sign = np.ones(M.shape[0] - l)
        sign[np.cumsum([0] + [cones.soc_dims[k] for k in blocks])[:-1]] \
            = -1.0
        return (i + l) * M.shape[1] + j, sign[i] * M[l:][i, j]

    def newton_matrix(W: _Scaling) -> np.ndarray:
        def product(a: int, b: int) -> None:
            """H[:, a:b] = Gn^T W^-2 Gn[:, a:b], a K panel at a time,
            with W^-2 Gn[:, a:b] on windows of rows in its own part of
            the flat buffer."""
            w2g = flat[R * a: R * b].reshape(R, b - a)
            g = bufs.get(a)
            for i, (k0, panels, shift, lo, hi, nonneg, blocks) in enumerate(
                    windows):
                src, base, nz = Gn, 0, None
                if hi > kd:  # rows k0 to hi, densified
                    filled = G.fill(k0, hi, g)
                    src, base = g, k0
                if lo > k0:  # the last window's rows from k0 on
                    w2g[: lo - k0] = w2g[shift: shift + lo - k0]
                if hi > lo:
                    M = src[lo - base: hi - base, a:b]
                    if src is g:
                        nz = minus_jg.get((i, a))
                        if nz is None:
                            nz = minus_jg[i, a] = nonzeros(M, nonneg, blocks)
                    W.apply_w2inv_mat(M, blocks, nonneg=nonneg,
                                      out=w2g[lo - k0: hi - k0], nz=nz)
                for p0, p1 in panels:
                    if p0:
                        H[:, a:b] += src[p0 - base: p1 - base].T @ \
                            w2g[p0 - k0: p1 - k0]
                    else:
                        np.matmul(src[:p1].T, w2g[:p1], out=H[:, a:b])
                if src is g:
                    G.clear(g, filled)
        if short:  # M^T M with M = W^-1 Gn: dsyrk, exactly symmetric
            M = W.apply_inv(Gn, narrow, out=flat[: r * n].reshape(r, n))
            np.matmul(M.T, M, out=H)
        elif split:
            # in a copy of this context, which holds np.errstate
            second = helper.submit(contextvars.copy_context().run,
                                   product, mid, n)
            product(0, mid)
            second.result()
        else:
            product(0, n)
        np.add(H, P, out=H)
        for k, v_of, C in terms:
            eta, v = W.eta[k], v_of(W.wbar[cones.soc_slices[k]])
            np.outer(v, v, out=T)
            np.multiply(T, 2.0, out=T)
            np.subtract(T_diag, C, out=T_diag)
            np.divide(T, eta * eta, out=T)
            np.add(H, T, out=H)
        np.add(H, H.T, out=T)  # _sym(H), in T
        np.multiply(T, 0.5, out=T)
        return T
    return newton_matrix, functools.partial(_chol_solve_factory, work=H,
                                            triangular=short)


#: the fewest doubles of ``W^{-2} G_n`` (1 MB) a window of a tall Newton
#: product forms at once, where there are that many: each window's numpy
#: calls cost some microseconds, whatever its size (catenary-soap's
#: products took no longer than with windows of 2 MB)
WINDOW = 2 ** 17


def _k_panels(r: int) -> list[tuple[int, int]]:
    """The row ranges over which OpenBLAS's ``dgemm`` (0.3.31, SkylakeX
    core, one thread) sums a product whose inner dimension is ``r``: a
    panel of ``GEMM_Q`` = 384 rows while at least two remain, then a
    remainder of more than one panel split in two, the first half rounded
    up to a multiple of ``GEMM_UNROLL_M`` = 16.  Summed panel by panel in
    this order, the product keeps the one call's bits; on another core, or
    with BLAS on more threads, OpenBLAS may block K otherwise, and the sum
    is then the product to rounding, not its bits."""
    panels, k0 = [], 0
    while k0 < r:
        k = r - k0
        if k >= 2 * 384:
            k = 384
        elif k > 384:
            k = -(-(k // 2) // 16) * 16
        panels.append((k0, k0 + k))
        k0 += k
    return panels


def _windows(panels: list, l: int, blocks: list, dims: list, least: int):
    """``(windows, rows)``: the K ``panels`` of the narrow rows (``l``
    nonneg rows, then ``blocks`` of ``dims`` rows) in runs of at least
    ``least`` rows where there are enough, and per run the window
    ``(k0, panels, shift, lo, hi, nonneg, blocks)`` of ``W^{-2} G`` its
    panels need, ``k0`` its first row.  Rows ``lo`` to ``hi`` are new:
    from where the last window ended to the end of the block that holds
    the run's last row, so no block is cut and each row is formed once;
    ``nonneg`` and ``blocks`` are theirs.  Rows ``k0`` to ``lo`` were the
    last window's, ``shift`` rows into it.  ``rows`` is the most rows a
    window holds, ``hi - k0``: less than the longest run plus the largest
    block."""
    runs = []
    for panel in panels:
        if runs and runs[-1][-1][1] - runs[-1][0][0] < least:
            runs[-1].append(panel)
        else:
            runs.append([panel])
    ends = np.cumsum([l, *dims]).tolist()  # ends[i + 1]: block i's end
    windows, hi, last, rows = [], 0, 0, 0
    for run in runs:
        k0, k1 = run[0][0], run[-1][1]
        lo = hi
        hi = k1 if k1 <= l else ends[bisect.bisect_left(ends, k1)]
        first = bisect.bisect_left(ends, max(lo, l))
        windows.append((k0, run, k0 - last, lo, hi,
                        slice(min(lo, l), min(hi, l)),
                        blocks[first: bisect.bisect_left(ends, hi)]))
        last, rows = k0, max(rows, hi - k0)
    return windows, rows


def _large_and_short(n: int, r: int) -> bool:
    """Whether a program over ``n`` columns with ``r`` narrow rows forms
    its Newton product by ``dsyrk`` and solves by two triangular solves
    (of the default configs, robotarm's m = 81 ``disc`` and ``ball``
    fits).  Tall programs (``r >= 8 n``: SOAP rounds, robotarm's enclosure
    program) and small ones (``n <= 192``: every benchmark program, econ's
    included since it solves over the Gram's pivots) keep the gemm and the
    LU forward solve, whose bits SOAP's stop and control's fragile solves
    turn on."""
    return n > 192 and r < 8 * n


def _unit_v(head, rows, cols, signs, wbar: np.ndarray) -> np.ndarray:
    """``G_b^T J wbar`` for a block of unit rows: its head row ``head``
    and the triples of its other rows."""
    tail = np.zeros(head.size)
    tail[cols] += signs * wbar[rows]
    return head * wbar[0] - tail


def _chol_solve_factory(H: np.ndarray, work: np.ndarray,
                        triangular: bool = False):
    """Cholesky factor of the symmetric H with escalating static
    regularization, in place.  Returns the solve and the regularization it
    added to the diagonal.

    Each attempt factors a copy of H, ``H + reg I`` bit for bit, in
    ``work`` (n x n, C-ordered) with numpy's own ``dpotrf`` ('L'), as
    ``np.linalg.cholesky`` does.  With ``triangular`` that F-ordered
    factor is the solve's: two :func:`solve_triangular` calls, L then
    L^T, which read only its lower triangle, so H keeps its matrix.
    Otherwise H is overwritten with L, C-ordered with a +0.0 strict upper
    triangle, as ``np.linalg.cholesky`` returns it, and ``work`` with L's
    one LU (``dgetrf``, or its bits built by :func:`_lu_without_pivots`
    where it would not pivot); the forward half reuses that LU
    (``np.linalg.solve`` without numpy's LAPACK, after
    ``np.linalg.cholesky``), and the back half is :func:`solve_triangular`.
    Either way a call allocates no n x n array.
    """
    n = H.shape[0]
    if H.shape != (n, n) or work.shape != (n, n):
        raise ValueError("the factor's matrix and workspace must be n x n")
    scale = max(float(np.trace(H)) / max(n, 1), 1.0)
    lapack = _lapack()
    N, info = ctypes.c_int64(n), ctypes.c_int64()
    F = work.T  # work in Fortran order, as LAPACK reads it
    reg = 0.0
    while True:
        if lapack is None:
            try:
                H[...] = np.linalg.cholesky(H + reg * np.eye(n) if reg
                                            else H)
                break
            except np.linalg.LinAlgError:
                pass
        else:
            if reg:  # H + reg * np.eye(n): an off-diagonal -0.0 gains 0.0
                np.add(H, 0.0, out=work)
                diag = np.arange(n)
                work[diag, diag] += reg
            else:
                np.copyto(work, H)
            lapack.potrf(b"L", N, F, N, info, 1)
            if info.value == 0:
                break
            if info.value < 0:
                _lapack_info(info)
        reg = max(reg * 100.0, 1e-12 * scale)
        if reg > 1e-4 * scale:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
    if triangular:
        L = H if lapack is None else F

        def solve(rhs: np.ndarray) -> np.ndarray:
            return solve_triangular(
                L, solve_triangular(L, rhs, lower=True, check_finite=False),
                lower=True, trans=True, check_finite=False)
        return solve, reg
    if lapack is not None:
        for i in range(1, n):  # F's strict upper triangle
            work[i, :i] = 0.0
        np.copyto(H, F)
        ipiv = _lu_without_pivots(work)
        if ipiv is None:
            ipiv = np.empty(n, dtype=np.int64)
            lapack.getrf(N, N, F, N, ipiv, info)
            _lapack_info(info)

    def solve(rhs: np.ndarray) -> np.ndarray:
        if lapack is not None:
            tmp = np.array(rhs, dtype=float)
            lapack.getrs(b"N", N, ctypes.c_int64(1), F, N, ipiv, tmp, N,
                         info, 1)
            _lapack_info(info)
        else:
            tmp = np.linalg.solve(H, rhs)
        return solve_triangular(H, tmp, lower=True, trans=True,
                                check_finite=False)
    return solve, reg


def _lu_without_pivots(work: np.ndarray):
    """``dgetrf``'s LU of the lower triangular ``L = work.T`` where it would
    swap no row, written over ``work``; its pivots, or None (``work``
    untouched) where it might swap.

    In column j, ``dgetrf`` keeps the first entry of largest modulus on or
    below the diagonal, subtracts the earlier columns times the zeros
    above L's diagonal, which leaves the column's bits, and scales the
    entries below the pivot by ``1.0 / pivot`` (``dscal``, for a pivot of at
    least ``tiny``).  So when each diagonal entry is at least ``tiny`` and
    larger than every modulus below it, its LU is L with each column below
    the diagonal times ``1.0 / L_jj``: O(n^2) in place of O(n^3), with no
    n x n temporary.
    """
    n = work.shape[0]
    diag = work.reshape(-1)[:: n + 1]  # a view; row j of work is column j
    pivots = diag.copy()
    diag[...] = 0.0
    below = (work.max(axis=1), -work.min(axis=1))
    diag[...] = pivots
    if not (np.all(pivots >= np.finfo(float).tiny)
            and np.all(pivots > below[0]) and np.all(pivots > below[1])):
        return None
    np.multiply(work, (1.0 / pivots)[:, None], out=work)
    diag[...] = pivots
    return np.arange(1, n + 1, dtype=np.int64)


def solve_triangular(L: np.ndarray, b: np.ndarray, lower: bool = True,
                     trans: bool = False, check_finite: bool = True
                     ) -> np.ndarray:
    """``L x = b`` (``L^T x = b`` with ``trans``) for triangular ``L`` and a
    1-D or 2-D ``b``: scipy's ``solve_triangular`` with the same bits,
    through numpy's own ``dtrtrs``.  Like scipy, it passes a factor that is
    not F-ordered as its transpose with ``uplo`` and ``trans`` flipped.
    Without the binding it is scipy's, imported here."""
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg import solve_triangular as scipy_solve_triangular
        return scipy_solve_triangular(L, b, lower=lower, trans=int(trans),
                                      check_finite=check_finite)
    L = np.asarray(L, dtype=float)
    if check_finite:  # scipy's error for a non-finite input
        L, b = np.asarray_chkfinite(L), np.asarray_chkfinite(b)
    if not L.flags.f_contiguous:
        L, lower, trans = L.T, not lower, not trans
    x = np.array(b, dtype=float, order="F")
    n, info = L.shape[0], ctypes.c_int64()
    N, ld = ctypes.c_int64(n), ctypes.c_int64(max(n, 1))
    nrhs = ctypes.c_int64(x.shape[1] if x.ndim == 2 else 1)
    lapack.trtrs(b"L" if lower else b"U", b"T" if trans else b"N", b"N", N,
                 nrhs, np.asfortranarray(L), ld, x, ld, info, 1, 1, 1)
    _lapack_info(info)
    return x


#: numpy's own LAPACK routines, as :func:`_lapack` binds them
_Lapack = collections.namedtuple("Lapack", "getrf getrs trtrs potrf")


@functools.cache
def _lapack() -> _Lapack | None:
    """numpy's own ILP64 ``dgetrf``, ``dgetrs``, ``dtrtrs`` and ``dpotrf``:
    the first two are the ``dgesv`` that ``np.linalg.solve`` runs, the last
    is what ``np.linalg.cholesky`` runs.  Bound on first use; None on a
    numpy without them."""
    import glob  # loaded with the binding, not at import

    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]),
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:  # the loaded library: same handle, same thread pool
        lib = ctypes.CDLL(libs[0])
        lapack = _Lapack(lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_,
                        lib.scipy_dtrtrs_64_, lib.scipy_dpotrf_64_)
    except (IndexError, OSError, AttributeError):
        return None
    i8, f8 = ctypes.POINTER(ctypes.c_int64), np.ctypeslib.ndpointer(
        np.float64, flags="F_CONTIGUOUS")
    ipiv = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    char, size = ctypes.c_char_p, ctypes.c_size_t  # a flag, its length
    lapack.getrf.argtypes = [i8, i8, f8, i8, ipiv, i8]
    lapack.getrs.argtypes = [char, i8, i8, f8, i8, ipiv, f8, i8, i8, size]
    lapack.trtrs.argtypes = [char, char, char, i8, i8, f8, i8, f8, i8, i8,
                             size, size, size]
    lapack.potrf.argtypes = [char, i8, f8, i8, i8, size]
    for routine in lapack:
        routine.restype = None
    return lapack


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
    G, h = prog.rows, prog.h
    cones = _Cones.of(prog)
    m = cones.m

    if m == 0:
        return _solve_equality_qp(prog, st, A, b)

    # One helper thread per solve, for the second half of a tall product;
    # joined before the solve returns: ``run_tasks`` forks no process while
    # another thread runs.
    helper = ThreadPoolExecutor(1) if cpus.spare_cpu() else None
    newton_matrix, factor = _newton_matrix_factory(P, G, cones, helper)
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
    try:
        for it in range(st.max_iter):
            iters = it + 1
            rx = P @ x + q + G.tdot(z) + (A.T @ y if p else 0.0)
            ry = A @ x - b if p else np.zeros(0)
            rz = G.dot(x) + s - h
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
            if (pres <= st.feas_tol and dres <= st.feas_tol
                    and relgap <= st.gap_tol):
                status = stop = "optimal"
                break
            if _infeasibility_certificate(A, b, G, h, y, z, cones,
                                          st.feas_tol):
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

                H = newton_matrix(W)
                if not np.all(np.isfinite(H)):
                    stop = "non_finite"
                    break
                try:
                    hsolve, row[4] = factor(H)
                except np.linalg.LinAlgError:
                    stop = "factorization"
                    break

                if p:
                    HinvAt = np.column_stack([hsolve(A[i]) for i in range(p)])
                    S = A @ HinvAt
                    s_solve = _chol_solve_factory(_sym(S), np.empty((p, p)))[0]

                def newton(bx, by, bz, d):
                    # Solve   P dx + A^T dy + G^T dz = bx
                    #         A dx                   = by
                    #         G dx + ds              = bz
                    #         lambda o (W dz + W^{-1} ds) = d
                    # by eliminating ds = W(g - W dz), g = lambda \ d, then dz,
                    # leaving the symmetric reduced system in (dx, dy).
                    wg_minus_bz = W.apply(_jordan_solve(lmbda, d, cones)) - bz
                    rx_mod = bx - G.tdot(W.apply_w2inv_mat(
                        wg_minus_bz.reshape(-1, 1)).ravel())
                    if p:
                        t = hsolve(rx_mod)
                        dy = s_solve(A @ t - by)
                        dx = t - HinvAt @ dy
                    else:
                        dy = np.zeros(0)
                        dx = hsolve(rx_mod)
                    Gdx = G.dot(dx)
                    dz = W.apply_w2inv_mat(
                        (Gdx + wg_minus_bz).reshape(-1, 1)).ravel()
                    ds = bz - Gdx
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

                # --- combined (corrector) direction, with the predictor's
                # rows-sized vectors dropped first
                d_comb = d_aff - _jordan_product(
                    W.apply_inv(dsa), W.apply(dza), cones) + sigma * mu * e
                del d_aff, dsa, dza
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
                if _in_cone(s + alpha * ds, cones) and \
                        _in_cone(z + alpha * dz, cones):
                    break
                alpha *= 0.8
            x = x + alpha * dx
            y = y + alpha * dy
            s = s + alpha * ds
            z = z + alpha * dz
            row[5:] = sigma, alpha

    finally:
        if helper is not None:
            helper.shutdown()

    # the polish below builds its own matrices: drop the workspace first
    newton_matrix = factor = H = hsolve = None
    if status == "max_iter":
        # The loop ended without a certificate.  If the primal point is
        # feasible, try to reconstruct exact multipliers from its active
        # set; degenerate programs often converge in x long before the
        # dual iterate settles.
        rz = G.dot(x) + s - h
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


def _in_cone(v: np.ndarray, cones: _Cones, strict: bool = True) -> bool:
    """v in the cone's interior, or with ``strict=False`` in the closed
    cone (every nonneg entry >= 0, ``v0 >= ||v1||`` on every SOC block)."""
    outside = np.less_equal if strict else np.less
    if cones.l and outside(np.min(v[: cones.l]), 0):
        return False
    for r0, c, d, _ in cones.runs:
        vb = _run(v, r0, c, d)
        if outside(vb[:, 0] - np.sqrt(np.vecdot(vb[:, 1:], vb[:, 1:])),
                   0).any():
            return False
    return True


def _dual_polish(P, q, A, G: _Rows, h, x, s, cones, feas_tol, qnorm):
    """Rebuild multipliers from the active set at a converged primal point.

    Nearly parallel covering rows and interval-valued enclosure auxiliaries
    make the endgame complementarity degenerate: the primal settles on the
    optimum while the dual estimate churns.  At such a point the exact
    multipliers solve a small least-squares problem over the active
    nonnegative rows (one weight each), the active second-order blocks
    (one weight along the reflected slack ray) and the equality rows.
    Returns ``(y, z)`` when the least-squares point keeps every cone weight
    nonnegative and meets the requested tolerance, else ``None``.  No
    bounded iteration (``lsq_linear``) follows a point off the bounds: on
    the shipped default configs one ran twice and certified nothing.
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
            cols.append(G.G[i])
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
        cols.append(G.block_tdot(sl, ray))
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
    C = np.column_stack(cols)
    # lsq_linear's own first step for a dense C, which it returns as it is
    # when the point meets the bounds
    w = np.linalg.lstsq(C, -grad, rcond=-1)[0]
    if not np.all(w >= np.asarray(lower)) or \
            float(np.linalg.norm(grad + C @ w, np.inf)) > feas_tol * qnorm:
        return None
    k = 0
    for i in nn_idx:
        z[i] = w[k]
        k += 1
    for sl, ray in ray_blocks:
        z[sl] = w[k] * ray
        k += 1
    if p:
        y = w[k:]
    return y, z


def _infeasibility_certificate(A, b, G, h, y, z, cones, tol) -> bool:
    """Approximate Farkas certificate: z in the dual cone (the cone itself),
    G^T z + A^T y ~ 0 and h^T z + b^T y < 0, at a scale of at least 1e6."""
    scale = float(np.linalg.norm(z, np.inf))
    if A.shape[0]:
        scale = max(scale, float(np.linalg.norm(y, np.inf)))
    if scale < 1e6 or not _in_cone(z, cones, strict=False):
        return False
    resid = G.tdot(z) + (A.T @ y if A.shape[0] else 0.0)
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
    rx = prog.P @ x + prog.q + prog.rows.tdot(z)
    if prog.A_eq.shape[0]:
        rx = rx + prog.A_eq.T @ y
    ry_inf = (
        float(np.linalg.norm(prog.A_eq @ x - prog.b_eq, np.inf))
        if prog.A_eq.shape[0] else 0.0
    )
    return {
        "stationarity": float(np.linalg.norm(rx, np.inf)),
        "primal_eq": ry_inf,
        "primal_cone": float(np.max(np.abs(prog.rows.dot(x) + s - prog.h),
                                    initial=0.0)),
        "comp_gap": float(s @ z) if s.size else 0.0,
    }
