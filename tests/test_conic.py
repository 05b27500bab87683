"""Interior-point cone solver against closed forms and scipy oracles.

Linear programs are checked against scipy's HiGHS, nonnegative QPs against
bound-constrained L-BFGS-B, and second-order cone programs against SLSQP
with an explicit norm constraint.  The helpers that work on runs of
equal-dimension cone blocks are checked bit for bit against per-block
reference copies kept at the end of this file, and so is the Newton matrix
built in its per-solve workspace, against a copy of the per-call factory.
A tall program's Newton matrix, streamed over OpenBLAS's K panels with
each row of ``W^-2 G_n`` formed once, and built in two column halves when
a helper thread can form the second, has the bits of the one product with
BLAS pinned to one thread, on a sweep of shapes; a tall solve holds no
rows-sized buffer, and starts one helper thread at most.  A large, short
program's Newton matrix, ``M^T M`` with ``M = W^-1 G_n``, is exactly
symmetric and within rounding of the general product, and its solves run
no LU; which programs take that path is checked on the benchmark's shapes.
The Cholesky
factor made in place through numpy's own ``dpotrf`` has the bits of
``np.linalg.cholesky``'s, and a solve holds no more than its workspace
above the program.  The Newton solves that reuse one LU of the Cholesky
factor have the bits of a fresh ``np.linalg.solve`` each, pinned and not;
the triangular solves through numpy's own ``dtrtrs`` have the bits of
scipy's ``solve_triangular``, and the dual polish's unbounded least-squares
step those of ``lsq_linear``.  Wide norm cones held as unit rows give the
dense rows' products, wide-block terms, Newton matrix and polish, bit for
bit.  Rows held as triples (blocks shaped like enclosure cones, dense
blocks after them, wide unit tails), densified a window at a time, give
``G x``, ``G^T z`` and the Newton matrix of the dense rows bit for bit
with BLAS pinned, on a sweep of n from 1 to 700 and up to 40,000 rows.
"""

import ctypes
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import optimize
from scipy.linalg import solve_triangular

from shapekernel import (
    ConeBlock,
    ConeProgram,
    SolverSettings,
    solve,
)
from shapekernel import conic, cpus
from shapekernel.conic import (
    TRACE_FIELDS,
    _centering,
    _chol_solve_factory,
    _Cones,
    _dual_polish,
    _in_cone,
    _infeasibility_certificate,
    _jordan_product,
    _jordan_solve,
    _max_step,
    _newton_matrix_factory,
    _Rows,
    _Scaling,
    _sym,
    SparseRows,
)


def assert_kkt_clean(prog, sol, tol=1e-7):
    res = sol.residuals
    assert res["stationarity"] <= tol, res
    assert res["primal_eq"] <= tol, res
    assert res["primal_cone"] <= tol, res


def chol_solve(H):
    """``_chol_solve_factory`` on a copy of H, which it overwrites, with a
    workspace of its own."""
    return _chol_solve_factory(H.copy(), np.empty_like(H))


class TestClosedForms:
    def test_scalar_quadratic_with_lower_bound(self):
        # min x^2  s.t.  x >= 1   ->  x* = 1, value 1.
        prog = ConeProgram(
            n=1,
            P=[[2.0]],
            blocks=[ConeBlock("nonneg", [[-1.0]], [-1.0])],
        )
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-6)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
        assert_kkt_clean(prog, sol)

    def test_norm_epigraph(self):
        # min t  s.t.  ||(3, 4)|| <= t   ->  t* = 5.
        prog = ConeProgram(
            n=1,
            q=[1.0],
            blocks=[
                ConeBlock("soc", [[-1.0], [0.0], [0.0]], [0.0, 3.0, 4.0])
            ],
        )
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0, abs=1e-6)
        assert_kkt_clean(prog, sol)

    def test_rotated_cone_geometric_mean(self):
        # min u + v  s.t.  2 u v >= 9, u, v >= 0   ->  u = v = 3/sqrt(2),
        # the rotated cone written as ((u+v)/s2, (u-v)/s2, 3) in SOC
        s2 = math.sqrt(2.0)
        prog = ConeProgram(
            n=2,
            q=[1.0, 1.0],
            blocks=[
                ConeBlock(
                    "soc",
                    [[-1.0 / s2, -1.0 / s2], [-1.0 / s2, 1.0 / s2],
                     [0.0, 0.0]],
                    [0.0, 0.0, 3.0],
                )
            ],
        )
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0 * math.sqrt(2), abs=1e-6)
        assert sol.x[0] == pytest.approx(sol.x[1], abs=1e-5)
        assert_kkt_clean(prog, sol)

    def test_equality_only_projection(self):
        # min ||x||^2 / 2  s.t.  sum x = 1   ->  x = 1/n (direct KKT path).
        n = 5
        prog = ConeProgram(
            n=n, P=np.eye(n), A_eq=np.ones((1, n)), b_eq=[1.0]
        )
        sol = solve(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, np.full(n, 0.2), atol=1e-9)
        assert_kkt_clean(prog, sol)


class TestAgainstScipyOracles:
    def test_random_linear_programs_match_highs(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            n, k = 4, 6
            c = rng.normal(size=n)
            A_ub = rng.normal(size=(k, n))
            b_ub = A_ub @ rng.uniform(-0.3, 0.3, size=n) + rng.uniform(
                0.1, 1.0, size=k
            )
            ref = optimize.linprog(
                c, A_ub=A_ub, b_ub=b_ub, bounds=(-1, 1), method="highs"
            )
            assert ref.success
            G = np.vstack([A_ub, np.eye(n), -np.eye(n)])
            h = np.concatenate([b_ub, np.ones(n), np.ones(n)])
            prog = ConeProgram(
                n=n, q=c, blocks=[ConeBlock("nonneg", G, h)]
            )
            sol = solve(prog)
            assert sol.status == "optimal", trial
            assert sol.objective == pytest.approx(ref.fun, abs=2e-6)
            assert_kkt_clean(prog, sol, tol=1e-6)

    def test_random_nonnegative_qps_match_lbfgsb(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            n = rng.integers(2, 7)
            M = rng.normal(size=(n, n))
            P = M @ M.T + 0.1 * np.eye(n)
            q = rng.normal(size=n)

            ref = optimize.minimize(
                lambda x: 0.5 * x @ P @ x + q @ x,
                x0=np.ones(n),
                jac=lambda x: P @ x + q,
                bounds=[(0, None)] * n,
                method="L-BFGS-B",
                options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 5000},
            )
            prog = ConeProgram(
                n=int(n),
                P=P,
                q=q,
                blocks=[ConeBlock("nonneg", -np.eye(n), np.zeros(n))],
            )
            sol = solve(prog)
            assert sol.status == "optimal", trial
            assert sol.objective == pytest.approx(
                ref.fun, rel=1e-6, abs=1e-7
            )
            assert_kkt_clean(prog, sol)

    def test_random_socps_match_slsqp(self):
        rng = np.random.default_rng(33)
        for trial in range(10):
            n = 3
            M = rng.normal(size=(n, n))
            P = M @ M.T + 0.5 * np.eye(n)
            q = rng.normal(size=n)
            # Cone row: ||C x + d|| <= a^T x + b, feasible at the origin.
            C = rng.normal(size=(2, n))
            d = rng.normal(size=2) * 0.2
            a = rng.normal(size=n) * 0.3
            b = float(np.linalg.norm(d)) + rng.uniform(0.5, 1.5)

            cons = {
                "type": "ineq",
                "fun": lambda x: a @ x + b - np.linalg.norm(C @ x + d),
            }
            best = None
            for start in (np.zeros(n), rng.normal(size=n) * 0.1):
                ref = optimize.minimize(
                    lambda x: 0.5 * x @ P @ x + q @ x,
                    x0=start,
                    constraints=[cons],
                    method="SLSQP",
                    options={"ftol": 1e-12, "maxiter": 500},
                )
                if ref.success and (best is None or ref.fun < best):
                    best = ref.fun
            assert best is not None

            G = np.vstack([-a[None, :], -C])
            h = np.concatenate([[b], d])
            prog = ConeProgram(
                n=n, P=P, q=q, blocks=[ConeBlock("soc", G, h)]
            )
            sol = solve(prog)
            assert sol.status == "optimal", trial
            assert sol.objective == pytest.approx(best, rel=1e-5, abs=1e-6)
            assert_kkt_clean(prog, sol, tol=1e-6)


def rotation(d):
    """The self-inverse orthogonal map ``(u, v, w) -> ((u+v)/s2, (u-v)/s2,
    w)`` on R^d: it takes the rotated cone ``2 u v >= ||w||^2, u, v >= 0``
    onto the second-order cone, as ``assemble`` writes a 2x2 record."""
    T = np.eye(d)
    T[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return T


class TestRotatedConeReduction:
    def test_rsoc_matches_manual_soc_transcription(self):
        # h - G x in the rotated cone, solved as the SOC program T G, T h,
        # against SLSQP on the rotated cone's own inequalities
        rng = np.random.default_rng(44)
        n = 3
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.2 * np.eye(n)
        q = rng.normal(size=n)
        Gr = rng.normal(size=(4, n)) * 0.2
        hr = np.array([1.0, 1.2, 0.1, -0.05])
        T = rotation(4)
        sol = solve(ConeProgram(
            n=n, P=P, q=q, blocks=[ConeBlock("soc", T @ Gr, T @ hr)]))
        assert sol.status == "optimal"

        def slack(x):
            u, v, *w = hr - Gr @ x
            return [2.0 * u * v - float(np.dot(w, w)), u, v]

        ref = optimize.minimize(
            lambda x: 0.5 * x @ P @ x + q @ x, x0=np.zeros(n),
            constraints=[{"type": "ineq", "fun": slack}], method="SLSQP",
            options={"ftol": 1e-12, "maxiter": 500})
        assert ref.success
        assert sol.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-8)
        np.testing.assert_allclose(sol.x, ref.x, atol=1e-5)

    def test_rsoc_slack_satisfies_defining_inequality(self):
        # the SOC slack mapped back through the self-inverse rotation lies
        # in the rotated cone of the geometric-mean program
        T = rotation(3)
        prog = ConeProgram(
            n=2,
            q=[1.0, 1.0],
            blocks=[
                ConeBlock(
                    "soc",
                    T @ [[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]],
                    T @ [0.0, 0.0, 3.0],
                )
            ],
        )
        sol = solve(prog)
        u, v, *w = T @ sol.s[prog.block_slices[0]]
        assert u >= -1e-9 and v >= -1e-9
        assert 2 * u * v >= np.linalg.norm(w) ** 2 - 1e-6


class TestStatuses:
    def test_infeasible_bounds_detected(self):
        # x >= 1 and x <= 0 cannot both hold.
        prog = ConeProgram(
            n=1,
            q=[1.0],
            blocks=[ConeBlock("nonneg", [[-1.0], [1.0]], [-1.0, 0.0])],
        )
        sol = solve(prog)
        assert sol.status == "infeasible"

    def test_unbounded_direction(self):
        # min -x  s.t.  x >= 0 has no finite optimum.
        prog = ConeProgram(
            n=1,
            q=[-1.0],
            blocks=[ConeBlock("nonneg", [[-1.0]], [0.0])],
        )
        sol = solve(prog)
        assert sol.status == "unbounded"

    def test_certificate_needs_z_in_the_dual_cone(self):
        # three nonneg rows (x >= 1, x <= 0, 0 <= 1) and a SOC block on
        # zero rows: a large z with G^T z = 0 and h^T z < 0 is a Farkas
        # ray only when it lies in the cone
        G = np.array([[-1.0], [1.0], [0.0], [0.0], [0.0], [0.0]])
        h = np.array([-1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        cones, A, b, y = _Cones(3, [3]), np.zeros((0, 1)), np.zeros(0), []

        def certified(z):
            assert np.linalg.norm(z, np.inf) >= 1e6
            assert G.T @ z == 0.0 and h @ z < 0.0
            return _infeasibility_certificate(A, b, _Rows(G), h, y, z, cones,
                                              1e-8)

        ray = np.array([1e7, 1e7, 0.0, 1.0, 1.0, 0.0])  # on the SOC edge
        assert certified(ray)
        ray[2] = -1e6  # one negative nonneg entry
        assert not certified(ray)
        ray[2], ray[4] = 0.0, 1.5  # z0 < ||z1|| on the SOC block
        assert not certified(ray)

    def test_max_iter_reported(self):
        prog = ConeProgram(
            n=1,
            P=[[2.0]],
            blocks=[ConeBlock("nonneg", [[-1.0]], [-1.0])],
        )
        sol = solve(prog, SolverSettings(max_iter=1))
        assert (sol.status, sol.stop_reason) == ("max_iter", "max_iter")

    def test_stop_reason_names_each_exit(self):
        def program(P):
            return ConeProgram(
                n=1, P=[[P]], blocks=[ConeBlock("nonneg", [[-1.0]], [-1.0])])

        sol = solve(program(2.0))
        assert (sol.status, sol.stop_reason) == ("optimal", "optimal")
        # early breaks end "max_iter" but say why they stopped: a Newton
        # matrix no regularization makes positive definite, and a warm
        # start whose objective overflows
        sol = solve(program(-10.0))
        assert (sol.status, sol.stop_reason) == ("max_iter", "factorization")
        assert sol.iterations == 1
        with np.errstate(over="ignore"):
            sol = solve(program(2.0), x0=np.array([1e200]))
        assert (sol.status, sol.stop_reason) == ("max_iter", "non_finite")
        infeasible = ConeProgram(n=1, q=[1.0], blocks=[
            ConeBlock("nonneg", [[-1.0], [1.0]], [-1.0, 0.0])])
        assert solve(infeasible).stop_reason == "infeasible"
        unbounded = ConeProgram(n=1, q=[-1.0], blocks=[
            ConeBlock("nonneg", [[-1.0]], [0.0])])
        assert solve(unbounded).stop_reason == "unbounded"
        direct = ConeProgram(n=2, P=np.eye(2), A_eq=np.ones((1, 2)),
                             b_eq=[1.0])
        assert solve(direct).stop_reason == "optimal"

    def test_centering_survives_diverged_predictor(self):
        # Seen in a relaxed catenary solve: the predictor diverged to
        # mu_aff ~ 1e252 at mu ~ 1e-16; cubing the raw ratio overflows.
        assert _centering(1e252, 1e-16) == 1.0
        assert _centering(-1e252, 1e-16) == 0.0
        assert _centering(0.5, 1.0) == 0.125
        assert _centering(1.0, 0.0) == 0.0

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SolverSettings(feas_tol=0.0)

    @pytest.mark.parametrize("key, value", [
        ("max_iter", 0), ("max_iter", -3), ("step_fraction", 1.5),
        ("step_fraction", 1.0), ("step_fraction", 0.0),
    ])
    def test_out_of_range_settings_rejected(self, key, value):
        # max_iter 0 ran no iteration at all; a step fraction of 1 or more
        # steps onto or past the cone boundary
        with pytest.raises(ValueError, match=key):
            SolverSettings(**{key: value})

    def test_invalid_cone_kind_rejected(self):
        with pytest.raises(ValueError, match="unsupported cone kind"):
            ConeBlock("psd", [[1.0]], [0.0])
        # rotated cones are written as SOC blocks by assemble
        with pytest.raises(ValueError, match="unsupported cone kind 'rsoc'"):
            ConeBlock("rsoc", [[-1.0], [0.0], [0.0]], [0.0, 0.0, 1.0])

    def test_program_rows_are_one_store(self):
        def blocks():
            return [ConeBlock("nonneg", [[-1.0, 0.0]], [0.0]),
                    ConeBlock("soc", np.ones((3, 2)), [2.0, 0.0, 0.0])]
        # blocks given alone are stacked once, and become views
        prog = ConeProgram(n=2, blocks=blocks())
        np.testing.assert_array_equal(prog.h, [0.0, 2.0, 0.0, 0.0])
        for blk, rows in zip(prog.blocks, (slice(0, 1), slice(1, 4))):
            assert np.shares_memory(blk.G, prog.G)
            assert np.array_equal(blk.G, prog.G[rows])
        with pytest.raises(ValueError, match="nonneg blocks must come "
                           "before every SOC block"):
            ConeProgram(n=2, blocks=blocks()[::-1])
        # a store given with blocks that are not its rows
        with pytest.raises(ValueError, match="not a view"):
            ConeProgram(n=2, blocks=blocks(), G=prog.G.copy(), h=prog.h)
        with pytest.raises(ValueError, match="do not cover"):
            ConeProgram(n=2, blocks=prog.blocks[:1], G=prog.G, h=prog.h)


class TestSolutionBookkeeping:
    def make_two_block_program(self):
        return ConeProgram(
            n=2,
            P=np.eye(2),
            q=[-1.0, -2.0],
            blocks=[
                ConeBlock("nonneg", -np.eye(2), np.zeros(2), ("pos",)),
                ConeBlock(
                    "soc", [[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]],
                    [2.0, 0.0, 0.5], ("ball",)
                ),
            ],
        )

    def test_block_slack_matches_rows(self):
        prog = self.make_two_block_program()
        sol = solve(prog)
        assert sol.status == "optimal"
        for sl, blk in zip(prog.block_slices, prog.blocks):
            np.testing.assert_allclose(
                sol.s[sl], blk.h - blk.G @ sol.x, atol=1e-8
            )
        assert [blk.kind for blk in prog.blocks] == ["nonneg", "soc"]

    def test_duals_lie_in_dual_cone_and_complementarity(self):
        prog = self.make_two_block_program()
        sol = solve(prog)
        z_nn = sol.z[prog.block_slices[0]]
        assert (z_nn >= -1e-9).all()
        z_soc = sol.z[prog.block_slices[1]]
        assert z_soc[0] >= np.linalg.norm(z_soc[1:]) - 1e-8
        assert abs(sol.s @ sol.z) <= 1e-6

    def test_warm_start_agrees_with_cold_start(self):
        prog = self.make_two_block_program()
        cold = solve(prog)
        warm = solve(prog, x0=np.array([5.0, -3.0]))
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_trace_has_one_entry_per_iteration(self):
        prog = self.make_two_block_program()
        sol = solve(prog)
        assert TRACE_FIELDS == ("pres", "dres", "gap", "mu", "reg", "sigma",
                                "step")
        assert sol.trace.shape == (sol.iterations, len(TRACE_FIELDS))
        assert sol.iterations > 1
        trace = [dict(zip(TRACE_FIELDS, row)) for row in sol.trace]
        # every iteration but the last took a step; the last one stopped
        for row in trace[:-1]:
            assert 0.0 < row["step"] <= 1.0
            assert 0.0 <= row["sigma"] <= 1.0
            assert row["reg"] == 0.0
        last = trace[-1]
        assert np.isnan([last["reg"], last["sigma"], last["step"]]).all()
        st = SolverSettings()
        assert max(last["pres"], last["dres"]) <= st.feas_tol
        assert last["gap"] <= st.gap_tol
        assert trace[0]["pres"] > last["pres"]
        assert trace[0]["mu"] == 1.0  # s = z = e at the start

    def test_trace_reports_the_static_regularization(self):
        # no objective on x2 and no row on it: H is singular every
        # iteration, and the smallest regularization makes it definite
        prog = ConeProgram(n=2, q=[1.0, 0.0], blocks=[
            ConeBlock("nonneg", [[-1.0, 0.0]], [-1.0])])
        sol = solve(prog)
        assert sol.status == "optimal"
        reg, step = sol.trace[:, 4], sol.trace[:, 6]
        stepped = ~np.isnan(step)
        assert stepped.any() and (reg[stepped] > 0.0).all()
        assert chol_solve(np.diag([1.0, 0.0]))[1] == 1e-12

    def test_objective_includes_constant(self):
        prog = ConeProgram(
            n=1, P=[[2.0]], const=7.0,
            blocks=[ConeBlock("nonneg", [[-1.0]], [-1.0])],
        )
        sol = solve(prog)
        assert sol.objective == pytest.approx(8.0, abs=1e-6)


class TestScalingInvariance:
    def test_objective_scale_does_not_move_argmin(self):
        rng = np.random.default_rng(55)
        n = 4
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.3 * np.eye(n)
        q = rng.normal(size=n)
        blocks = lambda: [ConeBlock("nonneg", -np.eye(n), np.zeros(n))]
        base = solve(ConeProgram(n=n, P=P, q=q, blocks=blocks()))
        scaled = solve(
            ConeProgram(n=n, P=100 * P, q=100 * q, blocks=blocks())
        )
        assert base.status == scaled.status == "optimal"
        np.testing.assert_allclose(base.x, scaled.x, atol=1e-6)
        assert scaled.objective == pytest.approx(
            100 * base.objective, rel=1e-6
        )


class TestNewtonMatrix:
    """H = P + G^T W^{-2} G, the matrix every Newton step factors."""

    @staticmethod
    def newton_matrices(n, soc_dims, seed=3):
        # dense random rows: a nonneg block and SOC blocks of the given
        # dimensions and of dimension 3, at a random interior (s, z)
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        blocks = [ConeBlock("nonneg", rng.normal(size=(4, n)), np.zeros(4))]
        blocks += [ConeBlock("soc", rng.normal(size=(d, n)), np.zeros(d))
                   for d in [*soc_dims, 3]]
        prog = ConeProgram(n=n, P=M @ M.T, blocks=blocks)
        G, cones = prog.G, _Cones.of(prog)

        def interior():
            v = rng.normal(size=cones.m)
            v[: cones.l] = rng.uniform(0.1, 2.0, cones.l)
            for sl in cones.soc_slices:
                v[sl.start] = np.linalg.norm(v[sl][1:]) + \
                    rng.uniform(0.1, 2.0)
            return v

        W = _Scaling(interior(), interior(), cones)
        expected = _sym(prog.P + G.T @ W.apply_w2inv_mat(G))
        return _newton_matrix_factory(prog.P, prog.rows, cones)[0](W), \
            expected

    def test_wide_blocks_match_the_full_product(self):
        # blocks of dimension 9 and 7 are wide (d >= n = 7), 3 is not
        got, expected = self.newton_matrices(7, [9, 3, 7])
        err = np.max(np.abs(got - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))
        np.testing.assert_array_equal(got, got.T)

    def test_without_wide_blocks_h_is_the_full_product(self):
        got, expected = self.newton_matrices(7, [6, 3])
        assert np.array_equal(got, expected)


# --------------------------------------------------------------------------
# Block runs against the per-block helpers they replaced
# --------------------------------------------------------------------------

#: ``x ** 2 != x * x`` for this numpy scalar: libm ``pow`` rounds it apart
POW_SQUARE = -7461570.523750967


def bits(a):
    """Bytes of ``a`` with every NaN made the same: compares signed zeros
    exactly and NaNs by position."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def ref_apply_soc(eta, wbar, u, inverse=False):
    out = np.empty_like(u)
    dot = wbar[1:] @ u[1:]
    if inverse:
        out[0] = wbar[0] * u[0] - dot
        out[1:] = u[1:] + (-u[0] + dot / (1.0 + wbar[0])) * wbar[1:]
        return out / eta
    out[0] = wbar[0] * u[0] + dot
    out[1:] = u[1:] + (u[0] + dot / (1.0 + wbar[0])) * wbar[1:]
    return eta * out


def ref_scaling(s, z, cones):
    """Per-block NT scaling: ``([(eta, wbar)], lambda)``."""
    l = cones.l
    lmbda = np.zeros(cones.m)
    lmbda[:l] = np.sqrt(s[:l] * z[:l])
    soc = []
    for sl in cones.soc_slices:
        sb, zb = s[sl], z[sl]
        ds = np.sqrt(max(sb[0] ** 2 - sb[1:] @ sb[1:], 1e-300))
        dz = np.sqrt(max(zb[0] ** 2 - zb[1:] @ zb[1:], 1e-300))
        sbar, zbar = sb / ds, zb / dz
        gamma = np.sqrt((1.0 + sbar @ zbar) / 2.0)
        wbar = np.empty_like(sb)
        wbar[0] = (sbar[0] + zbar[0]) / (2.0 * gamma)
        wbar[1:] = (sbar[1:] - zbar[1:]) / (2.0 * gamma)
        eta = np.sqrt(ds / dz)
        soc.append((eta, wbar))
        lmbda[sl] = ref_apply_soc(eta, wbar, zb)
    return soc, lmbda


def ref_apply(soc, w_nn, u, cones, inverse=False):
    out = np.empty_like(u)
    l = cones.l
    out[:l] = u[:l] / w_nn if inverse else w_nn * u[:l]
    for (eta, wbar), sl in zip(soc, cones.soc_slices):
        out[sl] = ref_apply_soc(eta, wbar, u[sl], inverse)
    return out


def ref_w2inv_mat(soc, w_nn, M, cones, blocks=None):
    out = np.empty_like(M)
    l = cones.l
    if l:
        out[:l] = M[:l] / (w_nn ** 2)[:, None]
    start = l
    for k in range(len(soc)) if blocks is None else blocks:
        eta, wbar = soc[k]
        sl = slice(start, start + wbar.size)
        start = sl.stop
        blk = M[sl]
        wt = np.empty_like(wbar)
        wt[0], wt[1:] = wbar[0], -wbar[1:]
        jblk = np.vstack([blk[:1], -blk[1:]])
        out[sl] = (2.0 * np.outer(wt, wt @ blk) - jblk) / (eta * eta)
    return out


def ref_max_step(v, dv, cones):
    alpha = 1e18
    if cones.l:
        neg = dv[: cones.l] < 0
        if np.any(neg):
            alpha = min(alpha, float(
                np.min(-v[: cones.l][neg] / dv[: cones.l][neg])))
    for sl in cones.soc_slices:
        vb, db = v[sl], dv[sl]
        a = db[1:] @ db[1:] - db[0] * db[0]
        b = 2.0 * (vb[1:] @ db[1:] - vb[0] * db[0])
        c = vb[1:] @ vb[1:] - vb[0] * vb[0]
        step = 1e18
        if abs(a) < 1e-300:
            if b > 0:
                step = max(-c / b, 0.0)
        else:
            disc = b * b - 4.0 * a * c
            if disc >= 0:
                sq = np.sqrt(disc)
                pos = [r for r in ((-b - sq) / (2 * a), (-b + sq) / (2 * a))
                       if r > 0]
                if pos:
                    step = min(pos)
        if db[0] < 0:
            step = min(step, -vb[0] / db[0])
        alpha = min(alpha, step)
    return alpha


def ref_jordan_product(u, v, cones):
    out = np.empty(cones.m)
    l = cones.l
    out[:l] = u[:l] * v[:l]
    for sl in cones.soc_slices:
        ub, vb = u[sl], v[sl]
        out[sl.start] = ub @ vb
        out[sl.start + 1: sl.stop] = ub[0] * vb[1:] + vb[0] * ub[1:]
    return out


def ref_jordan_solve(lmbda, d, cones):
    out = np.empty(cones.m)
    l = cones.l
    floor = 1e-30 * (1.0 + float(np.max(np.abs(lmbda), initial=0.0)))
    out[:l] = d[:l] / np.maximum(lmbda[:l], floor)
    for sl in cones.soc_slices:
        lb, db = lmbda[sl], d[sl]
        det = max(lb[0] ** 2 - lb[1:] @ lb[1:], floor * floor)
        lb0 = max(lb[0], floor)
        u0 = (lb[0] * db[0] - lb[1:] @ db[1:]) / det
        out[sl.start] = u0
        out[sl.start + 1: sl.stop] = (db[1:] - u0 * lb[1:]) / lb0
    return out


def ref_strictly_interior(v, cones):
    if cones.l and np.min(v[: cones.l]) <= 0:
        return False
    for sl in cones.soc_slices:
        if v[sl][0] - np.linalg.norm(v[sl][1:]) <= 0:
            return False
    return True


class TestBlockRuns:
    """Every batched helper equals its per-block reference bit for bit."""

    N = 12  # columns: the 40-dimensional blocks are wide (d >= n)

    @classmethod
    def cones(cls):
        # SOC dimensions 3, 3, 3 (a run), 5 (a singleton), 40, 3, 40, 40
        # and 3 at the end
        rng = np.random.default_rng(0)
        dims = [3, 3, 3, 5, 40, 3, 40, 40, 3]
        blocks = [ConeBlock("nonneg", rng.normal(size=(4, cls.N)),
                            np.zeros(4))]
        blocks += [ConeBlock("soc", rng.normal(size=(d, cls.N)), np.zeros(d))
                   for d in dims]
        prog = ConeProgram(n=cls.N, blocks=blocks)
        return prog.G, _Cones.of(prog)

    @staticmethod
    def interior(rng, cones):
        v = rng.normal(size=cones.m)
        v[: cones.l] = rng.uniform(0.1, 2.0, cones.l)
        for sl in cones.soc_slices:
            v[sl.start] = np.linalg.norm(v[sl][1:]) + rng.uniform(0.1, 2.0)
        return v

    @classmethod
    def edge_vectors(cls, rng, cones):
        """Interior points with NaN, +-inf, +-0, boundary blocks and a
        leading entry whose libm square differs from x * x."""
        out = []
        for value in (np.nan, np.inf, -np.inf, 0.0, -0.0):
            v = cls.interior(rng, cones)
            for sl in cones.soc_slices[1::3]:
                v[sl.start + 1] = value
            v[cones.soc_slices[4].start] = value
            out.append(v)
        v = cls.interior(rng, cones)
        for sl in cones.soc_slices[::2]:  # boundary: v0 = ||v1||
            v[sl.start] = np.linalg.norm(v[sl][1:])
        out.append(v)
        v = cls.interior(rng, cones)
        for sl in cones.soc_slices:
            v[sl] *= abs(POW_SQUARE) / v[sl.start]
            v[sl.start] = POW_SQUARE
        out.append(v)
        return out

    def test_runs_group_consecutive_equal_blocks(self):
        _, cones = self.cones()
        assert [r[1:] for r in cones.runs] == [
            (3, 3, 0), (1, 5, 3), (1, 40, 4), (1, 3, 5), (2, 40, 6),
            (1, 3, 8)]
        # the blocks= subset without the wide blocks, rows packed
        assert cones.runs_of([0, 1, 2, 3, 5, 8]) == [
            (4, 3, 3, 0), (13, 1, 5, 3), (18, 1, 3, 5), (21, 1, 3, 8)]

    def test_scaling_matches_per_block(self):
        G, cones = self.cones()
        rng = np.random.default_rng(1)
        narrow = [k for k, d in enumerate(cones.soc_dims) if d < self.N]
        rows = np.concatenate([np.arange(cones.l)] + [
            np.arange(cones.soc_slices[k].start, cones.soc_slices[k].stop)
            for k in narrow])
        pairs = [(self.interior(rng, cones), self.interior(rng, cones))
                 for _ in range(3)]
        pairs += [(v, self.interior(rng, cones))
                  for v in self.edge_vectors(rng, cones)]
        pairs += [(self.interior(rng, cones), v)
                  for v in self.edge_vectors(rng, cones)]
        with np.errstate(all="ignore"):
            for s, z in pairs:
                W = _Scaling(s, z, cones)
                soc, lmbda = ref_scaling(s, z, cones)
                assert bits(W.lmbda) == bits(lmbda)
                assert bits(W.eta) == bits([eta for eta, _ in soc])
                for (_, wbar), sl in zip(soc, cones.soc_slices):
                    assert bits(W.wbar[sl]) == bits(wbar)
                u = rng.normal(size=cones.m)
                for inverse, got in ((False, W.apply(u)),
                                     (True, W.apply_inv(u))):
                    assert bits(got) == bits(
                        ref_apply(soc, W.w_nn, u, cones, inverse))
                # subnormal products round apart if 2 wt wt^T B is
                # regrouped
                for M in (u[:, None], rng.normal(size=(cones.m, 7)), G,
                          1e-310 * rng.normal(size=(cones.m, 3))):
                    assert bits(W.apply_w2inv_mat(M)) == bits(
                        ref_w2inv_mat(soc, W.w_nn, M, cones))
                assert bits(W.apply_w2inv_mat(G[rows], narrow)) == bits(
                    ref_w2inv_mat(soc, W.w_nn, G[rows], cones, narrow))

    def test_jordan_helpers_match_per_block(self):
        _, cones = self.cones()
        rng = np.random.default_rng(2)
        vectors = [self.interior(rng, cones) for _ in range(3)]
        vectors += self.edge_vectors(rng, cones)
        with np.errstate(all="ignore"):
            for u in vectors:
                for v in (rng.normal(size=cones.m), u):
                    assert bits(_jordan_product(u, v, cones)) == \
                        bits(ref_jordan_product(u, v, cones))
                    assert bits(_jordan_solve(u, v, cones)) == \
                        bits(ref_jordan_solve(u, v, cones))
                # tiny lambda: the divisor floors take over
                assert bits(_jordan_solve(1e-200 * u, v, cones)) == \
                    bits(ref_jordan_solve(1e-200 * u, v, cones))

    def test_max_step_matches_per_block(self):
        _, cones = self.cones()
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(20):
            v = self.interior(rng, cones)
            cases += [(v, rng.normal(size=cones.m)),
                      (v, 1e-3 * rng.normal(size=cones.m)),
                      (v, self.interior(rng, cones))]
        for v in self.edge_vectors(rng, cones):
            cases += [(v, rng.normal(size=cones.m)),
                      (self.interior(rng, cones), v)]
        # |a| < 1e-300: directions on the cone's boundary ray, moving out
        # (b > 0), moving in, and exactly zero
        v = self.interior(rng, cones)
        for sign in (1.0, -1.0, 0.0):
            dv = rng.normal(size=cones.m)
            for sl in cones.soc_slices:
                dv[sl] = 0.0
                dv[sl.start] = 1.0
                dv[sl.start + 1] = sign * 1.0 if sign else 1.0
                v[sl.start + 1] = -sign * abs(v[sl.start + 1])
            cases.append((v.copy(), dv))
        # boundary points moving along the boundary ray (a = 0, b > 0):
        # every block's step is max(-0.0, 0.0), which is -0.0
        v = self.interior(rng, cones)
        dv = rng.normal(size=cones.m)
        for sl in cones.soc_slices:
            v[sl], dv[sl] = 0.0, 0.0
            v[sl.start], v[sl.start + 1] = 1.0, 1.0
            dv[sl.start], dv[sl.start + 1] = -1.0, 1.0
        cases.append((v, dv))
        # the same at infinity gives a NaN step, which loses to the finite
        # steps of its run (blocks 1 and 2 bind, nothing else does) as
        # Python's min lets it
        v, dv = self.interior(rng, cones), self.interior(rng, cones)
        dv[cones.soc_slices[1].start: cones.soc_slices[3].start] = \
            rng.normal(size=6)
        v[cones.soc_slices[0]][:2] = np.inf
        dv[cones.soc_slices[0]] = 0.0
        dv[cones.soc_slices[0]][:2] = -1.0, 1.0
        cases.append((v, dv))
        with np.errstate(all="ignore"):
            for v, dv in cases:
                assert bits(_max_step(v, dv, cones)) == \
                    bits(ref_max_step(v, dv, cones))

    def test_strictly_interior_matches_per_block(self):
        _, cones = self.cones()
        rng = np.random.default_rng(4)
        vectors = [self.interior(rng, cones) for _ in range(3)]
        vectors += self.edge_vectors(rng, cones)
        for k in range(len(cones.soc_dims)):
            v = self.interior(rng, cones)
            sl = cones.soc_slices[k]
            v[sl.start] = np.linalg.norm(v[sl][1:])  # one block on the edge
            vectors.append(v)
        with np.errstate(all="ignore"):
            got = [_in_cone(v, cones) for v in vectors]
            assert got == [ref_strictly_interior(v, cones) for v in vectors]
        assert any(got) and not all(got)

    @pytest.mark.parametrize("n", [1, 7, 60, 301])
    def test_chol_solve_is_the_two_lu_solves(self, n):
        # an LU of the upper-triangular L^T neither pivots nor eliminates,
        # so the triangular back-solve returns the same bits
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, n))
        H = X @ X.T + 1e-3 * np.eye(n)
        L = np.linalg.cholesky(H)
        solve_h, reg = chol_solve(H)
        assert reg == 0.0
        for b in (rng.normal(size=n), 1e150 * rng.normal(size=n)):
            assert bits(solve_h(b)) == bits(
                np.linalg.solve(L.T, np.linalg.solve(L, b)))


# --------------------------------------------------------------------------
# The Newton workspace against the factory it replaced
# --------------------------------------------------------------------------

def ref_newton_matrix_factory(P, G, cones, narrow=None):
    """H with fresh temporaries per call: the SOC blocks from row
    ``narrow`` on (none by default) as wide terms with dense constants."""
    if narrow is None or narrow == G.shape[0]:
        return lambda W: _sym(P + G.T @ W.apply_w2inv_mat(G))
    wide = [k for k, sl in enumerate(cones.soc_slices) if sl.start >= narrow]
    blocks = [k for k in range(len(cones.soc_dims)) if k not in wide]
    Gn = G[:narrow]
    terms = []
    for k in wide:
        Gb = G[cones.soc_slices[k]]
        terms.append((k, Gb, np.outer(Gb[0], Gb[0]) - Gb[1:].T @ Gb[1:]))

    def newton_matrix(W):
        H = P + Gn.T @ W.apply_w2inv_mat(Gn, blocks)
        for k, Gb, C in terms:
            eta, wbar = W.eta[k], W.wbar[cones.soc_slices[k]]
            v = Gb[0] * wbar[0] - Gb[1:].T @ wbar[1:]
            H += (2.0 * np.outer(v, v) - C) / (eta * eta)
        return _sym(H)
    return newton_matrix


def dense_rows(prog):
    """Every row of ``prog``, its triples with their zeros."""
    return np.vstack([blk.G.toarray() if isinstance(blk.G, SparseRows)
                      else blk.G for blk in prog.blocks])


def norm_blocks(n, rng, dense_row0=False):
    """A norm cap and a norm epigraph over the first n - 1 columns, both
    wide (d = n), as ``assemble`` builds them; the last column is t.  With
    ``dense_row0`` the cap's leading row is random, so its constant
    G_b^T J G_b has off-diagonal entries."""
    cap = np.zeros((n, n))
    cap[1:, :-1] = -np.eye(n - 1)
    if dense_row0:
        cap[0] = rng.normal(size=n)
    epi = np.zeros((n, n))
    epi[0, -1] = -1.0
    epi[1:, :-1] = -np.eye(n - 1)
    h = np.zeros(n)
    h[0] = 2.0
    return [ConeBlock("soc", cap, h, ("norm_bound",)),
            ConeBlock("soc", epi, np.zeros(n), ("epigraph",))]


class TestNewtonWorkspace:
    """The in-place Newton matrix keeps the bits of the per-call one."""

    N = 30

    @classmethod
    def program(cls, layout, rng, psd_P=True):
        """P, the program and its cones: 6 nonneg rows, then per name of
        ``layout`` a SOC block of 3 or 4 random rows, or a norm cap and
        epigraph, as unit triples (``"norms"``) or dense with a random
        leading row (``"dense"``)."""
        n = cls.N
        blocks = [ConeBlock("nonneg", rng.normal(size=(6, n)), np.zeros(6))]
        for name in layout:
            if name in ("soc", "soc4"):
                d = 3 if name == "soc" else 4
                blocks.append(ConeBlock("soc", rng.normal(size=(d, n)),
                                        np.zeros(d)))
            elif name == "norms":
                blocks += unit_blocks(n, ("cap", "epi"))
            else:
                blocks += norm_blocks(n, rng, dense_row0=True)
        M = rng.normal(size=(n, n))
        P = M @ M.T if psd_P else np.zeros((n, n))
        prog = ConeProgram(n=n, blocks=blocks)
        return P, prog, _Cones.of(prog)

    @staticmethod
    def scaling(rng, cones):
        return _Scaling(TestBlockRuns.interior(rng, cones),
                        TestBlockRuns.interior(rng, cones), cones)

    @staticmethod
    def cells(factory):
        return dict(zip(factory.__code__.co_freevars,
                        (c.cell_contents for c in factory.__closure__)))

    @pytest.mark.parametrize("layout, psd_P, last", [
        (["soc", "soc4", "soc"], False, True),    # no norm block
        (["soc", "soc4", "soc"], True, True),
        (["soc", "norms"], True, True),           # wide unit blocks
        (["soc", "norms"], False, True),
        (["soc4", "dense"], True, True),          # d >= n, dense: narrow
        (["norms", "soc", "soc4"], True, False),  # unit, not last: narrow
        (["dense", "soc"], False, False),
    ])
    def test_matches_the_per_call_factory(self, layout, psd_P, last):
        # only unit blocks that come last are wide; every other row is
        # narrow and a view of the store, or densified past it
        rng = np.random.default_rng(len(layout) + 10 * psd_P)
        P, prog, cones = self.program(layout, rng, psd_P)
        rows = prog.rows
        wide = 2 if last and "norms" in layout else 0
        assert [id(u) for _, u in rows.wide] == [
            id(blk.G) for blk in prog.blocks[len(prog.blocks) - wide:]]
        assert rows.narrow == prog.h.size - wide * self.N
        factory, _ = _newton_matrix_factory(P, rows, cones)
        cells = self.cells(factory)
        assert len(cells["terms"]) == wide
        assert np.shares_memory(cells["Gn"], prog.G)
        ref = ref_newton_matrix_factory(P, dense_rows(prog), cones,
                                        rows.narrow)
        for _ in range(2):
            W = self.scaling(rng, cones)
            assert bits(factory(W)) == bits(ref(W))

    def test_next_call_overwrites_the_returned_matrix(self):
        rng = np.random.default_rng(7)
        P, prog, cones = self.program(["soc", "norms"], rng)
        factory, _ = _newton_matrix_factory(P, prog.rows, cones)
        ref = ref_newton_matrix_factory(P, dense_rows(prog), cones,
                                        prog.rows.narrow)
        W1, W2 = self.scaling(rng, cones), self.scaling(rng, cones)
        first = factory(W1)
        second = factory(W2)
        assert second is first
        assert bits(second) == bits(ref(W2))
        assert not np.array_equal(second, ref(W1))

    def test_solve_peak_memory_is_a_few_newton_matrices(self):
        # n = 50 and 20,000 rows: 10,000 nonneg rows and 2,500 SOC blocks
        # of dimension 4.  Above the program's own arrays the solve needs
        # one rows-sized array, W^-2 G for the Newton product, plus
        # vectors over the rows (1/n of the rows each) and a few n x n
        # arrays: 12.1 MB against 8 MB of rows.  A copy of the rows made
        # for the solve is a second rows-sized array and fails the bound;
        # with the stacked canonical G of old, and a temporary over the
        # nonneg rows in W^-2 G, the peak was 23.3 MB.
        n, l, c, d = 50, 10_000, 2_500, 4
        rng = np.random.default_rng(11)
        soc_G = rng.normal(size=(c, d, n)) / np.sqrt(n)
        soc_h = np.zeros((c, d))
        soc_h[:, 0] = 10.0
        blocks = [ConeBlock("nonneg", rng.normal(size=(l, n)) / np.sqrt(n),
                            np.ones(l))]
        blocks += [ConeBlock("soc", Gb, hb) for Gb, hb in zip(soc_G, soc_h)]
        prog = ConeProgram(n=n, P=np.eye(n), q=-rng.normal(size=n),
                           blocks=blocks)
        del blocks, soc_G, soc_h
        tracemalloc.start()
        try:
            sol = solve(prog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.stop_reason == "optimal"
        m = prog.G.shape[0]
        assert m == l + c * d
        assert peak <= 8 * (prog.G.size + 40 * m + 6 * n * n)

    @staticmethod
    def square_program():
        """n = 300 and 450 narrow rows: 300 nonneg rows and 3 SOC blocks
        of dimension 50."""
        n, l, c, d = 300, 300, 3, 50
        rng = np.random.default_rng(12)
        soc_h = np.zeros((c, d))
        soc_h[:, 0] = 10.0
        blocks = [ConeBlock("nonneg", rng.normal(size=(l, n)) / np.sqrt(n),
                            np.ones(l))]
        blocks += [ConeBlock("soc", rng.normal(size=(d, n)) / np.sqrt(n),
                             hb) for hb in soc_h]
        return ConeProgram(n=n, P=np.eye(n), q=-rng.normal(size=n),
                           blocks=blocks)

    def test_solve_holds_one_workspace(self):
        # n = 300 and 450 narrow rows: 300 nonneg rows and 3 SOC blocks of
        # dimension 50.  Above the program's own arrays the solve holds H,
        # one buffer of max(n^2, rows x n) doubles for W^-2 G_n and then
        # the symmetrized H, which is factored in place, and vectors over
        # the rows and columns, with the first LAPACK binding's objects:
        # 2.07 MB against a bound of 2.18 MB.  A fresh W^-2 G_n, factor or
        # LU per iteration, or a second n x n buffer, fails the bound; with
        # two n x n buffers and those per iteration the peak was 3.10 MB.
        prog = self.square_program()
        n, m = prog.n, prog.G.shape[0]
        tracemalloc.start()
        try:
            sol = solve(prog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.stop_reason == "optimal"
        assert peak <= 8 * (n * n + max(n * n, m * n) + 64 * (m + n))

    def test_polish_runs_without_the_workspace(self, monkeypatch):
        # the dual polish builds matrices of its own, up to n x rows: the
        # workspace is freed before it runs.  A gap tolerance no iterate
        # meets sends the solve to the polish.
        prog = self.square_program()
        n, m = prog.n, prog.G.shape[0]
        held = []

        def polish(*args):
            held.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(conic, "_dual_polish", polish)
        tracemalloc.start()
        try:
            sol = solve(prog, SolverSettings(max_iter=12, gap_tol=1e-300))
        finally:
            tracemalloc.stop()
        assert sol.stop_reason == "max_iter" and len(held) == 1
        assert held[0] <= 8 * 64 * (m + n) < 8 * n * n


# --------------------------------------------------------------------------
# Tall programs: the Newton product streamed over K panels, in two column
# halves when a helper thread forms the second
# --------------------------------------------------------------------------

def tall_program(n, soc_dims, nonneg, rng, wide=False):
    """Dense random rows: ``nonneg`` nonneg rows, SOC blocks of
    ``soc_dims``, and with ``wide`` a norm cap and epigraph (d = n), which
    are dense and so narrow."""
    blocks = [ConeBlock("nonneg", rng.normal(size=(nonneg, n)),
                        np.ones(nonneg))]
    blocks += [ConeBlock("soc", rng.normal(size=(d, n)), np.zeros(d))
               for d in soc_dims]
    if wide:
        blocks += norm_blocks(n, rng, dense_row0=True)
    M = rng.normal(size=(n, n))
    prog = ConeProgram(n=n, P=M @ M.T, blocks=blocks)
    return prog.P, prog.G, _Cones.of(prog)


#: tall programs whose Newton products are split: (n, SOC block dimensions,
#: nonneg rows, with a norm cap and epigraph)
TALL = [
    # shaped like catenary's SOAP rounds: enclosure cones of about n / 2
    # rows, 8.5 n rows in them
    (64, [32] * 17, 64, False),
    (100, [50] * 17, 60, False),
    (136, [68] * 17, 136, True),
    (192, [98] * 16 + [97], 192, False),
    (200, [100] * 17, 200, False),  # over 192 columns: a multiple of 8
    # shaped like robotarm's enclosure program: many small blocks, in
    # several runs
    (72, [4] * 60 + [3] * 50 + [5] * 40, 90, False),
    (96, [6] * 130, 40, True),
]


def sweep():
    """Programs for the pinned sweep, as :data:`TALL`'s tuples: per column
    count, narrow rows from 1 to 20,000 (fewer at n >= 244, whose products
    are large), tall or not but never large and short, with 383-385 and
    767-769 rows and the same remainders past the first tall panel count.
    Nonneg rows alternate between n and 1,000, which cross panel edges;
    the SOC blocks have n / 2 rows, or 389 and 391 at n = 390 and 660,
    longer than a panel."""
    shapes = []
    for n in (64, 70, 86, 98, 100, 136, 192, 193, 196, 200, 244, 390, 660):
        d = {390: 389, 660: 391}.get(n, n // 2)
        k = -(-8 * n // 384) * 384  # panels' rows at 8 n, rounded up
        rows = {1, 383, 384, 385, 767, 768, 769, 8 * n - 1, 8 * n,
                k + 383, k + 385} | ({k + 384, 20_000} if n <= 200 else set())
        # a large, short program forms its product by dsyrk
        rows = sorted(r for r in rows if not conic._large_and_short(n, r))
        for i, r in enumerate(rows):
            nonneg = min(r, (n, 1000)[i % 2])
            nonneg += (r - nonneg) % d
            shapes.append((n, [d] * ((r - nonneg) // d), nonneg, False))
    # test_other_programs_take_one_product's tall case, streamed unsplit
    return shapes + [(196, [98] * 17, 196, False)]


def streamed_keeps_the_bits(shapes):
    """Print, per program of ``shapes``, whether its Newton matrix, built
    with and without a helper thread, has the bits of the one product of
    :func:`ref_newton_matrix_factory`."""
    with ThreadPoolExecutor(1) as helper:
        for n, soc_dims, nonneg, wide in shapes:
            rng = np.random.default_rng(n + len(soc_dims))
            P, G, cones = tall_program(n, soc_dims, nonneg, rng, wide)
            W = TestNewtonWorkspace.scaling(rng, cones)
            ref = bits(ref_newton_matrix_factory(P, G, cones)(W))
            print(all(bits(_newton_matrix_factory(
                P, _Rows(G), cones, h)[0](W)) == ref for h in (None, helper)))


def pinned(call: str) -> list:
    """The words ``call`` (Python, with this module imported) prints in a
    subprocess with BLAS pinned to one thread."""
    here = pathlib.Path(__file__).parent
    src = pathlib.Path(cpus.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, [
        src, here])), **dict.fromkeys(cpus.BLAS_THREAD_VARS, "1")}
    return subprocess.run(
        [sys.executable, "-c", f"import test_conic; test_conic.{call}"],
        check=True, capture_output=True, text=True, env=env).stdout.split()


class TestNewtonHalves:
    """A program with n >= 64 and at least 8 n narrow rows forms
    G^T W^-2 G a K panel of rows at a time, and in two column halves,
    split at a multiple of 8, when the solve has a helper thread to form
    the second and n <= 192 or n is a multiple of 8; otherwise in one
    product."""

    @staticmethod
    def build(monkeypatch, helper, P, G, cones, W):
        """H, and (rows, columns, thread) of each window of W^-2 G_n it
        was built from."""
        calls = []
        apply = _Scaling.apply_w2inv_mat

        def spy(self, M, blocks=None, out=None, **kw):
            # each window writes W^-2 G_n into the one flat buffer
            assert out is not None and out.base is not None
            calls.append((M.shape[0], M.shape[1], threading.get_ident()))
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.002)  # time for the helper to start
            return apply(self, M, blocks, out=out, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(_Scaling, "apply_w2inv_mat", spy)
            H = _newton_matrix_factory(P, _Rows(G), cones, helper)[0](W)
        return H.copy(), calls

    @pytest.mark.parametrize("n, soc_dims, nonneg, wide", TALL)
    def test_helper_forms_the_second_half(self, monkeypatch, n, soc_dims,
                                          nonneg, wide):
        rng = np.random.default_rng(n + len(soc_dims))
        P, G, cones = tall_program(n, soc_dims, nonneg, rng, wide)
        W = TestNewtonWorkspace.scaling(rng, cones)
        r = G.shape[0]  # dense norm blocks are narrow too
        main = threading.get_ident()
        _, calls = self.build(monkeypatch, None, P, G, cones, W)
        # every narrow row formed once, a window at a time
        assert {c[1:] for c in calls} == {(n, main)}
        assert sum(c[0] for c in calls) == r
        with ThreadPoolExecutor(1) as helper:
            helped, calls = self.build(monkeypatch, helper, P, G, cones, W)
        mid = n // 2 // 8 * 8
        first = [c for c in calls if c[2] == main]
        second = [c for c in calls if c[2] != main]
        assert {c[1] for c in first} == {mid}
        assert {c[1] for c in second} == {n - mid}
        assert sum(c[0] for c in first) == sum(c[0] for c in second) == r
        ref = ref_newton_matrix_factory(P, G, cones)(W)
        assert np.max(np.abs(helped - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_halves_keep_the_bits_with_blas_pinned(self):
        # the helper runs only with BLAS pinned to one thread; a product on
        # more threads shares its columns out its own way
        assert pinned("streamed_keeps_the_bits(test_conic.TALL)") == \
            ["True"] * len(TALL)

    @pytest.mark.parametrize("n, soc_dims, nonneg", [
        (63, [40] * 20, 300),   # narrow enough in columns
        (64, [32] * 14, 63),    # one row short of 8 n
        (100, [50] * 5, 90),    # econ's 3.4 rows per column at most
        (196, [98] * 17, 196),  # tall, but halves would move bits
    ])
    def test_other_programs_take_one_product(self, monkeypatch, n,
                                             soc_dims, nonneg):
        rng = np.random.default_rng(n)
        P, G, cones = tall_program(n, soc_dims, nonneg, rng)
        W = TestNewtonWorkspace.scaling(rng, cones)
        with ThreadPoolExecutor(1) as helper:
            H, calls = self.build(monkeypatch, helper, P, G, cones, W)
        r = G.shape[0]
        ref = ref_newton_matrix_factory(P, G, cones)(W)
        main = threading.get_ident()
        if r < 8 * n or n < 64:  # one window, one product
            assert calls == [(r, n, main)]
            assert bits(H) == bits(ref)
        else:  # streamed in one column block; its bits: sweep()
            assert {c[1:] for c in calls} == {(n, main)}
            assert sum(c[0] for c in calls) == r
            assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_helper_keeps_the_callers_errstate(self, monkeypatch):
        rng = np.random.default_rng(5)
        P, G, cones = tall_program(64, [32] * 16, 8, rng)
        W = TestNewtonWorkspace.scaling(rng, cones)
        seen = []
        apply = _Scaling.apply_w2inv_mat

        def spy(self, M, blocks=None, out=None, **kw):
            seen.append((threading.get_ident(), np.geterr()["over"]))
            return apply(self, M, blocks, out=out, **kw)

        monkeypatch.setattr(_Scaling, "apply_w2inv_mat", spy)
        with ThreadPoolExecutor(1) as helper, np.errstate(over="raise"):
            _newton_matrix_factory(P, _Rows(G), cones, helper)[0](W)
        assert len({t for t, _ in seen}) == 2
        assert {over for _, over in seen} == {"raise"}


class TestStreamedProduct:
    """The narrow rows' product ``G_n^T W^-2 G_n`` of a tall program is
    summed over OpenBLAS's own K panels, each forming ``W^-2 G_n`` on a
    window of whole blocks that starts with the rows the last window
    formed past its panel: the one product's bits, with no rows-sized
    buffer."""

    @pytest.mark.parametrize("r, panels", [
        (1, [(0, 1)]),
        (384, [(0, 384)]),
        (385, [(0, 192), (192, 385)]),
        (767, [(0, 384), (384, 767)]),
        (768, [(0, 384), (384, 768)]),
        (769, [(0, 384), (384, 576), (576, 769)]),
        (800, [(0, 384), (384, 592), (592, 800)]),  # 208: rounded to 16
        (1535, [(0, 384), (384, 768), (768, 1152), (1152, 1535)]),
    ])
    def test_panels_are_openblas_k_blocks(self, r, panels):
        assert conic._k_panels(r) == panels

    @pytest.mark.parametrize("least", [0, 1000])
    @pytest.mark.parametrize("nonneg, dims", [
        (1000, [50] * 30),              # nonneg rows across panel edges
        (60, [98] * 90 + [97]),         # catenary's largest round
        (0, [391] * 12),                # robotarm's blocks: over a panel
        (270, [4] * 60 + [391] * 5 + [3] * 200),
        (5000, []),
    ])
    def test_windows_cut_no_block_and_form_each_row_once(self, nonneg,
                                                         dims, least):
        ends = set(np.cumsum([nonneg, *dims]).tolist()) | set(
            range(nonneg + 1))
        r = nonneg + sum(dims)
        blocks = list(range(7, 7 + len(dims)))  # narrow block indices
        panels = conic._k_panels(r)
        windows, rows = conic._windows(panels, nonneg, blocks, dims, least)
        assert [p for w in windows for p in w[1]] == panels
        assert rows <= least + 2 * 384 + max(dims, default=1)
        last = (0, 0, 0)  # k0, lo, hi
        for k0, run, shift, lo, hi, nn, blk in windows:
            k1 = run[-1][1]
            assert k0 == run[0][0]
            assert k1 - k0 >= least or run[-1][1] == r
            assert (lo, shift) == (last[2], k0 - last[0])
            assert lo <= hi and k1 <= hi <= k0 + rows and hi in ends
            # the nonneg rows and then the blocks make up rows lo to hi
            assert nn == slice(min(lo, nonneg), min(hi, nonneg))
            first = blocks.index(blk[0]) if blk else None
            assert sum(dims[b - 7] for b in blk) + nn.stop - nn.start == \
                hi - lo
            if blk:
                assert sum(dims[: first]) + nonneg == max(lo, nonneg)
            last = (k0, lo, hi)
        assert last[2] == r

    def test_windows_have_the_rows_bits(self):
        # each window of nonneg rows and whole narrow blocks, formed on its
        # own, has the bits of the same rows formed over every narrow row
        rng = np.random.default_rng(4)
        G, cones = TestBlockRuns.cones()
        W = TestNewtonWorkspace.scaling(rng, cones)
        narrow = [k for k, d in enumerate(cones.soc_dims) if d < G.shape[1]]
        dims = [cones.soc_dims[k] for k in narrow]
        r = cones.l + sum(dims)
        M = rng.normal(size=(r, 7)) * np.logspace(-6, 6, 7)
        ref = W.apply_w2inv_mat(M, narrow)
        for chunks in ([(0, 2), (2, 9), (9, r)], [(0, 5), (5, 6), (6, r)],
                       [(0, r)]):
            windows, _ = conic._windows(chunks, cones.l, narrow, dims, 0)
            for _, _, _, lo, hi, nonneg, blocks in windows:
                got = W.apply_w2inv_mat(M[lo:hi], blocks, nonneg=nonneg)
                assert bits(got) == bits(ref[lo:hi])

    def test_a_block_longer_than_a_panel_is_formed_once(self, monkeypatch):
        # n = 400 and blocks of 391 rows: some panels need no new rows
        rng = np.random.default_rng(8)
        P, G, cones = tall_program(400, [391] * 9, 15, rng)
        W = TestNewtonWorkspace.scaling(rng, cones)
        H, calls = TestNewtonHalves.build(monkeypatch, None, P, G, cones, W)
        panels = conic._k_panels(G.shape[0])
        rows = [c[0] for c in calls]
        assert sum(rows) == G.shape[0] and len(calls) < len(panels)
        assert (rows[0] - 15) % 391 == 0 and not any(
            k % 391 for k in rows[1:])  # whole blocks
        ref = ref_newton_matrix_factory(P, G, cones)(W)
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_sweep_keeps_the_bits_with_blas_pinned(self):
        shapes = sweep()
        assert pinned("streamed_keeps_the_bits(test_conic.sweep())") == \
            ["True"] * len(shapes)

    def test_tall_solve_holds_no_rows_sized_buffer(self):
        # n = 128 and 16,000 narrow rows: 4,000 nonneg rows and 250 SOC
        # blocks of 48.  Above the program's own 16.4 MB of rows the solve
        # holds a window of W^-2 G_n, at most WINDOW doubles plus
        # (384 + 48) x n, vectors over the rows and a few n x n arrays:
        # 5.4 MB against a bound of 8.9 MB.  A second rows-sized array
        # fails the bound: with W^-2 G_n over every row the peak was
        # 19.7 MB.
        n, l, c, d = 128, 4000, 250, 48
        rng = np.random.default_rng(13)
        soc_h = np.zeros((c, d))
        soc_h[:, 0] = 10.0
        blocks = [ConeBlock("nonneg", rng.normal(size=(l, n)) / np.sqrt(n),
                            np.ones(l))]
        blocks += [ConeBlock("soc", rng.normal(size=(d, n)) / np.sqrt(n), hb)
                   for hb in soc_h]
        prog = ConeProgram(n=n, P=np.eye(n), q=-rng.normal(size=n),
                           blocks=blocks)
        del blocks
        tracemalloc.start()
        try:
            sol = solve(prog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.stop_reason == "optimal"
        m = prog.G.shape[0]
        assert m >= 8 * n
        assert peak <= 8 * (40 * m + conic.WINDOW + 2 * (384 + d) * n
                            + 6 * n * n)

    def test_one_helper_thread_per_solve(self, monkeypatch):
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, *args):
                super().__init__(*args)
                pools.append(self)

        monkeypatch.setattr(conic, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(cpus, "spare_cpu", lambda: True)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        rng = np.random.default_rng(6)
        P, G, cones = tall_program(64, [32] * 16, 8, rng)
        h = np.zeros(G.shape[0])
        h[: cones.l] = 1.0
        h[[sl.start for sl in cones.soc_slices]] = 10.0
        blocks = [ConeBlock("nonneg", G[: cones.l], h[: cones.l])] + [
            ConeBlock("soc", G[sl], h[sl]) for sl in cones.soc_slices]
        prog = ConeProgram(n=64, P=P, q=rng.normal(size=64), blocks=blocks)
        sol = solve(prog)
        assert sol.iterations > 2
        assert len(pools) == 1 and len(started) == 1
        assert not started[0].is_alive()


# --------------------------------------------------------------------------
# Large short programs: dsyrk on W^-1 G_n and two triangular solves
# --------------------------------------------------------------------------

def short_program(rng, n=200, wide=True):
    """n > 192 and fewer than 8 n narrow rows: 150 nonneg rows and SOC
    runs of dimensions 3 and 4, with a norm cap and epigraph (d = n)."""
    return tall_program(n, [3] * 40 + [4] * 10 + [3] * 5, 150, rng, wide)


class TestLargeShort:
    """A program with n > 192 and fewer than 8 n narrow rows forms its
    Newton product as ``M^T M`` with ``M = W^-1 G_n`` (``dsyrk``) and solves
    with two triangular solves on the ``dpotrf`` factor, with no LU."""

    @staticmethod
    def cones_and_scaling(rng):
        # runs of dimensions 3 and 4 with a wide block (40 >= N) between
        _, cones = TestBlockRuns.cones()
        return cones, TestNewtonWorkspace.scaling(rng, cones)

    def test_matrix_is_inverted_column_by_column(self):
        rng = np.random.default_rng(21)
        cones, W = self.cones_and_scaling(rng)
        M = rng.normal(size=(cones.m, 9)) * np.logspace(-3, 3, 9)
        got = W.apply_inv(M)
        ref = np.column_stack([W.apply_inv(col) for col in M.T])
        assert got.shape == M.shape and got.flags.c_contiguous
        np.testing.assert_allclose(got, ref, rtol=1e-15,
                                   atol=1e-15 * np.max(np.abs(ref)))

    def test_twice_is_the_inverse_square(self):
        # on the nonneg rows and the narrow blocks only (the wide ones
        # left out, as the Newton product passes them), written to out
        rng = np.random.default_rng(22)
        for dims in ([3, 3, 3, 4, 4, 40, 3], [3, 3, 40, 4]):
            cones = _Cones(5, dims)
            W = TestNewtonWorkspace.scaling(rng, cones)
            blocks = [k for k, d in enumerate(dims) if d < 40]
            rows = 5 + sum(dims[k] for k in blocks)
            M = rng.normal(size=(rows, 11))
            out = np.empty_like(M)
            once = W.apply_inv(M, blocks, out=out)
            assert once is out
            twice = W.apply_inv(once, blocks)
            ref = W.apply_w2inv_mat(M, blocks)
            assert np.max(np.abs(twice - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_newton_matrix_is_symmetric_and_the_product(self):
        rng = np.random.default_rng(23)
        P, G, cones = short_program(rng)
        factory, _ = _newton_matrix_factory(P, _Rows(G), cones)
        ref = ref_newton_matrix_factory(P, G, cones)
        for _ in range(2):
            W = TestNewtonWorkspace.scaling(rng, cones)
            H, expected = factory(W), ref(W)
            assert bits(H) == bits(H.T)
            assert np.max(np.abs(H - expected)) <= \
                1e-12 * np.max(np.abs(expected))

    @pytest.mark.skipif(conic._lapack() is None,
                        reason="numpy's LAPACK is not bound")
    def test_solves_run_no_lu(self, monkeypatch):
        lapack = conic._lapack()
        ran = []

        def no_lu(*args):
            raise AssertionError("an LU of the factor ran")

        def counting_trtrs(*args):
            ran.append(args[3].value)
            return lapack.trtrs(*args)

        monkeypatch.setattr(conic, "_lapack", lambda: lapack._replace(
            getrf=no_lu, getrs=no_lu, trtrs=counting_trtrs))
        monkeypatch.setattr(conic, "_lu_without_pivots", no_lu)
        # the Newton matrix's solves against numpy's
        rng = np.random.default_rng(24)
        P, G, cones = short_program(rng)
        newton_matrix, factor = _newton_matrix_factory(P, _Rows(G), cones)
        H = newton_matrix(TestNewtonWorkspace.scaling(rng, cones))
        H0 = H.copy()
        solve_h, reg = factor(H)
        assert reg == 0.0
        for b in (rng.normal(size=H.shape[0]), 1e150 * rng.normal(
                size=H.shape[0])):
            x = np.linalg.solve(H0, b)
            assert np.max(np.abs(solve_h(b) - x)) <= \
                1e-12 * np.max(np.abs(x))
        assert ran == [H.shape[0]] * 4
        # and a whole solve of the workspace test's program (n = 300, 450
        # narrow rows)
        prog = TestNewtonWorkspace.square_program()
        ran.clear()
        sol = solve(prog)
        assert sol.stop_reason == "optimal"
        assert ran and set(ran) == {prog.n}

    # (n, narrow rows, large and short): econ's relaxation and its `monot`
    # fit over every atom, and robotarm's m = 81 `disc` fit; econ's
    # relaxation over the Gram's pivots, control's fit, catenary-soap's
    # largest round and robotarm's m = 81 `hyp` fit keep the gemm and the
    # LU; then the gate's edges
    SHAPES = [(1153, 1575, True), (479, 450, True), (390, 270, True),
              (86, 1575, False), (51, 50, False),
              (192, 9404, False), (660, 105_840, False),
              (192, 1535, False), (193, 1543, True), (193, 1544, False)]

    @pytest.mark.parametrize("n, r, short", SHAPES)
    def test_selection_by_shape(self, monkeypatch, n, r, short):
        assert conic._large_and_short(n, r) == short
        if r * n > 2 * 10 ** 7:  # robotarm's rows: 560 MB
            return
        calls = []
        for name in ("apply_inv", "apply_w2inv_mat"):
            def spy(self, M, blocks=None, out=None, name=name,
                    apply=getattr(_Scaling, name), **nonneg):
                calls.append(name)
                return apply(self, M, blocks, out=out, **nonneg)
            monkeypatch.setattr(_Scaling, name, spy)
        cones = _Cones(r, [])
        newton_matrix, factor = _newton_matrix_factory(
            np.zeros((n, n)), _Rows(np.zeros((r, n))), cones)
        assert factor.keywords["triangular"] == short
        newton_matrix(_Scaling(np.ones(r), np.ones(r), cones))
        # a tall program may form W^-2 G_n in several windows
        assert calls and set(calls) == {
            "apply_inv" if short else "apply_w2inv_mat"}
        assert len(calls) == 1 or (n >= 64 and r >= 8 * n)


# --------------------------------------------------------------------------
# One LU of the Cholesky factor per Newton matrix
# --------------------------------------------------------------------------

def lu_cases():
    """(H, right-hand sides) for the one-factor tests: random Newton
    matrices, well scaled and with columns scaled over six decades (there
    scipy's own OpenBLAS gives the LU other bits), right-hand sides at
    scales 1, 1e150 and 1e-300, and one with an inf entry."""
    for n in (1, 2, 7, 60, 301):
        for decades in (0, 6):
            rng = np.random.default_rng(n + decades)
            X = rng.normal(size=(n, n)) * np.logspace(0, decades, n)
            H = X @ X.T + 1e-3 * np.max(np.abs(X)) ** 2 * np.eye(n)
            rhs = [scale * rng.normal(size=n)
                   for scale in (1.0, 1e150, 1e-300)]
            rhs.append(rng.normal(size=n))
            rhs[-1][n // 2] = np.inf
            yield H, rhs


def retry_case():
    """(H, right-hand sides): a singular PSD Gram X X^T of two decoupled
    blocks (rank 40 of 60), its zero off-diagonal blocks -0.0, pulled below
    zero along the first block's null space by 3e-9 of its mean diagonal,
    as rounding can leave a singular Newton matrix.  It factors at the
    third regularization, 1e-8 of that scale, and ``H + reg I`` turns each
    -0.0 into +0.0, which moves signs of zero in L."""
    n = 60
    rng = np.random.default_rng(0)
    X = np.zeros((n, 40))
    X[:30, :20] = rng.normal(size=(30, 20))
    X[30:, 20:] = rng.normal(size=(30, 20))
    u = np.zeros(n)
    u[:30] = np.linalg.svd(X[:30, :20])[0][:, -1]  # X^T u = 0
    H = X @ X.T
    H -= 3e-9 * np.trace(H) / n * np.outer(u, u)
    H[:30, 30:] = H[30:, :30] = -0.0
    return _sym(H), [rng.normal(size=n), 1e150 * rng.normal(size=n)]


def two_lu_solves(L, b):
    """The solve with its forward half as one ``np.linalg.solve`` on L."""
    return solve_triangular(L, np.linalg.solve(L, b), trans="T",
                            lower=True, check_finite=False)


def one_lu_keeps_the_bits():
    """Print, per :func:`lu_cases` right-hand side, whether the solve that
    reuses one LU of L has the bits of a fresh ``np.linalg.solve``."""
    for H, rhs in lu_cases():
        solve_h, _ = chol_solve(H)
        L = np.linalg.cholesky(H)
        print(*(bits(solve_h(b)) == bits(two_lu_solves(L, b)) for b in rhs))


def lapack_lu(L, lapack=None):
    """``dgetrf``'s LU of L, F-ordered, and its pivots."""
    n = ctypes.c_int64(L.shape[0])
    F, ipiv = np.asfortranarray(L, dtype=float), np.empty(n.value, np.int64)
    info = ctypes.c_int64()
    (lapack or conic._lapack()).getrf(n, n, F, n, ipiv, info)
    assert info.value == 0
    return F, ipiv


def scipy_openblas_ilp64() -> bool:
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (KeyError, TypeError):
        return False
    return lapack.get("name") == "scipy-openblas" and \
        "USE64BITINT" in lapack.get("openblas configuration", "")


class TestOneLu:
    """Each Newton matrix's Cholesky factor L gets one LU, through numpy's
    own LAPACK; every solve with it keeps the bits of the
    ``np.linalg.solve(L, rhs)`` it replaced."""

    @pytest.mark.parametrize("case", range(10))
    def test_solve_is_a_fresh_numpy_solve(self, case):
        H, rhs = list(lu_cases())[case]
        solve_h, _ = chol_solve(H)
        L = np.linalg.cholesky(H)
        for b in rhs:
            assert bits(solve_h(b)) == bits(two_lu_solves(L, b))

    @pytest.mark.parametrize("case", range(11))
    def test_factor_in_place_keeps_the_bytes(self, case):
        # H ends holding the bytes of np.linalg.cholesky's L, with the
        # regularization it took, and the solves those of the two LU
        # solves with that L; the workspace's old content is not read
        H, rhs = [*lu_cases(), retry_case()][case]
        n = H.shape[0]
        factor, work = H.copy(), np.full_like(H, np.nan)
        solve_h, reg = _chol_solve_factory(factor, work)
        L = np.linalg.cholesky(H + reg * np.eye(n) if reg else H)
        assert bits(factor) == bits(L) and factor.flags.c_contiguous
        assert (reg > 0) == (case == 10)
        if reg:
            assert reg == pytest.approx(1e-8 * np.trace(H) / n, rel=1e-9)
        for b in rhs:
            assert bits(solve_h(b)) == bits(two_lu_solves(L, b))

    def test_solve_keeps_the_bits_with_blas_pinned(self):
        assert pinned("one_lu_keeps_the_bits()") == ["True"] * 40

    @pytest.mark.skipif(not scipy_openblas_ilp64(),
                        reason="numpy is not built on ILP64 scipy-openblas")
    def test_binding_is_live(self):
        assert conic._lapack() is not None

    def test_fallback_gives_the_same_bytes(self, monkeypatch):
        cases = list(lu_cases())
        live = [bits(chol_solve(H)[0](b))
                for H, rhs in cases for b in rhs]

        def fail(*args, **kwargs):
            raise OSError("no library")

        def back_halves():  # conic.solve_triangular alone, both ways
            return [bits(conic.solve_triangular(
                        np.linalg.cholesky(H), b, trans=trans,
                        check_finite=False))
                    for H, rhs in cases for b in rhs
                    for trans in (False, True)]
        live_back = back_halves()

        monkeypatch.setattr(ctypes, "CDLL", fail)
        assert conic._lapack.__wrapped__() is None  # the binder, uncached
        monkeypatch.setattr(conic, "_lapack", conic._lapack.__wrapped__)
        fallback = [bits(chol_solve(H)[0](b))
                    for H, rhs in cases for b in rhs]
        assert fallback == live
        assert back_halves() == live_back

    @pytest.mark.skipif(conic._lapack() is None,
                        reason="numpy's LAPACK is not bound")
    def test_lu_without_pivots_has_the_bytes_of_dgetrf(self):
        # Cholesky factors of lu_cases() and of random matrices with rows
        # or columns scaled over four decades: where dgetrf swaps no row,
        # the O(n^2) LU has its bytes and pivots; elsewhere the workspace
        # is left as it was, for dgetrf
        factors = [np.linalg.cholesky(H) for H, _ in lu_cases()]
        rng = np.random.default_rng(7)
        for n in (3, 50, 200):
            for scale in (np.logspace(0, 4, n)[:, None],
                          np.logspace(0, 4, n)):
                X = rng.normal(size=(n, n)) * scale
                factors.append(np.linalg.cholesky(X @ X.T + n * np.eye(n)))
        outcomes = []
        for L in factors:
            F, ipiv = lapack_lu(L)
            swaps = bool(np.any(ipiv != np.arange(1, len(ipiv) + 1)))
            work = np.ascontiguousarray(L.T)
            pivots = conic._lu_without_pivots(work)
            outcomes.append((pivots is None, swaps))
            if pivots is None:
                assert bits(work.T) == bits(L)
            else:
                assert bits(work.T) == bits(F)
                assert np.array_equal(pivots, ipiv)
        # the LU is built exactly where dgetrf swaps nothing, and both occur
        assert sorted(set(outcomes)) == [(False, False), (True, True)]

    @pytest.mark.skipif(conic._lapack() is None,
                        reason="numpy's LAPACK is not bound")
    def test_one_factorization_per_newton_matrix(self, monkeypatch):
        lapack = conic._lapack()
        factored, built = {"potrf": [], "getrf": []}, []
        swapping = []  # sizes of the factors on which dgetrf swaps rows

        def counting(name, *size_at):
            routine = getattr(lapack, name)

            def count(*args):
                factored[name].append(args[size_at[0]].value)
                routine(*args)
                if name == "potrf" and args[4].value == 0:
                    L = np.tril(args[2])
                    ipiv = lapack_lu(L, lapack)[1]
                    if np.any(ipiv != np.arange(1, len(L) + 1)):
                        swapping.append(len(L))
            return count

        def counting_factory(P, G, cones, helper=None):
            newton_matrix, factor = _newton_matrix_factory(P, G, cones,
                                                           helper)

            def count(W):
                built.append(1)
                return newton_matrix(W)
            return count, factor

        def no_cholesky(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky ran")

        monkeypatch.setattr(conic, "_lapack", lambda: lapack._replace(
            potrf=counting("potrf", 1), getrf=counting("getrf", 0)))
        monkeypatch.setattr(conic, "_newton_matrix_factory",
                            counting_factory)
        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        # min ||x - c||^2 / 2  s.t.  x >= 0, sum x = 1, x0 - x1 = 0
        n = 6
        c = np.linspace(-0.5, 1.0, n)
        A = np.zeros((2, n))
        A[0], A[1, :2] = 1.0, (1.0, -1.0)
        prog = ConeProgram(n=n, P=np.eye(n), q=-c, A_eq=A, b_eq=[1.0, 0.0],
                           blocks=[ConeBlock("nonneg", -np.eye(n),
                                             np.zeros(n))])
        sol = solve(prog)
        assert sol.status == "optimal"
        # the Newton matrix and the equality Schur complement: one
        # Cholesky factor each, and dgetrf only on a factor it pivots
        assert built
        assert factored == {"potrf": [n, 2] * len(built),
                            "getrf": swapping}


# --------------------------------------------------------------------------
# Triangular solves through numpy's own dtrtrs
# --------------------------------------------------------------------------

def triangular_factors(L):
    """(factor, lower) for a lower factor L: it and its transpose, each in
    C and in F order."""
    for T, lower in ((L, True), (L.T, False)):
        yield np.ascontiguousarray(T), lower
        yield np.asfortranarray(T), lower


@pytest.mark.skipif(conic._lapack() is None,
                    reason="numpy's LAPACK is not bound")
class TestTriangularSolve:
    """``conic.solve_triangular`` has the bits, shape and order of scipy's
    ``solve_triangular``: the same ``dtrtrs`` on the same layout."""

    @pytest.mark.parametrize("case", range(10))
    def test_bytes_of_scipy(self, case):
        H, rhs = list(lu_cases())[case]
        L = np.linalg.cholesky(H)
        n = L.shape[0]
        rng = np.random.default_rng(n)
        wide = rng.normal(size=(n, 7)) * np.logspace(0, 6, 7)
        for b in [*rhs, wide, np.asfortranarray(wide)]:
            for T, lower in triangular_factors(L):
                for trans in (False, True):
                    ours = conic.solve_triangular(T, b, lower=lower,
                                                  trans=trans,
                                                  check_finite=False)
                    theirs = solve_triangular(T, b, lower=lower,
                                              trans=int(trans),
                                              check_finite=False)
                    assert bits(ours) == bits(theirs)
                    assert ours.shape == theirs.shape == b.shape
                    assert ours.flags.f_contiguous == \
                        theirs.flags.f_contiguous

    def test_leaves_its_inputs_alone(self):
        H, rhs = list(lu_cases())[6]
        L = np.linalg.cholesky(H)
        b = rhs[0]
        L0, b0 = L.copy(), b.copy()
        conic.solve_triangular(L, b, trans=True)
        assert bits(L) == bits(L0) and bits(b) == bits(b0)

    def test_checks_finite_input_as_scipy_does(self):
        L = np.tril(np.ones((3, 3)))
        b = np.array([1.0, np.inf, 0.0])
        with pytest.raises(ValueError):
            solve_triangular(L, b, lower=True)
        with pytest.raises(ValueError):
            conic.solve_triangular(L, b)

    def test_singular_factor_raises(self):
        L = np.tril(np.ones((3, 3)))
        L[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            conic.solve_triangular(L, np.ones(3))


# --------------------------------------------------------------------------
# The dual polish: lsq_linear's first step, inline
# --------------------------------------------------------------------------

def polish_case(negative: bool):
    """``_dual_polish`` arguments and its least-squares system ``(C, rhs,
    lb)``.  Rows 0-3 of six nonnegative rows are active, with two equality
    rows.  The multipliers behind the gradient are positive, or, with
    ``negative``, one is negative, so the unbounded least-squares point
    leaves the bounds."""
    rng = np.random.default_rng(7)
    n, l, p = 5, 6, 2
    G = rng.normal(size=(l, n))
    A = rng.normal(size=(p, n))
    s = np.r_[np.zeros(4), np.ones(2)]
    w_true = np.r_[rng.uniform(0.5, 2.0, size=4), rng.normal(size=p)]
    if negative:
        w_true[1] = -1.0
    C = np.column_stack([*G[:4], *A])
    q = -C @ w_true + 1e-3 * rng.normal(size=n)  # inconsistent: a residual
    prog = ConeProgram(n=n, P=np.zeros((n, n)), q=q, A_eq=A, b_eq=np.zeros(p),
                       blocks=[ConeBlock("nonneg", G, np.zeros(l))])
    args = (prog.P, prog.q, prog.A_eq, prog.rows, prog.h, np.zeros(n), s,
            _Cones.of(prog), np.inf, 1.0)
    return args, (C, -q, np.r_[np.zeros(4), -np.inf, -np.inf])


def polish_from(w):
    """``(y, z)`` as ``_dual_polish`` builds them from the weights ``w``."""
    z = np.zeros(6)
    z[:4] = np.maximum(w[:4], 0.0)
    return w[4:], z


class TestDualPolish:

    def test_point_within_bounds_is_lsq_linears(self, monkeypatch):
        args, (C, rhs, lb) = polish_case(negative=False)
        res = optimize.lsq_linear(C, rhs, bounds=(lb, np.inf))
        assert res.nit == 0  # lsq_linear returned its first step

        def unreached(*args, **kwargs):
            raise AssertionError("the bounded iteration ran")

        monkeypatch.setattr(optimize, "lsq_linear", unreached)
        y, z = _dual_polish(*args)
        assert (res.x[:4] > 0).all()
        y_ref, z_ref = polish_from(res.x)
        assert bits(y) == bits(y_ref) and bits(z) == bits(z_ref)

    def test_point_out_of_bounds_certifies_nothing(self, monkeypatch):
        # a least-squares point off the bounds returns None at once: no
        # bounded iteration runs and scipy.optimize is not imported
        args, (C, rhs, lb) = polish_case(negative=True)
        res = optimize.lsq_linear(C, rhs, bounds=(lb, np.inf))
        assert res.nit > 0  # lsq_linear's bounded iteration would run
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        assert _dual_polish(*args) is None


# --------------------------------------------------------------------------
# Wide norm cones as unit rows
# --------------------------------------------------------------------------

def unit_blocks(n, layout):
    """The norm cap and the norm epigraph over the first n - 1 columns as
    :class:`SparseRows`, in ``layout`` order (``"cap"``, ``"epi"``), with
    their ``h``; the last column is t."""
    units = {"cap": SparseRows((n, n), np.arange(1, n), np.arange(n - 1),
                               -1.0),
             "epi": SparseRows((n, n), np.arange(n),
                               np.r_[n - 1, np.arange(n - 1)], -1.0)}
    return [ConeBlock("soc", units[name], np.r_[2.0 * (name == "cap"),
                                                np.zeros(n - 1)], (name,))
            for name in layout]


#: (n, narrow rows, wide blocks): econ's cap then epigraph over every
#: atom (the store ends 6 rows past the narrow ones), catenary's reference solve with the
#: epigraph's head and 5 unit rows in the store's last group of 8, and a
#: wide start already on a multiple of 8
UNIT_LAYOUTS = [(1154, 3394, ("cap", "epi")), (70, 66, ("epi",)),
                (50, 64, ("cap", "epi"))]


def unit_program(n, narrow, layout, rng):
    """A program of ``narrow`` dense rows at scales 1e-6 to 1e6 (nonneg
    rows and SOC blocks of 3) and then wide unit blocks, and the same rows
    dense."""
    l = narrow % 3 + 3
    G = rng.normal(size=(narrow, n)) * 10.0 ** rng.uniform(-6, 6,
                                                          (narrow, 1))
    blocks = [ConeBlock("nonneg", G[:l], np.zeros(l))]
    blocks += [ConeBlock("soc", G[r: r + 3], np.zeros(3))
               for r in range(l, narrow, 3)]
    blocks += unit_blocks(n, layout)
    prog = ConeProgram(n=n, blocks=blocks)
    dense = np.vstack([G] + [dense_of(blk.G) for blk in blocks
                             if isinstance(blk.G, SparseRows)])
    return prog, dense


def dense_of(u: SparseRows) -> np.ndarray:
    """The rows of ``u`` with their zeros: the oracle for unit rows."""
    out = np.zeros(u.shape)
    out[u.rows, u.cols] = u.vals
    return out


def spread(rng, size):
    """Random entries at scales 1e-6 to 1e6, with a +0.0 and a -0.0."""
    v = rng.normal(size=size) * 10.0 ** rng.uniform(-6, 6, size)
    v[rng.integers(size, size=2)] = 0.0, -0.0
    return v


def unit_products_keep_the_bits():
    """Print, per :data:`UNIT_LAYOUTS` layout and random vector, whether
    ``rows.dot`` and ``rows.tdot`` have the bits of the dense products."""
    for n, narrow, layout in UNIT_LAYOUTS:
        rng = np.random.default_rng(n)
        prog, dense = unit_program(n, narrow, layout, rng)
        for _ in range(4):
            x, z = spread(rng, n), spread(rng, dense.shape[0])
            print(bits(prog.rows.dot(x)) == bits(dense @ x)
                  and bits(prog.rows.tdot(z)) == bits(dense.T @ z))


# --------------------------------------------------------------------------
# Rows held as triples, densified a window at a time
# --------------------------------------------------------------------------

def scaled(rng, shape):
    """Random rows at scales 1e-6 to 1e6."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, (shape[0], 1))


def enclosure_rows(d, n, rng):
    """A SOC block of ``d`` rows shaped like an enclosure cone, as
    triples: a head row with two nonzeros, then one nonzero a row on a
    diagonal and, on about half the rows, one in the last column."""
    G = np.zeros((d, n))
    head = rng.choice(n, size=min(2, n), replace=False)
    G[0, head] = scaled(rng, (head.size, 1))[:, 0]
    body = np.arange(1, d)
    G[body, (body - 1) % n] = scaled(rng, (d - 1, 1))[:, 0]
    some = body[rng.random(d - 1) < 0.5]
    G[some, n - 1] = scaled(rng, (some.size, 1))[:, 0]
    return SparseRows.of(G)


def mixed_program(n, nonneg, dense_socs, held_dims, after, tail, rng):
    """``nonneg`` dense rows and ``dense_socs`` dense SOC blocks of 3, then
    SOC blocks of ``held_dims`` rows given as triples, ``after`` dense SOC
    blocks of 3 past them (held as their nonzeros) and, with ``tail``, a
    wide norm cap and epigraph of unit rows; and the same rows dense."""
    blocks = [ConeBlock("nonneg", scaled(rng, (nonneg, n)), np.ones(nonneg))]
    blocks += [ConeBlock("soc", scaled(rng, (3, n)), np.zeros(3))
               for _ in range(dense_socs)]
    blocks += [ConeBlock("soc", enclosure_rows(d, n, rng), np.zeros(d))
               for d in held_dims]
    blocks += [ConeBlock("soc", scaled(rng, (3, n)), np.zeros(3))
               for _ in range(after)]
    if tail:
        blocks += unit_blocks(n, ("cap", "epi"))
    dense = np.vstack([blk.G.toarray() if isinstance(blk.G, SparseRows)
                       else blk.G for blk in blocks])
    M = rng.normal(size=(n, n))
    return ConeProgram(n=n, P=M @ M.T, blocks=blocks), dense


def mixed_shapes():
    """Programs for the pinned sweep of rows held as triples, as
    :func:`mixed_program`'s first arguments: every n from 1 to 15, one of
    each remainder mod 16 from 16 to 271, and 390, 660 and 700; per n a
    program with a few dense SOC blocks, a dozen held blocks and the wide
    tail, and one of 2,000 to 20,000 rows (tall from n = 16 on, and 40,000
    once, whose products take chunks of 4 columns).  The held blocks have
    n / 2 + 1 rows (wide below n = 3), or 391 at n >= 390."""
    ns = [*range(1, 16), *range(16, 272, 17), 390, 660, 700]
    shapes = []
    for i, n in enumerate(ns):
        d = 391 if n >= 390 else n // 2 + 1
        rows = 2000 if n < 16 else 20_000 if n <= 136 else 8 * n + 385
        if n == 67:
            rows = 40_000
        shapes.append((n, 5, 2, [d] * 12, 0, True))
        shapes.append((n, 13 + i % 8, i % 2, [d] * (rows // d), i % 3,
                       i % 2 == 0))
    return shapes


def held_products_keep_the_bits():
    """Print, per program of :func:`mixed_shapes`, whether ``rows.dot``,
    ``rows.tdot`` and, where it is neither large and short nor over 4e8
    flops, the Newton matrix built with and without a helper thread have
    the bits of the dense products over the same rows."""
    with ThreadPoolExecutor(1) as helper:
        for i, shape in enumerate(mixed_shapes()):
            rng = np.random.default_rng(i)
            prog, dense = mixed_program(*shape, rng)
            n, m = dense.shape[1], dense.shape[0]
            ok = all(bits(prog.rows.dot(x)) == bits(dense @ x)
                     and bits(prog.rows.tdot(z)) == bits(dense.T @ z)
                     for x, z in [(spread(rng, n), spread(rng, m))
                                  for _ in range(2)])
            cones, r = _Cones.of(prog), prog.rows.narrow
            if not conic._large_and_short(n, r) and r * n * n <= 4e8:
                W = TestNewtonWorkspace.scaling(rng, cones)
                ref = bits(ref_newton_matrix_factory(prog.P, dense, cones,
                                                     r)(W))
                ok = ok and all(bits(_newton_matrix_factory(
                    prog.P, prog.rows, cones, h)[0](W)) == ref
                    for h in (None, helper))
            print(ok)


class TestHeldRows:
    """SOC blocks held as triples (enclosure cones, and any block after
    the first given as triples): no m x n array, and the dense products'
    bits."""

    def test_products_have_the_dense_bits_with_blas_pinned(self):
        assert pinned("held_products_keep_the_bits()") == \
            ["True"] * len(mixed_shapes())

    def test_windows_cover_the_rows_past_the_store(self):
        # dot's windows are multiples of 8 rows from the store's end, and
        # tdot's chunks of 16 columns take the remainder in the last
        prog, dense = mixed_program(70, 13, 1, [36] * 30, 1, True,
                                    np.random.default_rng(0))
        rows = prog.rows
        assert rows.G.shape[0] == 16 and rows.held[0][0] == 16
        assert rows.E == -(-prog.block_slices[-2].start // 8) * 8
        bounds = [w[:2] for w in rows.windows]
        step = bounds[0][1] - 16
        assert step % 8 == 0 and bounds[-1][1] == rows.E
        assert [lo for lo, _ in bounds] == list(range(16, rows.E, step))
        assert rows.chunks == [(0, 16), (16, 32), (32, 48), (48, 70)]
        buf = rows.buf
        g = np.zeros((rows.E - 16, 70))
        filled = rows.fill(16, rows.E, g)
        np.testing.assert_array_equal(g, dense[16: rows.E])
        rows.clear(g, filled)
        assert not g.any() and not buf.any()
        rows.tdot(np.ones(dense.shape[0]))
        rows.dot(np.ones(70))
        assert not buf.any()  # zero between windows


class TestUnitRows:

    def test_products_have_the_dense_bits_with_blas_pinned(self):
        # on more threads OpenBLAS shares the rows of G x out by their
        # count, so the store's product moves bits there
        assert pinned("unit_products_keep_the_bits()") == \
            ["True"] * (4 * len(UNIT_LAYOUTS))

    @pytest.mark.parametrize("n, narrow, layout", UNIT_LAYOUTS)
    def test_store_ends_at_the_next_multiple_of_8(self, n, narrow, layout):
        prog, dense = unit_program(n, narrow, layout,
                                   np.random.default_rng(1))
        rows = prog.G.shape[0]
        assert rows % 8 == 0 and 0 <= rows - narrow <= 7
        assert np.array_equal(prog.G, dense[:rows])
        assert prog.rows.m == prog.h.size == dense.shape[0]
        # the polish's column of each block, and the blocks' own rows
        for sl, blk in zip(prog.block_slices, prog.blocks):
            v = spread(np.random.default_rng(2), sl.stop - sl.start)
            assert bits(prog.rows.block_tdot(sl, v)) == bits(dense[sl].T @ v)
            if isinstance(blk.G, SparseRows):
                assert np.array_equal(dense_of(blk.G), dense[sl])

    def test_wide_terms_keep_their_bytes(self):
        # C_b and v_b of a unit block against the dense products they
        # replace, and the whole Newton matrix against the dense factory
        n = 40
        rng = np.random.default_rng(4)
        M = rng.normal(size=(n, n))
        P = M @ M.T
        narrow = [ConeBlock("nonneg", rng.normal(size=(6, n)), np.zeros(6)),
                  ConeBlock("soc", rng.normal(size=(3, n)), np.zeros(3))]
        prog = ConeProgram(n=n, P=P, blocks=narrow + unit_blocks(
            n, ("cap", "epi")))
        dense = ConeProgram(n=n, P=P, blocks=narrow + norm_blocks(n, rng))
        cones = _Cones.of(prog)
        factory, _ = _newton_matrix_factory(P, prog.rows, cones)
        terms = TestNewtonWorkspace.cells(factory)["terms"]
        assert [k for k, _, _ in terms] == [1, 2]
        for k, v_of, C in terms:
            Gb = dense.G[cones.soc_slices[k]]
            C_ref = np.outer(Gb[0], Gb[0]) - Gb[1:].T @ Gb[1:]
            assert bits(C) == bits(np.diagonal(C_ref).copy())
            for _ in range(3):
                wbar = spread(rng, n)
                assert bits(v_of(wbar)) == bits(
                    Gb[0] * wbar[0] - Gb[1:].T @ wbar[1:])
        ref = ref_newton_matrix_factory(P, dense.G, cones, prog.rows.narrow)
        for _ in range(2):
            W = TestNewtonWorkspace.scaling(rng, cones)
            assert bits(factory(W)) == bits(ref(W))

    def test_solve_matches_the_dense_program(self):
        # a small econ-like fit, its norm blocks the nonzeros of dense
        # rows or built as unit rows: every output equal, bit for bit
        n = 12
        rng = np.random.default_rng(6)
        J = rng.normal(size=(20, n))
        P, q = J.T @ J, -J.T @ rng.normal(size=20)
        G = -np.abs(rng.normal(size=(9, n)))
        nonneg = lambda: ConeBlock("nonneg", G, -np.ones(9))  # noqa: E731
        of_dense = [ConeBlock("soc", SparseRows.of(blk.G), blk.h)
                    for blk in norm_blocks(n, rng)]
        sols = [solve(ConeProgram(n=n, P=P, q=q, blocks=[nonneg(), *wide]))
                for wide in (of_dense, unit_blocks(n, ("cap", "epi")))]
        assert sols[0].status == "optimal"
        for name in ("x", "y_eq", "z", "s", "trace"):
            assert bits(getattr(sols[0], name)) == bits(getattr(sols[1],
                                                                name))
        assert sols[0].residuals == sols[1].residuals

    def test_polish_matches_the_dense_rows(self):
        # every row and block active, the gradient in their span with
        # positive weights: the polish's unit-block columns come from the
        # triples, with the dense rows' bytes
        n = 30
        rng = np.random.default_rng(8)
        prog, dense = unit_program(n, 12, ("cap", "epi"), rng)
        cones = _Cones.of(prog)
        s, cols = np.zeros(prog.h.size), list(dense[: cones.l])
        for sl in cones.soc_slices:
            tail = rng.normal(size=sl.stop - sl.start - 1)
            s[sl] = np.r_[np.linalg.norm(tail), tail]
            cols.append(dense[sl].T @ np.r_[1.0, -tail / s[sl][0]])
        q = -np.column_stack(cols) @ rng.uniform(0.5, 2.0, len(cols))
        args = np.zeros((n, n)), q, np.zeros((0, n))
        rest = prog.h, np.zeros(n), s, cones, 1e-6, 1.0
        got = _dual_polish(*args, prog.rows, *rest)
        ref = _dual_polish(*args, _Rows(dense), *rest)
        assert got is not None
        assert bits(got[0]) == bits(ref[0]) and bits(got[1]) == bits(ref[1])

    def test_blocks_from_the_first_triples_on_stay_triples(self):
        # every block from the first given as triples on is held as
        # triples, a dense one as its nonzeros; the store ends at the next
        # multiple of 8 at or after its first row, and the triples' rows
        # inside it are written there
        n = 4
        dense = lambda: ConeBlock(  # noqa: E731
            "soc", np.ones((3, n)), np.zeros(3))
        short = lambda: ConeBlock(  # noqa: E731
            "soc", SparseRows((3, n), [1, 2], [0, 1], -1.0), np.zeros(3))
        for blocks in ([*unit_blocks(n, ("cap",)), dense()], [short()],
                       [dense(), short(), *unit_blocks(n, ("epi",))],
                       [dense(), dense()]):
            ref = np.vstack([dense_of(blk.G) if isinstance(blk.G, SparseRows)
                             else blk.G for blk in blocks])
            first = next((j for j, blk in enumerate(blocks)
                          if isinstance(blk.G, SparseRows)), len(blocks))
            prog = ConeProgram(n=n, blocks=blocks)
            held = [isinstance(blk.G, SparseRows) for blk in prog.blocks]
            assert held == [j >= first for j in range(len(blocks))]
            start = sum(blk.h.size for blk in blocks[:first])
            assert prog.G.shape[0] == min(ref.shape[0], -(-start // 8) * 8)
            assert np.array_equal(prog.G, ref[: prog.G.shape[0]])
            for blk, sl, h in zip(prog.blocks, prog.block_slices, held):
                assert np.array_equal(dense_of(blk.G) if h else blk.G,
                                      ref[sl])
                assert h or np.shares_memory(blk.G, prog.G)

    def test_unit_rows_are_soc_rows(self):
        n = 4
        unit = SparseRows((n, n), np.arange(n), np.arange(n), 1.0)
        assert unit.unit
        with pytest.raises(ValueError, match="SOC blocks only"):
            ConeProgram(n=n, blocks=[ConeBlock("nonneg", unit, np.zeros(n))])
        # triples hold any values, one or more a row; unit rows are flagged
        for rows, cols, vals in (([1, 1], [0, 1], -1.0),   # one row twice
                                 ([0, 1], [2, 2], -1.0),   # one column
                                 ([0, 1], [0, 1], 2.0)):   # not +-1
            assert not SparseRows((4, n), rows, cols, vals).unit
        for rows, cols in (([1, 0], [0, 1]),   # rows out of order
                           ([1, 1], [1, 0]),   # a row's columns too
                           ([1, 1], [0, 0]),   # one entry twice
                           ([0, 4], [0, 1]),   # past the rows
                           ([0, 1], [0, 4])):  # past the columns
            with pytest.raises(ValueError, match="sparse rows need"):
                SparseRows((4, n), rows, cols, 1.0)
