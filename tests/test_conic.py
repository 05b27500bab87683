"""Interior-point cone solver against closed forms and scipy oracles.

Linear programs are checked against scipy's HiGHS, nonnegative QPs against
bound-constrained L-BFGS-B, and second-order cone programs against SLSQP
with an explicit norm constraint.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from shapekernel import (
    ConeBlock,
    ConeProgram,
    SolverSettings,
    Solution,
    solve,
)
from shapekernel.conic import (
    _canonicalize,
    _centering,
    _newton_matrix_factory,
    _Scaling,
    _sym,
)


def assert_kkt_clean(prog, sol, tol=1e-7):
    res = sol.residuals
    assert res["stationarity"] <= tol, res
    assert res["primal_eq"] <= tol, res
    assert res["primal_cone"] <= tol, res


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
        # min u + v  s.t.  2 u v >= 9, u, v >= 0   ->  u = v = 3/sqrt(2).
        prog = ConeProgram(
            n=2,
            q=[1.0, 1.0],
            blocks=[
                ConeBlock(
                    "rsoc",
                    [[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]],
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


class TestRotatedConeReduction:
    def test_rsoc_matches_manual_soc_transcription(self):
        rng = np.random.default_rng(44)
        n = 3
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.2 * np.eye(n)
        q = rng.normal(size=n)
        Gr = rng.normal(size=(4, n)) * 0.2
        hr = np.array([1.0, 1.2, 0.1, -0.05]) + Gr @ np.zeros(n)

        rot = ConeProgram(
            n=n, P=P, q=q, blocks=[ConeBlock("rsoc", Gr, hr)]
        )
        sol_r = solve(rot)
        assert sol_r.status == "optimal"

        # (u, v, w) in rotated cone  <=>  ((u+v)/s2, (u-v)/s2, w) in SOC
        # with s2 = sqrt(2); the map is orthonormal on the first two rows.
        s2 = math.sqrt(2.0)
        T = np.eye(4)
        T[0, 0] = T[0, 1] = T[1, 0] = 1.0 / s2
        T[1, 1] = -1.0 / s2
        plain = ConeProgram(
            n=n, P=P, q=q, blocks=[ConeBlock("soc", T @ Gr, T @ hr)]
        )
        sol_p = solve(plain)
        assert sol_p.status == "optimal"
        assert sol_r.objective == pytest.approx(sol_p.objective, rel=1e-8)
        np.testing.assert_allclose(sol_r.x, sol_p.x, atol=1e-6)

    def test_rsoc_slack_satisfies_defining_inequality(self):
        prog = ConeProgram(
            n=2,
            q=[1.0, 1.0],
            blocks=[
                ConeBlock(
                    "rsoc",
                    [[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]],
                    [0.0, 0.0, 3.0],
                )
            ],
        )
        sol = solve(prog)
        u, v, *w = sol.block_slack(0)
        assert u >= -1e-9 and v >= -1e-9
        assert 2 * u * v >= np.linalg.norm(w) ** 2 - 1e-6

    def test_too_small_rsoc_block_rejected(self):
        with pytest.raises(ValueError, match="dimension >= 3"):
            ConeBlock("rsoc", [[-1.0], [0.0]], [0.0, 0.0])


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

    def test_max_iter_reported(self):
        prog = ConeProgram(
            n=1,
            P=[[2.0]],
            blocks=[ConeBlock("nonneg", [[-1.0]], [-1.0])],
        )
        sol = solve(prog, SolverSettings(max_iter=1))
        assert sol.status == "max_iter"

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

    def test_invalid_cone_kind_rejected(self):
        with pytest.raises(ValueError, match="unsupported cone kind"):
            ConeBlock("psd", [[1.0]], [0.0])


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
        for i, blk in enumerate(prog.blocks):
            np.testing.assert_allclose(
                sol.block_slack(i), blk.h - blk.G @ sol.x, atol=1e-8
            )
        assert sol.block_kinds == ["nonneg", "soc"]

    def test_duals_lie_in_dual_cone_and_complementarity(self):
        prog = self.make_two_block_program()
        sol = solve(prog)
        z_nn = sol.z[sol.block_slices[0]]
        assert (z_nn >= -1e-9).all()
        z_soc = sol.z[sol.block_slices[1]]
        assert z_soc[0] >= np.linalg.norm(z_soc[1:]) - 1e-8
        assert abs(sol.s @ sol.z) <= 1e-6

    def test_warm_start_agrees_with_cold_start(self):
        prog = self.make_two_block_program()
        cold = solve(prog)
        warm = solve(prog, x0=np.array([5.0, -3.0]))
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

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
        # dense random rows: a nonneg block, SOC blocks of the given
        # dimensions and one rotated cone, at a random interior (s, z)
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        blocks = [ConeBlock("nonneg", rng.normal(size=(4, n)), np.zeros(4))]
        blocks += [ConeBlock("soc", rng.normal(size=(d, n)), np.zeros(d))
                   for d in soc_dims]
        blocks.append(ConeBlock("rsoc", rng.normal(size=(3, n)),
                                np.zeros(3)))
        prog = ConeProgram(n=n, P=M @ M.T, blocks=blocks)
        G, _, cones, _, _ = _canonicalize(prog)

        def interior():
            v = rng.normal(size=cones.m)
            v[: cones.l] = rng.uniform(0.1, 2.0, cones.l)
            for sl in cones.soc_slices:
                v[sl.start] = np.linalg.norm(v[sl][1:]) + \
                    rng.uniform(0.1, 2.0)
            return v

        W = _Scaling(interior(), interior(), cones)
        expected = _sym(prog.P + G.T @ W.apply_w2inv_mat(G))
        return _newton_matrix_factory(prog.P, G, cones)(W), expected

    def test_wide_blocks_match_the_full_product(self):
        # blocks of dimension 9 and 7 are wide (d >= n = 7), 3 is not
        got, expected = self.newton_matrices(7, [9, 3, 7])
        err = np.max(np.abs(got - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))
        np.testing.assert_array_equal(got, got.T)

    def test_without_wide_blocks_h_is_the_full_product(self):
        got, expected = self.newton_matrices(7, [6, 3])
        assert np.array_equal(got, expected)
