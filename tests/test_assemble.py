"""Finite-dimensional assembly against closed-form estimation oracles.

Kernel ridge solutions are checked against their normal equations,
minimum-norm interpolation against the Gram-inverse formula, and the
constrained programs against feasibility guarantees evaluated on dense
grids.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from shapekernel import (
    AnchorRecord,
    Atom,
    BoundReport,
    DiffFunctional,
    Equality,
    GaussianKernel,
    InclusionRecord,
    NormBound,
    NormMin,
    Observation,
    ProblemSpec,
    Ridge,
    SdpOperator,
    ShapeConstraint,
    apply_functional,
    collect_atoms,
    compute_bounds,
    cover_box,
    discretize,
    eta_for,
    fill_distance,
    gram,
    omega_cover,
    relax_records,
    solve_problem,
    solve_reference,
    tighten_omega,
    tighten_soc,
    verify_pointwise,
)
import shapekernel.assemble as am
from shapekernel.assemble import assemble
from shapekernel.atoms import PIVOT_CUT, _full_gram


def value_obs(xs, ys, weights=None):
    weights = [1.0] * len(xs) if weights is None else weights
    return [
        Observation(DiffFunctional.value(1), (float(x),), float(y),
                    weight=float(w))
        for x, y, w in zip(xs, ys, weights)
    ]


@pytest.fixture
def kernel():
    return GaussianKernel([0.5])


class TestCollectAtoms:
    def test_deduplication_across_sources(self, kernel):
        obs = value_obs([0.1, 0.5], [1.0, 2.0])
        spec = ProblemSpec(kernel=kernel, observations=obs, loss="squared")
        rec = AnchorRecord(
            atoms=((Atom((0.5,), DiffFunctional.value(1)),),), eta=0.0,
            gamma=((),), offset=(0.0,),
        )
        atoms = collect_atoms(spec, [rec, rec])
        assert len(atoms) == 2  # (0.5, value) shared with the observation

    def test_opposite_sign_normals_share_column(self, kernel):
        spec = ProblemSpec(kernel=kernel,
                           observations=value_obs([0.1], [0.0]),
                           loss="squared")
        plus = InclusionRecord(
            r0=1.0, normal=Atom((0.4,), DiffFunctional.value(1, beta=1.0)),
            rho=0.5, gamma=(), offset=0.0, provenance=(0, 0),
        )
        minus = InclusionRecord(
            r0=1.0, normal=Atom((0.4,), DiffFunctional.value(1, beta=-1.0)),
            rho=0.5, gamma=(), offset=0.0, provenance=(0, 1),
        )
        atoms = collect_atoms(spec, [plus, minus])
        assert len(atoms) == 2  # one observation + one oriented normal

    def test_rsoc_upper_triangle_collected(self, kernel):
        val = DiffFunctional.value(1)
        der = DiffFunctional.partial(1, axis=0)
        a = Atom((0.3,), val)
        b = Atom((0.3,), der)
        rec = AnchorRecord(atoms=((a, b), (b, a)), eta=0.0,
                           gamma=((), ()), offset=(0.0, 0.0))
        spec = ProblemSpec(kernel=kernel, regularizer=Ridge(1.0))
        atoms = collect_atoms(spec, [rec])
        assert len(atoms) == 2

    def test_unknown_record_rejected(self, kernel):
        spec = ProblemSpec(kernel=kernel, regularizer=Ridge(1.0))
        with pytest.raises(TypeError, match="unknown record type"):
            collect_atoms(spec, [object()])


class TestAnchorRows:
    def test_matrix_record_keeps_its_diagonal_rows(self, kernel):
        # the rotated cone implies its two diagonal rows; they stay as
        # nonnegative rows as well, and the cone goes in as an SOC block:
        # the rotation of those two rows and the scaled off-diagonal row
        val = DiffFunctional.value(1)
        der = DiffFunctional.partial(1, axis=0)
        a, b = Atom((0.3,), val), Atom((0.3,), der)
        rec = AnchorRecord(atoms=((a, b), (b, a)), eta=0.4,
                           gamma=((), ()), offset=(0.1, 0.2),
                           provenance=(0, 0))
        spec = ProblemSpec(kernel=kernel, regularizer=Ridge(1.0))
        basis = collect_atoms(spec, [rec])
        prog = assemble(spec, basis, [rec])
        assert [blk.kind for blk in prog.blocks] == ["nonneg", "soc", "soc"]
        nonneg, cone, epigraph = prog.blocks
        assert cone.provenance == ("record", 0, 0)
        assert epigraph.provenance == ("epigraph",)
        assert nonneg.provenance == ("nonneg", (("record", 0, 0, 0),
                                                ("record", 0, 0, 1)))
        t = prog.meta["t_index"]
        np.testing.assert_array_equal(nonneg.G[:, t], [0.4, 0.4])
        np.testing.assert_array_equal(nonneg.h, [-0.1, -0.2])
        # the whitened evaluation row of the off-diagonal atom b, from the
        # Gram's pivot rows
        rows = solve_triangular(prog.meta["factor"],
                                gram(basis, kernel)[0], lower=True).T
        off = np.zeros(prog.n)
        off[:len(basis)] = rows[[x.key() for x in basis].index(b.key())]
        s2 = math.sqrt(2.0)
        (g0, g1), (h0, h1) = nonneg.G, nonneg.h
        expected_G = np.array([(g0 + g1) / s2, (g0 - g1) / s2, -s2 * off])
        expected_h = np.array([(h0 + h1) / s2, (h0 - h1) / s2, 0.0])
        assert cone.G.tobytes() == expected_G.tobytes()
        assert cone.h.tobytes() == expected_h.tobytes()

    def test_blocks_are_views_of_one_row_store(self, kernel):
        # P = 1 and P = 2 anchor records, enclosure records and a norm
        # cap: every block's rows sit in the program's one store, nonneg
        # rows first, then the SOC blocks in record order
        val = DiffFunctional.value(1)
        der = DiffFunctional.partial(1, axis=0)
        slope = ShapeConstraint(region=((0.0, 1.0),),
                                operator=SdpOperator.scalar(der),
                                offset=(-5.0,))
        matrix = ShapeConstraint(region=((0.2, 0.8),),
                                 operator=SdpOperator(((val, der),
                                                       (der, val))),
                                 offset=(0.0, 0.0))
        floor = ShapeConstraint(region=((0.3, 0.7),),
                                operator=SdpOperator.scalar(val),
                                offset=(-2.0,))
        records = []
        for ci, c in enumerate((slope, matrix)):
            cover = cover_box(c.region, 0.2)
            etas = [eta_for(kernel, c.operator, b.center, b.radius,
                            norm=b.norm) for b in cover]
            records += tighten_soc(c, cover, etas, constraint_index=ci)
        records += tighten_omega(
            floor, omega_cover(kernel, val, cover_box(floor.region, 0.2)),
            constraint_index=2)
        assert {rec.size for rec in records
                if isinstance(rec, AnchorRecord)} == {1, 2}
        assert any(isinstance(rec, InclusionRecord) for rec in records)
        spec = ProblemSpec(kernel=kernel, regularizer=NormBound(3.0),
                           constraints=[slope, matrix, floor])
        prog = assemble(spec, collect_atoms(spec, records), records)
        assert prog.G.flags.c_contiguous
        assert prog.G.shape == (prog.h.size, prog.n)
        kinds = [blk.kind for blk in prog.blocks]
        assert kinds == ["nonneg"] + ["soc"] * (len(kinds) - 1)
        assert prog.blocks[-2].provenance == ("norm_bound",)
        row = 0
        for blk in prog.blocks:
            assert np.shares_memory(blk.G, prog.G)
            assert np.shares_memory(blk.h, prog.h)
            assert blk.G.__array_interface__ == \
                prog.G[row: row + blk.h.size].__array_interface__
            row += blk.h.size
        assert row == prog.h.size


class TestNormEpigraph:
    def test_buffered_constraints_share_one_epigraph(self, kernel):
        val = DiffFunctional.value(1)
        der = DiffFunctional.partial(1, axis=0)
        level = ShapeConstraint(region=((0.2, 0.8),),
                                operator=SdpOperator.scalar(val),
                                offset=(-1.0,), bias_map=((1.0,),))
        slope = ShapeConstraint(region=((0.0, 1.0),),
                                operator=SdpOperator.scalar(der),
                                offset=(-5.0,))
        floor = ShapeConstraint(region=((0.3, 0.7),),
                                operator=SdpOperator.scalar(val),
                                offset=(-2.0,))
        records = []
        for ci, c in enumerate((level, slope)):
            cover = cover_box(c.region, 0.1)
            etas = [eta_for(kernel, c.operator, b.center, b.radius,
                            norm=b.norm) for b in cover]
            records += tighten_soc(c, cover, etas, constraint_index=ci)
        elems = omega_cover(kernel, val, cover_box(floor.region, 0.1))
        records += tighten_omega(floor, elems, constraint_index=2)
        spec = ProblemSpec(kernel=kernel, regularizer=NormMin(), bias_dim=1,
                           constraints=[level, slope, floor])
        basis = collect_atoms(spec, records)
        prog = assemble(spec, basis, records)
        epigraphs = [blk for blk in prog.blocks
                     if blk.provenance == ("epigraph",)]
        assert len(epigraphs) == 1
        xi = prog.meta["xi_indices"]
        assert len(xi) == len(elems)
        r = prog.meta["pivots"].size  # u's columns: the Gram's pivots
        assert r < len(basis)
        assert prog.n == r + 1 + 1 + len(xi)
        t = prog.meta["t_index"]
        assert t == r + 1
        assert epigraphs[0].G[0, t] == -1.0
        # every buffered row of both constraints subtracts eta * t
        nonneg = prog.blocks[0]
        buffered = [r for r in records if isinstance(r, AnchorRecord)]
        np.testing.assert_array_equal(nonneg.G[:len(buffered), t],
                                      [r.eta for r in buffered])

class TestRidgeRegression:
    def test_matches_normal_equations(self, kernel):
        rng = np.random.default_rng(17)
        xs = np.linspace(0.0, 1.0, 8)
        ys = np.sin(2 * xs) + 0.05 * rng.normal(size=8)
        lam = 0.05
        spec = ProblemSpec(kernel=kernel, observations=value_obs(xs, ys),
                           loss="squared", regularizer=Ridge(lam))
        model, sol, prog = solve_problem(spec, [])
        assert sol.status == "optimal"

        K = np.array([[kernel.eval([a], [b])[0, 0] for b in xs] for a in xs])
        N = len(xs)
        a_ref = np.linalg.solve(K + N * lam * np.eye(N), ys)
        # cond(K) ~ 2e8 here, so raw coefficients are only identified up to
        # directions the Gram barely sees; compare in function space.
        np.testing.assert_allclose(K @ model.coeffs, K @ a_ref, atol=1e-8)
        diff = np.asarray(model.coeffs) - a_ref
        assert float(np.sqrt(diff @ K @ diff)) < 1e-6

        v_ref = float(
            np.mean((K @ a_ref - ys) ** 2) + lam * a_ref @ K @ a_ref
        )
        assert sol.objective == pytest.approx(v_ref, rel=1e-8)

    def test_weighted_ridge(self, kernel):
        xs = np.array([0.0, 0.3, 0.7, 1.0])
        ys = np.array([1.0, -0.5, 0.25, 2.0])
        w = np.array([1.0, 4.0, 0.5, 2.0])
        lam = 0.1
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs(xs, ys, w),
            loss="squared",
            regularizer=Ridge(lam),
        )
        model, sol, _ = solve_problem(spec, [])
        K = np.array([[kernel.eval([a], [b])[0, 0] for b in xs] for a in xs])
        N = len(xs)
        # Stationarity: (2/N) K W (K a - y) + 2 lam K a = 0.
        a_ref = np.linalg.solve(np.diag(w) @ K + N * lam * np.eye(N), w * ys)
        np.testing.assert_allclose(model.coeffs, a_ref, atol=1e-7)

    def test_bias_column(self, kernel):
        # Data with a constant offset: the bias should absorb it.
        xs = np.linspace(0, 1, 10)
        ys = 5.0 + 0.1 * np.sin(3 * xs)
        obs = [
            Observation(DiffFunctional.value(1), (float(x),), float(y),
                        bias_row=(1.0,))
            for x, y in zip(xs, ys)
        ]
        spec = ProblemSpec(kernel=kernel, observations=obs, loss="squared",
                           regularizer=Ridge(1.0), bias_dim=1)
        model, sol, _ = solve_problem(spec, [])
        # Strong ridge forces f ~ 0, so the bias carries the mean.
        assert model.bias[0] == pytest.approx(np.mean(ys), abs=0.05)


class TestNormObjectives:
    def test_norm_min_interpolation(self, kernel):
        xs = [0.0, 0.5, 1.0]
        ys = [0.0, 1.5, 0.0]
        eqs = [
            Equality(DiffFunctional.value(1), (float(x),), float(y))
            for x, y in zip(xs, ys)
        ]
        spec = ProblemSpec(kernel=kernel, equalities=eqs, loss="none",
                           regularizer=NormMin())
        model, sol, prog = solve_problem(spec, [])
        K = np.array([[kernel.eval([a], [b])[0, 0] for b in xs] for a in xs])
        a_ref = np.linalg.solve(K, np.asarray(ys))
        norm_ref = math.sqrt(a_ref @ K @ a_ref)
        np.testing.assert_allclose(model.coeffs, a_ref, atol=1e-6)
        assert model.norm == pytest.approx(norm_ref, rel=1e-6)
        # The epigraph objective value is the norm itself.
        assert sol.objective == pytest.approx(norm_ref, rel=1e-6)
        assert prog.meta["t_index"] == len(model.basis)
        assert model.aux["t"] == pytest.approx(norm_ref, rel=1e-6)

    def test_norm_bound_binds_when_small(self, kernel):
        xs = np.linspace(0, 1, 6)
        ys = np.sin(4 * xs) + 1.0
        lam_tilde = 0.4
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs(xs, ys),
            loss="squared",
            regularizer=NormBound(lam_tilde),
        )
        model, sol, _ = solve_problem(spec, [])
        assert model.norm == pytest.approx(lam_tilde, rel=1e-4)

    def test_norm_bound_slack_when_large(self, kernel):
        xs = np.linspace(0, 1, 6)
        ys = np.sin(4 * xs)
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs(xs, ys),
            loss="squared",
            regularizer=NormBound(1e3),
        )
        model, sol, _ = solve_problem(spec, [])
        # Interpolation is feasible, so the loss goes to ~zero.
        assert sol.objective == pytest.approx(0.0, abs=1e-6)

    def test_equalities_enforced(self, kernel):
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs([0.2, 0.8], [0.5, -0.5]),
            loss="squared",
            regularizer=Ridge(0.01),
            equalities=[Equality(DiffFunctional.value(1), (0.5,), 2.0)],
        )
        model, sol, _ = solve_problem(spec, [])
        got = apply_functional(DiffFunctional.value(1), model, [0.5])
        assert got == pytest.approx(2.0, abs=1e-7)


class TestConstrainedSolves:
    def test_discretized_monotone_fit(self, kernel):
        rng = np.random.default_rng(3)
        xs = np.linspace(0, 1, 12)
        ys = -0.5 * xs + 0.1 * rng.normal(size=12)  # decreasing data
        c = ShapeConstraint(
            region=((0.0, 1.0),),
            operator=SdpOperator.scalar(DiffFunctional.partial(1, axis=0)),
            offset=(0.0,),
        )
        grid = [(float(v),) for v in np.linspace(0, 1, 21)]
        records = discretize(c, grid)
        spec = ProblemSpec(kernel=kernel, observations=value_obs(xs, ys),
                           loss="squared", regularizer=Ridge(0.01),
                           constraints=[c])
        model, sol, _ = solve_problem(spec, records)
        D = DiffFunctional.partial(1, axis=0)
        slopes = [apply_functional(D, model, x) for x in grid]
        assert min(slopes) >= -1e-7

        free = ProblemSpec(kernel=kernel, observations=value_obs(xs, ys),
                           loss="squared", regularizer=Ridge(0.01))
        free_model, _, _ = solve_problem(free, [])
        free_slopes = [apply_functional(D, free_model, x) for x in grid]
        assert min(free_slopes) < -1e-3  # the constraint actually bit

    def test_buffered_rows_guarantee_feasibility_everywhere(self, kernel):
        from shapekernel import verify_pointwise

        c = ShapeConstraint(
            region=((0.2, 0.8),),
            operator=SdpOperator.scalar(DiffFunctional.value(1)),
            offset=(0.3,),
        )
        cover = cover_box([(0.2, 0.8)], 0.02)
        etas = [eta_for(kernel, c.operator, b.center, b.radius, norm=b.norm)
                for b in cover]
        records = tighten_soc(c, cover, etas)
        xs = np.linspace(0, 1, 9)
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs(xs, np.zeros(9)),  # pulls f below 0.3
            loss="squared",
            regularizer=Ridge(0.005),
            constraints=[c],
        )
        model, sol, prog = solve_problem(spec, records)
        report = verify_pointwise(model, c, grid_res=2001)
        assert report["maxViolation"] <= 1e-6
        # Buffered rows share one epigraph: a single t column.
        assert prog.meta["t_index"] == len(model.basis)
        assert prog.n == len(model.basis) + 1

    def test_enclosure_rows_add_one_xi_each(self, kernel):
        c = ShapeConstraint(
            region=((0.2, 0.8),),
            operator=SdpOperator.scalar(DiffFunctional.value(1)),
            offset=(0.1,),
        )
        cover = cover_box([(0.2, 0.8)], 0.05)
        elems = omega_cover(kernel, c.operator.entries[0][0], cover)
        records = tighten_omega(c, elems)
        xs = np.linspace(0.2, 0.8, 7)
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs(xs, np.full(7, 0.5)),
            loss="squared",
            regularizer=Ridge(0.01),
            constraints=[c],
        )
        model, sol, prog = solve_problem(spec, records)
        assert len(prog.meta["xi_indices"]) == len(records)
        assert all(v >= -1e-9 for v in model.aux["xi"].values())
        # Guaranteed tightening: feasible on a dense grid.
        from shapekernel import verify_pointwise

        report = verify_pointwise(model, c, grid_res=2001)
        assert report["maxViolation"] <= 1e-6

    def test_infeasible_tightening_raises(self, kernel):
        # ||f|| <= 0.05 cannot reach f >= 10 anywhere.
        c = ShapeConstraint(
            region=((0.0, 1.0),),
            operator=SdpOperator.scalar(DiffFunctional.value(1)),
            offset=(10.0,),
        )
        cover = cover_box([(0.0, 1.0)], 0.05)
        etas = [eta_for(kernel, c.operator, b.center, b.radius, norm=b.norm)
                for b in cover]
        records = tighten_soc(c, cover, etas)
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs([0.5], [0.0]),
            loss="squared",
            regularizer=NormBound(0.05),
            constraints=[c],
        )
        with pytest.raises(RuntimeError, match="too strong|infeasible"):
            solve_problem(spec, records)



class TestRelaxRecords:
    def test_buffered_rows_lose_eta(self, kernel):
        a = Atom((0.5,), DiffFunctional.value(1))
        soc = AnchorRecord(atoms=((a,),), eta=0.3, gamma=((1.0,),),
                           offset=(0.2,), provenance=(0, 4))
        (lin,) = relax_records([soc])
        assert isinstance(lin, AnchorRecord)
        assert lin.atoms == ((a,),)
        assert lin.eta == 0.0
        assert lin.gamma == ((1.0,),)
        assert lin.offset == (0.2,)
        assert lin.provenance == (0, 4)

    def test_matrix_rows_zeroed(self):
        a = Atom((0.5,), DiffFunctional.value(1))
        rec = AnchorRecord(atoms=((a, a), (a, a)), eta=0.7,
                           gamma=((), ()), offset=(0.0, 0.0))
        (out,) = relax_records([rec])
        assert out.eta == 0.0

    def test_enclosures_have_no_relaxation(self):
        rec = InclusionRecord(
            r0=1.0, normal=Atom((0.0,), DiffFunctional.value(1)),
            rho=0.5, gamma=(), offset=0.0,
        )
        with pytest.raises(ValueError, match="no zero-buffer form"):
            relax_records([rec])

    def test_relaxation_value_lower_bounds_tightened(self, kernel):
        c = ShapeConstraint(
            region=((0.2, 0.8),),
            operator=SdpOperator.scalar(DiffFunctional.value(1)),
            offset=(0.3,),
        )
        cover = cover_box([(0.2, 0.8)], 0.02)
        etas = [eta_for(kernel, c.operator, b.center, b.radius, norm=b.norm)
                for b in cover]
        records = tighten_soc(c, cover, etas)
        xs = np.linspace(0, 1, 9)
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs(xs, np.zeros(9)),
            loss="squared",
            regularizer=Ridge(0.005),
            constraints=[c],
        )
        _, tight_sol, _ = solve_problem(spec, records)
        _, relax_sol, _ = solve_problem(spec, relax_records(records))
        assert relax_sol.objective <= tight_sol.objective + 1e-9


class TestSolveReference:
    def test_constraint_generation_matches_full_grid(self, kernel):
        c = ShapeConstraint(
            region=((0.0, 1.0),),
            operator=SdpOperator.scalar(DiffFunctional.value(1)),
            offset=(0.25,),
        )
        xs = np.linspace(0, 1, 7)
        spec = ProblemSpec(
            kernel=kernel,
            observations=value_obs(xs, np.zeros(7)),
            loss="squared",
            regularizer=Ridge(0.01),
            constraints=[c],
        )
        n_points = 150
        model, value, used, solves = solve_reference(
            spec, c, n_points, init=16, batch=16)
        assert solves and {(s["status"], s["stop_reason"])
                           for s in solves} == {("optimal", "optimal")}
        assert all(s["iterations"] >= 1 for s in solves)
        assert solves[-1]["objective"] == value
        # One-shot solve on the full grid must agree.
        grid = [(float(v),) for v in np.linspace(0, 1, n_points)]
        records = discretize(c, grid)
        _, full_sol, _ = solve_problem(spec, records)
        assert value == pytest.approx(full_sol.objective, abs=1e-7)
        assert used <= n_points
        # The returned model is feasible on the whole grid.
        X = np.linspace(0, 1, n_points).reshape(-1, 1)
        vals = model.eval_component_many(X)
        assert vals.min() >= 0.25 - 1e-7

    def test_matrix_constraint_rejected(self, kernel):
        val = DiffFunctional.value(1)
        op = SdpOperator(((val, val), (val, val)))
        c = ShapeConstraint(region=((0.0, 1.0),), operator=op,
                            offset=(0.0, 0.0))
        spec = ProblemSpec(kernel=kernel, regularizer=Ridge(1.0))
        with pytest.raises(ValueError, match="scalar"):
            solve_reference(spec, c, 10)

    def test_multidimensional_region_rejected(self):
        k2 = GaussianKernel([0.5, 0.5])
        c = ShapeConstraint(
            region=((0.0, 1.0), (0.0, 1.0)),
            operator=SdpOperator.scalar(DiffFunctional.value(2)),
            offset=(0.0,),
        )
        spec = ProblemSpec(kernel=k2, regularizer=Ridge(1.0))
        with pytest.raises(ValueError, match="1-D"):
            solve_reference(spec, c, 10)


class TestComputeBounds:
    def make_constrained(self, kernel):
        c = ShapeConstraint(
            region=((0.2, 0.8),),
            operator=SdpOperator.scalar(DiffFunctional.value(1)),
            offset=(0.3,),
            bias_map=((1.0,),),
        )
        cover = cover_box([(0.2, 0.8)], 0.05)
        etas = [eta_for(kernel, c.operator, b.center, b.radius, norm=b.norm)
                for b in cover]
        records = tighten_soc(c, cover, etas)
        xs = np.linspace(0, 1, 9)
        obs = [
            Observation(DiffFunctional.value(1), (float(x),), 0.0,
                        bias_row=(1.0,))
            for x in xs
        ]
        spec = ProblemSpec(
            kernel=kernel, observations=obs, loss="squared",
            regularizer=Ridge(0.01), bias_dim=1, constraints=[c],
        )
        return spec, c, records, cover, etas

    def test_sandwich_and_radius(self, kernel):
        spec, c, records, cover, etas = self.make_constrained(kernel)
        model, sol, _ = solve_problem(spec, records)
        _, relax_sol, _ = solve_problem(spec, relax_records(records))
        rep = compute_bounds(spec, records, sol.objective,
                             v_relax=relax_sol.objective, mu_f=2.0)
        assert rep.gap == pytest.approx(sol.objective - relax_sol.objective)
        assert rep.gap >= -1e-9
        assert rep.radius_f == pytest.approx(
            math.sqrt(2 * max(rep.gap, 0.0) / 2.0)
        )
        assert rep.eta_inf == pytest.approx(max(etas))
        anchors = [b.center for b in cover]
        assert rep.fill_dist == pytest.approx(
            fill_distance(anchors, c.region, 33), rel=1e-12
        )

    def test_constraints_sharing_anchors_share_one_fill_distance(
            self, kernel, monkeypatch):
        # econ's three constraints share one anchor set and one box: one
        # fill distance serves them, and a constraint with other anchors
        # gets its own
        value = SdpOperator.scalar(DiffFunctional.value(1))
        slope = SdpOperator.scalar(DiffFunctional.partial(1, axis=0))
        constraints = [ShapeConstraint(((0.2, 0.8),), op, (0.0,))
                       for op in (value, slope, value, slope)]
        fine = cover_box([(0.2, 0.8)], 0.05)
        coarse = cover_box([(0.2, 0.8)], 0.15)
        records = [r for j, (c, cover) in enumerate(
            zip(constraints, [fine, fine, fine, coarse]))
            for r in tighten_soc(c, cover, [0.0] * len(cover),
                                 constraint_index=j)]
        spec = ProblemSpec(kernel=kernel, observations=value_obs([0.5], [0.0]),
                           loss="squared", constraints=constraints)
        calls = []

        def counted(points, box, grid_res):
            calls.append(len(points))
            return fill_distance(points, box, grid_res)

        monkeypatch.setattr(am, "fill_distance", counted)
        rep = compute_bounds(spec, records, 1.0)
        assert sorted(calls) == sorted([len(fine), len(coarse)])
        assert rep.fill_dist == max(
            fill_distance([b.center for b in cover], ((0.2, 0.8),), 33)
            for cover in (fine, coarse))
        # three constraints on one anchor set report what one does
        one = compute_bounds(
            ProblemSpec(kernel=kernel, observations=value_obs([0.5], [0.0]),
                        loss="squared", constraints=constraints[:3]),
            records[:3 * len(fine)], 1.0)
        alone = compute_bounds(
            ProblemSpec(kernel=kernel, observations=value_obs([0.5], [0.0]),
                        loss="squared", constraints=constraints[:1]),
            records[:len(fine)], 1.0)
        assert one.to_json() == alone.to_json()

    def test_report_serializes(self):
        rep = BoundReport(v_app=1.0, v_relax=0.5, gap=0.5)
        data = rep.to_json()
        assert data["v_app"] == 1.0
        assert data["gap"] == 0.5


class TestSpecValidation:
    def test_unknown_loss_rejected(self, kernel):
        with pytest.raises(ValueError, match="reserved or unknown"):
            ProblemSpec(kernel=kernel, loss="huber")

    def test_loss_or_regularizer_required(self, kernel):
        with pytest.raises(ValueError, match="loss or a regularizer"):
            ProblemSpec(kernel=kernel, loss="none")

    def test_regularizer_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Ridge(0.0)
        with pytest.raises(ValueError, match="positive"):
            NormBound(-1.0)


class TestWideNorms:
    """Econ's norm cap and epigraph are wide (1 + A >= n) and go in as unit
    rows, so the dense store ends within 8 rows of the rows before them."""

    @staticmethod
    def econ_shaped(kernel, anchors=90):
        # squared loss, a norm cap, buffered slope rows and no bias or
        # enclosure, so n = A + 1 (the epigraph's t)
        xs = np.linspace(0.0, 1.0, 30)
        slope = ShapeConstraint(region=((0.0, 1.0),),
                                operator=SdpOperator.scalar(
                                    DiffFunctional.partial(1, axis=0)),
                                offset=(-5.0,))
        cover = cover_box(slope.region, 0.5 / anchors)
        records = tighten_soc(slope, cover, [
            eta_for(kernel, slope.operator, b.center, b.radius, norm=b.norm)
            for b in cover])
        spec = ProblemSpec(kernel=kernel, observations=value_obs(
            xs, np.sin(3 * xs)), loss="squared", regularizer=NormBound(3.0),
            constraints=[slope])
        return spec, collect_atoms(spec, records), records

    def test_store_ends_near_the_narrow_rows(self, monkeypatch):
        # a kernel narrow enough that all 120 atoms are pivots, so the
        # norm cones are 1 + A rows wide
        spec, basis, records = self.econ_shaped(GaussianKernel([0.01]))
        assemble(spec, basis, records)  # first calls load their code
        phase = {}
        store_rows, block = am.store_rows, am.ConeBlock

        def at_store(*args):  # the store is allocated next
            tracemalloc.reset_peak()
            phase["start"] = tracemalloc.get_traced_memory()[0]
            return store_rows(*args)

        def at_block(*args, **kwargs):  # the last one: the rows are done
            phase["peak"] = tracemalloc.get_traced_memory()[1]
            return block(*args, **kwargs)

        monkeypatch.setattr(am, "store_rows", at_store)
        monkeypatch.setattr(am, "ConeBlock", at_block)
        tracemalloc.start()
        prog = assemble(spec, basis, records)
        tracemalloc.stop()
        A, n = len(basis), prog.n
        assert n == A + 1
        assert [blk.provenance for blk in prog.blocks[-2:]] == [
            ("norm_bound",), ("epigraph",)]
        narrow = prog.block_slices[-2].start
        assert prog.G.shape == (narrow + 6, n) and narrow % 8 == 2
        assert prog.h.size == narrow + 2 * (1 + A)
        epi = prog.blocks[-1].G  # unit rows, compared with their zeros
        dense = np.zeros(epi.shape)
        dense[epi.rows, epi.cols] = epi.signs
        np.testing.assert_array_equal(
            dense[:, :A], np.r_[np.zeros((1, A)), -np.eye(A)])
        # writing the rows takes the store and a few rows: an A x A
        # identity would add 8 A^2 bytes
        rows = phase["peak"] - phase["start"]
        assert rows <= prog.G.nbytes + prog.h.nbytes + 2 * A * A


class TestPivotBasis:
    """Programs over the Gram's pivot set S: every atom when the Gram is
    full rank, with the full factor's bits; fewer columns, exact rows and
    a norm no larger than ||u|| when it is not."""

    @staticmethod
    def slope_problem(kernel, anchors=40):
        xs = np.linspace(0.0, 1.0, 12)
        slope = ShapeConstraint(region=((0.0, 1.0),),
                                operator=SdpOperator.scalar(
                                    DiffFunctional.partial(1, axis=0)),
                                offset=(-1.0,))
        cover = cover_box(slope.region, 0.5 / anchors)
        records = tighten_soc(slope, cover, [
            eta_for(kernel, slope.operator, b.center, b.radius, norm=b.norm)
            for b in cover])
        spec = ProblemSpec(kernel=kernel, observations=value_obs(
            xs, np.sin(3 * xs)), loss="squared", regularizer=Ridge(0.01),
            constraints=[slope])
        return spec, records

    def test_full_rank_program_has_the_full_factors_bits(self, monkeypatch):
        kernel = GaussianKernel([0.01])
        spec, records = self.slope_problem(kernel)
        basis = collect_atoms(spec, records)
        prog = assemble(spec, basis, records)
        A = len(basis)
        np.testing.assert_array_equal(prog.meta["pivots"], np.arange(A))
        # the construction before pivoting: chol(G + jitter I), L^-1 G
        G = _full_gram(basis, kernel)
        jitter = 1e-10 * (np.trace(G) / A)
        L = np.linalg.cholesky(G + jitter * np.eye(A))
        W = solve_triangular(L, G, lower=True).T
        assert prog.meta["factor"].tobytes() == L.tobytes()
        index = [x.key() for x in basis]
        rows = [index.index(rec.atoms[0][0].key()) for rec in records]
        assert prog.blocks[0].G[:, :A].tobytes() == (-W[rows]).tobytes()
        # the same program as one assembled over every atom
        real_gram = am.gram

        def every_atom(basis, kernel, first=()):
            _, L, jitter, _ = real_gram(basis, kernel, first)
            return (_full_gram(basis, kernel), L, jitter,
                    np.arange(len(basis)))
        monkeypatch.setattr(am, "gram", every_atom)
        whole = assemble(spec, basis, records)
        for name in ("P", "q", "G", "h"):
            assert getattr(prog, name).tobytes() == \
                getattr(whole, name).tobytes()
        assert prog.n == whole.n == A + 1

    def test_low_rank_assembly_holds_no_whole_gram(self):
        kernel = GaussianKernel([0.5])
        spec, records = self.slope_problem(kernel, anchors=1000)
        basis = collect_atoms(spec, records)
        A = len(basis)
        tracemalloc.start()
        try:
            prog = assemble(spec, basis, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A > 1000 and prog.n < 40
        # one A x A array would take A^2 * 8 bytes
        assert peak < A * A * 8 / 4

    def test_low_rank_rows_are_exact_on_the_pivot_span(self):
        kernel = GaussianKernel([0.5])
        spec, records = self.slope_problem(kernel)
        basis = collect_atoms(spec, records)
        model, sol, prog = solve_problem(spec, records)
        S, L = prog.meta["pivots"], prog.meta["factor"]
        r = S.size
        assert r < len(basis) // 2
        assert prog.n == r + 1
        assert prog.meta["t_index"] == len(model.basis) == r
        assert [a.key() for a in model.basis] == \
            [basis[i].key() for i in S]
        # W u = G[:, S] L^-T u at the solution: each anchor row is exact
        # on span S
        G = _full_gram(basis, kernel)
        u, a = sol.x[:r], model.coeffs
        np.testing.assert_array_equal(
            a, solve_triangular(L, u, lower=True, trans=1))
        index = [x.key() for x in basis]
        rows = [index.index(rec.atoms[0][0].key()) for rec in records]
        exact = G[np.ix_(rows, S)] @ a
        np.testing.assert_allclose(-prog.blocks[0].G[:, :r] @ u, exact,
                                   rtol=0, atol=1e-12 * np.abs(exact).max())
        # ||f||^2 = a^T G[S, S] a <= ||u||^2
        assert math.sqrt(a @ G[np.ix_(S, S)] @ a) <= np.linalg.norm(u)
        assert model.norm == pytest.approx(np.linalg.norm(u), rel=1e-12)

    def test_enclosure_normals_below_the_cut_are_pivots(self):
        kernel = GaussianKernel([0.5])
        c = ShapeConstraint(
            region=((0.2, 0.8),),
            operator=SdpOperator.scalar(DiffFunctional.value(1)),
            offset=(0.1,))
        elems = omega_cover(kernel, c.operator.entries[0][0],
                            cover_box([(0.2, 0.8)], 0.01), n_x=50, seed=0)
        records = tighten_omega(c, elems)
        xs = np.linspace(0.2, 0.8, 7)
        spec = ProblemSpec(kernel=kernel, observations=value_obs(
            xs, np.full(7, 0.5)), loss="squared", regularizer=Ridge(0.01),
            constraints=[c])
        basis = collect_atoms(spec, records)
        normals = [index for index, atom in enumerate(basis)
                   if any(atom.key() == am._oriented(rec.normal)[0].key()
                          for rec in records)]
        # on their own, some normals' residuals fall below the cut
        free = gram(basis, kernel)[3]
        G = _full_gram(basis, kernel)
        below = sorted(set(normals) - set(free))
        assert below
        R = np.diagonal(G) - np.einsum(
            "ij,ji->i", G[:, free], np.linalg.solve(
                G[np.ix_(free, free)], G[free]))
        assert R[below].max() <= 1e3 * PIVOT_CUT * np.diagonal(G).max()
        model, _, prog = solve_problem(spec, records)
        assert set(normals) <= set(prog.meta["pivots"])
        report = verify_pointwise(model, c, grid_res=2001)
        assert report["maxViolation"] <= 1e-6
