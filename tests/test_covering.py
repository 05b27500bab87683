"""Input-space coverings and feature-space buffer widths.

Coverage is verified by rejection sampling; buffer widths are checked
against the closed-form radial expression and a dense-grid supremum
computed from the kernel's own (already validated) partials.
"""

import math
import tracemalloc

import numpy as np
import pytest

from shapekernel import (
    Atom,
    DecomposableGaussianKernel,
    DiffFunctional,
    GaussianKernel,
    InputBall,
    LaplacianKernel,
    LTIControlKernel,
    OmegaElement,
    SdpOperator,
    atom_inner,
    cover_box,
    eta_for,
    eta_radial,
    eta_sampled,
    fill_distance,
    grid_cover,
    omega_cover,
)
from shapekernel import covering
from shapekernel.atoms import _full_gram


def _cross_matrix_loop(kernel, op, x1, x2):
    """P^2 x P^2 inner products of the operator's entries anchored at ``x1``
    and ``x2``, one ``atom_inner`` per pair."""
    funcs = [f for row in op.entries for f in row]
    return np.array([[atom_inner(Atom(tuple(np.atleast_1d(x1)), f),
                                 Atom(tuple(np.atleast_1d(x2)), g), kernel)
                      for g in funcs] for f in funcs])


def _eta_loop(kernel, op, z, delta, norm, n_x, n_u, seed):
    """Oracle of the batched sampler: one Delta matrix per offset."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    base = np.zeros_like(z) if kernel.translation_invariant else z
    offsets = covering._unit_offsets(z.size, norm, n_x, seed) * delta
    vs = np.stack([np.outer(u, u).ravel()
                   for u in covering._directions(op.size, n_u, seed)])
    Mzz = _cross_matrix_loop(kernel, op, base, base)
    best = 0.0
    for off in offsets:
        x = base + off
        Mzx = _cross_matrix_loop(kernel, op, base, x)
        D = Mzz + _cross_matrix_loop(kernel, op, x, x) - Mzx - Mzx.T
        quad = np.abs(np.einsum("ki,ij,kj->k", vs, D, vs))
        best = max(best, float(np.max(quad)))
    return math.sqrt(best)


class TestInputBall:
    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown norm"):
            InputBall((0.0,), 0.1, norm="manhattan")
        with pytest.raises(ValueError, match="nonnegative"):
            InputBall((0.0,), -0.1)


class TestCoverBox:
    def test_interval_count_and_centers(self):
        cover = cover_box([(0.2, 0.8)], 0.01)
        assert len(cover) == 30
        centers = sorted(b.center[0] for b in cover)
        assert centers[0] == pytest.approx(0.21)
        assert centers[-1] == pytest.approx(0.79)
        steps = np.diff(centers)
        np.testing.assert_allclose(steps, 0.02, atol=1e-12)
        assert all(b.radius == pytest.approx(0.01) for b in cover)

    def test_max_norm_coverage_by_sampling(self):
        box = [(0.0, 1.0), (-1.0, 0.5)]
        cover = cover_box(box, 0.07, norm="max")
        rng = np.random.default_rng(1)
        pts = np.column_stack(
            [rng.uniform(lo, hi, size=10_000) for lo, hi in box]
        )
        centers = np.array([b.center for b in cover])
        dist = np.abs(pts[:, None, :] - centers[None, :, :]).max(axis=2)
        assert dist.min(axis=1).max() <= 0.07 + 1e-12

    def test_euclidean_coverage_by_sampling(self):
        box = [(0.0, 1.0), (0.0, 1.0)]
        cover = cover_box(box, 0.1, norm="euclidean")
        assert all(b.radius <= 0.1 + 1e-12 for b in cover)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(10_000, 2))
        centers = np.array([b.center for b in cover])
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert math.sqrt(d2.min(axis=1).max()) <= 0.1 + 1e-12

    def test_degenerate_axis(self):
        cover = cover_box([(0.5, 0.5), (0.0, 1.0)], 0.25, norm="euclidean")
        assert all(b.center[0] == 0.5 for b in cover)
        assert all(b.radius <= 0.25 + 1e-12 for b in cover)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            cover_box([(0.0, 1.0)], 0.0)


class TestGridCover:
    def test_counts_and_radius_max(self):
        cover = grid_cover([(0.0, 1.0), (0.0, 2.0)], [2, 4], norm="max")
        assert len(cover) == 8
        assert all(b.radius == pytest.approx(0.25) for b in cover)

    def test_radius_euclidean_half_diagonal(self):
        cover = grid_cover([(0.0, 1.0), (0.0, 1.0)], 5, norm="euclidean")
        assert len(cover) == 25
        assert all(
            b.radius == pytest.approx(math.sqrt(2) * 0.1) for b in cover
        )

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="positive count"):
            grid_cover([(0.0, 1.0)], 0)


class TestFillDistance:
    def test_two_points_on_interval(self):
        fd = fill_distance([[0.25], [0.75]], [(0.0, 1.0)], grid_res=1001)
        assert fd == pytest.approx(0.25, abs=1e-3)

    def test_center_of_square(self):
        fd = fill_distance([[0.5, 0.5]], [(0.0, 1.0), (0.0, 1.0)],
                           grid_res=101)
        assert fd == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            fill_distance(np.zeros((0, 1)), [(0.0, 1.0)], grid_res=10)

    @staticmethod
    def broadcast(points, box, grid_res):
        """The whole grid against every point in one grid x points x d
        array: the reference the chunked form must match bit for bit."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi = np.asarray(box, dtype=float).T
        axes = [np.linspace(lo[i], hi[i], max(int(grid_res), 2))
                for i in range(lo.size)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        grid = grid.reshape(-1, lo.size)
        d2 = ((grid[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        return float(np.sqrt(d2.min(axis=1).max()))

    @pytest.mark.parametrize("dim, grid_res", [(1, 2001), (2, 61), (3, 17)])
    def test_chunks_keep_the_broadcast_bits(self, dim, grid_res):
        rng = np.random.default_rng(dim)
        box = [(-1.0, 0.5), (0.0, 2.0), (-0.3, 0.3)][:dim]
        pts = rng.uniform(-1.0, 1.0, size=(37, dim))
        # several chunks, the last one short
        assert grid_res ** dim * 37 > 2 ** 16
        assert fill_distance(pts, box, grid_res) == \
            self.broadcast(pts, box, grid_res)

    def test_chunks_bound_the_memory(self):
        pts = np.random.default_rng(4).uniform(size=(400, 2))
        tracemalloc.start()
        try:
            fill_distance(pts, [(0.0, 1.0), (0.0, 1.0)], grid_res=101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one grid x points array of squared distances: 101^2 * 400 * 8
        # bytes, and the differences twice that
        assert peak < 101 ** 2 * 400 * 8 / 10


class TestEtaRadial:
    def test_laplacian_frozen_value(self):
        k = LaplacianKernel(rate=5.0)
        val = eta_radial(k, 0.01)
        assert val == pytest.approx(math.sqrt(2 - 2 * math.exp(-0.05)),
                                    rel=1e-12)
        assert val == pytest.approx(0.312317, abs=2e-3)

    def test_gaussian_frozen_value(self):
        k = GaussianKernel([1.0])
        val = eta_radial(k, 1.0)
        assert val == pytest.approx(math.sqrt(2 - 2 * math.exp(-0.5)),
                                    rel=1e-12)
        assert val == pytest.approx(0.887142, abs=2e-3)

    def test_zero_radius_and_monotone(self):
        k = GaussianKernel([0.7])
        assert eta_radial(k, 0.0) == 0.0
        vals = [eta_radial(k, d) for d in (0.1, 0.2, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_anisotropic_kernel_rejected(self):
        with pytest.raises(ValueError, match="radial"):
            eta_radial(GaussianKernel([1.0, 2.0]), 0.1)


class TestEtaSampled:
    def test_value_functional_matches_radial_closed_form(self):
        # Boundary probes hit the worst point of a radial kernel exactly.
        k = GaussianKernel([1.0])
        op = SdpOperator.scalar(DiffFunctional.value(1))
        sampled = eta_sampled(k, op, [0.0], 1.0, norm="euclidean",
                              n_x=2000, seed=0)
        analytic = eta_radial(k, 1.0)
        assert sampled <= analytic + 1e-12
        assert analytic - sampled <= 2e-3

    def test_derivative_functional_matches_grid_supremum(self):
        k = GaussianKernel([0.8])
        D = DiffFunctional.partial(1, axis=0)
        op = SdpOperator.scalar(D)
        delta = 0.3
        # ||D K(., u) - D K(., 0)||^2 = 2 K11(0) - 2 K11(u) on a dense grid.
        k11 = lambda u: k.eval_partial((1,), (1,), 0, 0, [u], [0.0])
        grid = np.linspace(-delta, delta, 20001)
        sup = math.sqrt(max(2 * k11(0.0) - 2 * k11(u) for u in grid))
        sampled = eta_sampled(k, op, [0.0], delta, norm="max",
                              n_x=500, seed=3)
        assert sampled <= sup + 1e-10
        assert sup - sampled <= 1e-6

    def test_monotone_in_radius(self):
        k = GaussianKernel([1.0, 1.0])
        op = SdpOperator.scalar(DiffFunctional.partial(2, axis=0))
        vals = [
            eta_sampled(k, op, [0.0, 0.0], d, n_x=200, seed=1)
            for d in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_radius_is_zero(self):
        k = GaussianKernel([1.0])
        op = SdpOperator.scalar(DiffFunctional.value(1))
        assert eta_sampled(k, op, [0.0], 0.0) == 0.0

    def test_safety_inflates_after_caching(self):
        k = GaussianKernel([1.0])
        op = SdpOperator.scalar(DiffFunctional.partial(1, axis=0))
        base = eta_sampled(k, op, [0.0], 0.2, n_x=100, seed=7)
        inflated = eta_sampled(k, op, [0.0], 0.2, n_x=100, seed=7,
                               safety=0.25)
        assert inflated == pytest.approx(1.25 * base, rel=1e-14)

    @pytest.mark.parametrize("case", ["lti-value", "gauss-2x2"])
    def test_negated_operator_shares_the_cached_width(self, case):
        if case == "lti-value":
            k = LTIControlKernel([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]])
            op = SdpOperator.scalar(DiffFunctional.value(1))
            z = [0.4]
        else:
            k = GaussianKernel([0.7, 1.3])
            val = DiffFunctional.value(2)
            dx = DiffFunctional.partial(2, axis=0)
            op = SdpOperator(((val, dx), (dx, val)))
            z = [0.1, -0.2]
        neg = SdpOperator(tuple(tuple(f.scaled(-1.0) for f in row)
                                for row in op.entries))
        kw = dict(norm="max", n_x=30, n_u=8, seed=5)
        delta = 0.0731
        width = eta_for(k, op, z, delta, **kw)
        entries = len(covering._eta_cache)
        assert eta_for(k, neg, z, delta, **kw) == width
        assert len(covering._eta_cache) == entries
        # the shared entry is what sampling -op gives, bit for bit
        raw = covering._eta_sampled_raw(k, neg, z, delta, "max", 30, 8, 5)
        assert raw == width

    @pytest.mark.parametrize("case", ["lti-value", "lti-2x2", "gauss-2x2"])
    def test_batched_sampler_matches_per_offset_loop(self, case):
        lti = LTIControlKernel([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]])
        if case == "lti-value":
            k, z = lti, [0.4]
            op = SdpOperator.scalar(DiffFunctional.value(1, q=1))
        elif case == "lti-2x2":
            k, z = lti, [0.7]
            v0 = DiffFunctional.value(1, q=0)
            v1 = DiffFunctional(((0, (0,), 0.5), (1, (0,), -1.0)))
            op = SdpOperator(((v0, v1), (v1, v0)))
        else:
            k, z = GaussianKernel([0.7, 1.3]), [0.1, -0.2]
            val = DiffFunctional.value(2)
            dx = DiffFunctional.partial(2, axis=0)
            op = SdpOperator(((val, dx), (dx, val)))
        args = (0.0731, "max", 30, 8, 5)
        got = covering._eta_sampled_raw(k, op, z, *args)
        assert got > 0
        assert got == pytest.approx(_eta_loop(k, op, z, *args), rel=1e-12)

    def test_invalid_sample_counts_rejected(self):
        k = GaussianKernel([1.0])
        op = SdpOperator.scalar(DiffFunctional.value(1))
        with pytest.raises(ValueError, match="at least one sample"):
            eta_sampled(k, op, [0.0], 0.1, n_x=0)


class TestEtaFor:
    def test_radial_identity_uses_closed_form(self):
        k = GaussianKernel([1.0, 1.0])
        op = SdpOperator.scalar(DiffFunctional.value(2))
        # Max-norm ball of radius d has euclidean corner distance d*sqrt(2).
        got = eta_for(k, op, [0.0, 0.0], 0.2, norm="max")
        assert got == pytest.approx(eta_radial(k, 0.2 * math.sqrt(2)),
                                    rel=1e-12)
        got_euc = eta_for(k, op, [0.0, 0.0], 0.2, norm="euclidean")
        assert got_euc == pytest.approx(eta_radial(k, 0.2), rel=1e-12)

    def test_closed_form_consistent_with_sampling(self):
        k = GaussianKernel([1.0, 1.0])
        op = SdpOperator.scalar(DiffFunctional.value(2))
        closed = eta_for(k, op, [0.0, 0.0], 0.25, norm="max")
        sampled = eta_sampled(k, op, [0.0, 0.0], 0.25, norm="max",
                              n_x=500, seed=2)
        # Corner probes make the sampled estimate exact here too.
        assert sampled == pytest.approx(closed, abs=1e-10)

    def test_non_identity_falls_back_to_sampling(self):
        k = GaussianKernel([1.0])
        op = SdpOperator.scalar(DiffFunctional.partial(1, axis=0))
        got = eta_for(k, op, [0.0], 0.2, n_x=150, seed=4)
        ref = eta_sampled(k, op, [0.0], 0.2, n_x=150, seed=4)
        assert got == ref


class TestOmegaCover:
    def test_ball_halfspace_geometry(self):
        k = GaussianKernel([1.0])
        D = DiffFunctional.value(1)
        cover = [InputBall((0.4,), 0.2, norm="max")]
        (elem,) = omega_cover(k, D, cover)
        (center, r0), = elem.balls
        assert center is None
        assert r0 == pytest.approx(1.0, rel=1e-12)  # sqrt(k(0))
        (normal, offset), = elem.halfspaces
        rho = math.exp(-0.5 * 0.2**2)
        assert offset == pytest.approx(-rho, rel=1e-12)
        assert normal.x == (0.4,)
        # Negated functional: <g, -phi> <= -rho encodes <g, phi> >= rho.
        assert normal.functional.terms[0][2] == pytest.approx(-1.0)
        want_diam = 2 * math.sqrt(1.0 - rho**2)
        assert elem.diameter_bound == pytest.approx(want_diam, rel=1e-10)

    def test_ball_halfspace_safety_deflates_level(self):
        k = GaussianKernel([1.0])
        D = DiffFunctional.value(1)
        cover = [InputBall((0.0,), 0.1)]
        (plain,) = omega_cover(k, D, cover)
        (guarded,) = omega_cover(k, D, cover, safety=0.1)
        assert -guarded.halfspaces[0][1] == pytest.approx(
            0.9 * -plain.halfspaces[0][1], rel=1e-12
        )

    def test_sampled_level_matches_per_offset_loop(self):
        # non-radial: the level is the minimum over sampled offsets
        k = GaussianKernel([0.6, 1.1])
        D = DiffFunctional(((0, (1, 0), 1.0), (0, (0, 1), -0.5)))
        ball = InputBall((0.3, -0.4), 0.15, norm="euclidean")
        (elem,) = omega_cover(k, D, [ball], n_x=40, seed=9)
        offsets = covering._unit_offsets(2, "euclidean", 40, 9) * 0.15
        a0 = Atom((0.0, 0.0), D)
        want = min(atom_inner(a0, Atom(tuple(off), D), k) for off in offsets)
        assert -elem.halfspaces[0][1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kernel, functional, ball", [
        (GaussianKernel([0.7]), DiffFunctional.partial(1, axis=0),
         InputBall((0.4,), 0.1)),
        (GaussianKernel([0.6, 1.1]),
         DiffFunctional(((0, (1, 0), 1.0), (0, (0, 1), -0.5))),
         InputBall((0.3, -0.4), 0.15, norm="euclidean")),
        (GaussianKernel([0.6, 1.1]), DiffFunctional.mixed(2, (0, 1)),
         InputBall((0.3, -0.4), 0.15)),
        (GaussianKernel([0.5, 0.9]),
         DiffFunctional(((0, (0, 0), 2.0), (0, (2, 0), -0.25))),
         InputBall((0.1, 0.2), 0.05, norm="euclidean")),
        (DecomposableGaussianKernel([0.8, 1.2], [[2.0, 0.3, 0.1],
                                                 [0.3, 1.0, 0.2],
                                                 [0.1, 0.2, 0.5]]),
         DiffFunctional.partial(2, axis=1, q=2, beta=-1.0),
         InputBall((0.5, 0.5), 0.02, norm="euclidean")),
        (DecomposableGaussianKernel([0.8, 1.2], [[2.0, 0.3], [0.3, 1.0]]),
         DiffFunctional(((0, (1, 0), 1.0), (1, (0, 1), 0.5))),
         InputBall((0.2, 0.7), 0.1)),
    ], ids=["partial", "two-term", "mixed", "value-plus-second",
            "decomposable-q2", "decomposable-mixed-outputs"])
    def test_sampled_level_row_has_cross_grams_bits(self, kernel,
                                                     functional, ball):
        # the level's row comes from the sampler's one-row products, with
        # the bits of the Gram's row of the base atom over anchored atoms
        base = np.zeros(len(ball.center))
        X = base + covering._unit_offsets(base.size, ball.norm, 30, 3) \
            * ball.radius
        row = covering._entry_products(kernel.partial_block, [functional],
                                       base[None], X)[:, 0, 0]
        want = _full_gram([Atom(tuple(x), functional) for x in (base, *X)],
                          kernel)[0, 1:]
        assert row.tobytes() == want.tobytes()
        level = covering._min_correlation(kernel, functional, ball, 30, 3)
        assert level == float(np.min(want))

    def test_halfspace_needs_translation_invariance(self):
        k = LTIControlKernel([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]])
        D = DiffFunctional.value(1, q=0)
        with pytest.raises(ValueError, match="translation-invariant"):
            omega_cover(k, D, [InputBall((0.5,), 0.1)])

    def test_element_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            OmegaElement(balls=(), halfspaces=(), diameter_bound=1.0)
        a = Atom((0.0,), DiffFunctional.value(1))
        with pytest.raises(ValueError, match="positive"):
            OmegaElement(balls=((a, 0.0),), halfspaces=(),
                         diameter_bound=1.0)
        zero = Atom((0.0,), DiffFunctional.value(1, beta=0.0))
        with pytest.raises(ValueError, match="nonzero"):
            OmegaElement(balls=(), halfspaces=((zero, 1.0),),
                         diameter_bound=1.0)
