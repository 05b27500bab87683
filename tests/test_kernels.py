"""Kernel evaluations and closed-form derivatives against independent oracles.

Closed-form mixed partials are checked with high-order central finite
differences; the control kernel is checked against brute-force trapezoid
quadrature of its defining integral.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from shapekernel import (
    DecomposableGaussianKernel,
    GaussianKernel,
    LaplacianKernel,
    LTIControlKernel,
    kernel_from_config,
)
from shapekernel import kernels
from shapekernel.kernels import _gauss_profile_derivative, _gramian_van_loan


def fd_mixed_partial(f, x, y, r1, r2, h=5e-3):
    """Finite-difference oracle for d^{r1}_x d^{r2}_y f(x, y).

    Applies a fourth-order five-point central stencil recursively, one
    derivative at a time, so nested orders up to (2, 2) stay well above
    float noise with a relatively large step.
    """
    for i, order in enumerate(r1):
        if order > 0:
            rd = list(r1)
            rd[i] -= 1

            def shift(t, j=i):
                xs = np.array(x, dtype=float)
                xs[j] += t
                return fd_mixed_partial(f, xs, y, rd, r2, h)

            return (
                -shift(2 * h) + 8 * shift(h) - 8 * shift(-h) + shift(-2 * h)
            ) / (12 * h)
    for i, order in enumerate(r2):
        if order > 0:
            rd = list(r2)
            rd[i] -= 1

            def shift(t, j=i):
                ys = np.array(y, dtype=float)
                ys[j] += t
                return fd_mixed_partial(f, x, ys, r1, rd, h)

            return (
                -shift(2 * h) + 8 * shift(h) - 8 * shift(-h) + shift(-2 * h)
            ) / (12 * h)
    return f(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def gauss_scalar_partial(lengthscales, r1, r2, x, y):
    """The Gaussian kernel's mixed partial at one pair, from Python floats
    and ``math.exp``: the scalar oracle of the vectorized closed form."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    t = (x - y) / lengthscales
    value = math.exp(-0.5 * float(t @ t))
    sign = 1.0
    for i in range(x.size):
        n = r1[i] + r2[i]
        if n:
            s2 = float(lengthscales[i]) ** 2
            value *= _gauss_profile_derivative(n, float(x[i] - y[i]), s2)
            if r2[i] % 2:
                sign = -sign
    return sign * value


class TestGaussianKernel:
    def test_value_matches_formula(self):
        k = GaussianKernel([0.7, 1.3])
        x = np.array([0.2, -0.4])
        y = np.array([-0.1, 0.9])
        expected = math.exp(
            -0.5 * ((0.3 / 0.7) ** 2 + (-1.3 / 1.3) ** 2)
        )
        assert abs(k.eval(x, y)[0, 0] - expected) < 1e-14

    def test_partials_match_finite_differences(self):
        k = GaussianKernel([0.9, 1.4])
        f = lambda x, y: k.eval(x, y)[0, 0]
        rng = np.random.default_rng(3)
        orders = [
            ((1, 0), (0, 0)),
            ((0, 1), (0, 0)),
            ((2, 0), (0, 0)),
            ((1, 1), (0, 0)),
            ((0, 0), (1, 0)),
            ((1, 0), (1, 0)),
            ((1, 0), (0, 1)),
            ((2, 0), (2, 0)),
            ((1, 1), (1, 1)),
            ((0, 2), (2, 0)),
        ]
        for r1, r2 in orders:
            for _ in range(3):
                x = rng.uniform(-1, 1, size=2)
                y = rng.uniform(-1, 1, size=2)
                got = k.eval_partial(r1, r2, 0, 0, x, y)
                want = fd_mixed_partial(f, x, y, r1, r2)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-8), (
                    r1,
                    r2,
                )

    def test_partial_many_matches_scalar_loop(self):
        k = GaussianKernel([0.8, 1.1])
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(40, 2))
        y = np.array([0.3, -0.2])
        for r1, r2 in [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((2, 0), (0, 0))]:
            vec = k.eval_partial_many(r1, r2, 0, 0, X, y)
            loop = np.array(
                [k.eval_partial(r1, r2, 0, 0, row, y) for row in X]
            )
            np.testing.assert_allclose(vec, loop, rtol=1e-13, atol=1e-15)

    def test_symmetry_under_argument_swap(self):
        k = GaussianKernel([1.2])
        x, y = np.array([0.4]), np.array([-0.3])
        a = k.eval_partial((1,), (2,), 0, 0, x, y)
        b = k.eval_partial((2,), (1,), 0, 0, y, x)
        assert a == pytest.approx(b, rel=1e-13)

    def test_value_gram_positive_semidefinite(self):
        k = GaussianKernel([0.5, 0.5, 0.5])
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(25, 3))
        G = np.array([[k.eval(a, b)[0, 0] for b in X] for a in X])
        eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
        assert eigs.min() > -1e-10

    def test_order_above_smoothness_rejected(self):
        k = GaussianKernel([1.0])
        with pytest.raises(ValueError, match="smoothness"):
            k.eval_partial((3,), (0,), 0, 0, [0.0], [0.5])
        with pytest.raises(ValueError, match="smoothness"):
            k.partial_block((3,), (0,), 0, 0, [[0.0]], [[0.5]])

    def test_radial_profile_only_for_equal_lengthscales(self):
        iso = GaussianKernel([0.8, 0.8])
        assert iso.is_radial
        assert iso.radial_profile(0.4) == pytest.approx(
            math.exp(-0.5 * (0.4 / 0.8) ** 2)
        )
        aniso = GaussianKernel([0.8, 1.2])
        assert not aniso.is_radial
        with pytest.raises(ValueError, match="not radial"):
            aniso.radial_profile(0.4)

    def test_invalid_lengthscales_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianKernel([1.0, -0.5])


class TestLaplacianKernel:
    def test_value_matches_formula(self):
        k = LaplacianKernel(rate=5.0, dim=2)
        x = np.array([0.1, 0.5])
        y = np.array([0.4, 0.1])
        assert k.eval(x, y)[0, 0] == pytest.approx(math.exp(-5.0 * 0.5))

    def test_derivative_request_rejected(self):
        k = LaplacianKernel(rate=2.0)
        with pytest.raises(ValueError, match="not differentiable"):
            k.eval_partial((1,), (0,), 0, 0, [0.0], [1.0])
        with pytest.raises(ValueError, match="not differentiable"):
            k.eval_partial_many((0,), (1,), 0, 0, [[0.0]], [1.0])

    def test_value_functional_accepted(self):
        k = LaplacianKernel(rate=2.0)
        got = k.eval_partial((0,), (0,), 0, 0, [0.25], [1.0])
        assert got == pytest.approx(math.exp(-1.5))

    def test_radial_profile(self):
        k = LaplacianKernel(rate=3.0, dim=4)
        assert k.translation_invariant and k.is_radial
        assert k.radial_profile(0.2) == pytest.approx(math.exp(-0.6))


class TestDecomposableGaussianKernel:
    def make(self):
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        return DecomposableGaussianKernel([0.7, 0.9], cov), cov

    def test_matrix_value_is_scalar_times_covariance(self):
        k, cov = self.make()
        scalar = GaussianKernel([0.7, 0.9])
        x = np.array([0.2, 0.1])
        y = np.array([-0.3, 0.4])
        np.testing.assert_allclose(
            k.eval(x, y), scalar.eval(x, y)[0, 0] * cov, rtol=1e-14
        )

    def test_partials_factorize(self):
        k, cov = self.make()
        scalar = GaussianKernel([0.7, 0.9])
        x = np.array([0.2, 0.1])
        y = np.array([-0.3, 0.4])
        for q1 in range(3):
            for q2 in range(3):
                got = k.eval_partial((1, 0), (0, 1), q1, q2, x, y)
                want = gauss_scalar_partial(scalar.lengthscales, (1, 0),
                                            (0, 1), x, y) * cov[q1, q2]
                assert got == pytest.approx(want, rel=1e-13)

    def test_output_index_out_of_range(self):
        k, _ = self.make()
        with pytest.raises(ValueError, match="out of range"):
            k.eval_partial((0, 0), (0, 0), 0, 3, [0.0, 0.0], [0.1, 0.1])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            DecomposableGaussianKernel([1.0], [[1.0, 0.2], [0.1, 1.0]])

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DecomposableGaussianKernel([1.0], [[1.0, 2.0], [2.0, 1.0]])


class TestLTIControlKernel:
    A = np.array([[0.0, 1.0], [0.0, -1.0]])
    B = np.array([[0.0], [1.0]])

    def quad_oracle(self, s, t, n=10_000):
        """Trapezoid quadrature of the defining integral on [0, min(s, t)]."""
        m = min(s, t)
        taus = np.linspace(0.0, m, n)
        vals = np.array(
            [
                expm(self.A * (s - tau))
                @ self.B
                @ self.B.T
                @ expm(self.A * (t - tau)).T
                for tau in taus
            ]
        )
        return np.trapezoid(vals, taus, axis=0)

    def test_matches_quadrature(self):
        k = LTIControlKernel(self.A, self.B)
        for s, t in [(1.0, 1.0), (0.5, 1.5), (2.0, 0.7), (0.3, 0.3)]:
            np.testing.assert_allclose(
                k.eval([s], [t]), self.quad_oracle(s, t), atol=1e-9
            )

    def test_frozen_closed_form_value(self):
        # For this (A, B) the (1,1) entry at s = t = 1 integrates to
        # (1 - exp(-2)) / 2 in closed form.
        k = LTIControlKernel(self.A, self.B)
        assert k.eval([1.0], [1.0])[1, 1] == pytest.approx(
            (1.0 - math.exp(-2.0)) / 2.0, abs=1e-12
        )
        assert k.eval([1.0], [1.0])[1, 1] == pytest.approx(
            0.4323323583816936, abs=1e-12
        )

    def test_zero_time_gives_zero_matrix(self):
        k = LTIControlKernel(self.A, self.B)
        np.testing.assert_array_equal(k.eval([0.0], [1.0]), np.zeros((2, 2)))
        np.testing.assert_array_equal(k.eval([0.5], [0.0]), np.zeros((2, 2)))

    def test_negative_time_rejected(self):
        k = LTIControlKernel(self.A, self.B)
        with pytest.raises(ValueError, match="nonnegative"):
            k.eval([-0.1], [1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            k.eval([1.0], [-2.0])

    def test_transpose_symmetry(self):
        k = LTIControlKernel(self.A, self.B)
        np.testing.assert_allclose(
            k.eval([0.8], [1.7]), k.eval([1.7], [0.8]).T, atol=1e-12
        )

    def test_derivative_request_rejected(self):
        k = LTIControlKernel(self.A, self.B)
        with pytest.raises(ValueError, match="not differentiable"):
            k.eval_partial((1,), (0,), 0, 0, [0.5], [1.0])

    def test_trajectory_gram_positive_semidefinite(self):
        k = LTIControlKernel(self.A, self.B)
        times = np.linspace(0.1, 2.0, 8)
        Q = 2
        G = np.zeros((len(times) * Q, len(times) * Q))
        for i, s in enumerate(times):
            for j, t in enumerate(times):
                G[i * Q:(i + 1) * Q, j * Q:(j + 1) * Q] = k.eval([s], [t])
        eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
        assert eigs.min() > -1e-10


def _multi_indices(d, max_order):
    """Every length-d multi-index of total order at most ``max_order``."""
    return [r for r in itertools.product(range(max_order + 1), repeat=d)
            if sum(r) <= max_order]


class TestPartialBlock:
    """``partial_block`` against per-pair oracles and ``eval_partial``."""

    @staticmethod
    def loop(k, r1, r2, q1, q2, X1, X2):
        return np.array([[k.eval_partial(r1, r2, q1, q2, x, y) for y in X2]
                         for x in X1])

    @staticmethod
    def gauss_loop(k, r1, r2, q1, q2, X1, X2):
        cov = getattr(k, "output_cov", np.ones((1, 1)))[q1, q2]
        return np.array([[gauss_scalar_partial(k.lengthscales, r1, r2, x, y)
                          * cov for y in X2] for x in X1])

    @pytest.mark.parametrize("kernel", [
        GaussianKernel([0.8, 1.1]),
        DecomposableGaussianKernel([0.7, 1.3], [[2.0, 0.5], [0.5, 1.0]]),
    ], ids=["gaussian", "decomposable"])
    def test_closed_form_matches_scalar_loop(self, kernel):
        rng = np.random.default_rng(3)
        X1 = rng.uniform(-1, 1, size=(7, 2))
        X2 = rng.uniform(-1, 1, size=(5, 2))
        orders = _multi_indices(2, kernel.smoothness)
        Q = kernel.out_dim
        for r1 in orders:
            for r2 in orders:
                for q1 in range(Q):
                    for q2 in range(Q):
                        block = kernel.partial_block(r1, r2, q1, q2, X1, X2)
                        assert block.shape == (7, 5)
                        np.testing.assert_allclose(
                            block,
                            self.gauss_loop(kernel, r1, r2, q1, q2, X1, X2),
                            rtol=1e-12, atol=1e-15)

    def test_per_pair_kernels_are_bit_identical(self):
        rng = np.random.default_rng(4)
        lap = LaplacianKernel(1.7, dim=2)
        X1 = rng.uniform(-1, 1, size=(6, 2))
        X2 = rng.uniform(-1, 1, size=(4, 2))
        assert np.array_equal(lap.partial_block((0, 0), (0, 0), 0, 0, X1, X2),
                              self.loop(lap, (0, 0), (0, 0), 0, 0, X1, X2))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_laplacian_block_has_the_loops_bytes(self, dim):
        # the closed form against the scalar formula per pair, with
        # coincident points and points at scales far apart: catenary's
        # Grams and apply_functional rely on these bits
        rng = np.random.default_rng(dim)
        lap = LaplacianKernel(1.3, dim=dim)
        X1 = rng.normal(size=(40, dim)) * 10.0 ** rng.integers(-4, 3, (40, 1))
        X2 = np.vstack([rng.normal(size=(30, dim)), X1[::4]])
        zero = (0,) * dim
        block = lap.partial_block(zero, zero, 0, 0, X1, X2)
        loop = np.array([[math.exp(-lap.rate * float(np.linalg.norm(x - y)))
                          for y in X2] for x in X1])
        assert block.tobytes() == loop.tobytes()
        assert np.count_nonzero(block == 1.0) >= 10
        with pytest.raises(ValueError, match="not differentiable"):
            lap.partial_block((1,) + zero[1:], zero, 0, 0, X1, X2)

    @pytest.mark.parametrize("kernel", [
        GaussianKernel([0.8]),
        GaussianKernel([0.8, 1.1]),
        GaussianKernel([0.8, 1.1, 0.6]),
        DecomposableGaussianKernel([0.7, 1.3], [[2.0, 0.5], [0.5, 1.0]]),
        LaplacianKernel(1.3, dim=3),
        LTIControlKernel([[-0.5, 1.0], [0.3, -2.0]], [[0.0], [1.0]]),
        LTIControlKernel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]),
    ], ids=["gaussian-1d", "gaussian-2d", "gaussian-3d", "decomposable",
            "laplacian", "lti", "lti-defective"])
    def test_pairs_have_the_block_diagonals_bytes(self, kernel):
        # a Gram's diagonal comes from partial_pairs and its rows from
        # partial_block, and atom_inner reads eval_partial, so all must
        # agree bit for bit on each pair, as must eval's entries
        rng = np.random.default_rng(5)
        d = kernel.dim
        lo = 0.0 if isinstance(kernel, LTIControlKernel) else -1.0
        X1 = rng.uniform(lo, 1, size=(9, d))
        X2 = np.vstack([rng.uniform(lo, 1, size=(5, d)), X1[5:]])
        values = [kernel.eval(x, y) for x, y in zip(X1, X2)]
        for r1 in _multi_indices(d, kernel.smoothness):
            for r2 in _multi_indices(d, kernel.smoothness):
                for q1, q2 in itertools.product(range(kernel.out_dim),
                                                repeat=2):
                    block = kernel.partial_block(r1, r2, q1, q2, X1, X2)
                    pairs = kernel.partial_pairs(r1, r2, q1, q2, X1, X2)
                    assert pairs.tobytes() == np.diag(block).tobytes()
                    one = [kernel.eval_partial(r1, r2, q1, q2, x, y)
                           for x, y in zip(X1, X2)]
                    assert pairs.tobytes() == np.array(one).tobytes()
                    if not sum(r1 + r2):
                        entries = [v[q1, q2] for v in values]
                        assert pairs.tobytes() == np.array(entries).tobytes()


def _van_loan(k, s, t):
    """K(s, t) from the Van Loan Gramian and ``expm``, one pair at a time."""
    m = min(s, t)
    if m == 0.0:
        return np.zeros((k.out_dim, k.out_dim))
    W = _gramian_van_loan(k.A, k.BBt, m)
    return expm(k.A * (s - m)) @ W @ expm(k.A * (t - m)).T


def _times(rng, n):
    """Times in [0, 2] with a zero; the caller adds coincident pairs."""
    T = rng.uniform(0.0, 2.0, size=(n, 1))
    T[0, 0] = 0.0
    return T


class TestLTIClosedForm:
    """The eigendecomposition form of the control kernel against the
    per-pair Van Loan oracle, and its fallback for a defective ``A``."""

    B = np.array([[0.0], [1.0]])

    @pytest.mark.parametrize("A", [
        [[0.0, 1.0], [0.0, -1.0]],
        [[-0.5, 1.0], [0.3, -2.0]],
        [[0.0, 1.0], [-4.0, -0.4]],
        [[0.0, 1.0], [-4.0, 0.0]],
    ], ids=["shipped-zero-eig", "distinct-real", "damped-oscillator",
            "pure-oscillator"])
    def test_partial_block_matches_van_loan(self, A):
        k = LTIControlKernel(A, self.B)
        assert k._eig is not None
        rng = np.random.default_rng(21)
        T1 = _times(rng, 7)
        T2 = np.vstack([_times(rng, 5), T1[3:5]])
        for q1 in range(2):
            for q2 in range(2):
                ref = np.array([[_van_loan(k, s, t)[q1, q2] for t in T2[:, 0]]
                                for s in T1[:, 0]])
                np.testing.assert_allclose(
                    k.partial_block((0,), (0,), q1, q2, T1, T2), ref,
                    rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(k.eval([0.9], [1.6]),
                                   _van_loan(k, 0.9, 1.6),
                                   rtol=1e-10, atol=1e-14)

    def test_pure_oscillator_hits_the_zero_exponent_branch(self):
        k = LTIControlKernel([[0.0, 1.0], [-4.0, 0.0]], self.B)
        lam = k._eig[0]
        assert np.any(lam[:, None] + lam[None, :] == 0)

    def test_defective_a_falls_back_to_the_per_pair_loop(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        k = LTIControlKernel(A, self.B)
        assert k._eig is None
        rng = np.random.default_rng(22)
        T1, T2 = _times(rng, 5), _times(rng, 4)
        for q1 in range(2):
            for q2 in range(2):
                block = k.partial_block((0,), (0,), q1, q2, T1, T2)
                assert np.array_equal(block, TestPartialBlock.loop(
                    k, (0,), (0,), q1, q2, T1, T2))
                assert np.array_equal(
                    k.partial_pairs((0,), (0,), q1, q2, T1[:4], T2),
                    np.diag(block))
        oracle = TestLTIControlKernel()
        oracle.A, oracle.B = A, self.B
        for s, t in [(1.0, 1.0), (0.5, 1.5), (2.0, 0.7)]:
            np.testing.assert_allclose(k.eval([s], [t]),
                                       oracle.quad_oracle(s, t), atol=1e-9)

    def test_partial_pairs_is_the_block_diagonal(self):
        k = LTIControlKernel([[0.0, 1.0], [0.0, -1.0]], self.B)
        rng = np.random.default_rng(23)
        T1, T2 = _times(rng, 6), _times(rng, 6)
        T2[2] = T1[2]
        for q1 in range(2):
            for q2 in range(2):
                np.testing.assert_array_equal(
                    k.partial_pairs((0,), (0,), q1, q2, T1, T2),
                    np.diag(k.partial_block((0,), (0,), q1, q2, T1, T2)))

    def test_block_rejects_derivatives_and_negative_times(self):
        k = LTIControlKernel([[0.0, 1.0], [0.0, -1.0]], self.B)
        with pytest.raises(ValueError, match="not differentiable"):
            k.partial_block((1,), (0,), 0, 0, [[0.5]], [[1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            k.partial_pairs((0,), (0,), 0, 0, [[0.5]], [[-1.0]])


def test_each_kernel_writes_its_formula_once():
    # _partial is the one closed form; a scalar copy of it (eval,
    # eval_partial, scalar_partial) could drift from it in the last bit
    concrete = [cls for cls in vars(kernels).values()
                if isinstance(cls, type) and issubclass(cls, kernels.Kernel)
                and cls is not kernels.Kernel]
    assert len(concrete) == 4
    for cls in concrete:
        assert "_partial" in vars(cls), cls.__name__
        for name in ("eval", "eval_partial", "scalar_partial"):
            assert name not in vars(cls), (cls.__name__, name)


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "kernel",
        [
            GaussianKernel([0.7, 1.3]),
            LaplacianKernel(rate=5.0, dim=2),
            DecomposableGaussianKernel(
                [0.7], np.array([[1.0, 0.2], [0.2, 0.5]])
            ),
            LTIControlKernel(
                np.array([[0.0, 1.0], [0.0, -1.0]]),
                np.array([[0.0], [1.0]]),
            ),
        ],
        ids=["gaussian", "laplacian", "decomposable", "lti"],
    )
    def test_round_trip_preserves_values(self, kernel):
        clone = kernel_from_config(kernel.to_config())
        assert clone.fingerprint() == kernel.fingerprint()
        x = np.full(kernel.dim, 0.4)
        y = np.full(kernel.dim, 0.9)
        np.testing.assert_allclose(clone.eval(x, y), kernel.eval(x, y))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            kernel_from_config({"kind": "polynomial"})

    def test_fingerprint_distinguishes_parameters(self):
        assert (
            GaussianKernel([1.0]).fingerprint()
            != GaussianKernel([1.1]).fingerprint()
        )
