"""Atoms, Gram assembly, and model evaluation against manual oracles.

Inner products are re-derived term by term from kernel partials; model
derivative evaluation is cross-checked with finite differences on the
model's own pointwise evaluation.
"""

import math

import numpy as np
import pytest

from shapekernel import (
    Atom,
    DiffFunctional,
    GaussianKernel,
    DecomposableGaussianKernel,
    Kernel,
    LaplacianKernel,
    LTIControlKernel,
    Model,
    SdpOperator,
    apply_functional,
    atom_inner,
    cross_gram,
    gram,
    model_distance,
)


@pytest.fixture
def kernel():
    return GaussianKernel([0.8, 1.1])


@pytest.fixture
def basis(kernel):
    rng = np.random.default_rng(7)
    atoms = []
    for i in range(6):
        x = tuple(rng.uniform(-1, 1, size=2))
        if i % 3 == 0:
            D = DiffFunctional.value(2)
        elif i % 3 == 1:
            D = DiffFunctional.partial(2, axis=i % 2)
        else:
            D = DiffFunctional.mixed(2, axes=(0, 1))
        atoms.append(Atom(x, D))
    return tuple(atoms)


class TestDiffFunctional:
    def test_builders(self):
        v = DiffFunctional.value(3, q=1, beta=2.0)
        assert v.terms == ((1, (0, 0, 0), 2.0),)
        p = DiffFunctional.partial(3, axis=2, order=2)
        assert p.terms == ((0, (0, 0, 2), 1.0),)
        m = DiffFunctional.mixed(3, axes=(0, 0, 2))
        assert m.terms == ((0, (2, 0, 1), 1.0),)
        assert m.max_order == 3

    def test_canonical_merges_and_sorts(self):
        a = DiffFunctional(((0, (1, 0), 0.5), (0, (1, 0), 0.5)))
        b = DiffFunctional(((0, (1, 0), 1.0),))
        assert a.canonical() == b.canonical()
        mixed_order = DiffFunctional(((1, (0, 0), 1.0), (0, (1, 0), 2.0)))
        swapped = DiffFunctional(((0, (1, 0), 2.0), (1, (0, 0), 1.0)))
        assert mixed_order.canonical() == swapped.canonical()

    def test_canonical_drops_cancelled_terms(self):
        c = DiffFunctional(((0, (1,), 1.0), (0, (1,), -1.0), (0, (0,), 3.0)))
        assert c.canonical() == ((0, (0,), 3.0),)

    def test_scaled(self):
        d = DiffFunctional(((0, (1, 0), 2.0), (1, (0, 1), -1.0)))
        s = d.scaled(-0.5)
        assert s.terms == ((0, (1, 0), -1.0), (1, (0, 1), 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one term"):
            DiffFunctional(())

    def test_json_round_trip(self):
        d = DiffFunctional(((1, (2, 0), -0.25), (0, (0, 1), 3.0)))
        assert DiffFunctional.from_json(d.to_json()) == d


class TestSdpOperator:
    def test_scalar_wrapper(self):
        D = DiffFunctional.value(1)
        op = SdpOperator.scalar(D)
        assert op.size == 1
        assert op.entries[0][0] == D

    def test_symmetry_enforced(self):
        a = DiffFunctional.value(2)
        b = DiffFunctional.partial(2, axis=0)
        c = DiffFunctional.partial(2, axis=1)
        SdpOperator(((a, b), (b, c)))  # symmetric: fine
        with pytest.raises(ValueError, match="differ"):
            SdpOperator(((a, b), (c, a)))

    def test_non_square_rejected(self):
        a = DiffFunctional.value(1)
        with pytest.raises(ValueError, match="square"):
            SdpOperator(((a, a),))


class TestAtom:
    def test_key_quantizes_points(self):
        D = DiffFunctional.value(1)
        assert Atom((0.1 + 1e-13,), D).key() == Atom((0.1,), D).key()
        assert Atom((0.1 + 1e-9,), D).key() != Atom((0.1,), D).key()

    def test_key_uses_canonical_functional(self):
        split = DiffFunctional(((0, (1,), 0.5), (0, (1,), 0.5)))
        whole = DiffFunctional.partial(1, axis=0)
        assert Atom((0.3,), split).key() == Atom((0.3,), whole).key()

    def test_json_round_trip(self):
        a = Atom((0.2, -0.7), DiffFunctional.mixed(2, axes=(0, 1), beta=2.5))
        assert Atom.from_json(a.to_json()) == a


class TestAtomInner:
    def test_matches_term_by_term_composition(self, kernel):
        D1 = DiffFunctional(((0, (1, 0), 2.0), (0, (0, 1), -1.0)))
        D2 = DiffFunctional(((0, (0, 0), 1.5), (0, (1, 1), 0.5)))
        x1, x2 = (0.2, -0.1), (-0.4, 0.6)
        got = atom_inner(Atom(x1, D1), Atom(x2, D2), kernel)
        want = 0.0
        for q1, r1, b1 in D1.terms:
            for q2, r2, b2 in D2.terms:
                want += b1 * b2 * kernel.eval_partial(r1, r2, q1, q2, x1, x2)
        assert got == pytest.approx(want, rel=1e-14)

    def test_symmetry(self, kernel, basis):
        for a in basis[:3]:
            for b in basis[3:]:
                assert atom_inner(a, b, kernel) == pytest.approx(
                    atom_inner(b, a, kernel), rel=1e-12, abs=1e-14
                )

    def test_cauchy_schwarz(self, kernel, basis):
        for a in basis:
            for b in basis:
                lhs = atom_inner(a, b, kernel) ** 2
                rhs = atom_inner(a, a, kernel) * atom_inner(b, b, kernel)
                assert lhs <= rhs * (1 + 1e-12) + 1e-14

    def test_vector_output_components(self):
        cov = np.array([[1.0, 0.4], [0.4, 2.0]])
        k = DecomposableGaussianKernel([0.9], cov)
        a = Atom((0.1,), DiffFunctional.value(1, q=0))
        b = Atom((0.5,), DiffFunctional.value(1, q=1))
        want = k.scalar.eval([0.1], [0.5])[0, 0] * cov[0, 1]
        assert atom_inner(a, b, k) == pytest.approx(want, rel=1e-14)


class TestGram:
    def test_positive_semidefinite_and_factor(self, kernel, basis):
        G, L, jitter = gram(basis, kernel)
        np.testing.assert_allclose(G, G.T, atol=1e-14)
        assert np.linalg.eigvalsh(G).min() > -1e-10
        np.testing.assert_allclose(
            L @ L.T, G + jitter * np.eye(len(basis)), atol=1e-12
        )
        assert 0 < jitter < 1e-6 * np.trace(G) / len(basis) * 10

    def test_duplicate_atoms_escalate_jitter_but_succeed(self, kernel):
        a = Atom((0.3, 0.3), DiffFunctional.value(2))
        G, L, jitter = gram((a, a, a), kernel)
        assert np.isfinite(L).all()
        np.testing.assert_allclose(
            L @ L.T, G + jitter * np.eye(3), atol=1e-10
        )

    def test_indefinite_input_raises(self):
        class BadKernel(Kernel):
            dim = 1
            out_dim = 1

            def eval_partial(self, r1, r2, q1, q2, x, y):
                M = np.array([[1.0, 2.0], [2.0, 1.0]])
                return M[int(x[0]), int(y[0])]

        bad = BadKernel()
        atoms = (
            Atom((0.0,), DiffFunctional.value(1)),
            Atom((1.0,), DiffFunctional.value(1)),
        )
        with pytest.raises(ValueError, match="indefinite"):
            gram(atoms, bad)

    def test_empty_basis_rejected(self, kernel):
        with pytest.raises(ValueError, match="non-empty"):
            gram((), kernel)

    def test_cross_gram_matches_atom_inner(self, kernel, basis):
        C = cross_gram(basis[:2], basis[2:5], kernel)
        for i, a in enumerate(basis[:2]):
            for j, b in enumerate(basis[2:5]):
                assert C[i, j] == pytest.approx(
                    atom_inner(a, b, kernel), rel=1e-14
                )


def _reference_gram(basis, kernel):
    """Reference Gram: one ``atom_inner`` per upper-triangle pair."""
    n = len(basis)
    G = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = atom_inner(basis[i], basis[j], kernel)
    return G


class TestBlockGram:
    """``gram`` through grouped kernel blocks against ``atom_inner``."""

    def test_mixed_gaussian_basis_matches_scalar_reference(self):
        # Interleaved like an SDP convexity basis: value atoms, negated
        # first partials, then d11/d12/d22 atoms anchor by anchor; more than
        # one row chunk per functional group.
        kernel = GaussianKernel([0.6, 0.9])
        rng = np.random.default_rng(12)
        atoms = [Atom(tuple(rng.uniform(-1, 1, 2)), DiffFunctional.value(2))
                 for _ in range(20)]
        for axis in (0, 1):
            atoms += [Atom(tuple(rng.uniform(-1, 1, 2)),
                           DiffFunctional.partial(2, axis, beta=-1.0))
                      for _ in range(9)]
        for _ in range(18):
            x = tuple(rng.uniform(-1, 1, 2))
            atoms += [Atom(x, DiffFunctional.mixed(2, axes))
                      for axes in ((0, 0), (0, 1), (1, 1))]
        G, _, _ = gram(atoms, kernel)
        ref = _reference_gram(atoms, kernel)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(G, ref, rtol=1e-12, atol=1e-12 * scale)
        assert np.array_equal(G, G.T)
        C = cross_gram(atoms[:30], atoms[25:], kernel)
        np.testing.assert_allclose(C, ref[:30, 25:], rtol=1e-12,
                                   atol=1e-12 * scale)

    def test_per_pair_kernels_match_scalar_reference_exactly(self):
        rng = np.random.default_rng(13)
        lap = LaplacianKernel(2.0, dim=1)
        lap_basis = [Atom((x,), DiffFunctional.value(1, beta=b))
                     for x in rng.uniform(-1, 1, 20) for b in (1.0, -1.0)]
        rng.shuffle(lap_basis)
        G, _, _ = gram(lap_basis, lap)
        assert np.array_equal(G, _reference_gram(lap_basis, lap))

    def test_lti_closed_form_matches_scalar_reference(self):
        rng = np.random.default_rng(13)
        lti = LTIControlKernel([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]])
        basis = [Atom((t,), DiffFunctional.value(1, q=q))
                 for t in rng.uniform(0.1, 2, 20) for q in (0, 1)]
        G, _, _ = gram(basis, lti)
        np.testing.assert_allclose(G, _reference_gram(basis, lti),
                                   rtol=1e-10, atol=1e-14)
        assert np.array_equal(G, G.T)


class TestModel:
    def make_model(self, kernel, basis, seed=0):
        rng = np.random.default_rng(seed)
        return Model(kernel, basis, rng.normal(size=len(basis)))

    def test_norm_matches_quadratic_form(self, kernel, basis):
        model = self.make_model(kernel, basis)
        a = model.coeffs
        direct = math.sqrt(a @ model.gram_matrix @ a)
        assert model.norm == pytest.approx(direct, rel=1e-7)

    def test_eval_matches_manual_expansion(self, kernel, basis):
        model = self.make_model(kernel, basis, seed=2)
        x = np.array([0.15, -0.35])
        probe = Atom(tuple(x), DiffFunctional.value(2))
        want = sum(
            a_j * atom_inner(atom, probe, kernel)
            for a_j, atom in zip(model.coeffs, basis)
        )
        assert model.eval(x)[0] == pytest.approx(want, rel=1e-13)

    def test_eval_component_many_matches_pointwise(self, kernel, basis):
        model = self.make_model(kernel, basis, seed=3)
        X = np.random.default_rng(4).uniform(-1, 1, size=(20, 2))
        vec = model.eval_component_many(X)
        loop = np.array([model.eval(x)[0] for x in X])
        np.testing.assert_allclose(vec, loop, rtol=1e-12, atol=1e-14)
        D = DiffFunctional(((0, (1, 0), 0.5), (0, (0, 2), -1.5)))
        np.testing.assert_allclose(
            model.apply(D, X),
            [apply_functional(D, model, x) for x in X],
            rtol=1e-12, atol=1e-14)

    def test_apply_functional_matches_finite_differences(self, kernel, basis):
        model = self.make_model(kernel, basis, seed=5)
        x = np.array([0.1, 0.2])
        h = 1e-5
        for axis in (0, 1):
            D = DiffFunctional.partial(2, axis=axis)
            xp, xm = x.copy(), x.copy()
            xp[axis] += h
            xm[axis] -= h
            fd = (model.eval(xp)[0] - model.eval(xm)[0]) / (2 * h)
            assert apply_functional(D, model, x) == pytest.approx(
                fd, rel=1e-7, abs=1e-9
            )

    def test_second_derivative_against_finite_differences(self, kernel, basis):
        model = self.make_model(kernel, basis, seed=6)
        x = np.array([-0.2, 0.3])
        h = 1e-4
        D = DiffFunctional.partial(2, axis=0, order=2)
        fd = (
            model.eval(x + np.array([h, 0]))[0]
            - 2 * model.eval(x)[0]
            + model.eval(x - np.array([h, 0]))[0]
        ) / h**2
        assert apply_functional(D, model, x) == pytest.approx(
            fd, rel=1e-6, abs=1e-7
        )

    def test_zero_model(self, kernel):
        z = Model(kernel, (), np.zeros(0), np.zeros(2))
        assert z.norm == 0.0
        assert z.bias.shape == (2,)
        np.testing.assert_array_equal(z.eval([0.0, 0.0]), [0.0])

    def test_coefficient_count_mismatch_rejected(self, kernel, basis):
        with pytest.raises(ValueError, match="coefficient count"):
            Model(kernel, basis, np.zeros(len(basis) - 1))

    def test_json_round_trip(self, kernel, basis):
        model = self.make_model(kernel, basis, seed=8)
        clone = Model.from_json(model.to_json())
        assert clone.kernel.fingerprint() == kernel.fingerprint()
        x = [0.25, 0.4]
        np.testing.assert_allclose(clone.eval(x), model.eval(x), rtol=1e-12)
        assert clone.norm == pytest.approx(model.norm, rel=1e-10)


class TestModelDistance:
    def test_same_model_distance_zero(self, kernel, basis):
        m = Model(kernel, basis, np.linspace(-1, 1, len(basis)))
        assert model_distance(m, m) == pytest.approx(0.0, abs=1e-8)

    def test_shared_basis_matches_quadratic_form(self, kernel, basis):
        rng = np.random.default_rng(9)
        a1, a2 = rng.normal(size=len(basis)), rng.normal(size=len(basis))
        m1 = Model(kernel, basis, a1)
        m2 = Model(kernel, basis, a2)
        diff = a1 - a2
        want = math.sqrt(diff @ m1.gram_matrix @ diff)
        assert model_distance(m1, m2) == pytest.approx(want, rel=1e-7)

    def test_symmetry_and_triangle(self, kernel, basis):
        rng = np.random.default_rng(10)
        models = [
            Model(kernel, basis, rng.normal(size=len(basis)))
            for _ in range(3)
        ]
        d01 = model_distance(models[0], models[1])
        d10 = model_distance(models[1], models[0])
        assert d01 == pytest.approx(d10, rel=1e-12)
        d02 = model_distance(models[0], models[2])
        d12 = model_distance(models[1], models[2])
        assert d02 <= d01 + d12 + 1e-10

    def test_disjoint_bases(self, kernel):
        b1 = (Atom((0.1, 0.1), DiffFunctional.value(2)),)
        b2 = (Atom((0.4, -0.2), DiffFunctional.value(2)),)
        m1 = Model(kernel, b1, np.array([1.0]))
        m2 = Model(kernel, b2, np.array([1.0]))
        g11 = atom_inner(b1[0], b1[0], kernel)
        g22 = atom_inner(b2[0], b2[0], kernel)
        g12 = atom_inner(b1[0], b2[0], kernel)
        want = math.sqrt(g11 + g22 - 2 * g12)
        assert model_distance(m1, m2) == pytest.approx(want, rel=1e-10)

    def test_kernel_mismatch_rejected(self, basis):
        k1 = GaussianKernel([0.8, 1.1])
        k2 = GaussianKernel([0.9, 1.1])
        m1 = Model(k1, basis, np.ones(len(basis)))
        m2 = Model(k2, basis, np.ones(len(basis)))
        with pytest.raises(ValueError, match="different kernels"):
            model_distance(m1, m2)
