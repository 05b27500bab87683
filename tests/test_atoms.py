"""Atoms, Gram assembly, and model evaluation against manual oracles.

Inner products are re-derived term by term from kernel partials; model
derivative evaluation is cross-checked with finite differences on the
model's own pointwise evaluation.
"""

import math
import tracemalloc

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
    gram,
)
from shapekernel.atoms import PIVOT_CUT, _full_gram


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
        G_S, L, jitter, S = gram(basis, kernel)
        G = _full_gram(basis, kernel)
        np.testing.assert_allclose(G, G.T, atol=1e-14)
        assert np.linalg.eigvalsh(G).min() > -1e-10
        # a full-rank basis: every atom is a pivot, and L is the bits of
        # the full jittered factor
        np.testing.assert_array_equal(S, np.arange(len(basis)))
        assert G_S.tobytes() == G.tobytes()
        assert jitter == 1e-10 * (np.trace(G) / len(basis))
        full = np.linalg.cholesky(G + jitter * np.eye(len(basis)))
        assert L.tobytes() == full.tobytes()

    def test_duplicate_atoms_take_one_pivot(self, kernel):
        a = Atom((0.3, 0.3), DiffFunctional.value(2))
        G_S, L, jitter, S = gram((a, a, a), kernel)
        np.testing.assert_array_equal(S, [0])
        assert G_S.shape == (1, 3)
        np.testing.assert_allclose(L @ L.T, G_S[:, :1] + jitter, rtol=1e-15)

    def test_pivots_cover_a_low_rank_gram(self):
        # 60 value atoms of a wide Gaussian on [0, 1]: the pivots stop
        # once every residual diagonal is at most PIVOT_CUT of the largest
        kernel = GaussianKernel([0.5])
        basis = [Atom((x,), DiffFunctional.value(1))
                 for x in np.linspace(0.0, 1.0, 60)]
        G_S, L, jitter, S = gram(basis, kernel)
        G = _full_gram(basis, kernel)
        assert G_S.tobytes() == G[S].tobytes()
        assert 5 < S.size < 30
        assert np.all(np.diff(S) > 0)  # basis order
        np.testing.assert_allclose(L @ L.T,
                                   G[np.ix_(S, S)] + jitter * np.eye(S.size),
                                   rtol=0, atol=1e-14)
        C = np.linalg.solve(G[np.ix_(S, S)], G[S])  # G[:, S] C: projection
        residual = np.diagonal(G - G[:, S] @ C)
        assert residual.max() <= 1e-10 * np.diagonal(G).max()

    def test_first_atoms_are_pivots_below_the_cut(self):
        # an atom whose residual is below the cut is still a pivot when it
        # comes first, as an enclosure normal does
        kernel = GaussianKernel([0.5])
        basis = [Atom((x,), DiffFunctional.value(1))
                 for x in np.linspace(0.0, 1.0, 60)]
        S = gram(basis, kernel)[3]
        left = [i for i in range(60) if i not in S]
        forced = gram(basis, kernel, first=left[:3])[3]
        assert set(left[:3]) <= set(forced)
        assert set(S) - set(forced) or forced.size == S.size + 3

    def test_indefinite_input_raises(self):
        class BadKernel(Kernel):
            dim = 1
            out_dim = 1

            def _partial(self, r1, r2, q1, q2, X1, X2):
                M = np.array([[1.0, 2.0], [2.0, 1.0]])
                return M[X1[..., 0].astype(int), X2[..., 0].astype(int)]

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
        G = _full_gram(atoms, kernel)
        ref = _reference_gram(atoms, kernel)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(G, ref, rtol=1e-12, atol=1e-12 * scale)
        assert np.array_equal(G, G.T)

    def test_per_pair_kernels_match_scalar_reference_exactly(self):
        rng = np.random.default_rng(13)
        lap = LaplacianKernel(2.0, dim=1)
        lap_basis = [Atom((x,), DiffFunctional.value(1, beta=b))
                     for x in rng.uniform(-1, 1, 20) for b in (1.0, -1.0)]
        rng.shuffle(lap_basis)
        G = _full_gram(lap_basis, lap)
        assert np.array_equal(G, _reference_gram(lap_basis, lap))

    def test_lti_closed_form_matches_scalar_reference(self):
        rng = np.random.default_rng(13)
        lti = LTIControlKernel([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]])
        basis = [Atom((t,), DiffFunctional.value(1, q=q))
                 for t in rng.uniform(0.1, 2, 20) for q in (0, 1)]
        G = _full_gram(basis, lti)
        np.testing.assert_allclose(G, _reference_gram(basis, lti),
                                   rtol=1e-10, atol=1e-14)
        assert np.array_equal(G, G.T)


def _reference_pivots(G, first, jitter):
    """The pivot set of a whole Gram, by the loop ``gram`` ran before it
    built rows on demand: each step reshapes the list of factor rows."""
    A = len(G)
    d = np.diagonal(G).copy()
    cut = PIVOT_CUT * d.max()
    rows = []
    taken = np.zeros(A, dtype=bool)
    forced = np.zeros(A, dtype=bool)
    forced[list(first)] = True
    for pool in (forced, np.ones(A, dtype=bool)):
        while True:
            p = int(np.argmax(np.where(pool & ~taken, d, -np.inf)))
            if taken[p] or not pool[p] or d[p] <= cut:
                break
            taken[p] = True
            R = np.reshape(rows, (len(rows), A))
            rows.append((G[p] - R[:, p] @ R) / np.sqrt(d[p]))
            d -= rows[-1] * rows[-1]
        taken |= forced
    return np.flatnonzero(taken)


def _gaussian_mixed_basis():
    # a dense low-rank basis: values, negated partials, a two-term
    # functional and second partials, interleaved
    rng = np.random.default_rng(21)
    two_term = DiffFunctional(((0, (0, 0), 1.0), (0, (1, 0), -0.5)))
    atoms = []
    for i in range(90):
        x = tuple(rng.uniform(0, 1, 2))
        atoms.append(Atom(x, [DiffFunctional.value(2),
                              DiffFunctional.partial(2, i % 2, beta=-1.0),
                              two_term,
                              DiffFunctional.mixed(2, (0, 1))][i % 4]))
    return GaussianKernel([0.7, 0.9]), atoms, [2, 6, 10]


def _laplacian_basis():
    rng = np.random.default_rng(22)
    return LaplacianKernel(2.0, dim=2), [
        Atom(tuple(rng.uniform(-1, 1, 2)), DiffFunctional.value(2, beta=b))
        for b in (1.0, -1.0, 2.0) for _ in range(15)], [3]


def _decomposable_basis():
    rng = np.random.default_rng(23)
    kernel = DecomposableGaussianKernel([0.8],
                                        [[1.0, 0.4], [0.4, 2.0]])
    return kernel, [Atom((x,), D) for x in rng.uniform(-1, 1, 20)
                    for D in (DiffFunctional.value(1, q=1),
                              DiffFunctional.partial(1, 0, q=0, beta=-1.0))
                    ], []


def _lti_basis(A, count):
    rng = np.random.default_rng(24)
    return LTIControlKernel(A, [[0.0], [1.0]]), [
        Atom((t,), DiffFunctional.value(1, q=q, beta=b))
        for t in rng.uniform(0.1, 2.0, count)
        for q, b in ((0, 1.0), (1, -1.0))], [1]


class TestGramRows:
    """``gram`` builds the diagonal and the pivot rows only; they keep the
    bits of the whole Gram's upper triangle and its mirror, and so do S, L
    and the jitter."""

    @pytest.mark.parametrize("case", [
        _gaussian_mixed_basis, _laplacian_basis, _decomposable_basis,
        lambda: _lti_basis([[0.0, 1.0], [0.0, -1.0]], 30),
        lambda: _lti_basis([[0.0, 1.0], [0.0, 0.0]], 6),  # defective
    ], ids=["gaussian", "laplacian", "decomposable", "lti", "lti-van-loan"])
    def test_rows_keep_the_whole_grams_bits(self, case):
        kernel, basis, first = case()
        if isinstance(kernel, LTIControlKernel):
            assert (kernel._eig is None) == (kernel.A[1, 1] == 0.0)
        # the upper triangle, one kernel block per pair and term pair,
        # summed in atom_inner's order, mirrored
        G = np.empty((len(basis), len(basis)))
        for i, a in enumerate(basis):
            for j, b in enumerate(basis[i:], i):
                G[i, j] = G[j, i] = sum(
                    (b1 * b2 * kernel.partial_block(
                        r1, r2, q1, q2, [a.x], [b.x])[0, 0]
                     for q1, r1, b1 in a.functional.terms
                     for q2, r2, b2 in b.functional.terms), 0.0)
        assert _full_gram(basis, kernel).tobytes() == G.tobytes()
        jitter = 1e-10 * (np.trace(G) / len(basis))
        S = _reference_pivots(G, first, jitter)
        L = np.linalg.cholesky(G[np.ix_(S, S)] + jitter * np.eye(S.size))
        got = gram(basis, kernel, first)
        assert got[0].tobytes() == G[S].tobytes()
        assert got[1].tobytes() == L.tobytes()
        assert got[2] == jitter
        np.testing.assert_array_equal(got[3], S)
        if isinstance(kernel, GaussianKernel):
            assert set(first) < set(S) and S.size < len(basis)

    def test_rows_allocate_far_less_than_the_gram(self):
        kernel = GaussianKernel([0.5, 0.5])
        xs = np.linspace(0.0, 1.0, 32)
        basis = [Atom((x, y), DiffFunctional.value(2))
                 for x in xs for y in xs]
        basis += [Atom((x, y), DiffFunctional.partial(2, 0))
                  for x in xs[::4] for y in xs[::4]]
        A = len(basis)
        tracemalloc.start()
        try:
            G_S, _, _, S = gram(basis, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A > 1000 and S.size < 100
        assert G_S.shape == (S.size, A)
        # the whole Gram alone would take A^2 * 8 bytes
        assert peak < A * A * 8 / 3


class TestModel:
    def make_model(self, kernel, basis, seed=0):
        rng = np.random.default_rng(seed)
        return Model(kernel, basis, rng.normal(size=len(basis)))

    def test_norm_matches_quadratic_form(self, kernel, basis):
        model = self.make_model(kernel, basis)
        a = model.coeffs
        G = _full_gram(basis, kernel)
        direct = math.sqrt(a @ G @ a)
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



# --------------------------------------------------------------------------
# Model.apply through the kernel's apply_expansion
# --------------------------------------------------------------------------

def loop_apply(model, functional, X):
    """The per-atom loop that ``Model.apply`` ran before it handed its
    atoms to the kernel: one ``eval_partial_many`` per atom and term
    pair."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(X.shape[0])
    for a_j, atom in zip(model.coeffs, model.basis):
        if a_j == 0.0:
            continue
        acc = np.zeros(X.shape[0])
        for qf, rf, bf in functional.terms:
            for qa, ra, ba in atom.functional.terms:
                acc += bf * ba * model.kernel.eval_partial_many(
                    rf, ra, qf, qa, X, atom.x)
        out += a_j * acc
    return out


def lti_model(A, B, horizon, rng, count=40):
    """A control-kernel model: atoms at random times in [0, horizon] (one
    at 0, two sharing a time) on either state, with weights of both signs,
    one two-term atom, and every fifth coefficient zero."""
    k = LTIControlKernel(A, B)
    Q = k.out_dim
    times = rng.uniform(0.0, horizon, count)
    times[0], times[2] = 0.0, times[1]
    basis = [Atom((t,), DiffFunctional.value(1, q=int(rng.integers(Q)),
                                             beta=float(rng.choice([-1, 1]))))
             for t in times]
    basis[3] = Atom((times[3],), DiffFunctional(
        ((0, (0,), 0.7), (Q - 1, (0,), -1.3))))
    coeffs = rng.normal(size=count)
    coeffs[::5] = 0.0
    return Model(k, basis, coeffs)


def sweep_points(model, horizon):
    """Times before, between, on and after the atoms' times."""
    atom_times = [atom.x[0] for atom in model.basis]
    return np.concatenate([np.linspace(0.0, 1.2 * horizon, 301),
                           atom_times, [1e-9 * horizon]]).reshape(-1, 1)


#: (A, B, horizon) of the sweep cases, named by A's eigenvalues
LTI_CASES = {
    "shipped-zero-eig": ([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], 1.0),
    "distinct-real": ([[-0.5, 1.0], [0.3, -2.0]], [[0.0], [1.0]], 2.0),
    "complex-pair": ([[0.0, 1.0], [-4.0, -0.4]], [[0.0], [1.0]], 3.0),
    "pure-oscillator": ([[0.0, 1.0], [-4.0, 0.0]], [[0.0], [1.0]], 3.0),
    "unstable": ([[0.3, 1.0], [0.0, 0.1]], [[1.0], [1.0]], 4.0),
    # |Re lam| T = 50, and 800, where e^{|lam| t} from one base overflows
    "stiff": ([[-50.0, 1.0], [0.0, -0.5]], [[1.0], [1.0]], 1.0),
    "very-stiff": ([[-400.0, 1.0], [0.0, -0.5]], [[1.0], [1.0]], 2.0),
    "3x3-zero-and-pair": ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                           [0.0, -2.0, -0.5]], [[0.0], [0.0], [1.0]], 2.0),
    "3x3-stiff-pair": ([[-25.0, 0.0, 1.0], [0.0, -0.2, 3.0],
                        [0.0, -3.0, -0.2]], [[1.0], [0.5], [1.0]], 2.0),
}


class TestModelApply:
    """``Model.apply`` hands its nonzero-coefficient atoms to the kernel's
    ``apply_expansion``: the per-atom loop by default, a sorted-time sweep
    for the control kernel."""

    @pytest.mark.parametrize("case", list(LTI_CASES))
    def test_lti_sweep_matches_the_per_atom_closed_form(self, case):
        A, B, horizon = LTI_CASES[case]
        model = lti_model(A, B, horizon, np.random.default_rng(len(case)))
        assert model.kernel._eig is not None
        X = sweep_points(model, horizon)
        for q in range(model.kernel.out_dim):
            for beta in (1.0, -1.0):
                D = DiffFunctional.value(1, q=q, beta=beta)
                want = loop_apply(model, D, X)
                got = model.apply(D, X)
                assert np.max(np.abs(got - want)) <= \
                    1e-12 * np.max(np.abs(want))
        # the sweep itself also takes zero coefficients, which add nothing
        # (they may only move the block bases, so compare to rounding)
        kernel, D = model.kernel, DiffFunctional.value(1)
        want = model.apply(D, X)
        got = kernel.apply_expansion(D, X, model.coeffs, model.basis)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_lti_sweep_of_no_atoms_is_zero(self):
        k = LTIControlKernel([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]])
        model = Model(k, (Atom((0.5,), DiffFunctional.value(1)),), [0.0])
        assert np.array_equal(model.apply(DiffFunctional.value(1),
                                          [[0.1], [0.9]]), [0.0, 0.0])

    def test_lti_sweep_rejects_derivatives_and_negative_times(self):
        model = lti_model([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], 1.0,
                          np.random.default_rng(1))
        with pytest.raises(ValueError, match="not differentiable"):
            model.apply(DiffFunctional.partial(1, axis=0), [[0.5]])
        with pytest.raises(ValueError, match="out of range"):
            model.apply(DiffFunctional.value(1, q=2), [[0.5]])
        with pytest.raises(ValueError, match="nonnegative"):
            model.apply(DiffFunctional.value(1), [[-0.5]])

    def test_lti_evaluation_is_one_sweep(self, monkeypatch):
        # the per-atom path runs the closed form once per atom; the sweep
        # never calls it
        model = lti_model([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], 1.0,
                          np.random.default_rng(2))
        calls = []
        closed_form = LTIControlKernel._closed_form

        def counted(self, *args, **kwargs):
            calls.append(1)
            return closed_form(self, *args, **kwargs)

        monkeypatch.setattr(LTIControlKernel, "_closed_form", counted)
        X = np.linspace(0.0, 1.0, 2000).reshape(-1, 1)
        for q in (0, 1):
            model.eval_component_many(X, q)
        assert len(calls) <= 2

    def test_defective_a_keeps_the_loops_bytes(self):
        model = lti_model([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 1.0,
                          np.random.default_rng(3), count=8)
        assert model.kernel._eig is None
        X = sweep_points(model, 1.0)[::10]
        for q in (0, 1):
            D = DiffFunctional.value(1, q=q)
            assert model.apply(D, X).tobytes() == \
                loop_apply(model, D, X).tobytes()

    @pytest.mark.parametrize("kernel, functionals", [
        (GaussianKernel([0.8, 1.1]),
         [DiffFunctional.value(2),
          DiffFunctional(((0, (1, 0), 0.5), (0, (0, 2), -1.5)))]),
        (DecomposableGaussianKernel([0.7, 1.3], [[2.0, 0.5], [0.5, 1.0]]),
         [DiffFunctional.value(2, q=1),
          DiffFunctional(((0, (0, 1), 1.0), (1, (1, 1), -0.3)))]),
        (LaplacianKernel(rate=2.0, dim=2), [DiffFunctional.value(2)]),
    ], ids=["gaussian", "decomposable", "laplacian"])
    def test_other_kernels_keep_the_loops_bytes(self, kernel, functionals):
        rng = np.random.default_rng(11)
        smooth = kernel.smoothness > 0
        basis = []
        for i in range(12):
            x = tuple(rng.uniform(-1, 1, size=2))
            q = i % kernel.out_dim
            D = DiffFunctional.partial(2, axis=i % 2, q=q) \
                if smooth and i % 3 == 1 else DiffFunctional.value(2, q=q)
            basis.append(Atom(x, D))
        coeffs = rng.normal(size=len(basis))
        coeffs[4] = 0.0
        model = Model(kernel, basis, coeffs)
        X = rng.uniform(-1.2, 1.2, size=(50, 2))
        for D in functionals:
            assert model.apply(D, X).tobytes() == \
                loop_apply(model, D, X).tobytes()
