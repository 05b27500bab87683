"""Matrix-valued kernels with exact mixed partial derivatives.

Every kernel maps a pair of points in ``R^d`` to a ``Q x Q`` matrix and
exposes analytic mixed partials ``d^{r1}_x d^{r2}_y [e_q1^T K(x,y) e_q2]``
up to its declared smoothness order.  Derivatives are closed-form; no finite
differences appear outside the test suite.  Each kernel writes its closed
form once, in ``_partial`` over broadcast point arrays; the one-point
:meth:`Kernel.eval_partial` and :meth:`Kernel.eval` are read from it.

Shipped variants:

* :class:`GaussianKernel` — scalar anisotropic squared-exponential, smooth.
* :class:`LaplacianKernel` — scalar exponential kernel, value-only (s = 0).
* :class:`DecomposableGaussianKernel` — ``k(x,y) * Sigma`` for vector outputs.
* :class:`LTIControlKernel` — the controllability-Gramian kernel of a linear
  time-invariant system, in closed form through the eigendecomposition of
  ``A``, with models evaluated in one sorted-time sweep; a defective ``A``
  falls back to Van Loan's augmented-matrix exponential, and only then is
  scipy's ``expm`` loaded.

:meth:`Kernel.apply_expansion` evaluates a functional of a whole model at
many points; its default is one :meth:`Kernel.eval_partial_many` per atom.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Sequence

import numpy as np


MultiIndex = tuple[int, ...]


def _as_point(x, d: int, name: str = "x") -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if p.size != d:
        raise ValueError(
            f"{name} has dimension {p.size}, kernel expects dimension {d}"
        )
    return p


def _as_points(X) -> np.ndarray:
    return np.atleast_2d(np.asarray(X, dtype=float))


def _as_multi_index(r, d: int) -> MultiIndex:
    if r is None:
        return (0,) * d
    if isinstance(r, int):
        raise ValueError("multi-index must be a length-d sequence, not an int")
    t = tuple(int(v) for v in r)
    if len(t) != d or any(v < 0 for v in t):
        raise ValueError(f"invalid multi-index {r!r} for dimension {d}")
    return t


class Kernel:
    """Base class: a positive-definite matrix-valued kernel on a box in R^d.

    ``partial_block(r1, r2, q1, q2, X1, X2)`` maps points ``X1`` (n1, d) and
    ``X2`` (n2, d) to the (n1, n2) matrix of ``eval_partial(r1, r2, q1, q2,
    X1[i], X2[j])``; Gram matrices and ``eval_partial_many`` use it.
    ``partial_pairs`` is the diagonal analogue: one value per row pair.
    ``partial_block``, ``partial_pairs`` and ``eval_partial`` all go
    through :meth:`_partial`, the one method a kernel defines its formula
    in, so a pair has the same bits in each, as
    :func:`~shapekernel.atoms.gram` needs: its diagonal comes from
    ``partial_pairs`` and its rows from ``partial_block``.
    """

    dim: int
    out_dim: int
    smoothness: int

    # ------------------------------------------------------------------ API
    def eval(self, x, x2) -> np.ndarray:
        """Return the Q x Q matrix K(x, x2), one :meth:`eval_partial` per
        entry."""
        Q = range(self.out_dim)
        return np.array([[self.eval_partial(None, None, q1, q2, x, x2)
                          for q2 in Q] for q1 in Q])

    def eval_partial(self, r1, r2, q1: int, q2: int, x, x2) -> float:
        """Return d^{r1}_x d^{r2}_{x2} [e_q1^T K(x, x2) e_q2]."""
        x = _as_point(x, self.dim, "x")
        y = _as_point(x2, self.dim, "x2")
        return float(self._partial(r1, r2, q1, q2, x, y))

    def eval_partial_many(self, r1, r2, q1: int, q2: int, X, x2) -> np.ndarray:
        """Vectorized :meth:`eval_partial` over the rows of ``X``."""
        y = _as_point(x2, self.dim, "x2")
        return self.partial_block(r1, r2, q1, q2, X, y[None, :])[:, 0]

    def partial_block(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """Matrix of :meth:`eval_partial` over all rows of X1 times X2."""
        X1, X2 = _as_points(X1), _as_points(X2)
        return self._partial(r1, r2, q1, q2, X1[:, None, :], X2[None, :, :])

    def partial_pairs(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """Vector of :meth:`eval_partial` at the pairs ``(X1[k], X2[k])``."""
        return self._partial(r1, r2, q1, q2, _as_points(X1), _as_points(X2))

    def _partial(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """The mixed partial over two point arrays that broadcast to
        ``shape + (d,)``, as an array of that shape: the one place a
        kernel writes its closed form."""
        raise NotImplementedError

    def apply_expansion(self, functional, X, coeffs, atoms) -> np.ndarray:
        """``functional`` applied to ``f = sum_j coeffs[j] * atoms[j]`` at
        every row of the 2-D ``X``; each atom is ``lK(., x)`` for its
        functional ``l`` and point ``x``.  :meth:`Model.apply` passes its
        nonzero-coefficient atoms, in basis order.

        Atom ``j`` contributes ``coeffs[j] * sum_{f, a} beta_f beta_a *
        eval_partial_many(r_f, r_a, q_f, q_a, X, x_j)``: the term sum is
        formed first and then scaled by the coefficient.  A kernel may
        override this with an evaluation that agrees to rounding.
        """
        out = np.zeros(X.shape[0])
        for a_j, atom in zip(coeffs, atoms):
            acc = np.zeros(X.shape[0])
            for qf, rf, bf in functional.terms:
                for qa, ra, ba in atom.functional.terms:
                    acc += bf * ba * self.eval_partial_many(
                        rf, ra, qf, qa, X, atom.x)
            out += a_j * acc
        return out

    @property
    def translation_invariant(self) -> bool:
        return False

    def radial_profile(self, r: float) -> float:
        """K0(r) for radial scalar kernels; raises otherwise."""
        raise ValueError(
            f"kernel {type(self).__name__} has no radial profile; "
            "use the sampled buffer instead"
        )

    @property
    def is_radial(self) -> bool:
        return False

    # -------------------------------------------------------- serialization
    def to_config(self) -> dict:
        raise NotImplementedError

    def fingerprint(self) -> str:
        return json.dumps(self.to_config(), sort_keys=True)

    # ----------------------------------------------------------- validation
    def _check_orders(self, r1: MultiIndex, r2: MultiIndex) -> None:
        s = self.smoothness
        for r in (r1, r2):
            order = sum(r)
            if order > s:
                raise ValueError(
                    f"derivative order {order} exceeds the kernel's "
                    f"smoothness {s}"
                )


# --------------------------------------------------------------------------
# Gaussian family
# --------------------------------------------------------------------------

def _gauss_profile_derivative(n: int, t, s2: float):
    """n-th derivative of g(t) = exp(-t^2 / (2 s2)), divided by g(t).

    The polynomial prefactors follow the recursion p_{n+1} = p_n' - (t/s2) p_n
    with p_0 = 1; orders up to 4 cover mixed partials of order (2, 2).
    ``t`` may be a float or an array (elementwise arithmetic only).
    """
    if n == 0:
        return 1.0
    u = t / s2
    if n == 1:
        return -u
    if n == 2:
        return u * u - 1.0 / s2
    if n == 3:
        return -u * u * u + 3.0 * u / s2
    if n == 4:
        return u ** 4 - 6.0 * u * u / s2 + 3.0 / (s2 * s2)
    raise ValueError(f"derivative order {n} exceeds the supported order 4")


class GaussianKernel(Kernel):
    """Anisotropic squared-exponential scalar kernel.

    ``k(x, y) = exp(-sum_i (x_i - y_i)^2 / (2 sigma_i^2))`` with smoothness 2:
    mixed partials up to total order two in each argument are available in
    closed form (polynomial-times-exponential); higher orders are rejected.
    """

    def __init__(self, lengthscales: Sequence[float] | float):
        sig = np.atleast_1d(np.asarray(lengthscales, dtype=float)).ravel()
        if sig.size == 0 or np.any(sig <= 0):
            raise ValueError("lengthscales must be positive")
        self.lengthscales = sig
        self.dim = sig.size
        self.out_dim = 1
        self.smoothness = 2

    def _partial(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """exp of the differences times one polynomial per axis; works axis
        by axis, so memory stays at a few arrays of the broadcast shape."""
        if q1 != 0 or q2 != 0:
            raise ValueError("scalar kernel has a single output component")
        r1 = _as_multi_index(r1, self.dim)
        r2 = _as_multi_index(r2, self.dim)
        self._check_orders(r1, r2)
        sq = 0.0
        polys = []
        for i in range(self.dim):
            diff = X1[..., i] - X2[..., i]
            t = diff / self.lengthscales[i]
            sq = sq + t * t
            n = r1[i] + r2[i]
            if n:
                s2 = float(self.lengthscales[i]) ** 2
                poly = _gauss_profile_derivative(n, diff, s2)
                polys.append(-poly if r2[i] % 2 else poly)
        values = np.exp(-0.5 * sq)
        for poly in polys:
            values = values * poly
        return values

    @property
    def translation_invariant(self) -> bool:
        return True

    @property
    def is_radial(self) -> bool:
        return bool(np.all(self.lengthscales == self.lengthscales[0]))

    def radial_profile(self, r: float) -> float:
        if not self.is_radial:
            raise ValueError(
                "anisotropic Gaussian kernel is not radial; "
                "use the sampled buffer instead"
            )
        s = float(self.lengthscales[0])
        return math.exp(-0.5 * (r / s) ** 2)

    def to_config(self) -> dict:
        return {"kind": "gaussian", "sigma": self.lengthscales.tolist()}


class LaplacianKernel(Kernel):
    """Scalar exponential kernel ``k(x, y) = exp(-rate * ||x - y||_2)``.

    Not differentiable at coincidence, hence declared smoothness 0: only
    function-value functionals are admissible.
    """

    def __init__(self, rate: float, dim: int = 1):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.rate = float(rate)
        self.dim = int(dim)
        self.out_dim = 1
        self.smoothness = 0

    def eval_partial_many(self, r1, r2, q1: int, q2: int, X, x2) -> np.ndarray:
        """``np.exp`` over the rows, not :meth:`_partial`'s ``math.exp``:
        models are evaluated with these bits, and at a verification
        grid's size a Python call per entry would cost more."""
        self._check_value(r1, r2, q1, q2)
        X = _as_points(X)
        y = _as_point(x2, self.dim, "x2")
        return np.exp(-self.rate * np.linalg.norm(X - y[None, :], axis=1))

    def _partial(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """One ``vecdot`` norm per pair, then ``math.exp``: the bits of
        ``math.exp(-rate * ||x - y||)`` (``np.exp`` differs in the last bit
        on some)."""
        self._check_value(r1, r2, q1, q2)
        D = X1 - X2
        arg = -self.rate * np.sqrt(np.vecdot(D, D))
        return np.fromiter(map(math.exp, arg.ravel().tolist()), float,
                           arg.size).reshape(arg.shape)

    def _check_value(self, r1, r2, q1: int, q2: int) -> None:
        if q1 != 0 or q2 != 0:
            raise ValueError("scalar kernel has a single output component")
        if sum(_as_multi_index(r1, self.dim)) or \
                sum(_as_multi_index(r2, self.dim)):
            raise ValueError(
                "kernel not differentiable: exponential kernel accepts "
                "value functionals only"
            )

    @property
    def translation_invariant(self) -> bool:
        return True

    @property
    def is_radial(self) -> bool:
        return True

    def radial_profile(self, r: float) -> float:
        return math.exp(-self.rate * r)

    def to_config(self) -> dict:
        return {"kind": "laplacian", "rate": self.rate, "dim": self.dim}


class DecomposableGaussianKernel(Kernel):
    """Vector-output kernel ``K(x, y) = k(x, y) * Sigma``.

    ``k`` is the anisotropic Gaussian scalar kernel and ``Sigma`` a fixed
    symmetric PSD output-covariance matrix, so every mixed partial factors as
    (scalar-kernel partial) * Sigma[q1, q2].
    """

    def __init__(self, lengthscales, output_cov):
        self.scalar = GaussianKernel(lengthscales)
        sigma = np.asarray(output_cov, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("output covariance must be a square matrix")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValueError("output covariance must be symmetric")
        eigs = np.linalg.eigvalsh(sigma)
        scale = max(1.0, float(np.trace(sigma)) / sigma.shape[0])
        if eigs.min() < -1e-10 * scale:
            raise ValueError("output covariance must be positive semidefinite")
        self.output_cov = 0.5 * (sigma + sigma.T)
        self.dim = self.scalar.dim
        self.out_dim = sigma.shape[0]
        self.smoothness = 2

    @property
    def lengthscales(self) -> np.ndarray:
        return self.scalar.lengthscales

    def _check_q(self, q1: int, q2: int) -> None:
        if not (0 <= q1 < self.out_dim and 0 <= q2 < self.out_dim):
            raise ValueError(
                f"output indices ({q1},{q2}) out of range for Q={self.out_dim}"
            )

    def _partial(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        self._check_q(q1, q2)
        return self.scalar._partial(r1, r2, 0, 0, X1, X2) * float(
            self.output_cov[q1, q2]
        )

    @property
    def translation_invariant(self) -> bool:
        return True

    def to_config(self) -> dict:
        return {
            "kind": "decomposable_gaussian",
            "sigma": self.scalar.lengthscales.tolist(),
            "output_cov": self.output_cov.tolist(),
        }


# --------------------------------------------------------------------------
# LTI control kernel
# --------------------------------------------------------------------------

#: largest eigenvector condition number the closed form accepts: its error
#: grows like cond(V)^2 * eps, about 1e-10 relative at this bound; beyond it
#: the Van Loan path is used
_EIG_COND_MAX = 1e3


#: largest ``|Re lam| * (t - base)`` within one block of the sorted sweep:
#: each block's exponentials are taken from its first atom's time, so a
#: stiff ``A`` leaves no factor above e in modulus inside a block
_SWEEP_SPAN = 1.0

#: points (and atoms) per chunk of the sweep, so that its (chunk, Q, Q)
#: arrays are no larger than the per-atom closed form's over all points
_SWEEP_CHUNK = 1024


def _sweep_blocks(t: np.ndarray, rate: float) -> np.ndarray:
    """For sorted times ``t``, the index of each one's block start: a block
    spans less than ``_SWEEP_SPAN / rate``."""
    if rate == 0.0:
        return np.zeros(t.size, dtype=int)
    bins = np.floor((t - t[0]) * (rate / _SWEEP_SPAN))
    new = np.r_[True, bins[1:] != bins[:-1]]
    return np.flatnonzero(new)[np.cumsum(new) - 1]


def _block_sums(v: np.ndarray, tau: np.ndarray, lam: np.ndarray,
                suffix: bool = False) -> np.ndarray:
    """Prefix (or suffix) sums of the rows of ``v``, row ``k`` on the base
    time ``tau[k]`` of its block: a block's last sum carries to the next
    block (the one before it, for a suffix) through ``e^{lam |dtau|}``."""
    starts = np.flatnonzero(np.r_[True, tau[1:] != tau[:-1]])
    bounds = list(zip(starts, [*starts[1:], tau.size]))
    out = np.empty_like(v)
    carry, last = 0.0, None
    for lo, hi in (reversed(bounds) if suffix else bounds):
        if last is not None:
            carry = carry * np.exp(lam * abs(tau[lo] - last))
        run = v[lo:hi][::-1] if suffix else v[lo:hi]
        sums = np.cumsum(run, axis=0) + carry
        out[lo:hi] = sums[::-1] if suffix else sums
        carry, last = sums[-1], tau[lo]
    return out


def _gramian_van_loan(A: np.ndarray, BBt: np.ndarray, m: float) -> np.ndarray:
    """Controllability Gramian W(m) = int_0^m e^{uA} B B^T e^{uA^T} du.

    Uses the augmented block exponential: with
    ``F = expm(m * [[-A, BB^T], [0, A^T]])`` one has ``W(m) = F22^T @ F12``.
    """
    from scipy.linalg import expm  # only a defective A comes here

    q = A.shape[0]
    C = np.zeros((2 * q, 2 * q))
    C[:q, :q] = -A
    C[:q, q:] = BBt
    C[q:, q:] = A.T
    F = expm(C * m)
    return F[q:, q:].T @ F[:q, q:]


class LTIControlKernel(Kernel):
    """Kernel whose RKHS is the set of controlled LTI trajectories.

    ``K(s, t) = int_0^{min(s,t)} e^{(s-tau)A} B B^T e^{(t-tau)A^T} dtau`` for a
    system ``x' = Ax + Bu`` started at the origin.  Time is the only input
    (d = 1); outputs are the Q state components.  Value functionals only.

    With ``A = V diag(lam) V^-1`` and ``C = V^-1 B B^T V^-T`` the integral
    has the closed form ``K(s, t)[q1, q2] = sum_ij V[q1, i] V[q2, j] C_ij
    e^{lam_i (s - m) + lam_j (t - m)} g(lam_i + lam_j, m)``, ``m = min(s,
    t)``, ``g(a, m) = expm1(a m) / a`` and ``g(0, m) = m``.  It is evaluated
    over broadcast time arrays (in complex arithmetic when ``A`` has complex
    eigenvalues, keeping the real part), one entry ``[q1, q2]`` at a time.
    A defective (or nearly defective) ``A`` has no usable eigenbasis; then
    every entry comes from the Van Loan (1978) Gramian and ``expm``, one
    time pair at a time; scipy, which holds ``expm``, is imported only on
    that path.

    A model is evaluated in one sweep over its atoms sorted by time
    (:meth:`apply_expansion`): the kernel is semiseparable, so at each point
    the atoms at or before it enter through one prefix sum and those after
    it through one suffix sum, O((N + M) Q^2) for N points and M atoms
    where the per-atom closed form costs O(N M Q^2).  The sums are kept in
    blocks of atoms spanning less than ``1 / max |Re lam|``, each block on
    its first atom's time, so no exponential inside a block exceeds e in
    modulus and a stiff ``A`` neither overflows nor loses digits; a block's
    total carries to the next through one exponential.  On the shipped
    system the two forms' trajectories agree to within 1.3e-14 of their
    largest value.  Points and atoms go in chunks, so no temporary
    outgrows the per-atom form's.
    """

    def __init__(self, A, B):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
        self.A = A
        self.B = B
        self.BBt = B @ B.T
        self.dim = 1
        self.out_dim = A.shape[0]
        self.smoothness = 0
        self._eig = None
        try:
            lam, V = np.linalg.eig(A)
            if np.linalg.cond(V) < _EIG_COND_MAX:
                Vinv = np.linalg.inv(V)
                self._eig = (lam, V, Vinv @ self.BBt @ Vinv.T)
                a = lam[:, None] + lam[None, :]  # for _g, once
                self._a_zero = a == 0
                self._a_safe = np.where(self._a_zero, 1.0, a)
        except np.linalg.LinAlgError:
            self._eig = None

    # ------------------------------------------------------------- helpers
    def _check_value(self, r1, r2, q1: int, q2: int) -> None:
        if sum(_as_multi_index(r1, 1)) or sum(_as_multi_index(r2, 1)):
            raise ValueError(
                "kernel not differentiable: the control kernel accepts "
                "value functionals only"
            )
        if not (0 <= q1 < self.out_dim and 0 <= q2 < self.out_dim):
            raise ValueError(
                f"output indices ({q1},{q2}) out of range for Q={self.out_dim}"
            )

    def _closed_form(self, S, T, q1: int, q2: int) -> np.ndarray:
        """Entry ``[q1, q2]`` of K(S, T) over broadcast time arrays."""
        M = np.minimum(S, T)
        if (M < 0).any():
            raise ValueError("times must be nonnegative")
        lam, V, C = self._eig
        g = self._g(M[..., None, None])
        inner = g * np.exp(lam[:, None] * (S - M)[..., None, None]
                           + lam[None, :] * (T - M)[..., None, None])
        coef = V[q1][:, None] * V[q2][None, :] * C
        return np.real((coef * inner).sum(axis=(-2, -1)))

    def _g(self, m: np.ndarray) -> np.ndarray:
        """``g(lam_i + lam_j, m)`` over ``m`` of shape ``(..., 1, 1)``."""
        return np.where(self._a_zero, m,
                        np.expm1(self._a_safe * m) / self._a_safe)

    def _eval_van_loan(self, s: float, t: float) -> np.ndarray:
        m = min(s, t)
        if m < 0:
            raise ValueError("times must be nonnegative")
        if m == 0.0:
            return np.zeros((self.out_dim, self.out_dim))
        from scipy.linalg import expm  # as in _gramian_van_loan

        W = _gramian_van_loan(self.A, self.BBt, m)
        return expm(self.A * (s - m)) @ W @ expm(self.A * (t - m)).T

    # ----------------------------------------------------------------- API
    def _partial(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        self._check_value(r1, r2, q1, q2)
        if self._eig is not None:
            return self._closed_form(X1[..., 0], X2[..., 0], q1, q2)
        S, T = np.broadcast_arrays(X1[..., 0], X2[..., 0])
        out = np.empty(S.shape)
        for i in np.ndindex(S.shape):
            out[i] = self._eval_van_loan(float(S[i]), float(T[i]))[q1, q2]
        return out

    def apply_expansion(self, functional, X, coeffs, atoms) -> np.ndarray:
        """The sorted-time sweep (see the class docstring); a defective
        ``A`` takes the default per-atom loop.

        Each atom is one Q-vector of weights ``w`` and the functional one
        vector ``phi``, so the sum is ``Re sum_k phi^T K(s, t_k) w_k``.
        With ``u = V^T w`` and ``p = V^T phi``, an atom at or before the
        point (``t <= s``) adds ``sum_i p_i e^{lam_i s} [e^{-lam_i t} sum_j
        C_ij g_ij(t) u_j]`` and one after it adds ``sum_j [e^{lam_j t} u_j]
        e^{-lam_j s} sum_i p_i C_ij g_ij(s)``.  The bracketed vectors
        depend on the atom alone, and their prefix and suffix sums, taken
        once over the atoms sorted by time, leave O(Q^2) work per point.
        """
        if self._eig is None:
            return super().apply_expansion(functional, X, coeffs, atoms)
        lam, V, C = self._eig
        terms = [(k, q, r, beta) for k, atom in enumerate(atoms)
                 for q, r, beta in atom.functional.terms]
        for q, r in {(q, r) for q, r, _ in functional.terms} | {
                (q, r) for _, q, r, _ in terms}:
            self._check_value(r, None, q, 0)
        S = X[:, 0]
        t = np.array([atom.x for atom in atoms], dtype=float)
        if np.any(S < 0) or np.any(t < 0):
            raise ValueError("times must be nonnegative")
        out = np.zeros(S.size)
        if not atoms:
            return out
        if t.shape[1] != 1:
            raise ValueError("atom points must be times (dimension 1)")
        phi = np.zeros(self.out_dim)
        for q, _, beta in functional.terms:
            phi[q] += beta
        rows, cols, _, beta = map(list, zip(*terms))
        w = np.zeros((len(atoms), self.out_dim))
        np.add.at(w, (rows, cols), np.asarray(coeffs)[rows] * np.array(beta))
        t = t[:, 0]
        # Python's sort and bisect, not numpy's: a control run uses no other
        # numpy sort or search, and paging their code in would add about
        # 0.25 MB to its resident peak; at these sizes they cost the same
        order = sorted(range(t.size), key=t.__getitem__)
        t, u = t[order], (w @ V)[order]
        tau = t[_sweep_blocks(t, float(np.max(np.abs(lam.real))))]
        # prefix vectors, each on its block's base time
        x = np.empty_like(u, dtype=np.result_type(u, C, lam))
        for lo in range(0, t.size, _SWEEP_CHUNK):
            part = slice(lo, lo + _SWEEP_CHUNK)
            Cg = C * self._g(t[part, None, None])
            x[part] = np.exp(lam * (tau[part] - t[part])[:, None]) \
                * (Cg @ u[part, :, None])[..., 0]
        y = np.exp(lam * (t - tau)[:, None]) * u
        P, Y = _block_sums(x, tau, lam), _block_sums(y, tau, lam, True)
        p = phi @ V
        times = t.tolist()  # the number of atoms at or before each point:
        before = np.array([bisect.bisect_right(times, s) for s in S.tolist()],
                          dtype=np.intp)
        for lo in range(0, S.size, _SWEEP_CHUNK):
            part = slice(lo, lo + _SWEEP_CHUNK)
            s, k = S[part], before[part]
            total = np.zeros(s.size, dtype=x.dtype)
            pre, post = k > 0, k < t.size
            i, j = k[pre] - 1, k[post]
            total[pre] = (np.exp(lam * (s[pre] - tau[i])[:, None])
                          * P[i]) @ p
            z = p @ (C * self._g(s[post, None, None]))
            total[post] += (np.exp(lam * (tau[j] - s[post])[:, None])
                            * Y[j] * z).sum(axis=1)
            out[part] = total.real
        return out

    def to_config(self) -> dict:
        return {
            "kind": "lti_control",
            "A": self.A.tolist(),
            "B": self.B.tolist(),
        }


# --------------------------------------------------------------------------
# Config round-trip
# --------------------------------------------------------------------------

def kernel_from_config(cfg: dict) -> Kernel:
    """Build a kernel from its tagged-union JSON configuration."""
    kind = cfg.get("kind")
    if kind == "gaussian":
        return GaussianKernel(cfg["sigma"])
    if kind == "laplacian":
        return LaplacianKernel(cfg["rate"], int(cfg.get("dim", 1)))
    if kind == "decomposable_gaussian":
        return DecomposableGaussianKernel(cfg["sigma"], cfg["output_cov"])
    if kind == "lti_control":
        return LTIControlKernel(cfg["A"], cfg["B"])
    raise ValueError(f"unknown kernel kind {kind!r}")
