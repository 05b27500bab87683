"""Matrix-valued kernels with exact mixed partial derivatives.

Every kernel maps a pair of points in ``R^d`` to a ``Q x Q`` matrix and
exposes analytic mixed partials ``d^{r1}_x d^{r2}_y [e_q1^T K(x,y) e_q2]``
up to its declared smoothness order.  Derivatives are closed-form; no finite
differences appear outside the test suite.

Shipped variants:

* :class:`GaussianKernel` — scalar anisotropic squared-exponential, smooth.
* :class:`LaplacianKernel` — scalar exponential kernel, value-only (s = 0).
* :class:`DecomposableGaussianKernel` — ``k(x,y) * Sigma`` for vector outputs.
* :class:`LTIControlKernel` — the controllability-Gramian kernel of a linear
  time-invariant system, in closed form through the eigendecomposition of
  ``A``; a defective ``A`` falls back to Van Loan's augmented-matrix
  exponential, and only then is scipy's ``expm`` loaded.
"""

from __future__ import annotations

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
    X1[i], X2[j])``; Gram matrices and ``eval_partial_many`` use it.  The
    default loops over the pairs, so its entries equal the scalar calls bit
    for bit.  Override it where the partial has a closed form that
    vectorizes over point pairs and agrees with the scalar path to rounding.
    ``partial_pairs`` is the diagonal analogue: one value per row pair.
    """

    dim: int
    out_dim: int
    smoothness: int

    # ------------------------------------------------------------------ API
    def eval(self, x, x2) -> np.ndarray:
        """Return the Q x Q matrix K(x, x2)."""
        raise NotImplementedError

    def eval_partial(self, r1, r2, q1: int, q2: int, x, x2) -> float:
        """Return d^{r1}_x d^{r2}_{x2} [e_q1^T K(x, x2) e_q2]."""
        raise NotImplementedError

    def eval_partial_many(self, r1, r2, q1: int, q2: int, X, x2) -> np.ndarray:
        """Vectorized :meth:`eval_partial` over the rows of ``X``."""
        y = _as_point(x2, self.dim, "x2")
        return self.partial_block(r1, r2, q1, q2, X, y[None, :])[:, 0]

    def partial_block(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """Matrix of :meth:`eval_partial` over all rows of X1 times X2."""
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        out = np.empty((X1.shape[0], X2.shape[0]))
        for i, x in enumerate(X1):
            for j, y in enumerate(X2):
                out[i, j] = self.eval_partial(r1, r2, q1, q2, x, y)
        return out

    def partial_pairs(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """Vector of :meth:`eval_partial` at the pairs ``(X1[k], X2[k])``."""
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        return np.array([self.eval_partial(r1, r2, q1, q2, x, y)
                         for x, y in zip(X1, X2)])

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

    def _scalar(self, x: np.ndarray, y: np.ndarray) -> float:
        t = (x - y) / self.lengthscales
        return math.exp(-0.5 * float(t @ t))

    def eval(self, x, x2) -> np.ndarray:
        x = _as_point(x, self.dim, "x")
        y = _as_point(x2, self.dim, "x2")
        return np.array([[self._scalar(x, y)]])

    def scalar_partial(self, r1, r2, x, x2) -> float:
        x = _as_point(x, self.dim, "x")
        y = _as_point(x2, self.dim, "x2")
        r1 = _as_multi_index(r1, self.dim)
        r2 = _as_multi_index(r2, self.dim)
        self._check_orders(r1, r2)
        value = self._scalar(x, y)
        sign = 1.0
        for i in range(self.dim):
            n = r1[i] + r2[i]
            if n:
                s2 = float(self.lengthscales[i]) ** 2
                value *= _gauss_profile_derivative(n, float(x[i] - y[i]), s2)
                if r2[i] % 2:
                    sign = -sign
        return sign * value

    def eval_partial(self, r1, r2, q1: int, q2: int, x, x2) -> float:
        if q1 != 0 or q2 != 0:
            raise ValueError("scalar kernel has a single output component")
        return self.scalar_partial(r1, r2, x, x2)

    def partial_block(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """exp of the outer differences times one polynomial per axis;
        works axis by axis, so memory stays at a few (n1, n2) arrays."""
        if q1 != 0 or q2 != 0:
            raise ValueError("scalar kernel has a single output component")
        r1 = _as_multi_index(r1, self.dim)
        r2 = _as_multi_index(r2, self.dim)
        self._check_orders(r1, r2)
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        sq = np.zeros((X1.shape[0], X2.shape[0]))
        polys = []
        for i in range(self.dim):
            diff = X1[:, i, None] - X2[None, :, i]
            t = diff / self.lengthscales[i]
            sq += t * t
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

    def eval(self, x, x2) -> np.ndarray:
        x = _as_point(x, self.dim, "x")
        y = _as_point(x2, self.dim, "x2")
        return np.array([[math.exp(-self.rate * float(np.linalg.norm(x - y)))]])

    def eval_partial(self, r1, r2, q1: int, q2: int, x, x2) -> float:
        self._check_value(r1, r2, q1, q2)
        return float(self.eval(x, x2)[0, 0])

    def eval_partial_many(self, r1, r2, q1: int, q2: int, X, x2) -> np.ndarray:
        self._check_value(r1, r2, q1, q2)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = _as_point(x2, self.dim, "x2")
        return np.exp(-self.rate * np.linalg.norm(X - y[None, :], axis=1))

    def partial_block(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        """:meth:`eval`'s bits over all pairs: one ``vecdot`` norm per pair,
        then ``math.exp`` (``np.exp`` differs in the last bit on some)."""
        self._check_value(r1, r2, q1, q2)
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        D = X1[:, None, :] - X2[None, :, :]
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

    def eval(self, x, x2) -> np.ndarray:
        return self.scalar.eval(x, x2)[0, 0] * self.output_cov

    def _check_q(self, q1: int, q2: int) -> None:
        if not (0 <= q1 < self.out_dim and 0 <= q2 < self.out_dim):
            raise ValueError(
                f"output indices ({q1},{q2}) out of range for Q={self.out_dim}"
            )

    def eval_partial(self, r1, r2, q1: int, q2: int, x, x2) -> float:
        self._check_q(q1, q2)
        return self.scalar.scalar_partial(r1, r2, x, x2) * float(
            self.output_cov[q1, q2]
        )

    def partial_block(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        self._check_q(q1, q2)
        return self.scalar.partial_block(r1, r2, 0, 0, X1, X2) * float(
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
    eigenvalues, keeping the real part), so ``eval``, ``partial_block`` and
    ``partial_pairs`` share one body.  A defective (or nearly defective)
    ``A`` has no usable eigenbasis; then every entry comes from the Van Loan
    (1978) Gramian and ``expm``, one time pair at a time; scipy, which
    holds ``expm``, is imported only on that path.
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

    def _closed_form(self, S, T, q1=None, q2=None) -> np.ndarray:
        """K(S, T) over broadcast time arrays: entry ``[q1, q2]`` of shape
        ``broadcast(S, T)``, or the full ``(..., Q, Q)`` stack."""
        S, T = np.broadcast_arrays(np.asarray(S, dtype=float),
                                   np.asarray(T, dtype=float))
        if np.any(S < 0) or np.any(T < 0):
            raise ValueError("times must be nonnegative")
        lam, V, C = self._eig
        M = np.minimum(S, T)
        a = lam[:, None] + lam[None, :]
        zero = a == 0
        a_safe = np.where(zero, 1.0, a)
        m = M[..., None, None]
        g = np.where(zero, m, np.expm1(a_safe * m) / a_safe)
        inner = g * np.exp(lam[:, None] * (S - M)[..., None, None]
                           + lam[None, :] * (T - M)[..., None, None])
        if q1 is None:
            return np.real(V @ (C * inner) @ V.T)
        coef = V[q1][:, None] * V[q2][None, :] * C
        return np.real((coef * inner).sum(axis=(-2, -1)))

    def _eval_van_loan(self, s: float, t: float) -> np.ndarray:
        m = min(s, t)
        if m == 0.0:
            return np.zeros((self.out_dim, self.out_dim))
        from scipy.linalg import expm  # as in _gramian_van_loan

        W = _gramian_van_loan(self.A, self.BBt, m)
        return expm(self.A * (s - m)) @ W @ expm(self.A * (t - m)).T

    # ----------------------------------------------------------------- API
    def eval(self, x, x2) -> np.ndarray:
        s = float(_as_point(x, 1, "x")[0])
        t = float(_as_point(x2, 1, "x2")[0])
        if s < 0 or t < 0:
            raise ValueError(f"times must be nonnegative, got ({s}, {t})")
        if self._eig is None:
            return self._eval_van_loan(s, t)
        return self._closed_form(s, t)

    def eval_partial(self, r1, r2, q1: int, q2: int, x, x2) -> float:
        self._check_value(r1, r2, q1, q2)
        return float(self.eval(x, x2)[q1, q2])

    def partial_block(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        if self._eig is None:
            return super().partial_block(r1, r2, q1, q2, X1, X2)
        self._check_value(r1, r2, q1, q2)
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        return self._closed_form(X1[:, 0, None], X2[None, :, 0], q1, q2)

    def partial_pairs(self, r1, r2, q1: int, q2: int, X1, X2) -> np.ndarray:
        if self._eig is None:
            return super().partial_pairs(r1, r2, q1, q2, X1, X2)
        self._check_value(r1, r2, q1, q2)
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        return self._closed_form(X1[:, 0], X2[:, 0], q1, q2)

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
