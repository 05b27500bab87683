"""Differential functionals, RKHS atoms, Gram matrices, and models.

An *atom* is the RKHS element obtained by applying a linear differential
functional to one argument of the kernel and pinning the other at a point:
``lK(., x)``.  Atoms are the single currency of the whole pipeline — data
observations, constraint anchors and covering centers/normals are all
atoms, and every model is a finite combination of them, so every inner
product, functional evaluation, and norm reduces to Gram algebra over one
basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .kernels import Kernel


#: quantization (decimal digits) for dedup keys — below solver tolerance,
#: above float noise.
DEDUP_DIGITS = 12

#: rows per kernel block when only a Gram's upper triangle is filled; small,
#: so a per-pair kernel evaluates few entries below the diagonal
_ROW_CHUNK = 4


@dataclass(frozen=True)
class DiffFunctional:
    """A linear functional  f -> sum_k beta_k * d^{r_k} f_{q_k}(x).

    ``terms`` is a tuple of ``(q, r, beta)``: output component, derivative
    multi-index, and real weight.  The point of application lives on the
    :class:`Atom`, not here.
    """

    terms: tuple[tuple[int, tuple[int, ...], float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("functional must have at least one term")
        norm = []
        for q, r, beta in self.terms:
            norm.append((int(q), tuple(int(v) for v in r), float(beta)))
        object.__setattr__(self, "terms", tuple(norm))

    # ------------------------------------------------------------ builders
    @staticmethod
    def value(dim: int, q: int = 0, beta: float = 1.0) -> "DiffFunctional":
        """Point-evaluation of output component ``q``."""
        return DiffFunctional(((q, (0,) * dim, beta),))

    @staticmethod
    def partial(dim: int, axis: int, order: int = 1, q: int = 0,
                beta: float = 1.0) -> "DiffFunctional":
        """Partial derivative of order ``order`` along ``axis`` on output q."""
        r = [0] * dim
        r[axis] = int(order)
        return DiffFunctional(((q, tuple(r), beta),))

    @staticmethod
    def mixed(dim: int, axes: Sequence[int], q: int = 0,
              beta: float = 1.0) -> "DiffFunctional":
        """Mixed partial: one derivative per entry of ``axes``."""
        r = [0] * dim
        for a in axes:
            r[a] += 1
        return DiffFunctional(((q, tuple(r), beta),))

    def scaled(self, factor: float) -> "DiffFunctional":
        return DiffFunctional(
            tuple((q, r, beta * factor) for q, r, beta in self.terms)
        )

    # ---------------------------------------------------------- properties
    @property
    def max_order(self) -> int:
        return max(sum(r) for _, r, _ in self.terms)

    def canonical(self) -> tuple:
        """Merged, sorted, quantized term tuple — the dedup key."""
        merged: dict[tuple, float] = {}
        for q, r, beta in self.terms:
            merged[(q, r)] = merged.get((q, r), 0.0) + beta
        out = []
        for (q, r), beta in sorted(merged.items()):
            b = round(beta, DEDUP_DIGITS)
            if b != 0.0:
                out.append((q, r, b))
        return tuple(out)

    def to_json(self) -> list:
        return [[q, list(r), beta] for q, r, beta in self.terms]

    @staticmethod
    def from_json(data: Iterable) -> "DiffFunctional":
        return DiffFunctional(
            tuple((int(q), tuple(int(v) for v in r), float(b))
                  for q, r, b in data)
        )


def lead_sign(terms) -> float:
    """``-1.0`` when the first nonzero weight of the canonical ``(q, r,
    beta)`` triples is negative, else ``1.0``: flipping a negative lead gives
    an element and its negation one form (an atom's basis column, an
    operator's buffer-width cache key)."""
    lead = next((b for _, _, b in terms if b != 0.0), 1.0)
    return -1.0 if lead < 0 else 1.0


@dataclass(frozen=True)
class SdpOperator:
    """Symmetric P x P array of functionals defining a matrix inequality.

    Entry ``(p1, p2)`` holds the functional producing the slack-matrix entry;
    the array must be symmetric so the slack matrix is.
    """

    entries: tuple[tuple[DiffFunctional, ...], ...]

    def __post_init__(self):
        P = len(self.entries)
        rows = tuple(tuple(row) for row in self.entries)
        if any(len(row) != P for row in rows):
            raise ValueError("operator entries must form a square array")
        for p1 in range(P):
            for p2 in range(p1 + 1, P):
                if rows[p1][p2].canonical() != rows[p2][p1].canonical():
                    raise ValueError(
                        f"operator entries ({p1},{p2}) and ({p2},{p1}) differ"
                    )
        object.__setattr__(self, "entries", rows)

    @staticmethod
    def scalar(functional: DiffFunctional) -> "SdpOperator":
        return SdpOperator(((functional,),))

    @property
    def size(self) -> int:
        return len(self.entries)

    def canonical(self) -> tuple:
        return tuple(tuple(f.canonical() for f in row) for row in self.entries)

    def oriented_canonical(self) -> tuple:
        """:meth:`canonical` of ``self`` or ``-self``, whichever has a
        positive lead weight, so an operator and its negation share it."""
        canon = self.canonical()
        s = lead_sign([t for row in canon for f in row for t in f])
        return tuple(tuple(tuple((q, r, s * b) for q, r, b in f) for f in row)
                     for row in canon)


@dataclass(frozen=True)
class Atom:
    """The RKHS element ``lK(., x)`` for a functional ``l`` at point ``x``."""

    x: tuple[float, ...]
    functional: DiffFunctional

    def __post_init__(self):
        pt = tuple(float(v) for v in np.atleast_1d(np.asarray(self.x)))
        object.__setattr__(self, "x", pt)

    @property
    def dim(self) -> int:
        return len(self.x)

    def key(self) -> tuple:
        """Dedup key: quantized point plus canonical functional."""
        return (
            tuple(round(v, DEDUP_DIGITS) for v in self.x),
            self.functional.canonical(),
        )

    def to_json(self) -> dict:
        return {"x": list(self.x), "terms": self.functional.to_json()}

    @staticmethod
    def from_json(data: dict) -> "Atom":
        return Atom(tuple(data["x"]), DiffFunctional.from_json(data["terms"]))


# --------------------------------------------------------------------------
# Inner products and Gram matrices
# --------------------------------------------------------------------------

def atom_inner(a1: Atom, a2: Atom, kernel: Kernel) -> float:
    """RKHS inner product of two atoms.

    ``<l1 K(., x1), l2 K(., x2)> = sum beta1 beta2 *
    d^{r1}_{x1} d^{r2}_{x2} [e_q1^T K(x1, x2) e_q2]`` — the derivative
    reproducing property applied twice.
    """
    total = 0.0
    for q1, r1, b1 in a1.functional.terms:
        for q2, r2, b2 in a2.functional.terms:
            total += b1 * b2 * kernel.eval_partial(r1, r2, q1, q2, a1.x, a2.x)
    return total


def _block_gram(rows: Sequence[Atom], cols: Sequence[Atom], kernel: Kernel,
                upper: bool = False) -> np.ndarray:
    """Inner products of two atom lists, one block per functional pair.

    Terms are summed in :func:`atom_inner`'s order, so the per-pair default
    block reproduces it bit for bit.  With ``upper`` only entries ``j >= i``
    are filled: row chunks skip the columns left of their first row.
    """
    def groups(atoms):
        index: dict[tuple, list[int]] = {}
        for i, atom in enumerate(atoms):
            index.setdefault(atom.functional.terms, []).append(i)
        return [(terms, np.array(ix)) for terms, ix in index.items()]

    X_rows = np.array([a.x for a in rows], dtype=float)
    X_cols = np.array([a.x for a in cols], dtype=float)
    col_groups = groups(cols)
    G = np.zeros((len(rows), len(cols)))
    for terms1, I in groups(rows):
        chunks = np.split(I, range(_ROW_CHUNK, I.size, _ROW_CHUNK)) \
            if upper else [I]
        for terms2, J_all in col_groups:
            for Ic in chunks:
                J = J_all[J_all >= Ic[0]] if upper else J_all
                block = 0.0
                for q1, r1, b1 in terms1:
                    for q2, r2, b2 in terms2:
                        block = block + b1 * b2 * kernel.partial_block(
                            r1, r2, q1, q2, X_rows[Ic], X_cols[J])
                G[np.ix_(Ic, J)] = block
    return G


def cross_gram(rows: Sequence[Atom], cols: Sequence[Atom],
               kernel: Kernel) -> np.ndarray:
    """Matrix of inner products between two atom lists."""
    return _block_gram(rows, cols, kernel)


def gram(basis: Sequence[Atom], kernel: Kernel
         ) -> tuple[np.ndarray, np.ndarray, float]:
    """Gram matrix of a basis plus a Cholesky factor of its jittered form.

    Atoms are grouped by ``functional.terms``; each pair of groups costs
    one :meth:`Kernel.partial_block` call per term pair, scattered into
    place.  Entry ``(i, j)``, ``i <= j``, is ``atom_inner(basis[i],
    basis[j])`` to rounding; the lower triangle mirrors the upper one.

    Returns ``(G, L, jitter)`` with ``L L^T = G + jitter * I``.  The jitter
    starts at ``1e-10 * trace(G)/A`` and escalates tenfold until the
    factorization succeeds, capped at ``1e-6 * trace(G)/A`` — every SOC row
    routes through ``L^T``, so the schedule is part of the numerical contract.
    """
    if not basis:
        raise ValueError("basis must be non-empty")
    A = len(basis)
    G = _block_gram(basis, basis, kernel, upper=True)
    for i in range(A - 1):
        G[i + 1:, i] = G[i, i + 1:]
    scale = max(float(np.trace(G)) / A, np.finfo(float).tiny)
    eps = 1e-10
    while True:
        jitter = eps * scale
        try:
            L = np.linalg.cholesky(G + jitter * np.eye(A))
            return G, L, jitter
        except np.linalg.LinAlgError:
            if eps >= 1e-6:
                raise ValueError("Gram numerically indefinite") from None
            eps *= 10.0


# --------------------------------------------------------------------------
# Models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A solved estimator: atom basis, coefficients, bias, and the factor L
    of the basis Gram (``L L^T = G + jitter I``, :func:`gram`) that the
    norm reads.  ``recover_model`` passes the program's factor; without
    one, the factor is computed here.  The Gram itself is not kept: no
    reader needs it, and it would double what a worker sends its caller."""

    kernel: Kernel
    basis: tuple[Atom, ...]
    coeffs: np.ndarray
    bias: np.ndarray = field(default_factory=lambda: np.zeros(0))
    factor: np.ndarray | None = None
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=float).ravel()
        )
        object.__setattr__(
            self, "bias", np.asarray(self.bias, dtype=float).ravel()
        )
        if len(self.basis) != self.coeffs.size:
            raise ValueError(
                f"basis size {len(self.basis)} != coefficient count "
                f"{self.coeffs.size}"
            )
        if self.factor is None and self.basis:
            object.__setattr__(self, "factor",
                               gram(self.basis, self.kernel)[1])

    @functools.cached_property
    def basis_index(self) -> dict:
        """Each basis atom's position, by :meth:`Atom.key`; built once."""
        return {atom.key(): i for i, atom in enumerate(self.basis)}

    @property
    def norm(self) -> float:
        """Kernel norm ||f||_K = ||L^T a||_2."""
        if not self.basis:
            return 0.0
        return float(np.linalg.norm(self.factor.T @ self.coeffs))

    # ---------------------------------------------------------- evaluation
    def eval(self, x) -> np.ndarray:
        """Model output f(x) in R^Q (bias mapping is applied by the problem)."""
        d = self.kernel.dim
        return np.array([
            apply_functional(DiffFunctional.value(d, q), self, x)
            for q in range(self.kernel.out_dim)
        ])

    def apply(self, functional: DiffFunctional, X) -> np.ndarray:
        """``functional(f)(x)`` at every row of ``X``: the grid evaluator.

        Basis atom ``j`` contributes ``a_j * sum_{f, a} beta_f beta_a *
        eval_partial_many(r_f, r_a, q_f, q_a, X, x_j)``: the term sum is
        formed first and then scaled by the coefficient; atoms with a zero
        coefficient are skipped.  Verification grids, component outputs and
        the experiments' tables all go through here.  The one-point form,
        :func:`apply_functional`, uses the scalar kernel partials instead;
        it stays separate because the refinement loop's saturation test
        depends on last-bit rounding, where a kernel's scalar and vector
        paths may differ (the Laplacian kernel's ``math.exp``).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros(X.shape[0])
        for a_j, atom in zip(self.coeffs, self.basis):
            if a_j == 0.0:
                continue
            acc = np.zeros(X.shape[0])
            for qf, rf, bf in functional.terms:
                for qa, ra, ba in atom.functional.terms:
                    acc += bf * ba * self.kernel.eval_partial_many(
                        rf, ra, qf, qa, X, atom.x)
            out += a_j * acc
        return out

    def eval_component_many(self, X, q: int = 0) -> np.ndarray:
        """Output component ``q`` at every row of ``X``."""
        return self.apply(DiffFunctional.value(self.kernel.dim, q), X)

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel.to_config(),
            "atoms": [a.to_json() for a in self.basis],
            "coeffs": self.coeffs.tolist(),
            "bias": self.bias.tolist(),
            "kernel_fingerprint": self.kernel.fingerprint(),
        }

    @staticmethod
    def from_json(data: dict, kernel: Kernel | None = None) -> "Model":
        from .kernels import kernel_from_config

        k = kernel if kernel is not None else kernel_from_config(data["kernel"])
        basis = tuple(Atom.from_json(a) for a in data["atoms"])
        return Model(k, basis, np.array(data["coeffs"], dtype=float),
                     np.array(data.get("bias", []), dtype=float))


def apply_functional(D: DiffFunctional, model: Model, x) -> float:
    """Evaluate ``D(f)(x)`` through the derivative reproducing property."""
    probe = Atom(tuple(np.atleast_1d(np.asarray(x, dtype=float))), D)
    total = 0.0
    for a_j, atom in zip(model.coeffs, model.basis):
        if a_j != 0.0:
            total += a_j * atom_inner(atom, probe, model.kernel)
    return total
