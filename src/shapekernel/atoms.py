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


def _groups(atoms: Sequence[Atom]) -> list[tuple[tuple, np.ndarray]]:
    """``(terms, indices)`` per functional shape (its terms' ``(q, r)``),
    each term with one weight per atom, so that atoms differing only in
    their weights share kernel calls."""
    index: dict[tuple, list[int]] = {}
    for i, atom in enumerate(atoms):
        shape = tuple((q, r) for q, r, _ in atom.functional.terms)
        index.setdefault(shape, []).append(i)
    groups = []
    for shape, ix in index.items():
        betas = np.array([[b for _, _, b in atoms[i].functional.terms]
                          for i in ix])
        groups.append((tuple((q, r, betas[:, t])
                             for t, (q, r) in enumerate(shape)),
                       np.array(ix)))
    return groups


def _at(terms, index) -> list:
    """A group's ``terms`` with their weight arrays indexed by ``index``."""
    return [(q, r, b[index]) for q, r, b in terms]


def _term_sum(partial, terms1, terms2, X1, X2):
    """``sum beta1 beta2 partial(r1, r2, q1, q2, X1, X2)`` over the term
    pairs, in :func:`atom_inner`'s order; ``partial`` is a kernel's
    ``partial_block`` or ``partial_pairs``, and each weight a float or an
    array that broadcasts against its result."""
    block = 0.0
    for q1, r1, b1 in terms1:
        for q2, r2, b2 in terms2:
            block = block + b1 * b2 * partial(r1, r2, q1, q2, X1, X2)
    return block


#: where :func:`gram`'s pivoted Cholesky stops: once every residual
#: diagonal is at most this fraction of the Gram's largest diagonal entry.
#: Eigenvalues above a fraction of the largest, by basis:
#:
#:  ============================ ====== ==== ==== ===== =====
#:  basis                        atoms  1e-6 1e-8 1e-10 1e-12
#:  ============================ ====== ==== ==== ===== =====
#:  econ relaxation and ``both`` 1,153  37   51   64    80
#:  econ ``monot``               478    30   41   52    66
#:  control                      50     24   25   25    25
#:  catenary's SOAP rounds       69-97  full full full  full
#:  robotarm m = 81              390    380  390  390   390
#:  ============================ ====== ==== ==== ===== =====
#:
#: So econ's programs shrink to about 86 and 71 columns, control's to 25,
#: and catenary's and robotarm's keep every atom, and with it their bits.
#: The cut also sets how much of the Gram is built: one row per pivot, so
#: r x A entries (about 0.1M of econ's 1.33M).
PIVOT_CUT = 1e-12


def _gram_parts(basis: Sequence[Atom], kernel: Kernel):
    """The Gram of ``basis`` as its diagonal, by one
    :meth:`Kernel.partial_pairs` call per functional shape and term pair,
    and ``row(p)``, by one :meth:`Kernel.partial_block` call per shape,
    side and term pair.  Entry ``(i, j)`` has the bits of the block with
    the smaller index on its row side, so the Gram is symmetric and a row's
    bits do not depend on which rows were asked for."""
    X = np.array([a.x for a in basis], dtype=float)
    groups = _groups(basis)
    diagonal = np.empty(len(basis))
    for terms, I in groups:
        diagonal[I] = _term_sum(kernel.partial_pairs, terms, terms,
                                X[I], X[I])

    def row(p: int) -> np.ndarray:
        g, own, x = np.empty(len(basis)), basis[p].functional.terms, X[p:p + 1]
        for terms, J in groups:
            k = np.searchsorted(J, p)  # J[k:] >= p: p is the row side
            if k < J.size:
                g[J[k:]] = _term_sum(kernel.partial_block, own,
                                     _at(terms, np.s_[k:]), x, X[J[k:]])[0]
            if k:
                g[J[:k]] = _term_sum(kernel.partial_block,
                                     _at(terms, np.s_[:k, None]), own,
                                     X[J[:k]], x)[:, 0]
        return g

    return diagonal, row


def _full_gram(basis: Sequence[Atom], kernel: Kernel) -> np.ndarray:
    """The whole Gram of ``basis``, row by row.  Only a model given no
    factor builds it."""
    row = _gram_parts(basis, kernel)[1]
    return np.array([row(p) for p in range(len(basis))])


def _jitter(d: np.ndarray) -> float:
    """``1e-10 * trace(G)/A`` from G's diagonal ``d``: every factor's shift."""
    return 1e-10 * max(float(d.sum()) / d.size, np.finfo(float).tiny)


def _factor(G: np.ndarray, jitter: float) -> np.ndarray:
    """Cholesky factor L of ``G + jitter * I``."""
    try:
        return np.linalg.cholesky(G + jitter * np.eye(len(G)))
    except np.linalg.LinAlgError:
        raise ValueError("Gram numerically indefinite") from None


def _pivots(row, diagonal: np.ndarray, first: Sequence[int], jitter: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Greedy pivoted Cholesky of the Gram with this ``diagonal`` whose row
    p is ``row(p)``: the pivot set S, sorted, and the rows ``G[S, :]``.

    The indices in ``first`` are taken first, each time the one of largest
    residual diagonal, while one of them has a residual above
    :data:`PIVOT_CUT` times the largest diagonal entry; the rest of them
    join without a step, their directions being in the span taken so far.
    Then every atom is a candidate, until every residual is at most the
    cut.  Taking the largest residual of the candidates keeps each step's
    rounding relative to the residuals it updates.  A residual below
    ``-jitter`` means G is not positive semidefinite.  Each row is asked
    for once, when its index joins S; the partial factor's rows share one
    buffer, which grows by doubling.
    """
    A = diagonal.size
    d = diagonal.copy()
    cut = PIVOT_CUT * d.max()
    R = np.empty((min(A, 16), A))  # the partial factor, a row per step
    rows: dict[int, np.ndarray] = {}  # G's row of each pivot stepped on
    taken = np.zeros(A, dtype=bool)
    forced = np.zeros(A, dtype=bool)
    forced[list(first)] = True
    for pool in (forced, np.ones(A, dtype=bool)):
        while True:
            p = int(np.argmax(np.where(pool & ~taken, d, -np.inf)))
            if taken[p] or not pool[p] or d[p] <= cut:
                break
            taken[p] = True
            k = len(rows)
            if k == len(R):
                R = np.resize(R, (min(2 * k, A), A))
            rows[p] = row(p)
            R[k] = (rows[p] - R[:k, p] @ R[:k]) / np.sqrt(d[p])
            d -= R[k] * R[k]
        taken |= forced
    if (d < -jitter).any():
        raise ValueError("Gram numerically indefinite")
    del R
    S = np.flatnonzero(taken)
    return S, np.array([rows.pop(i) if i in rows else row(i)
                        for i in S]).reshape(S.size, A)


def gram(basis: Sequence[Atom], kernel: Kernel, first: Sequence[int] = ()
         ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The pivot rows of a basis's Gram, the pivot set and its factor.

    A greedy pivoted Cholesky (Harbrecht, Peters and Schneider, Appl.
    Numer. Math. 62, 2012; Fine and Scheinberg, JMLR 2, 2001) picks the
    pivot set S: the indices ``first`` (enclosure normals, whose columns a
    program needs), then the atoms of largest residual, until every
    residual diagonal is at most :data:`PIVOT_CUT` of the largest diagonal
    entry.  S is returned sorted, in basis order.

    The Gram is built only as far as the pivoting reads it, its diagonal
    and the pivots' rows (:func:`_gram_parts`), so no A x A array is
    formed.

    Returns ``(G_S, L, jitter, S)``: the r x A rows ``G_S = G[S, :]``,
    ``L L^T = G[S, S] + jitter * I`` and ``jitter = 1e-10 * trace(G)/A``.
    A full-rank basis has S = every atom, and L has the bits of the full
    factor ``chol(G + jitter * I)``.  A factorization that fails, or a
    residual below ``-jitter``, raises ``ValueError``.
    """
    if not basis:
        raise ValueError("basis must be non-empty")
    diagonal, row = _gram_parts(basis, kernel)
    jitter = _jitter(diagonal)
    S, G_S = _pivots(row, diagonal, first, jitter)
    return G_S, _factor(G_S[:, S], jitter), jitter, S


# --------------------------------------------------------------------------
# Models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A solved estimator: atom basis, coefficients, bias, and the factor L
    of the basis Gram (``L L^T = G + jitter I``) that the norm reads.
    ``recover_model`` passes the program's factor, whose basis is the
    program's pivot set (:func:`gram`); without one, the factor of the
    whole basis is computed here, with the same jitter.  The Gram itself
    is not kept: no reader needs it, and it would double what a worker
    sends its caller."""

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
            G = _full_gram(self.basis, self.kernel)
            object.__setattr__(self, "factor",
                               _factor(G, _jitter(np.diagonal(G))))

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

        The nonzero-coefficient atoms, in basis order, go to the kernel's
        :meth:`~shapekernel.kernels.Kernel.apply_expansion` in one call.
        Its default forms one ``eval_partial_many`` per atom and term pair,
        which every kernel but the control kernel keeps, bit for bit; the
        control kernel sums its semiseparable closed form in one sweep over
        the atoms sorted by time (to rounding), unless its ``A`` is
        defective.  Verification grids, component outputs
        and the experiments' tables all go through here.  The one-point
        form, :func:`apply_functional`, reads the same closed form, the
        kernel's ``_partial``, one atom pair at a time through
        ``eval_partial``.  It stays separate because this method goes
        through ``eval_partial_many``, which the Laplacian kernel
        overrides with ``np.exp`` (``_partial`` takes ``math.exp``), and
        the refinement loop's saturation test depends on last-bit
        rounding.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        keep = [j for j, a_j in enumerate(self.coeffs) if a_j != 0.0]
        return self.kernel.apply_expansion(
            functional, X, self.coeffs[keep], [self.basis[j] for j in keep])

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
