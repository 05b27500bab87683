"""The rows of a cone program: a dense store, then blocks held as triples.

The rows sit in one dense store up to the first block given as
:class:`SparseRows` triples; that block and every one after it stay
triples, the way ECOS keeps its cone rows sparse (Domahidi, Chu and
Boyd, ECC 2013).  ``assemble`` writes nonneg rows and 2x2 anchor cones
densely and gives the enclosure cones (a head row over ``-r0 [I_u |
c_b]``, one or two nonzeros a row) and the norm cones as triples, so no
``m x n`` array is formed: catenary-soap's largest program has 13,932
nonzeros where its dense rows took 14.4 MB, and robotarm's m = 81 ``hyp``
program is 0.25% dense, where they took 559 MB.  The store ends within 8
rows of the first triple.  One pair of products (``ConeProgram.rows``)
serves the iteration, the Newton directions, the certificates, the
polish and the final residuals, with the bits of the dense products (with
BLAS on one thread; on more, OpenBLAS splits ``G x`` by its row count).
Rows past the store are densified a window at a time into a buffer kept
zero between windows, and BLAS gets the operand the dense product would
hand it: row windows of a multiple of 8 rows for ``G x``, and chunks of
16 columns (at least 4, the remainder joined to the last) over every row
for ``G^T z``.  A trailing run of wide unit-row blocks (``d >= n``) adds
each row's exact term in row order, as the dense ``dgemv`` accumulates
it; a program with nothing else past its store (econ's, control's) makes
exactly the one store product.  That run is also the one set of wide
blocks the Newton matrix takes as rank-one terms, and the rows before it
are its narrow rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseRows:
    """The rows of a SOC block held as ``(row, column, value)`` triples,
    without their zeros: ``rows``, ``cols`` and ``vals`` (one per triple,
    or one for all) of a block of ``shape = (d, n)``, each ``(row,
    column)`` once and in increasing order.  An enclosure cone's body
    ``-r0 [I_u | c_b]`` has one or two nonzeros a row.  A norm cone over
    the coefficients (``-I``, and the epigraph's head ``-1`` on ``t``) has
    unit rows, each zero or one +-1 in a column no other row uses, which
    ``unit`` flags: a wide block of unit rows has a Newton term and
    products read off its triples."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        d, n = self.shape
        rows, cols = (np.asarray(v, dtype=np.int64).ravel()
                      for v in (self.rows, self.cols))
        vals = np.broadcast_to(np.asarray(self.vals, dtype=float),
                               rows.shape)  # one per triple, or for all
        # increasing (row, column) pairs, columns in range: rows in order
        if cols.size != rows.size or rows.size and not (
                0 <= rows[0] and rows[-1] < d
                and 0 <= cols.min() and cols.max() < n
                and (np.diff(rows * n + cols) > 0).all()):
            raise ValueError("sparse rows need (row, column) pairs in "
                             "increasing order within the shape")
        for name, v in (("rows", rows), ("cols", cols),
                        ("vals", vals.copy())):
            object.__setattr__(self, name, v)

    @functools.cached_property
    def unit(self) -> bool:
        """Whether each row is zero or one +-1 in a column no other row
        uses."""
        return bool(np.all(np.diff(self.rows) > 0)
                    and np.bincount(self.cols, minlength=1).max() <= 1
                    and np.all(np.abs(self.vals) == 1.0))

    @classmethod
    def of(cls, G: np.ndarray) -> "SparseRows":
        """The nonzeros of the dense rows ``G``."""
        rows, cols = np.nonzero(G)
        return cls(G.shape, rows, cols, G[rows, cols])

    def toarray(self) -> np.ndarray:
        """The rows with their zeros (each +0.0)."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


def store_rows(dims: list, held: list) -> int:
    """Rows of the dense store of a program whose blocks have ``dims``
    rows, ``held`` flagging those given as :class:`SparseRows`.  Every
    block from the first of those on is held as triples, and the store
    ends at the next multiple of 8 at or after its first row (every row
    when none is): OpenBLAS's ``dgemv`` takes rows in groups, so a store
    ending anywhere else can change the bits of ``G x`` on its last dense
    rows."""
    first = sum(dims[: held.index(True)] if True in held else dims)
    return min(sum(dims), -(-first // 8) * 8)


#: doubles of one window of rows that ``G x`` densifies at a time (1 MB,
#: half a core's L2 on the 2-vCPU VM measured); the rows are a multiple
#: of 8, the groups in which OpenBLAS's ``dgemv`` takes them
SLICE = 2 ** 17
#: columns of ``G^T z`` formed at once, fewer (a multiple of 4, at least
#: 4) where 16 columns of every row would pass 4 :data:`SLICE`: with BLAS
#: on one thread such chunks have the bits of the whole product when the
#: remainder joins the last chunk (a remainder of 2 alone did not)
CHUNK = 16


class _Rows:
    """``G`` as the solver reads it: the dense store ``G`` (its first
    ``R`` rows), then the triples ``held`` (``(row0, SparseRows)`` per
    block, in row order), ``m`` rows in all.

    ``dot`` and ``tdot`` keep the bits of the dense ``G @ x`` and
    ``G.T @ z`` over every row (with BLAS on one thread; on more,
    OpenBLAS splits ``G x`` by its row count).  Rows past the store are
    densified a window at a time (:meth:`fill`) into one buffer, kept
    zero between windows, and handed to BLAS as the dense product's
    operand: ``G x`` by windows of :data:`SLICE` doubles whose rows are a
    multiple of 8 and ``G^T z`` by chunks of :data:`CHUNK` columns over
    every row.  The trailing run of wide unit-row blocks (a norm cap and
    epigraph over every coefficient) is exact past row ``E``, the next
    multiple of 8 at or after its start: each of its rows adds ``0.0 +
    value * v``, one block at a time in row order, as the dense product
    accumulates it.  A program with nothing between its store and that run
    (econ's, or one with no triples) reads only the store there, in one
    product.  ``wide`` holds the run's ``(row0, SparseRows)`` pairs and
    ``narrow`` the row it starts at (``m`` when there is none): the Newton
    matrix's rank-one blocks and the end of its narrow rows.
    """

    def __init__(self, G: np.ndarray, held=(), m: int | None = None):
        self.G, self.held = G, list(held)
        R, n = G.shape
        self.n, self.m = n, R if m is None else m
        k = len(self.held)
        while k and self.held[k - 1][1].unit and \
                self.held[k - 1][1].shape[0] >= n:
            k -= 1
        self.wide = self.held[k:]
        self.narrow = self.held[k][0] if self.wide else self.m
        self.E = E = min(self.m, max(R, -(-self.narrow // 8) * 8))
        self.tail = []  # per block of the wide run, its triples from E on
        for r0, u in self.wide:
            past = r0 + u.rows >= E
            self.tail.append((r0 + u.rows[past], u.cols[past], u.vals[past]))
        self.windows = []  # G x's past the store: rows, triples, values
        if E == R:
            return
        # the triples of rows R to E, as flat indices row * n + col
        at, vals = (np.concatenate(v) for v in zip(*[
            ((r0 + u.rows) * n + u.cols, u.vals) for r0, u in self.held]))
        keep = (at >= R * n) & (at < E * n)
        self.at, self.vals = at[keep], vals[keep]
        # per window of G x, its triples as flat indices into the buffer
        step = max(8, SLICE // n // 8 * 8)
        lows = range(R, E, step)
        cuts = np.searchsorted(self.at, [lo * n for lo in lows] + [E * n])
        self.windows = [(lo, min(lo + step, E), self.at[a:b] - lo * n,
                         self.vals[a:b])
                        for lo, a, b in zip(lows, cuts, cuts[1:])]
        # per chunk of G^T z, the same, by column
        w = max(4, min(CHUNK, 4 * SLICE // E // 4 * 4))
        q = max(1, n // w)
        self.chunks = [*zip(range(0, w * q, w), [*range(w, w * q, w), n])]
        rows, cols = np.divmod(self.at, n)
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], self.vals[order]
        cuts = np.searchsorted(cols, [c0 for c0, _ in self.chunks] + [n])
        self.by_col = [(rows[a:b] * (c1 - c0) + cols[a:b] - c0, vals[a:b])
                       for (c0, c1), a, b in zip(self.chunks, cuts, cuts[1:])]
        # the windows' buffer, zero between windows
        self.buf = np.zeros(max(step * n, E * (n - w * (q - 1))))

    def fill(self, lo: int, hi: int, out: np.ndarray) -> tuple:
        """Write rows ``lo`` to ``hi`` of G (before ``E``) over the first
        rows of ``out``, a zero C-ordered array of n columns: those of the
        store copied, then the triples.  Returns what :meth:`clear` needs
        to make ``out`` zero again."""
        d = max(0, min(hi, self.G.shape[0]) - lo)
        out[:d] = self.G[lo: lo + d]
        at = ()
        if self.E > self.G.shape[0]:
            a, b = np.searchsorted(self.at, (lo * self.n, hi * self.n))
            at = self.at[a:b] - lo * self.n
            out.reshape(-1)[at] = self.vals[a:b]
        return d, at

    @staticmethod
    def clear(out: np.ndarray, filled: tuple) -> None:
        d, at = filled
        out[:d] = 0.0
        out.reshape(-1)[at] = 0.0

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``G x``."""
        R = self.G.shape[0]
        if R == self.m:
            return self.G @ x
        out = np.zeros(self.m)
        out[:R] = self.G @ x
        for lo, hi, at, vals in self.windows:
            self.buf[at] = vals
            np.matmul(self.buf[: (hi - lo) * self.n].reshape(hi - lo, self.n),
                      x, out=out[lo:hi])
            self.buf[at] = 0.0
        for rows, cols, vals in self.tail:
            out[rows] = 0.0 + vals * x[cols]
        return out

    def tdot(self, z: np.ndarray) -> np.ndarray:
        """``G^T z``."""
        R, E = self.G.shape[0], self.E
        if E == R:
            out = self.G.T @ z[:R]
        else:
            out, buf = np.empty(self.n), self.buf
            for (c0, c1), (at, vals) in zip(self.chunks, self.by_col):
                win = buf[: E * (c1 - c0)].reshape(E, c1 - c0)
                win[:R] = self.G[:, c0:c1]
                buf[at] = vals
                np.matmul(win.T, z[:E], out=out[c0:c1])
                buf[at] = 0.0
            buf[: R * (c1 - c0)] = 0.0  # the store's rows, widest last
        for rows, cols, vals in self.tail:
            out[cols] += vals * z[rows]
        return out

    def block_tdot(self, sl: slice, v: np.ndarray) -> np.ndarray:
        """``G[sl]^T v`` for the block on rows ``sl``."""
        for r0, u in self.held:
            if r0 == sl.start:
                return u.toarray().T @ v
        return self.G[sl].T @ v
