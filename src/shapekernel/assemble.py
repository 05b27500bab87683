"""Finite-dimensional reduction of the constrained estimation problem.

The optimal solution of a kernel estimation problem with finitely many
observation functionals and finitely many conic constraint rows lives in the
span of the corresponding atoms.  This module collects that atom basis,
assembles the finite cone program over the expansion coefficients (plus
bias, norm-epigraph, and enclosure auxiliaries), and maps solver output back
to :class:`~shapekernel.atoms.Model` objects.

It also produces the two companion quantities used for certification: the
value of the *relaxed* (discretized) program, which lower-bounds the true
optimum, and bound reports combining the two values into optimality
certificates and error radii.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .atoms import (
    Atom,
    DiffFunctional,
    Model,
    gram,
    lead_sign,
)
from .conic import (ConeBlock, ConeProgram, SolverSettings, Solution, solve,
                    solve_triangular)
from .covering import fill_distance
from .kernels import Kernel
from .rows import SparseRows, store_rows
from .tighten import (
    AnchorRecord,
    InclusionRecord,
    ShapeConstraint,
    discretize,
)

_SQRT2 = math.sqrt(2.0)


# --------------------------------------------------------------------------
# Problem description
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Observation:
    """One loss term: functional value at a point vs. a target."""

    functional: DiffFunctional
    x: tuple
    target: float
    weight: float = 1.0
    bias_row: tuple = ()

    def atom(self) -> Atom:
        return Atom(self.x, self.functional)


@dataclass(frozen=True)
class Equality:
    """Hard interpolation row ``functional(f)(x) + bias_row . b = value``."""

    functional: DiffFunctional
    x: tuple
    value: float
    bias_row: tuple = ()

    def atom(self) -> Atom:
        return Atom(self.x, self.functional)


@dataclass(frozen=True)
class Ridge:
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("ridge weight must be positive")


@dataclass(frozen=True)
class NormBound:
    lam_tilde: float

    def __post_init__(self):
        if self.lam_tilde <= 0:
            raise ValueError("norm bound must be positive")


@dataclass(frozen=True)
class NormMin:
    """Minimize the RKHS norm itself (epigraph objective)."""


@dataclass
class ProblemSpec:
    """Everything needed to assemble one estimation problem."""

    kernel: Kernel
    observations: list = field(default_factory=list)
    loss: str = "none"  # 'squared' | 'none'
    equalities: list = field(default_factory=list)
    regularizer: object | None = None
    bias_dim: int = 0
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        if self.loss not in ("squared", "none"):
            raise ValueError(
                f"loss {self.loss!r} is reserved or unknown; "
                "supported: 'squared', 'none'"
            )
        if self.loss == "none" and self.regularizer is None:
            raise ValueError("need a loss or a regularizer")


# --------------------------------------------------------------------------
# Atom collection
# --------------------------------------------------------------------------

def _oriented(atom: Atom) -> tuple[Atom, float]:
    """Return the sign-normalized atom and the sign that recovers the input.

    The leading coefficient of the canonical functional is made positive so
    that an atom and its negation share one basis column.
    """
    if lead_sign(atom.functional.canonical()) < 0:
        return Atom(atom.x, atom.functional.scaled(-1.0)), -1.0
    return atom, 1.0


def collect_atoms(spec: ProblemSpec, records: list) -> list[Atom]:
    """Deduplicated atom basis spanning every optimal solution.

    Observation and equality atoms come first, then constraint-record
    anchors and enclosure normals (sign-normalized).  Dedup key: point
    quantized to 12 digits plus the functional's canonical form.
    """
    seen: dict = {}
    out: list[Atom] = []

    def add(atom: Atom):
        key = atom.key()
        if key not in seen:
            seen[key] = len(out)
            out.append(atom)

    for obs in spec.observations:
        add(obs.atom())
    for eq in spec.equalities:
        add(eq.atom())
    for rec in records:
        if isinstance(rec, AnchorRecord):
            for i in range(rec.size):
                for j in range(i, rec.size):
                    add(rec.atoms[i][j])
        elif isinstance(rec, InclusionRecord):
            add(_oriented(rec.normal)[0])
        else:
            raise TypeError(f"unknown record type {type(rec).__name__}")
    return out


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------

def assemble(spec: ProblemSpec, basis: list[Atom], records: list
             ) -> ConeProgram:
    """Build the cone program over coefficients, bias, and auxiliaries.

    The decision vector is ``[a | b | t? | xi]``: coefficients, bias, one
    norm epigraph ``t >= ||f||`` when the objective (``NormMin``) or a
    record with a positive buffer width needs it, and one nonnegative
    auxiliary per enclosure record.  Functional evaluations become Gram
    rows; every buffered anchor row subtracts ``eta t``; enclosure records
    get their own SOC row over the extended coefficient vector.  Each cone
    row is written once, in the order the solver reads it.  Nonnegative
    rows and a 2x2 record's rotated cone (a plain SOC block) go into the
    program's dense row store.  Enclosure cones, whose body ``-r0 [I_u |
    c_b]`` has one or two nonzeros a row, and the norm cap and epigraph
    that come last (unit rows) are
    :class:`~shapekernel.rows.SparseRows` triples, so the store ends
    within 8 rows of the first of them and no ``m x n`` array is formed;
    a 2x2 record's cone after an enclosure is held as its nonzeros too.

    The coefficient block of the decision vector carries whitened
    coordinates over span S, the pivot set of the basis Gram
    (:func:`~shapekernel.atoms.gram`, every enclosure normal included):
    ``u = L^T a_S`` with ``L L^T = G[S, S] + jitter I``, r = |S| columns
    instead of one per atom.  Evaluation rows ``G[i, S] . a_S`` become
    ``W[i] . u`` with ``W = (L^{-1} G[S, :])^T``, computed for the whole
    basis in one triangular solve from the r x A pivot rows ``gram``
    returns (no A x A Gram is formed), and every norm expression becomes
    ``||u||``, rows of ``-1`` on u's columns.  Every row is exact on span
    S and ``||f||^2 = a_S^T G[S, S] a_S <= ||u||^2``, so a tightened
    model stays feasible on the whole region; only optimality is
    restricted to span S, and the residual diagonal the pivoting left
    (at most :data:`~shapekernel.atoms.PIVOT_CUT` of the largest) bounds
    that loss.  Econ's Grams are numerically low-rank, and its programs
    shrink from 1,154 columns to about 88; a full-rank basis keeps every
    atom, and its program has the bits of the full factor's.  Whitening
    keeps the program well conditioned where the Gram is near-singular
    (smooth kernels at tight anchor spacing), which otherwise stalls the
    interior-point iteration; :func:`recover_model` maps ``u`` back with a
    single triangular back-solve.
    """
    kernel = spec.kernel
    B = spec.bias_dim
    basis_index = {atom.key(): i for i, atom in enumerate(basis)}
    normals = [basis_index[_oriented(rec.normal)[0].key()]
               for rec in records if isinstance(rec, InclusionRecord)]
    G_S, L, _, S = gram(basis, kernel, first=normals)
    r = S.size  # u's columns
    # Row i: exact whitened evaluation row of basis atom i on span S.  The
    # Gram is not held past them: the program and the model keep only L.
    W_rows = solve_triangular(L, G_S).T
    del G_S

    a_cols, b_cols = slice(0, r), slice(r, r + B)
    needs_t = isinstance(spec.regularizer, NormMin) or any(
        isinstance(rec, AnchorRecord) and rec.eta > 0 for rec in records)
    t_idx = r + B if needs_t else None
    xi0 = r + B + int(needs_t)  # first enclosure auxiliary
    xi_index: dict = {}
    for rec in records:
        prov = tuple(rec.provenance)
        if isinstance(rec, InclusionRecord) and prov not in xi_index:
            xi_index[prov] = xi0 + len(xi_index)
    n = xi0 + len(xi_index)

    def gram_row(atom: Atom) -> np.ndarray:
        # Every row atom is in the basis by construction (collect_atoms).
        return W_rows[basis_index[atom.key()]]

    def bias_part(row: np.ndarray, gamma) -> None:
        g = np.asarray(gamma, dtype=float)
        if B and g.size:
            if g.size != B:
                raise ValueError("bias row length mismatch")
            row[b_cols] = g

    # ---------------------------------------------------------------- cost
    P_mat = np.zeros((n, n))
    q_vec = np.zeros(n)
    const = 0.0

    if spec.loss == "squared" and spec.observations:
        N = len(spec.observations)
        J = np.zeros((N, n))
        y = np.zeros(N)
        w = np.zeros(N)
        for k, obs in enumerate(spec.observations):
            J[k, a_cols] = gram_row(obs.atom())
            bias_part(J[k], obs.bias_row)
            y[k] = obs.target
            w[k] = obs.weight
        WJ = J * w[:, None]
        P_mat += (2.0 / N) * J.T @ WJ
        q_vec += -(2.0 / N) * WJ.T @ y
        const += float(w @ (y * y)) / N

    reg = spec.regularizer
    if isinstance(reg, Ridge):
        # ||f||^2 <= u.u in whitened coordinates (the jitter-stabilized
        # norm, matching Model.norm and the epigraph row).
        P_mat[:r, :r] += 2.0 * reg.lam * np.eye(r)
    elif isinstance(reg, NormMin):
        q_vec[t_idx] += 1.0

    # ---------------------------------------------------------------- rows
    A_eq_rows, b_eq = [], []
    for eq in spec.equalities:
        row = np.zeros(n)
        row[a_cols] = gram_row(eq.atom())
        bias_part(row, eq.bias_row)
        A_eq_rows.append(row)
        b_eq.append(eq.value)

    # The cone rows are counted first and then written once each, in the
    # order the solver reads them: every nonnegative row, then the SOC
    # blocks in record order, the norm cap, the epigraph.  Enclosure cones
    # and the two norm cones (unit rows over u, and the epigraph's head on
    # t) are triples, and rows.store_rows ends the dense store near the
    # first of them; a 2x2 record's cone after it gets rows of its own,
    # which ConeProgram holds as their nonzeros.
    l = sum(rec.size if isinstance(rec, AnchorRecord) else 1
            for rec in records)
    socs = [rec for rec in records
            if not (isinstance(rec, AnchorRecord) and rec.size == 1)]
    norms = []  # (unit rows, h of the head row, provenance)
    if isinstance(reg, NormBound):  # ||u|| <= lam_tilde
        norms.append((SparseRows((1 + r, n), np.arange(1, 1 + r),
                                 np.arange(r), -1.0),
                      reg.lam_tilde, ("norm_bound",)))
    if needs_t:  # the norm epigraph ||u|| <= t
        norms.append((SparseRows((1 + r, n), np.arange(1 + r),
                                 np.r_[t_idx, np.arange(r)], -1.0),
                      0.0, ("epigraph",)))
    enclosure = [isinstance(rec, InclusionRecord) for rec in socs]
    dims = [l] + [1 + r if e else 3 for e in enclosure] + \
        [1 + r] * len(norms)
    held = [False] + enclosure + [True] * len(norms)
    G = np.zeros((store_rows(dims, held), n))
    dense_rows = sum(dims[: held.index(True)] if True in held else dims)
    h = np.zeros(sum(dims))
    blocks: list[ConeBlock] = []
    nn_prov: list = []
    soc_row = l

    def add_nonneg(row, rhs, prov):
        # expression row.x - rhs >= 0  =>  s = -rhs - (-row).x
        G[len(nn_prov)] = -row
        h[len(nn_prov)] = -rhs
        nn_prov.append(prov)

    def add_soc(dim, prov, given=None):
        """The next SOC block: ``given`` triples, or rows that its caller
        fills in, the store's up to the first block held as triples."""
        nonlocal soc_row
        rows = slice(soc_row, soc_row + dim)
        soc_row = rows.stop
        if given is None:
            given = G[rows] if rows.stop <= dense_rows else np.zeros((dim, n))
        blocks.append(ConeBlock("soc", given, h[rows], provenance=prov))
        return blocks[-1]

    for rec in records:
        prov = tuple(rec.provenance)
        if isinstance(rec, AnchorRecord):
            # One nonnegative row per diagonal entry (tagged with its index
            # when P = 2).  For P = 2 the record's rotated cone over both
            # rows g0, g1 and the scaled off-diagonal row goes in as the SOC
            # block ((g0 + g1)/sqrt2, (g0 - g1)/sqrt2, -sqrt2 off).  The
            # cone alone implies the two rows, but without them the
            # interior-point path can stall at the cone's apex: econ's
            # `both` solve, whose optimum is f = 0, then ends `max_iter` on
            # seed 4.
            tags = [()] if rec.size == 1 else [(0,), (1,)]
            for p, tag in enumerate(tags):
                row = np.zeros(n)
                row[a_cols] = gram_row(rec.atoms[p][p])
                bias_part(row, rec.gamma[p])
                if rec.eta > 0:
                    row[t_idx] = -rec.eta
                add_nonneg(row, rec.offset[p], ("record",) + prov + tag)
            if rec.size == 2:
                off_row = np.zeros(n)
                off_row[a_cols] = gram_row(rec.atoms[0][1])
                cone = add_soc(3, ("record",) + prov)
                g0, g1 = len(nn_prov) - 2, len(nn_prov) - 1
                cone.G[0] = (G[g0] + G[g1]) / _SQRT2
                cone.G[1] = (G[g0] - G[g1]) / _SQRT2
                cone.G[2] = -_SQRT2 * off_row
                cone.h[0] = (h[g0] + h[g1]) / _SQRT2
                cone.h[1] = (h[g0] - h[g1]) / _SQRT2
        elif isinstance(rec, InclusionRecord):
            pos, sign = _oriented(rec.normal)
            col = np.searchsorted(S, basis_index[pos.key()])  # its pivot
            # s0 = gamma.b - offset - xi*rho
            head = np.zeros(n)
            bias_part(head, rec.gamma)
            head = -head
            xi_idx = xi_index[prov]
            head[xi_idx] += rec.rho
            xi_row = np.zeros(n)
            xi_row[xi_idx] = 1.0
            add_nonneg(xi_row, 0.0, ("xi",) + prov)
            # s1 = r0 * (u + sign*xi*L^T e_col): the body -r0 [I_u | c_b]
            cone = add_soc(1 + r, ("record",) + prov, _enclosure_rows(
                head, -rec.r0, -rec.r0 * sign * L.T[:, col], xi_idx))
            cone.h[0] = -rec.offset
        else:
            raise TypeError(f"unknown record type {type(rec).__name__}")

    for triples, head, prov in norms:
        h[soc_row] = head
        add_soc(1 + r, prov, triples)

    if l:
        blocks.insert(0, ConeBlock("nonneg", G[:l], h[:l],
                                   provenance=("nonneg", tuple(nn_prov))))

    prog = ConeProgram(
        n=n,
        P=0.5 * (P_mat + P_mat.T),
        q=q_vec,
        const=const,
        A_eq=np.vstack(A_eq_rows) if A_eq_rows else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        blocks=blocks,
        G=G,
        h=h,
        meta={
            "a_slice": (0, r),
            "b_slice": (r, r + B),
            "t_index": t_idx,
            "xi_indices": xi_index,
            "factor": L,
            "pivots": S,
        },
    )
    return prog


def _enclosure_rows(head: np.ndarray, diag: float, c: np.ndarray,
                    xi: int) -> SparseRows:
    """An enclosure cone's rows as triples, without their zeros: the head
    row ``head``, then the body ``[diag I_u | c]``, ``c`` on column
    ``xi``.  Each body row has one nonzero, or two where ``c`` has one."""
    r, on_head, on_c = c.size, np.flatnonzero(head), np.flatnonzero(c)
    rows = np.concatenate([np.zeros(on_head.size, dtype=np.int64),
                           np.arange(1, r + 1), on_c + 1])
    cols = np.concatenate([on_head, np.arange(r), np.full(on_c.size, xi)])
    vals = np.concatenate([head[on_head], np.full(r, diag), c[on_c]])
    order = np.lexsort((cols, rows))
    order = order[vals[order] != 0.0]
    return SparseRows((1 + r, head.size), rows[order], cols[order],
                      vals[order])


# --------------------------------------------------------------------------
# Recovery
# --------------------------------------------------------------------------

def recover_model(prog: ConeProgram, sol: Solution, basis: list[Atom],
                  spec: ProblemSpec) -> Model:
    """Map a solver solution back to a Model over the program's pivot
    atoms ``basis[S]``, with coefficients ``a_S = L^{-T} u`` and the
    program's factor L; ``aux`` holds each enclosure record's ``"xi"``
    and, when the program has one, the epigraph's ``"t"``."""
    if sol.status not in ("optimal", "max_iter"):
        raise RuntimeError(
            f"cannot recover a model from solver status {sol.status!r}"
        )
    a_lo, a_hi = prog.meta["a_slice"]
    b_lo, b_hi = prog.meta["b_slice"]
    # The program works in whitened coordinates u = L^T a_S.
    coeffs = solve_triangular(prog.meta["factor"], sol.x[a_lo:a_hi],
                              trans=True)
    bias = sol.x[b_lo:b_hi].copy()
    aux = {"xi": {prov: float(sol.x[idx])
                  for prov, idx in prog.meta["xi_indices"].items()}}
    if prog.meta["t_index"] is not None:
        aux["t"] = float(sol.x[prog.meta["t_index"]])
    return Model(
        kernel=spec.kernel,
        basis=tuple(basis[i] for i in prog.meta["pivots"]),
        coeffs=coeffs,
        bias=bias,
        factor=prog.meta.get("factor"),
        aux=aux,
    )


def solve_problem(spec: ProblemSpec, records: list,
                  settings: SolverSettings | None = None,
                  warm: Model | None = None):
    """Collect, assemble, solve, recover.  Returns (model, solution, program).

    This is the one solve path: every experiment, the reference solve and
    the refinement loop go through it.  The program is over the basis
    Gram's pivot set S (:func:`assemble`), and the model over ``basis[S]``.
    ``warm`` starts the solver from a previous model: its coefficients on
    atoms of S are mapped into the whitened coordinates ``L^T a_S`` the
    program uses (a warm atom outside S is dropped); bias, epigraph and
    auxiliary variables start at zero.

    Raises on infeasible/unbounded status so callers never mistake a
    certificate of infeasibility for a model.  A caller that does not read
    the program should drop it (``solve_problem(...)[:2]``): it holds the
    program's rows, which would otherwise stay alive through the caller's
    next solve.  Those rows are the dense store (nonneg rows and 2x2
    anchor cones) and the triples of the enclosure and norm cones, about
    as many as their nonzeros.  The program and the model share the
    Gram's factor L in ``meta["factor"]``; the Gram itself is dropped once
    L exists.  The solver's workspace lives only as long as the solve.
    """
    basis = collect_atoms(spec, records)
    prog = assemble(spec, basis, records)
    x0 = None
    if warm is not None:
        S = prog.meta["pivots"]
        index = {basis[i].key(): k for k, i in enumerate(S)}
        a_prev = np.zeros(S.size)
        for atom, coef in zip(warm.basis, warm.coeffs):
            pos = index.get(atom.key())
            if pos is not None:
                a_prev[pos] = coef
        x0 = np.zeros(prog.n)
        x0[: a_prev.size] = prog.meta["factor"].T @ a_prev
    sol = solve(prog, settings=settings, x0=x0)
    if sol.status in ("infeasible", "unbounded"):
        raise RuntimeError(
            f"solver returned status {sol.status!r}; the tightening may be "
            "too strong for this covering (try smaller radii)"
        )
    model = recover_model(prog, sol, basis, spec)
    return model, sol, prog


# --------------------------------------------------------------------------
# Relaxation helpers
# --------------------------------------------------------------------------

def relax_records(records: list) -> list:
    """Zero-buffer copies of anchor records (the discretized relaxation
    at the same anchors)."""
    if any(isinstance(rec, InclusionRecord) for rec in records):
        raise ValueError(
            "enclosure records have no zero-buffer form; relax the "
            "underlying constraint with discretize() instead"
        )
    return [dataclasses.replace(rec, eta=0.0) for rec in records]


def solve_reference(spec: ProblemSpec, constraint: ShapeConstraint,
                    n_points: int, settings: SolverSettings | None = None,
                    constraint_index: int = 0, init: int = 64,
                    batch: int = 64, max_rounds: int = 40,
                    tol: float = 1e-9):
    """Discretized solve on a dense grid via constraint generation.

    Scalar constraints only.  Starts from a coarse subset of the grid,
    solves, adds the most violated grid points, and repeats; at
    termination the returned model is feasible on the *entire* grid, so its
    objective equals the full-grid discretized optimum.  Returns
    ``(model, value, points_used, solves)``, the last one
    :meth:`~shapekernel.conic.Solution.record` per round.
    """
    if constraint.size != 1:
        raise ValueError("reference solve supports scalar constraints only")
    if len(constraint.region) != 1:
        raise ValueError("reference solve supports 1-D regions only")
    (lo, hi), = constraint.region
    X = np.linspace(lo, hi, int(n_points)).reshape(-1, 1)
    func = constraint.operator.entries[0][0]
    gm = constraint.gamma()
    offset = constraint.offset[0]

    stride = max(len(X) // max(init, 1), 1)
    active_idx = sorted(set(range(0, len(X), stride)) | {len(X) - 1})
    model = None
    value = math.nan
    solves = []
    for _ in range(max_rounds):
        pts = [tuple(X[i]) for i in active_idx]
        records = discretize(constraint, pts,
                             constraint_index=constraint_index)
        model, sol = solve_problem(spec, records, settings=settings)[:2]
        value = sol.objective
        solves.append(sol.record())
        vals = model.apply(func, X)
        bias = model.bias[: gm.shape[1]] if gm.shape[1] else np.zeros(0)
        slack = vals + (gm[0] @ bias if gm.shape[1] else 0.0) - offset
        violated = np.where(slack < -tol)[0]
        if violated.size == 0:
            break
        worst = violated[np.argsort(slack[violated])][:batch]
        active_idx = sorted(set(active_idx) | set(int(i) for i in worst))
    return model, float(value), len(active_idx), solves


# --------------------------------------------------------------------------
# Bound report
# --------------------------------------------------------------------------

@dataclass
class BoundReport:
    v_app: float
    v_relax: float | None = None
    gap: float | None = None
    radius_f: float | None = None
    eta_inf: float | None = None
    fill_dist: float | None = None
    mu_f: float | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def compute_bounds(spec: ProblemSpec, records: list, v_app: float,
                   v_relax: float | None = None, mu_f: float | None = None,
                   grid_res: int = 33) -> BoundReport:
    """Certificate sandwich, error radius, buffer width and fill distance.

    ``v_relax`` is the value of the relaxed program, when one was solved:
    its optimum over span S, the pivot set of its own basis Gram
    (:func:`assemble`).  Restricting to span S can only raise a minimum,
    so ``v_relax`` lower-bounds the true optimum up to that restriction's
    loss, which the residual diagonal at the cut bounds.  The radius
    ``sqrt(2 gap / mu_f)`` also needs the strong-convexity modulus
    ``mu_f``.  ``eta_inf`` is the largest buffer width (enclosure
    diameter), ``fill_dist`` the largest fill distance of any constraint's
    anchors in its region, computed once for each distinct pair.
    """
    rep = BoundReport(v_app=float(v_app), mu_f=mu_f)
    if v_relax is not None:
        rep.v_relax = float(v_relax)
        rep.gap = rep.v_app - rep.v_relax
        if mu_f:
            rep.radius_f = math.sqrt(2.0 * max(rep.gap, 0.0) / mu_f)
    rep.eta_inf = max((r.width for r in records), default=None)

    by_constraint: dict = {}
    for rec in records:
        anchor = rec.atoms[0][0] if isinstance(rec, AnchorRecord) \
            else rec.normal
        if rec.provenance:
            by_constraint.setdefault(rec.provenance[0], []).append(anchor.x)
    fills = {}  # by (anchors, region), which constraints may share
    for ci, anchors in by_constraint.items():
        if ci < len(spec.constraints):
            key = (tuple(anchors), spec.constraints[ci].region)
            if key not in fills:
                fills[key] = fill_distance(anchors, key[1], grid_res)
    rep.fill_dist = max(fills.values()) if fills else None

    return rep
