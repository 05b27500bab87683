"""Wrappers that observe the pipeline from outside the package.

Two recorders share one wrapping mechanism:

``SolveCounter``  counting only, no clocks: wraps the two names the
                  pipeline looks the cone solver up by and records each
                  call's status, objective and iteration count.  Used in
                  the untraced passes.
``Tracer``        spans (name, start, end, parent) at every layer
                  boundary plus exact work counters; per-layer totals and
                  self times are derived from the spans after the pass.

Every wrapper is installed with ``setattr`` on the module (or class) that
callers look the function up in.  ``shapekernel.assemble`` is shadowed by
the function the package re-exports, so modules are taken from
``sys.modules``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

_MODULES = ("shapekernel.assemble", "shapekernel.soap", "shapekernel.atoms",
            "shapekernel.kernels", "shapekernel.bench.experiments")

#: (module, attribute, span name) for every traced function
TRACED = [
    ("shapekernel.assemble", "gram", "atoms.gram"),
    ("shapekernel.atoms", "gram", "atoms.gram"),
    ("shapekernel.assemble", "collect_atoms", "assemble.collect"),
    ("shapekernel.assemble", "assemble", "assemble.assemble"),
    ("shapekernel.assemble", "solve", "conic.solve"),
    ("shapekernel.assemble", "recover_model", "assemble.recover"),
    ("shapekernel.soap", "collect_atoms", "assemble.collect"),
    ("shapekernel.soap", "assemble", "assemble.assemble"),
    ("shapekernel.soap", "conic_solve", "conic.solve"),
    ("shapekernel.soap", "recover_model", "assemble.recover"),
    ("shapekernel.soap", "eta_for", "covering.eta"),
    ("shapekernel.soap", "omega_cover", "covering.omega"),
    ("shapekernel.soap", "tighten_soc", "tighten.records"),
    ("shapekernel.soap", "tighten_omega", "tighten.records"),
    ("shapekernel.bench.experiments", "eta_for", "covering.eta"),
    ("shapekernel.bench.experiments", "omega_cover", "covering.omega"),
    ("shapekernel.bench.experiments", "run_soap", "soap"),
    ("shapekernel.bench.experiments", "solve_reference",
     "assemble.reference"),
    ("shapekernel.bench.experiments", "compute_bounds", "assemble.bounds"),
    ("shapekernel.bench.experiments", "discretize", "tighten.records"),
    ("shapekernel.bench.experiments", "tighten_soc", "tighten.records"),
    ("shapekernel.bench.experiments", "tighten_omega", "tighten.records"),
    ("shapekernel.bench.experiments", "verify_pointwise", "tighten.verify"),
    ("shapekernel.bench.experiments", "emit_results", "bench.emit"),
]

#: the call sites of the cone solver, counted in every pass
SOLVE_SITES = [("shapekernel.assemble", "solve"),
               ("shapekernel.soap", "conic_solve")]

ROOT = "bench"

#: per-layer metrics reported by a traced pass, with their units
LAYER_METRICS = {
    "conic.solve.s": "s",
    "conic.solve.calls": "count",
    "conic.iterations": "count",
    "conic.s_per_iter": "s",
    "conic.status.optimal": "count",
    "conic.status.max_iter": "count",
    "conic.status.other": "count",
    "atoms.gram.s": "s",
    "atoms.gram.calls": "count",
    "atoms.gram.pairs": "count",
    "atoms.gram.atoms_max": "count",
    "atoms.gram.reused_frac": "ratio",
    "kernels.eval_partial.calls": "count",
    "kernels.eval_partial_many.rows": "count",
    "atoms.model_eval.s": "s",
    "atoms.model_eval.points": "count",
    "covering.eta.s": "s",
    "covering.eta.calls": "count",
    "covering.omega.s": "s",
    "covering.omega.calls": "count",
    "soap.self_s": "s",
    "soap.rounds": "count",
    "soap.elements": "count",
    "assemble.collect.s": "s",
    "assemble.assemble.self_s": "s",
    "assemble.recover.s": "s",
    "assemble.reference.s": "s",
    "assemble.bounds.s": "s",
    "assemble.n_max": "count",
    "assemble.soc_dim_max": "count",
    "tighten.records.s": "s",
    "tighten.records.count": "count",
    "tighten.verify.s": "s",
    "tighten.verify.points": "count",
    "bench.self_s": "s",
    "bench.emit.s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
    "gap_rel": "ratio",
}

#: per-layer metrics that come from the pass rather than from the spans
FROM_PASS = ("trace.overhead_s", "gap_rel")


def modules() -> dict:
    """The pipeline modules by dotted name (imports them if needed)."""
    return {name: importlib.import_module(name) for name in _MODULES}


def _status_key(status: str) -> str:
    return status if status in ("optimal", "max_iter") else "other"


class SolveCounter:
    """Counts solver calls, statuses and raises; reads no clock."""

    def __init__(self):
        self.solves: list = []

    def install(self) -> None:
        mods = modules()
        for mod_name, attr in SOLVE_SITES:
            mod = mods[mod_name]
            setattr(mod, attr, self.wrap(getattr(mod, attr)))

    def wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                sol = fn(*args, **kwargs)
            except Exception as err:
                self.solves.append({"status": "raised",
                                    "error": type(err).__name__})
                raise
            self.solves.append({"status": sol.status,
                                "objective": sol.objective,
                                "iterations": sol.iterations})
            return sol
        return wrapper

    def ok_count(self) -> int:
        return sum(1 for s in self.solves if s["status"] == "optimal")


class Tracer:
    """In-memory span recorder with exact work counters."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index]
        self._open: list = []      # indices of spans not yet closed
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._gram_seen: set = set()
        self.solves = SolveCounter()

    # ---------------------------------------------------------- recording
    def span(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result
        return wrapper

    def _count_method(self, fn, key: str, rows: bool):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rows:
                X = kwargs["X"] if "X" in kwargs else args[5]
                counts[key + ".rows"] += len(X) if getattr(
                    X, "ndim", 2) >= 2 else 1
            else:
                counts[key + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced name; call once, before the pass."""
        mods = modules()
        for mod_name, attr, name in TRACED:
            mod = mods[mod_name]
            target = getattr(mod, attr)
            if (mod_name, attr) in SOLVE_SITES:
                target = self.solves.wrap(target)
            setattr(mod, attr, self._wrap(target, name))
        kernels = mods["shapekernel.kernels"]
        for cls in vars(kernels).values():
            if not (isinstance(cls, type)
                    and issubclass(cls, kernels.Kernel)):
                continue
            for meth, rows in (("eval_partial", False),
                               ("eval_partial_many", True)):
                if meth in vars(cls):
                    setattr(cls, meth, self._count_method(
                        vars(cls)[meth], "kernels." + meth, rows))
        model = mods["shapekernel.atoms"].Model
        eval_many = model.eval_component_many

        def traced_eval(this, X, q=0):
            self.counts["atoms.model_eval.points"] += len(X)
            return self.span("atoms.model_eval", eval_many, this, X, q)
        model.eval_component_many = functools.wraps(eval_many)(traced_eval)

    # ------------------------------------------- per-layer work observers
    def _observe_atoms_gram(self, args, result) -> None:
        basis = args["basis"]
        size = len(basis)
        keys = [atom.key() for atom in basis]
        self.counts["atoms.gram.pairs"] += size * (size + 1) // 2
        self.counts["atoms.gram.atoms"] += size
        self.counts["atoms.gram.reused"] += sum(
            1 for key in keys if key in self._gram_seen)
        self._gram_seen.update(keys)
        self.maxima["atoms.gram.atoms_max"] = max(
            self.maxima["atoms.gram.atoms_max"], size)

    def _observe_assemble_assemble(self, args, prog) -> None:
        self.maxima["assemble.n_max"] = max(self.maxima["assemble.n_max"],
                                            prog.n)
        dims = [blk.G.shape[0] for blk in prog.blocks if blk.kind != "nonneg"]
        self.maxima["assemble.soc_dim_max"] = max(
            [self.maxima["assemble.soc_dim_max"], *dims])

    def _observe_tighten_records(self, args, records) -> None:
        self.counts["tighten.records.count"] += len(records)

    def _observe_tighten_verify(self, args, result) -> None:
        res = max(int(args["grid_res"]), 2)
        self.counts["tighten.verify.points"] += res ** len(args["c"].region)

    def _observe_soap(self, args, result) -> None:
        _, state = result
        self.counts["soap.rounds"] += len(state.history)
        self.counts["soap.elements"] += state.total_elements()

    # ------------------------------------------------------------ results
    def layer_times(self) -> tuple[dict, dict]:
        """Per-name total and self seconds derived from the spans."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            dur = end - start
            # a span nested in a span of the same name is already counted
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += dur
            if parent >= 0:
                child[parent] += dur
        own: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
        return dict(total), dict(own)

    def layer_metrics(self) -> dict:
        """Every ``LAYER_METRICS`` value except those in ``FROM_PASS``.

        ``<layer>.s`` is the layer's total span time, ``<layer>.self_s``
        its time outside every other span; the rest are counters.
        """
        total, own = self.layer_times()
        c = Counter(self.counts)
        c.update(self.maxima)
        solves = self.solves.solves
        for sol in solves:
            c["conic.status." + _status_key(sol["status"])] += 1
            c["conic.iterations"] += sol.get("iterations", 0)
        out = {}
        for key in LAYER_METRICS:
            if key.endswith(".self_s"):
                out[key] = own.get(key[:-len(".self_s")], 0.0)
            elif key.endswith(".s"):
                out[key] = total.get(key[:-len(".s")], 0.0)
            elif key not in FROM_PASS:
                out[key] = c[key]
        out["conic.s_per_iter"] = (out["conic.solve.s"] / c["conic.iterations"]
                                   if c["conic.iterations"] else 0.0)
        out["failed_frac"] = (1.0 - self.solves.ok_count() / len(solves)
                              if solves else 0.0)
        out["atoms.gram.reused_frac"] = (
            c["atoms.gram.reused"] / c["atoms.gram.atoms"]
            if c["atoms.gram.atoms"] else 0.0)
        return out

    def spans_json(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
