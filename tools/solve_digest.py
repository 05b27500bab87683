"""Digest every cone solve of one experiment run, and compare two digests.

A change that claims to keep every solve's bits can be checked by running
the same experiment on the old and the new source and comparing digests.
Run from the root of a checkout, with the source to test on ``PYTHONPATH``::

    PYTHONPATH=src python3 tools/solve_digest.py --workload econ --seed 1 \\
        --out DIR
    PYTHONPATH=src python3 tools/solve_digest.py --config cfg.json \\
        [--seed N] --out DIR
    PYTHONPATH=src python3 tools/solve_digest.py --compare DIR_A DIR_B \\
        [--rtol R]
    PYTHONPATH=src python3 tools/solve_digest.py --replay DIR

``--workload`` runs a benchmark workload's config overlay
(``perfbench/workloads.py``); ``--config`` runs a config file merged over
the experiment defaults, as ``shapekernel run --config`` does.  The run is
in this process, and its outputs go to ``DIR/run``.  Unless the
environment says otherwise, BLAS is pinned to one thread, as the benchmark
pins it, so ``run_tasks`` forks its worker.

Every ``conic.solve`` call, in this process and in forked workers, appends
one line to ``DIR/solves-<pid>.txt`` when it returns: status, stop reason,
iteration count, objective as ``float.hex``, the sha256 of x, y, z and s,
its time in seconds and the process's peak resident memory so far
(``ru_maxrss``, in kB).  After the run, ``DIR/files.txt`` lists the sha256
of every CSV, every ``model_*.json`` and ``summary.json`` without its
timings, configuration and output directory, and the run prints each
process's peak at its last solve, and writes it to ``DIR/peaks.txt``: the
caller's and each forked worker's, where the benchmark's ``peak_rss_mb``
reports only the largest.

With ``--dump DIR`` a run also writes each solve's program to the next
free ``DIR/programs/NNN.npz`` (numbered from 000 in the order the solves
return, across processes): ``P``, ``q``, ``const``, ``A`` and ``b``
(the equality rows), ``h``, the cone dimensions (``soc`` flags each
block's kind, ``dims`` its rows, and blocks from ``held`` on are held as
triples), the rows as COO (``rows``, ``cols``, ``vals``: every entry of
the dense blocks that is not +0.0, then every held block's triples), the
``settings`` (``max_iter``, ``feas_tol``, ``gap_tol``,
``step_fraction``), the warm start ``x0`` (empty for none) and the
solve's ``digest`` line.  ``--replay DIR`` solves every dumped program
again, with BLAS pinned unless the environment says otherwise, prints
each whose digest line differs and exits 1 if any does.

``--compare`` reads two digests and, by default, compares their solve
lines as sorted multisets, times and memory ignored, and their file
hashes.  It prints what differs and exits 1 if anything does.  It also
prints each side's peaks next to each other, caller against caller and
worker against worker (in fork order), from ``DIR/peaks.txt``, and each
side's largest peak over all its processes, the number the benchmark's
``peak_rss_mb`` reports.  That line compares like with like even when
``run_tasks`` split the fits between the processes differently on the two
sides, which it can, since its workers race for the tasks.

With ``--rtol R`` it judges a change that moves bits.  Solves are matched
by their runner label in each side's ``summary.json``: their status and
stop reason must be equal and their objectives within ``|a - b| <= R *
max(|a|, |b|)``, and changes of iteration count and of program column
count (``n``) are printed, not judged.  A
SOAP scheme (one whose summary has a ``stop``) must keep its element
count and stop.  A file whose hash differs is read back from each side's
``run`` directory and compared value by value, the summary without its
solves and without iteration counts: JSON numbers within the same
relative rule, CSV cells within ``R`` times the largest ``|value|`` of
their column on either side (which a cell within the relative rule always
is), and text cells, JSON keys, strings and booleans exactly.  The
largest such difference of each file is printed.

A ``model_*.json`` file is judged as a function, since two bases can
hold one function and coefficients are not identifiable where the Gram
is near-singular.  On the union of the two bases (atoms deduplicated by
``Atom.key``), ``||f_a - f_b||_H`` is ``||L^{-1} G_S (c_a - c_b)||``,
with ``G_S = G[S, :]`` the union Gram's pivot rows and ``L`` their
factor, both as ``atoms.gram`` returns them, and is judged over
``max(||f_a||_H, ||f_b||_H, MODEL_FLOOR)``.  A difference of
squared norms, each from its own basis's Gram, would cancel and resolve
no relative distance below about 1e-8.  Each output component is also
evaluated on a grid of each region the experiment verifies
(``experiments.constraints_for`` on the side's ``config.json``, at most
``61^2`` points a region), and judged against its column's largest
``|value|`` on either side, as CSV cells are, floored at
``MODEL_FLOOR``.  Biases follow the JSON rule.  A comparison needs
``shapekernel`` on ``PYTHONPATH`` when a model file differs.
"""

from __future__ import annotations

import argparse
import collections
import csv
import glob
import hashlib
import itertools
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: summary keys that hold times or paths, left out of its hash
SUMMARY_VOLATILE = ("timings", "timing_table", "out_dir", "config")
#: keys and CSV columns that ``--rtol`` reports but does not judge: a
#: solve's iteration count and its program's column count
REPORTED = ("iterations", "n")
#: what a SOAP scheme's summary must keep under ``--rtol``
SOAP = ("elements", "stop")
#: the model norm (and value scale) below which ``--rtol`` judges two
#: models' difference absolutely: econ's ``both`` fits are f = 0 up to
#: rounding (norms up to 1e-11), and two of them compare equal down to
#: ``--rtol 1e-8``; the other shipped fits have norms above 1
MODEL_FLOOR = 1e-2
#: grid points per region, at most, on which two models' values are
#: compared: econ's benchmark re-check grid, 61 x 61
GRID_POINTS = 61 ** 2


def _sha(array) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array, dtype=float)
                          .tobytes()).hexdigest()


def _line(sol) -> str:
    """A solve's digest line, without its time and memory."""
    return " ".join([
        f"status={sol.status}", f"stop={sol.stop_reason}",
        f"iters={sol.iterations}", f"obj={float(sol.objective).hex()}",
        *(f"{name}={_sha(getattr(sol, attr))}" for name, attr in
          (("x", "x"), ("y", "y_eq"), ("z", "z"), ("s", "s")))])


def _wrap(solve, out: str, dump: str | None = None):
    def digest_solve(*args, **kwargs):
        t0 = time.perf_counter()
        line = "raised"
        try:
            sol = solve(*args, **kwargs)
            line = _line(sol)
            return sol
        except Exception as err:
            line = f"raised={type(err).__name__}"
            raise
        finally:
            path = os.path.join(out, f"solves-{os.getpid()}.txt")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{line} t={time.perf_counter() - t0:.6f} "
                         f"rss_kb={rss}\n")
            if dump:
                _dump(dump, line, *args, **kwargs)
    return digest_solve


def _dump(dump: str, line: str, prog, settings=None, x0=None) -> None:
    """Write one solve's program, as the module docstring describes, to
    the next free ``dump/programs/NNN.npz``."""
    import numpy as np

    from shapekernel.conic import SolverSettings
    from shapekernel.rows import SparseRows

    st = settings or SolverSettings()
    held = [isinstance(blk.G, SparseRows) for blk in prog.blocks]
    first = held.index(True) if True in held else len(held)
    dense = prog.G[: sum(blk.h.size for blk in prog.blocks[:first])]
    r, c = np.nonzero((dense != 0.0) | np.signbit(dense))
    rows, cols, vals = (np.concatenate(v) for v in zip(
        (r, c, dense[r, c]), *[(sl.start + blk.G.rows, blk.G.cols,
                                blk.G.vals) for blk, sl in
                               zip(prog.blocks[first:],
                                   prog.block_slices[first:])]))
    arrays = {
        "n": prog.n, "P": prog.P, "q": prog.q, "const": prog.const,
        "A": prog.A_eq, "b": prog.b_eq, "h": prog.h,
        "soc": [blk.kind == "soc" for blk in prog.blocks],
        "dims": [blk.h.size for blk in prog.blocks], "held": first,
        "rows": rows, "cols": cols, "vals": vals,
        "settings": [st.max_iter, st.feas_tol, st.gap_tol,
                     st.step_fraction],
        "x0": np.zeros(0) if x0 is None else x0, "digest": line}
    folder = os.path.join(dump, "programs")
    os.makedirs(folder, exist_ok=True)
    for k in itertools.count():  # claim the next free number
        try:
            fd = os.open(os.path.join(folder, f"{k:03d}.npz"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        return


def load_program(path: str) -> tuple:
    """A dumped program's ``(program, settings, x0, digest line)``."""
    import numpy as np

    from shapekernel import conic
    from shapekernel.rows import SparseRows

    d = np.load(path)
    n, rows, cols, vals = int(d["n"]), d["rows"], d["cols"], d["vals"]
    ends = np.cumsum([0, *d["dims"]]).tolist()
    blocks = []
    for j, (soc, lo, hi) in enumerate(zip(d["soc"], ends, ends[1:])):
        on = (rows >= lo) & (rows < hi)
        if j >= int(d["held"]):
            G = SparseRows((hi - lo, n), rows[on] - lo, cols[on], vals[on])
        else:
            G = np.zeros((hi - lo, n))
            G[rows[on] - lo, cols[on]] = vals[on]
        blocks.append(conic.ConeBlock("soc" if soc else "nonneg", G,
                                      d["h"][lo:hi]))
    prog = conic.ConeProgram(n=n, P=d["P"], q=d["q"],
                             const=float(d["const"]), A_eq=d["A"],
                             b_eq=d["b"], blocks=blocks)
    max_iter, *tols = d["settings"].tolist()
    settings = conic.SolverSettings(int(max_iter), *tols)
    x0 = d["x0"] if d["x0"].size else None
    return prog, settings, x0, str(d["digest"])


def replay(dump: str) -> int:
    """Solve every program dumped in ``dump`` again; 1 if any solve's
    digest line differs from the one dumped with it."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from shapekernel import conic

    paths = sorted(glob.glob(os.path.join(dump, "programs", "*.npz")))
    differ = 0
    for path in paths:
        prog, settings, x0, line = load_program(path)
        got = _line(conic.solve(prog, settings, x0))
        if got != line:
            differ += 1
            print(f"{os.path.basename(path)}: {line} -> {got}")
    print(f"{len(paths) - differ} of {len(paths)} programs replay "
          "identically")
    return 1 if differ else 0


def _install(out: str, dump: str | None = None) -> None:
    """Route every module-level name bound to ``conic.solve`` through the
    digest wrapper; forked workers inherit it."""
    from shapekernel import conic

    solve = conic.solve
    wrapped = _wrap(solve, out, dump)
    for name, module in list(sys.modules.items()):
        if name == "shapekernel" or name.startswith("shapekernel."):
            for attr, value in list(vars(module).items()):
                if value is solve:
                    setattr(module, attr, wrapped)


def _file_hashes(run_dir: str) -> list[str]:
    lines = []
    for path in sorted(glob.glob(os.path.join(run_dir, "*"))):
        name = os.path.basename(path)
        if name == "summary.json":
            with open(path, encoding="utf-8") as fh:
                summary = json.load(fh)
            for key in SUMMARY_VOLATILE:
                summary.pop(key, None)
            data = json.dumps(summary, sort_keys=True).encode()
        elif name.endswith(".csv") or (name.startswith("model_")
                                       and name.endswith(".json")):
            with open(path, "rb") as fh:
                data = fh.read()
        else:
            continue
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return lines


def run(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.workload:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import workloads

        overlay = workloads.overlay(args.workload, args.seed, "")
    else:
        with open(args.config, encoding="utf-8") as fh:
            overlay = json.load(fh)
        if args.seed is not None:
            overlay["seed"] = args.seed
    out = os.path.abspath(args.out)
    if glob.glob(os.path.join(out, "solves-*.txt")):
        raise SystemExit(f"{out} already holds a digest")
    overlay["out_dir"] = os.path.join(out, "run")
    os.makedirs(out, exist_ok=True)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(overlay, fh, indent=2, sort_keys=True)

    from shapekernel.bench.config import ExperimentConfig
    from shapekernel.bench.experiments import run_experiment

    _install(out, args.dump and os.path.abspath(args.dump))
    run_experiment(ExperimentConfig.load(config_path))
    with open(os.path.join(out, "files.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in _file_hashes(overlay["out_dir"]))
    solves = sum(_read_solves(out).values())
    print(f"{solves} solves digested in {out}")
    with open(os.path.join(out, "peaks.txt"), "w", encoding="utf-8") as fh:
        for pid, (count, rss) in sorted(_peaks(out).items()):
            who = "caller" if pid == os.getpid() else "worker"
            fh.write(f"{who} {pid} {rss}\n")
            print(f"{who} {pid}: {count} solves, peak RSS {rss / 1024:.1f} "
                  "MB")
    return 0


def _read_solves(out: str) -> collections.Counter:
    lines = collections.Counter()
    for path in glob.glob(os.path.join(out, "solves-*.txt")):
        with open(path, encoding="utf-8") as fh:
            lines.update(line.rsplit(" t=", 1)[0] for line in fh)
    return lines


def _peaks(out: str) -> dict:
    """``{pid: (solves, ru_maxrss in kB at the last one)}``."""
    peaks = {}
    for path in glob.glob(os.path.join(out, "solves-*.txt")):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        pid = int(os.path.basename(path)[len("solves-"):-len(".txt")])
        peaks[pid] = (len(lines), int(lines[-1].rsplit(" rss_kb=", 1)[1]))
    return peaks


def _read_files(out: str) -> dict:
    with open(os.path.join(out, "files.txt"), encoding="utf-8") as fh:
        return {name: digest for digest, name in
                (line.rstrip("\n").split("  ", 1) for line in fh)}


def _load(path: str):
    """A run's output as values: CSV rows of cells, or the JSON document
    (``summary.json`` without the keys its hash leaves out, and without
    its solves, which ``--rtol`` judges by label)."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".csv"):
            return list(csv.reader(fh))
        data = json.load(fh)
    if os.path.basename(path) == "summary.json":
        for key in (*SUMMARY_VOLATILE, "solves"):
            data.pop(key, None)
    return data


def _number(value):
    """``value`` as a float if it is a JSON number or a numeric CSV cell,
    else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _diff(a, b, scale=None) -> float:
    """``|a - b|`` over ``scale`` (default: the larger of the two) for two
    numbers, 0.0 for equal values, inf where a text value differs."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if a == b and type(a) is type(b) else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y)) if scale is None else scale
    if not (math.isfinite(x) and math.isfinite(y) and scale):
        return math.inf
    return abs(x - y) / scale


def _rel_diff(a, b) -> float:
    """The largest relative difference of two loaded JSON documents, or
    inf where their structure, a text value or a key differs.  Iteration
    counts are left out: they are reported with the solves."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_rel_diff(a[k], b[k]) for k in a
                    if k not in REPORTED), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max(map(_rel_diff, a, b), default=0.0)
    return _diff(a, b)


def _csv_diff(a: list, b: list) -> float:
    """The largest difference of two CSV tables' cells, each over the
    largest ``|value|`` in its column on either side, or inf where their
    shape or a text cell differs.  Columns named in ``REPORTED`` are left
    out."""
    if [len(row) for row in a] != [len(row) for row in b]:
        return math.inf
    scale = collections.defaultdict(float)
    for row in a + b:
        for j, cell in enumerate(row):
            x = _number(cell)
            if x is not None and math.isfinite(x):
                scale[j] = max(scale[j], abs(x))
    skip = {j for j, name in enumerate(a[0] if a else [])
            if name in REPORTED}
    return max((_diff(x, y, scale[j]) for ra, rb in zip(a, b)
                for j, (x, y) in enumerate(zip(ra, rb)) if j not in skip),
               default=0.0)


def _regions(side: str) -> list:
    """The distinct regions the side's experiment verifies its models on,
    or none without a ``config.json``."""
    path = os.path.join(side, "config.json")
    if not os.path.exists(path):
        return []
    from shapekernel.bench.config import ExperimentConfig
    from shapekernel.bench.experiments import constraints_for

    regions = [tuple(map(tuple, c.region)) for _, c in
               constraints_for(ExperimentConfig.load(path))]
    return list(dict.fromkeys(regions))


def _grid(region):
    """At most :data:`GRID_POINTS` points, evenly spaced on each axis."""
    import numpy as np

    res = max(r for r in range(2, GRID_POINTS + 1)
              if r ** len(region) <= GRID_POINTS)
    axes = [np.linspace(lo, hi, res) for lo, hi in region]
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(
        -1, len(region))


def _model_diff(a: str, b: str, regions: list) -> tuple:
    """``(function, values, bias)``: two saved models' differences, as the
    module docstring defines them; inf where their kernels differ."""
    import numpy as np

    from shapekernel.atoms import DiffFunctional, Model, gram
    from shapekernel.conic import solve_triangular
    from shapekernel.kernels import kernel_from_config

    docs = []
    for path in (a, b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    if docs[0]["kernel_fingerprint"] != docs[1]["kernel_fingerprint"]:
        return math.inf, math.inf, math.inf
    kernel = kernel_from_config(docs[0]["kernel"])
    models = [Model.from_json(doc, kernel) for doc in docs]
    union: dict = {}  # key -> (column, atom)
    cols = [[union.setdefault(atom.key(), (len(union), atom))[0]
             for atom in m.basis] for m in models]
    C = np.zeros((len(union), 3))
    for j, (col, m) in enumerate(zip(cols, models)):
        np.add.at(C[:, j], col, m.coeffs)
    C[:, 2] = C[:, 0] - C[:, 1]
    G_S, L, _, _ = gram([atom for _, atom in union.values()], kernel)
    norms = np.linalg.norm(solve_triangular(L, G_S @ C), axis=0)
    function = norms[2] / max(norms[0], norms[1], MODEL_FLOOR)
    values = 0.0
    for region in regions:
        X = _grid(region)
        for q in range(kernel.out_dim):
            func = DiffFunctional.value(kernel.dim, q)
            va, vb = (m.apply(func, X) for m in models)
            if not (np.isfinite(va).all() and np.isfinite(vb).all()):
                return function, math.inf, math.inf
            scale = max(np.abs(va).max(), np.abs(vb).max(), MODEL_FLOOR)
            values = max(values, float(np.abs(va - vb).max()) / scale)
    return function, values, _rel_diff(docs[0]["bias"], docs[1]["bias"])


def _summary(side: str) -> dict:
    with open(os.path.join(side, "run", "summary.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _compare_solves(a: str, b: str, rtol: float) -> bool:
    """Match the two sides' solves by label and their SOAP schemes by
    name; print what differs.  True if anything fails the tolerance."""
    (sa, sb), differ = (_summary(a), _summary(b)), False
    solves = [collections.defaultdict(list) for _ in (a, b)]
    for summary, by_label in zip((sa, sb), solves):
        for solve in summary.get("solves", []):
            by_label[solve["label"]].append(solve)
    for label in sorted(set(solves[0]) | set(solves[1])):
        counts = [len(by_label[label]) for by_label in solves]
        if counts[0] != counts[1]:
            differ = True
            print(f"solve {label!r}: {counts[0]} -> {counts[1]} solves")
        for x, y in zip(*(by_label[label] for by_label in solves)):
            changed = [k for k in ("status", "stop_reason") if x[k] != y[k]]
            rel = _diff(x["objective"], y["objective"])
            if changed or not rel <= rtol:
                differ = True
                print(f"solve {label!r}: " + ", ".join(
                    [f"{k} {x[k]} -> {y[k]}" for k in changed]
                    + [f"objective relative difference {rel:.3g}"]))
            for key in REPORTED:
                if x.get(key) != y.get(key):
                    print(f"solve {label!r}: {key} {x.get(key)} -> "
                          f"{y.get(key)}")
    for name, scheme in sorted(sa.get("schemes", {}).items()):
        other = sb.get("schemes", {}).get(name, {})
        if "stop" in scheme and [scheme.get(k) for k in SOAP] != \
                [other.get(k) for k in SOAP]:
            differ = True
            print(f"SOAP {name}: " + " -> ".join(
                f"{s.get('elements')} elements, stop {s.get('stop')!r}"
                for s in (scheme, other)))
    return differ


def _roles(out: str) -> dict:
    """``{role: peak MB}`` from a digest's ``peaks.txt`` (empty without
    one): ``caller``, then ``worker 1``, ``worker 2`` ... in pid order."""
    path = os.path.join(out, "peaks.txt")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh]
    workers = sorted(int(pid) for role, pid, _ in rows if role == "worker")
    return {role if role == "caller" else
            f"worker {workers.index(int(pid)) + 1}": int(kb) / 1024
            for role, pid, kb in rows}


def compare(a: str, b: str, rtol: float | None = None) -> int:
    solves = {side: _read_solves(side) for side in (a, b)}
    files = {side: _read_files(side) for side in (a, b)}
    differ, close = False, []
    if rtol is None:
        for side, other in ((a, b), (b, a)):
            for line, count in sorted((solves[side] - solves[other])
                                      .items()):
                differ = True
                print(f"solve only in {side} (x{count}): {line}")
    else:
        differ = _compare_solves(a, b, rtol)
    for name in sorted(set(files[a]) | set(files[b])):
        if files[a].get(name) == files[b].get(name):
            continue
        if rtol is None or name not in files[a] or name not in files[b]:
            differ = True
            print(f"file differs: {name}")
            continue
        paths = [os.path.join(side, "run", name) for side in (a, b)]
        close.append(name)
        if name.startswith("model_") and name.endswith(".json"):
            function, values, bias = _model_diff(*paths, _regions(a))
            differ = differ or not max(function, values, bias) <= rtol
            print(f"file {name}: function difference {function:.3g}, "
                  f"grid values {values:.3g}, bias {bias:.3g}")
            continue
        loaded = [_load(path) for path in paths]
        rel = (_csv_diff if name.endswith(".csv") else _rel_diff)(*loaded)
        differ = differ or not rel <= rtol
        print(f"file {name}: largest relative difference {rel:.3g}")
    peaks = [_roles(side) for side in (a, b)]
    for role in sorted(set(peaks[0]) | set(peaks[1])):
        print(f"peak RSS {role}: " + " -> ".join(
            f"{p[role]:.1f} MB" if role in p else "-" for p in peaks))
    if any(peaks):
        print("peak RSS largest: " + " -> ".join(
            f"{max(p.values()):.1f} MB" if p else "-" for p in peaks))
    if not differ:
        print(f"identical: {sum(solves[a].values())} solves, "
              f"{len(files[a]) - len(close)} files"
              + (f"; {len(close)} within rtol {rtol:g}" if close else ""))
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="benchmark workload name")
    source.add_argument("--config", help="experiment config JSON file")
    source.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest directories")
    source.add_argument("--replay", metavar="DIR",
                        help="solve the programs a run dumped to DIR "
                        "again and compare their digest lines")
    parser.add_argument("--rtol", type=float,
                        help="with --compare: match solves by label and "
                        "compare differing files value by value within "
                        "this relative tolerance")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out", help="digest directory to write")
    parser.add_argument("--dump", metavar="DIR",
                        help="with a run: write each solve's program to "
                        "DIR/programs/NNN.npz")
    args = parser.parse_args(argv)
    if args.rtol is not None and not (args.compare and args.rtol >= 0):
        parser.error("--rtol needs --compare and a value of at least 0")
    if args.dump and (args.compare or args.replay):
        parser.error("--dump goes with a run")
    if args.compare:
        return compare(*args.compare, rtol=args.rtol)
    if args.replay:
        return replay(args.replay)
    if args.out is None or (args.workload and args.seed is None):
        parser.error("a run needs --out, and a workload also --seed")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
