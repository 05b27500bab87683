"""One task runner for the experiments' independent fits.

:func:`run_tasks` computes ``[fn(*t) for t in tasks]`` with the calling
process and, where BLAS is pinned to one thread, one forked worker process
taking the tasks in turn.  The runners send through it the fits that do
not read one another's results: econ's rep x regime fits, catenary's
covering schemes, robotarm's (seed, anchor count, scheme) fits.

A run has one budget of two CPUs (:mod:`shapekernel.cpus`).  A call that
forks spends it on processes for several tasks; otherwise a task's solves
may spend it on a helper thread for their tall Newton products.
"""

from __future__ import annotations

import contextlib
import threading
import traceback
from types import SimpleNamespace

from .. import cpus


class _WorkerTraceback(Exception):
    """The formatted traceback of a task that raised in a worker process."""


def run_tasks(fn, tasks) -> list:
    """``[fn(*t) for t in tasks]``, in task order.

    The calling process claims the first task, forks
    ``min(usable CPUs, len(tasks), cpus.MAX_PROCS) - 1`` workers and runs
    tasks itself; each process takes the next task index from one shared
    counter, so no task argument is pickled.  A worker sends all its
    results through its own pipe once it runs out of tasks.  With one
    task, one usable CPU, BLAS not pinned, another thread running or no
    ``fork`` start method there are no workers: the caller runs every task
    in the same loop, in order.

    Workers are forked only with one BLAS thread per process
    (:func:`cpus.blas_pinned`): a worker inherits the caller's thread
    count, and an unpinned BLAS would give every process all the CPUs.
    The bits of a task do not depend on the number of workers or on which
    process ran it: each process uses the same BLAS threads, every worker
    starts from the caller's state at the fork, and no task may read what
    another writes.  Memory adds up: each process holds the fit it runs.
    While the call has workers, ``cpus.side_by_side`` keeps the caller's
    and the workers' solves from starting helper threads.

    Two choices come from measuring the alternatives on econ.  The caller
    takes tasks too, rather than waiting on one worker per CPU: the
    benchmark samples the host's pace in the calling process, and an idle
    caller's samples, competing with the busy workers, can read a slower
    host than the work ran on and shrink the paced wall time.  And the
    caller reads results only after it runs out of tasks: a process pool's
    caller that unpickled econ's ``both`` model during its own solve raised
    the caller's peak memory by 7-10%, against the benchmark's per-process
    bound of 10%.  That model pickled to 21 MB then; it is 10 MB since a
    model holds the Gram's factor and not the Gram.  A worker's send blocks
    until the caller reads, so the caller reads every pipe before it joins
    a worker.

    A task that raises re-raises its exception here, with a worker's
    traceback as its cause.  No worker outlives the call.
    """
    tasks = list(tasks)
    n = len(tasks)
    workers = min(cpus.usable_cpus(), n, cpus.MAX_PROCS) - 1
    if workers > 0:
        import multiprocessing  # a run that forks nothing does not load it

        # a fork copies only the calling thread, so a lock another thread
        # holds would stay held in the worker
        if not cpus.blas_pinned() or threading.active_count() > 1 or \
                "fork" not in multiprocessing.get_all_start_methods():
            workers = 0
    if workers > 0:
        ctx = multiprocessing.get_context("fork")
        counter = ctx.Value("q", 0)
        lock = counter.get_lock()
    else:
        counter, lock = SimpleNamespace(value=0), contextlib.nullcontext()

    def take() -> int:
        with lock:
            i = counter.value
            counter.value = i + 1
        return i

    def work(conn) -> None:
        done = {}
        try:
            while (i := take()) < n:
                done[i] = fn(*tasks[i])
            conn.send((done, None))  # pickles whole before it writes
        except Exception as err:
            with lock:
                counter.value = n  # no task starts after a failure
            conn.send((err, traceback.format_exc()))

    results = [None] * n
    procs, pipes = [], []
    i = take()  # claimed before the fork: the first task runs here
    outer = cpus.side_by_side
    cpus.side_by_side = outer or workers > 0  # the workers inherit it
    try:
        for _ in range(workers):
            pipe, end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=work, args=(end,), daemon=True)
            proc.start()
            end.close()  # the worker holds the one write end left
            procs.append(proc)
            pipes.append(pipe)
        while i < n:
            results[i] = fn(*tasks[i])
            i = take()
        for proc, pipe in zip(procs, pipes):
            try:
                value, trace = pipe.recv()
            except EOFError:
                proc.join()
                raise RuntimeError("a worker process ended without "
                                   f"reporting (exit code {proc.exitcode})"
                                   ) from None
            if trace is not None:
                raise value from _WorkerTraceback(trace)
            for j, result in value.items():
                results[j] = result
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        cpus.side_by_side = outer
        for proc, pipe in zip(procs, pipes):
            proc.join()
            pipe.close()
    return results
