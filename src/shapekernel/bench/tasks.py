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

import os
import pickle
import sys
import threading
import traceback

from .. import cpus

#: bytes of one task index in the queue pipe, and the most bytes of them
#: the caller writes before the fork: a Linux pipe holds at least a page
_INDEX_BYTES, _QUEUE_BYTES = 4, 4096


class _WorkerTraceback(Exception):
    """The formatted traceback of a task that raised in a worker process."""


def _send(fd: int, message) -> None:
    """Pickle ``message`` whole, then write it to ``fd``."""
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    with open(fd, "wb", closefd=False) as pipe:
        pipe.write(data)


def run_tasks(fn, tasks) -> list:
    """``[fn(*t) for t in tasks]``, in task order.

    The calling process claims the first task, forks
    ``min(usable CPUs, len(tasks), cpus.MAX_PROCS) - 1`` workers with
    ``os.fork`` and runs tasks itself; each process reads the next task
    index from one pipe, which the caller fills before the fork, so no
    task argument is pickled.  A worker writes all its results to a pipe
    of its own once the queue is empty.  With one task, one usable CPU,
    BLAS not pinned, another thread running, no ``os.fork`` or more than
    1,024 queued indices (the 4 KiB page a pipe surely holds) there are no
    workers: the caller runs every task in the same loop, in order.

    Workers are forked only with one BLAS thread per process
    (:func:`cpus.blas_pinned`): a worker inherits the caller's thread
    count, and an unpinned BLAS would give every process all the CPUs.
    The bits of a task do not depend on the number of workers or on which
    process ran it: each process uses the same BLAS threads, every worker
    starts from the caller's state at the fork, and no task may read what
    another writes.  Memory adds up: each process holds the fit it runs.
    While the call has workers, ``cpus.side_by_side`` keeps the caller's
    and the workers' solves from starting helper threads.

    Three choices come from measuring the alternatives on econ.  The
    caller takes tasks too, rather than waiting on one worker per CPU: the
    benchmark samples the host's pace in the calling process, and an idle
    caller's samples, competing with the busy workers, can read a slower
    host than the work ran on and shrink the paced wall time.  The caller
    reads results only after it runs out of tasks: a process pool's caller
    that unpickled econ's ``both`` model during its own solve raised the
    caller's peak memory by 7-10%, against the benchmark's per-process
    bound of 10%.  A worker's write blocks until the caller reads, so the
    caller reads every pipe before it waits for a worker.  And loading
    ``multiprocessing`` for its pipes and shared counter cost econ's
    calling process 16-20 ms and 1 MB of its peak.

    A task that raises re-raises its exception here, with a worker's
    traceback as its cause, and no task starts after it.  A worker that
    ends without reporting is reported.  No worker outlives the call.
    """
    tasks = list(tasks)
    n = len(tasks)
    workers = min(cpus.usable_cpus(), n, cpus.MAX_PROCS) - 1
    # a fork copies only the calling thread, so a lock another thread
    # holds would stay held in the worker
    if workers < 1 or not cpus.blas_pinned() or not hasattr(os, "fork") \
            or threading.active_count() > 1 \
            or (n - 1) * _INDEX_BYTES > _QUEUE_BYTES:
        return [fn(*t) for t in tasks]
    queue, end = os.pipe()
    os.write(end, b"".join(i.to_bytes(_INDEX_BYTES, "little")
                           for i in range(1, n)))  # the first runs here
    os.close(end)  # so a process reads the end of the queue once it is empty

    def take() -> int:
        index = os.read(queue, _INDEX_BYTES)
        return int.from_bytes(index, "little") if index else n

    def work(fd: int) -> None:
        done = {}
        try:
            while (i := take()) < n:
                done[i] = fn(*tasks[i])
            _send(fd, (done, None))
        except Exception as err:
            while os.read(queue, 1 << 16):  # no task starts after a failure
                pass
            _send(fd, (err, traceback.format_exc()))

    results = [None] * n
    children = {}  # each worker not yet waited for: its pipe's read end
    outer = cpus.side_by_side
    cpus.side_by_side = True  # the workers inherit it
    try:
        sys.stdout.flush()  # or a worker would write it again
        for _ in range(workers):
            pipe, fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker, which never leaves this block
                code = 1
                try:
                    work(fd)
                    sys.stdout.flush()
                    code = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(fd)  # the worker holds the one write end left
            children[pid] = pipe
        i = 0
        while i < n:
            results[i] = fn(*tasks[i])
            i = take()
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as reader:
                try:
                    value, trace = pickle.load(reader)
                except EOFError:
                    value = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if value is None:
                raise RuntimeError("a worker process ended without "
                                   f"reporting (exit code {code})")
            if trace is not None:
                raise value from _WorkerTraceback(trace)
            for j, result in value.items():
                results[j] = result
    except BaseException:
        import signal  # not at load: 1 ms of every run's start
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        cpus.side_by_side = outer
        os.close(queue)
        for pid, pipe in children.items():
            os.close(pipe)
            os.waitpid(pid, 0)
    return results
