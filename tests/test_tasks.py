"""The task runner behind the experiments' independent fits, and the
helper thread of tall Newton products that shares its CPU budget.

``usable_cpus`` of :mod:`shapekernel.cpus` is patched to one or two CPUs
and BLAS counts as pinned, so that these tests fork the same number of
workers, and start the same helpers, on any host.  Tasks tell the calling
process from a worker by its pid.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from shapekernel import conic
from shapekernel import cpus as budget
from shapekernel.bench import tasks
from shapekernel.bench.tasks import run_tasks
from shapekernel.soap import SoapInfeasible, SoapState

CALLER = os.getpid()


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(budget, "usable_cpus", lambda: request.param)
    monkeypatch.setattr(budget, "blas_pinned", lambda: True)
    return request.param


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(budget, "usable_cpus", lambda: 2)
    monkeypatch.setattr(budget, "blas_pinned", lambda: True)


class Expired(Exception):
    """Raised by the alarm of a test that hangs."""


@pytest.fixture
def deadline():
    """Fail a test that hangs (a deadlocked join) instead of stalling the
    suite."""
    def expire(*_):
        raise Expired("run_tasks did not return")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _in_caller() -> bool:
    return os.getpid() == CALLER


def _no_child_left() -> bool:
    """Whether this process has no child, running or ended and not waited
    for: no worker outlived its call."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _paced(k):
    time.sleep(0.05)
    return k, os.getpid()


def test_results_come_back_in_task_order(cpus, deadline):
    out = run_tasks(_paced, [(k,) for k in range(8)])
    assert [k for k, _ in out] == list(range(8))
    pids = {pid for _, pid in out}
    # the caller runs the first task and others, next to one worker per
    # further CPU
    assert out[0][1] == CALLER
    assert len(pids) == cpus
    assert _no_child_left()


def test_every_task_runs_once_under_contention(monkeypatch, deadline,
                                               tmp_path):
    # four processes on any host take 400 short tasks from one queue: an
    # index read twice or lost would run a task twice or never
    monkeypatch.setattr(budget, "usable_cpus", lambda: 4)
    monkeypatch.setattr(budget, "MAX_PROCS", 4)
    monkeypatch.setattr(budget, "blas_pinned", lambda: True)
    log = tmp_path / "ran.txt"

    def note(k):
        with open(log, "a") as fh:  # one short append per task
            fh.write(f"{k}\n")
        return k, os.getpid()

    out = run_tasks(note, [(k,) for k in range(400)])
    assert [k for k, _ in out] == list(range(400))
    assert sorted(map(int, log.read_text().split())) == list(range(400))
    assert len({pid for _, pid in out}) > 1
    assert _no_child_left()


def test_first_task_runs_in_the_caller(two_cpus, deadline, monkeypatch):
    # the caller claims it before the fork, so a worker that starts first
    # still cannot take it
    fork = os.fork

    def slow_fork():
        pid = fork()
        if pid:
            time.sleep(0.3)
        return pid

    monkeypatch.setattr(os, "fork", slow_fork)
    out = run_tasks(_paced, [(k,) for k in range(4)])
    assert out[0][1] == CALLER
    assert any(pid != CALLER for _, pid in out)


def test_one_task_runs_in_the_caller(two_cpus):
    assert run_tasks(os.getpid, [()]) == [CALLER]
    assert run_tasks(os.getpid, []) == []
    assert _no_child_left()


def test_no_fork_while_another_thread_runs(two_cpus):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        out = run_tasks(_paced, [(k,) for k in range(4)])
    finally:
        release.set()
        thread.join(timeout=10)
    assert [k for k, _ in out] == list(range(4))
    assert {pid for _, pid in out} == {CALLER}
    assert not thread.is_alive()


def test_no_more_processes_than_measured(monkeypatch, deadline):
    monkeypatch.setattr(budget, "usable_cpus", lambda: 8)
    monkeypatch.setattr(budget, "blas_pinned", lambda: True)
    out = run_tasks(_paced, [(k,) for k in range(8)])
    assert len({pid for _, pid in out}) == budget.MAX_PROCS == 2


def test_no_fork_unless_blas_is_pinned(monkeypatch):
    monkeypatch.setattr(budget, "usable_cpus", lambda: 2)
    for var in budget.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert budget.blas_pinned()
    # one variable unset, or saying more than one thread, leaves BLAS free
    # to start a thread per CPU in every process
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert not budget.blas_pinned()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert not budget.blas_pinned()
    out = run_tasks(_paced, [(k,) for k in range(4)])
    assert {pid for _, pid in out} == {CALLER}


def test_no_fork_when_the_queue_may_not_fit_its_pipe(two_cpus, deadline,
                                                    monkeypatch):
    # the caller writes every task index but the first before the fork, so
    # a queue that filled its pipe would block the caller
    monkeypatch.setattr(tasks, "_QUEUE_BYTES", 8)
    out = run_tasks(_paced, [(k,) for k in range(4)])
    assert [k for k, _ in out] == list(range(4))
    assert {pid for _, pid in out} == {CALLER}
    assert len({pid for _, pid in run_tasks(_paced, [(k,) for k in range(3)])
                }) == 2


def test_results_larger_than_a_pipe_buffer_come_back(two_cpus, deadline):
    # a worker blocks in its send until the caller reads, so joining it
    # before reading its pipe would never return
    def big(k):
        time.sleep(0.1)
        return os.getpid(), bytes([k]) * 300_000

    out = run_tasks(big, [(k,) for k in range(4)])
    assert [payload for _, payload in out] == \
        [bytes([k]) * 300_000 for k in range(4)]
    assert any(pid != CALLER for pid, _ in out)
    assert _no_child_left()


def test_task_raising_in_a_worker_reraises_its_type(two_cpus, deadline):
    def fail_in_worker(k):
        if not _in_caller():
            raise KeyError(k)
        time.sleep(0.5)
        return k

    with pytest.raises(KeyError) as err:
        run_tasks(fail_in_worker, [(k,) for k in range(4)])
    # the worker's traceback comes along as the cause
    assert "fail_in_worker" in str(err.value.__cause__)
    assert _no_child_left()


def test_no_task_starts_after_a_worker_failure(two_cpus, deadline):
    ran = []

    def fail_in_worker(k):
        if not _in_caller():
            raise KeyError(k)
        ran.append(k)
        time.sleep(0.5)
        return k

    with pytest.raises(KeyError):
        run_tasks(fail_in_worker, [(k,) for k in range(6)])
    # the caller finished the task it held, and took no other
    assert ran == [0]


def test_task_raising_in_the_caller_stops_the_workers(two_cpus, deadline):
    def fail_in_caller(k):
        if _in_caller():
            raise ValueError(k)
        time.sleep(30)
        return k

    t0 = time.monotonic()
    with pytest.raises(ValueError):
        run_tasks(fail_in_caller, [(k,) for k in range(2)])
    assert time.monotonic() - t0 < 20
    assert _no_child_left()


def test_soap_failure_in_a_worker_keeps_its_state(two_cpus, deadline):
    def fail(k):
        if _in_caller():
            time.sleep(0.5)
            return k
        raise SoapInfeasible(f"iterate {k} became infeasible",
                             SoapState(mode="hyp", iteration=k))

    with pytest.raises(SoapInfeasible) as err:
        run_tasks(fail, [(k,) for k in range(3)])
    assert err.value.state.mode == "hyp"
    assert str(err.value) == f"iterate {err.value.state.iteration} " \
        "became infeasible"


def test_worker_that_dies_is_reported(two_cpus, deadline):
    def die_in_worker(k):
        if not _in_caller():
            os._exit(3)
        time.sleep(0.5)
        return k

    with pytest.raises(RuntimeError, match="without reporting"):
        run_tasks(die_in_worker, [(k,) for k in range(3)])
    assert _no_child_left()


def test_unpicklable_result_is_reported(two_cpus, deadline):
    def closure(k):
        time.sleep(0.2)
        return lambda: k

    # the worker's send fails on the pickling and reports that instead
    with pytest.raises(Exception, match="pickle") as err:
        run_tasks(closure, [(k,) for k in range(3)])
    assert "send" in str(err.value.__cause__)
    assert _no_child_left()



# --------------------------------------------------------------------------
# The helper thread of tall Newton products
# --------------------------------------------------------------------------

def _tall_program(seed=0):
    """n = 64 with 8 n + 8 rows: a helper can form half of each Newton
    product."""
    n, l = 64, 8 * 64 + 8
    rng = np.random.default_rng(seed)
    rows = conic.ConeBlock("nonneg", rng.normal(size=(l, n)) / np.sqrt(n),
                           np.ones(l))
    return conic.ConeProgram(n=n, P=np.eye(n), q=rng.normal(size=n),
                             blocks=[rows])


@pytest.fixture
def threads(monkeypatch):
    """The threads each Newton product in this process ran on."""
    seen = []
    apply = conic._Scaling.apply_w2inv_mat

    def spy(self, M, blocks=None, out=None, nonneg=None):
        if M.shape[1] > 1:  # a Newton product, not a Newton step's vector
            seen.append(threading.get_ident())
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.005)  # time for a helper to start
        return apply(self, M, blocks, out=out, nonneg=nonneg)

    monkeypatch.setattr(conic._Scaling, "apply_w2inv_mat", spy)
    return seen


def test_helper_threads_end_with_their_solve(two_cpus, threads, deadline):
    before = threading.active_count()
    sol = conic.solve(_tall_program())
    assert sol.status == "optimal"
    assert set(threads) - {threading.get_ident()}  # a helper ran
    assert threading.active_count() == before
    # so run_tasks still forks after it
    out = run_tasks(_paced, [(k,) for k in range(4)])
    assert len({pid for _, pid in out}) == 2


def _solve_tall(k, threads):
    time.sleep(0.2)
    threads.clear()
    sol = conic.solve(_tall_program(k))
    return (os.getpid(), sol.status, budget.side_by_side,
            set(threads) == {threading.get_ident()})


def test_no_helper_while_tasks_run_side_by_side(two_cpus, threads,
                                                deadline):
    out = run_tasks(_solve_tall, [(k, threads) for k in range(4)])
    assert len({pid for pid, *_ in out}) == 2
    # in the caller and in the worker, every product ran on the task's
    # own thread
    assert [result[1:] for result in out] == [("optimal", True, True)] * 4
    assert not budget.side_by_side
    # a run that forks nothing leaves the CPU to the helper
    assert _solve_tall(0, threads) == (CALLER, "optimal", False, False)


def test_helper_failure_reaches_the_caller(two_cpus, monkeypatch):
    apply = conic._Scaling.apply_w2inv_mat

    def fail_off_main(self, M, blocks=None, out=None, nonneg=None):
        if threading.current_thread() is not threading.main_thread():
            raise ZeroDivisionError("in the helper")
        return apply(self, M, blocks, out=out, nonneg=nonneg)

    monkeypatch.setattr(conic._Scaling, "apply_w2inv_mat", fail_off_main)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="in the helper"):
        conic.solve(_tall_program())
    assert threading.active_count() == before
