"""The task runner behind the experiments' independent fits.

``usable_cpus`` is patched to one or two CPUs and BLAS counts as pinned,
so that these tests fork the same number of workers on any host.  Tasks
tell the calling process from a worker by its pid.
"""

import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.context import ForkProcess

import pytest

from shapekernel.bench import tasks
from shapekernel.bench.tasks import run_tasks
from shapekernel.soap import SoapInfeasible, SoapState

CALLER = os.getpid()


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(tasks, "usable_cpus", lambda: request.param)
    monkeypatch.setattr(tasks, "blas_pinned", lambda: True)
    return request.param


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(tasks, "usable_cpus", lambda: 2)
    monkeypatch.setattr(tasks, "blas_pinned", lambda: True)


class Expired(Exception):
    """Not an ``OSError``: ``multiprocessing`` swallows those from a wait."""


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
    assert not multiprocessing.active_children()


def test_first_task_runs_in_the_caller(two_cpus, deadline, monkeypatch):
    # the caller claims it before the fork, so a worker that starts first
    # still cannot take it
    start = ForkProcess.start

    def slow_start(self):
        start(self)
        time.sleep(0.3)

    monkeypatch.setattr(ForkProcess, "start", slow_start)
    out = run_tasks(_paced, [(k,) for k in range(4)])
    assert out[0][1] == CALLER
    assert any(pid != CALLER for _, pid in out)


def test_one_task_runs_in_the_caller(two_cpus):
    assert run_tasks(os.getpid, [()]) == [CALLER]
    assert run_tasks(os.getpid, []) == []
    assert not multiprocessing.active_children()


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
    monkeypatch.setattr(tasks, "usable_cpus", lambda: 8)
    monkeypatch.setattr(tasks, "blas_pinned", lambda: True)
    out = run_tasks(_paced, [(k,) for k in range(8)])
    assert len({pid for _, pid in out}) == tasks.MAX_PROCS == 2


def test_no_fork_unless_blas_is_pinned(monkeypatch):
    monkeypatch.setattr(tasks, "usable_cpus", lambda: 2)
    for var in tasks.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert tasks.blas_pinned()
    # one variable unset, or saying more than one thread, leaves BLAS free
    # to start a thread per CPU in every process
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert not tasks.blas_pinned()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert not tasks.blas_pinned()
    out = run_tasks(_paced, [(k,) for k in range(4)])
    assert {pid for _, pid in out} == {CALLER}


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
    assert not multiprocessing.active_children()


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
    assert not multiprocessing.active_children()


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
    assert not multiprocessing.active_children()


def test_soap_failure_in_a_worker_keeps_its_state(two_cpus, deadline):
    def fail(k):
        if _in_caller():
            time.sleep(0.5)
            return k
        raise SoapInfeasible(f"iterate {k} became infeasible",
                             SoapState(mode="omega", iteration=k))

    with pytest.raises(SoapInfeasible) as err:
        run_tasks(fail, [(k,) for k in range(3)])
    assert err.value.state.mode == "omega"
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
    assert not multiprocessing.active_children()


def test_unpicklable_result_is_reported(two_cpus, deadline):
    def closure(k):
        time.sleep(0.2)
        return lambda: k

    # the worker's send fails on the pickling and reports that instead
    with pytest.raises(Exception, match="pickle") as err:
        run_tasks(closure, [(k,) for k in range(3)])
    assert "send" in str(err.value.__cause__)
    assert not multiprocessing.active_children()

