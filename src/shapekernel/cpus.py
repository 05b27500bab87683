"""One run's CPU budget: :data:`MAX_PROCS` CPUs, spent either on processes
that run independent fits side by side (``bench.tasks.run_tasks``) or on a
helper thread inside one fit's tall Newton products (``conic``)."""

import os

#: the most CPUs one run keeps busy.  Time and memory were measured with
#: two processes of one BLAS thread each and with one process of two
#: threads, never more: each further process would hold one more fit.
#: In one process with BLAS pinned, econ's whole default config (21 fits,
#: each over its Gram's pivot rows) peaks at 49 MB, and the process that
#: runs robotarm's m = 81 ``hyp`` fit (full rank, so over every atom) at
#: 99 MB, its enclosure cones held as triples where their dense rows took
#: 559 MB (``tools/defaults.py``).
MAX_PROCS = 2
#: BLAS counts as pinned when each of these says one thread
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: true while ``run_tasks`` runs tasks in several processes, in its caller
#: and in the workers it forked
side_by_side = False


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def blas_pinned() -> bool:
    """Whether every BLAS thread variable is 1, as the benchmark sets."""
    return all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)


def spare_cpu() -> bool:
    """Whether a solve may run a helper thread next to itself."""
    return not side_by_side and blas_pinned() and usable_cpus() >= 2
