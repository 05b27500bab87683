"""Host pace: how fast the CPU under a pass runs, sampled while it runs.

On the shared 2-vCPU virtual machine this benchmark was built on, the
speed of each virtual CPU drifts with the load of other tenants, by up to
1.7x, over seconds to minutes.  CPU time moves with wall time, so it is no
steadier a clock.  Raw timings of the same pass spread by that much.

``Pace`` samples the speed inside the pass process.  A real-time interval
timer interrupts the process every ``INTERVAL_S``; the handler times one
fixed block of work (``_Block``).  A sample's factor is the block's time
on the reference host over its time now.  ``Pace.report`` gives the
time-weighted mean factor up to a moment, and the time the blocks took.
The benchmark takes the wall time up to that moment, less the blocks'
time, times the factor: the time the pass would take at the reference
pace.

The factor follows the host, not the program: the block is the same on
every commit and barely depends on the program's cache state.  Over 28
rounds of cold runs of one seed on the reference host (a trial block that
compiled 6 KB of library source), the coefficient of
variation went, raw to paced, from 0.155 to 0.027 (``control`` passes),
from 0.152 to 0.024 (``catenary-soap`` passes) and from 0.181 to 0.050
(set-up runs).  Each part of the block alone did worse on at least one of
the three.  An interpreter loop, an in-cache copy, a read from main memory
and unmarshalling were tried as parts too; no mix of them did clearly
better.
"""

from __future__ import annotations

import signal
import time

#: wall time between samples
INTERVAL_S = 0.06
#: the two timings of one block on the reference host (2-vCPU x86-64 VM,
#: CPython 3.11, fast state); constants, so that paced times compare
#: across runs
REF_COMPILE_S = 0.0005
REF_SCAN_S = 0.0003
#: fixed source text the block compiles: a few branchy functions
_SOURCE = "".join(
    f"def f{i}(a, b=1, *args, **kw):\n"
    f"    x = [a * k + b for k in range({i}) if k % 3]\n"
    f"    if x and x[-1] > {i}:\n"
    f"        return {{'n': len(x), 's': sum(x) / (b or 1)}}\n"
    f"    return tuple(x)[::2], kw.get('c', args)\n"
    for i in range(5))
#: a buffer larger than a core's L2 cache, read one byte per cache line
_SCAN_BYTES = 2 << 20
_LINE = 64


class _Block:
    """Fixed work in two timed parts: compiling a fixed source text, which
    runs a large share of the interpreter's own C code the way the program
    does, and a read of one byte per cache line of a buffer that does not
    fit the L2 cache, which slows when other tenants contend for the shared
    cache.  Each part first runs once untimed, so that its time depends
    little on what the interrupted program left in the caches."""

    def __init__(self) -> None:
        self.scan = memoryview(bytearray(b"\x01") * _SCAN_BYTES)[::_LINE]

    def __call__(self) -> float:
        """The mean of the two parts' factors."""
        compile(_SOURCE, "<pace>", "exec")
        t0 = time.monotonic()
        compile(_SOURCE, "<pace>", "exec")
        t1 = time.monotonic()
        bytes(self.scan)
        t2 = time.monotonic()
        bytes(self.scan)
        t3 = time.monotonic()
        return (REF_COMPILE_S / (t1 - t0) + REF_SCAN_S / (t3 - t2)) / 2


class Pace:
    """Samples the host pace from ``start`` until ``stop``."""

    def __init__(self) -> None:
        self.t_start = 0.0
        # (start, duration, factor) of each block
        self.samples: list[tuple[float, float, float]] = []
        self._block = None
        self._busy = False

    def start(self) -> None:
        self.t_start = time.monotonic()
        self._block = _Block()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        factor = self._block()
        self.samples.append((t0, time.monotonic() - t0, factor))
        self._busy = False

    def report(self, t_end: float) -> dict:
        """``factor`` and ``blocks_s`` of the samples taken before ``t_end``.

        Each sample stands for the wall time since the one before it.
        """
        weighted = weights = blocks = 0.0
        count = 0
        last = self.t_start
        for t0, block, factor in self.samples:
            if t0 >= t_end:
                break
            weighted += (t0 - last) * factor
            weights += t0 - last
            blocks += block
            count += 1
            last = t0 + block
        if weights <= 0.0:
            return {"factor": None, "blocks_s": blocks, "samples": 0}
        return {"factor": weighted / weights, "blocks_s": blocks,
                "samples": count}
