"""Host-speed normalization of measured times.

The benchmark's reference host is a shared 2-core VM whose speed drifts:
identical work takes 25-35% longer in some stretches than in others, for
tens of seconds at a time, and the process's CPU time drifts with its
wall time, so this is not scheduling.  A raw time on such a host mostly
measures the neighbours.

:class:`HostSpeed` samples the host's speed while the benchmark runs: a
SIGALRM timer interrupts the process every ``interval_s`` and times a
fixed calibration routine that uses none of the program's code.  A
measured region is then reported as

    normalized seconds = raw seconds * REFERENCE_S / median(nearby samples)

where ``raw seconds`` excludes the samples taken inside the region and
``REFERENCE_S`` is the routine's median duration on the reference host.
A change to the program moves the region's time but not the routine's,
so it shows in full; a slow stretch of the host moves both and cancels.
README.md gives the test of the first half: planted CPU-bound and
memory-bound slowdowns read the same normalized as raw.

The routine is half interpreter work that stays in the core's own
caches (small dicts with string keys, a sort, a hash) and half reads at
pseudo-random offsets of a 24 MiB buffer, which wait on the shared cache
and memory the way the program's large heaps do.  On the reference host
the first kind alone followed the program's slowdowns too little and the
second alone too much.  The buffer is resident for the whole run;
``BUFFER_BYTES`` is what the benchmark subtracts from the peak resident
set it reports.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import time

# Median duration of one calibration routine on the reference host
# (2-core VM, Python 3.11).
REFERENCE_S = 0.0030

# Samples this close to a region (seconds) decide its speed factor, so
# that regions shorter than the sampling interval still get one.
WINDOW_S = 1.0

BUFFER_BYTES = 24 * 1024 * 1024
READS = 3000


def make_buffer() -> bytearray:
    """A resident buffer, filled a chunk at a time so that no second copy
    of it ever exists."""
    buffer = bytearray(BUFFER_BYTES)
    chunk = bytes(range(256)) * 4096
    for offset in range(0, BUFFER_BYTES, len(chunk)):
        buffer[offset : offset + len(chunk)] = chunk
    return buffer


def calibration_routine(buffer: bytearray) -> int:
    """About 3 ms on the reference host: interpreter work, then reads at
    pseudo-random offsets of ``buffer``."""
    table = {}
    for i in range(400):
        table["k%d" % i] = (i * 7919) % 1009
    rows = [{"k": "v%d" % i, "n": i} for i in range(600)]
    ordered = sorted(table.items(), key=lambda item: item[1])
    total = len(hashlib.sha256(repr((ordered, rows)).encode()).digest())
    size = len(buffer)
    x = 12345
    for _ in range(READS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += buffer[x % size]
    return total


class HostSpeed:
    """Context manager sampling host speed; see the module docstring."""

    def __init__(self, interval_s: float = 0.2, on_sample=None):
        self.interval_s = interval_s
        # Called with each sample's duration, so a layer tracer can keep
        # the sampler's time out of the span it interrupted.
        self.on_sample = on_sample
        self.samples: list = []  # (start, duration) in perf_counter seconds
        self._previous = None
        self._buffer = None

    def _tick(self, signum, frame) -> None:
        # The routine's allocations must not trigger a collection of the
        # program's heap: that would time the program, not the host.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_routine(self._buffer)
            duration = time.perf_counter() - start
            self.samples.append((start, duration))
            if self.on_sample is not None:
                self.on_sample(duration)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "HostSpeed":
        self._buffer = make_buffer()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._buffer = None

    def region(self, start: float, end: float) -> tuple:
        """(raw seconds, normalized seconds) of ``[start, end)``."""
        raw = end - start
        near = []
        for at, duration in self.samples:
            if start <= at < end:
                raw -= duration
            if start - WINDOW_S <= at < end + WINDOW_S:
                near.append(duration)
        if not near:
            return raw, raw
        return raw, raw * REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples) if self.samples else 0.0
