"""Machine speed reference for the benchmark's timings.

On a machine whose cores are shared with other tenants, their load changes
the speed of pure-Python code by up to 40 % over stretches of tens of
seconds to hours. Process CPU time drifts with it (the cycles are slower,
not stolen), so no run length averages the drift out between runs made half
an hour apart.

The benchmark therefore times a fixed pure-Python kernel next to the ops,
and inside the long ones. It is written in the style of the library
(sparse exponent-tuple polynomials, tuple-of-int words, byte-string
comparison, text rendering) but calls none of it, so a change to the
library cannot move it. Every reported time is scaled by
``REFERENCE_MS / kernel time``: the time the work would take on a machine
that runs the kernel in ``REFERENCE_MS``. Ops that run another Python
process are scaled by the start time of a bare interpreter instead
(``StartScaler``). The wall-clock times are printed next to the result.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import subprocess
import sys
import time

# About the kernel's mean time on a shared 2-vCPU x86-64 machine under
# CPython 3.11, where other tenants' load varied it from 1.2 to 3.1 ms.
REFERENCE_MS = 2.0
# Seconds between two kernel timings.
EVERY_S = 0.05
REPEATS = 5


class Slot:
    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[int, ...]) -> None:
        self.symbols = symbols

    def __lt__(self, other: "Slot") -> bool:
        return (len(self.symbols), self.symbols) < (len(other.symbols), other.symbols)


def kernel() -> int:
    a = {(i % 5, i % 7, i % 3): i - 20 for i in range(30)}
    b = {(i % 4, i % 6, i % 5): 3 - i for i in range(30)}
    prod: dict[tuple[int, int, int], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            prod[e] = prod.get(e, 0) + ca * cb
    words = sorted(Slot(tuple((i * j) % 3 for j in range(i % 9))) for i in range(200))
    images = [bytes(w.symbols) for w in words]
    equal = sum(1 for x, y in zip(images, images[1:]) if x + y == y + x)
    text = "\n".join(f"{k} {v}" for k, v in sorted(prod.items()) if v)
    return equal + len(text)


def kernel_ms() -> float:
    """Mean time of a few kernel runs, in milliseconds. The garbage
    collector is held off meanwhile, so that the ops' leftover objects do
    not add a collection to the kernel's time, and an untimed first run
    takes the page faults of memory the ops have just given back."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return 1000 * statistics.fmean(times)


class Scaler:
    """Scales op times to the reference speed of the kernel.

    While it is active (``with Scaler() as scaler:``), an interval timer
    times the kernel every ``EVERY_S`` seconds of wall time, from a signal
    handler, so also in the middle of an op. The machine's speed changes
    from one second to the next, and an op of several seconds runs through
    several speeds; the timings taken during an op follow them, where
    timings before and after it would not. ``scale`` takes the wall-clock
    interval of every op, subtracts the kernel time that fell into it, and
    scales what is left by the mean of the kernel timings during the op and
    the one on each side of it.
    """

    REFERENCE_MS = REFERENCE_MS

    def __init__(self) -> None:
        # (start, end, kernel ms) of every kernel timing, in time order
        self.samples: list[tuple[float, float, float]] = []

    def __enter__(self) -> "Scaler":
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        ms = kernel_ms()
        self.samples.append((start, time.perf_counter(), ms))

    def after_op(self) -> None:
        pass

    def kernel(self) -> list[float]:
        return [ms for _, _, ms in self.samples]

    def scale(self, intervals: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """The op times of the wall-clock ``intervals`` without the kernel
        timings in them: scaled to the reference speed, and unscaled."""
        starts = [start for start, _, _ in self.samples]
        scaled, net = [], []
        for t0, t1 in intervals:
            lo = max(bisect.bisect_right(starts, t0) - 1, 0)
            hi = bisect.bisect_left(starts, t1)
            near = self.samples[lo : hi + 1]
            seconds = t1 - t0 - sum(max(0.0, min(t1, e) - max(t0, s)) for s, e, _ in near)
            net.append(seconds)
            scaled.append(seconds * self.REFERENCE_MS / statistics.fmean(ms for _, _, ms in near))
        return scaled, net


class StartScaler(Scaler):
    """Scales the times of ops that each run a Python process.

    The kernel, timed in this process, does not follow the speed at which
    another process starts, imports and runs. What does is the start of a
    bare interpreter (``python -c pass``), which loads none of the library.
    It is timed after every op (``after_op``), and each op is scaled by the
    mean of the two starts that bracket it, to a machine that starts the
    interpreter in ``REFERENCE_MS``.
    """

    # About the median start on the machine of ``REFERENCE_MS`` above.
    REFERENCE_MS = 80.0

    def __init__(self, **run_kwargs) -> None:
        super().__init__()
        self.run_kwargs = run_kwargs

    def __enter__(self) -> "StartScaler":
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        pass

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, **self.run_kwargs)
        end = time.perf_counter()
        self.samples.append((start, end, 1000 * (end - start)))

    def after_op(self) -> None:
        self.sample()
