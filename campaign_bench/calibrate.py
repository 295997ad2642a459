"""Host-speed calibration: user CPU time scaled to a reference speed.

On a shared virtual machine the same work costs a varying amount of CPU
time. While another tenant loads the physical core behind a virtual
CPU, identical 2-s ``sweep_short`` units read about 7 ms of CPU instead
of about 4.5 ms, and the share of time spent in each mode drifts from
minute to minute: CPU time alone spread a quarter between runs of the
same code.

:class:`HostSpeed` measures that speed while the program runs. A
``SIGPROF`` interval timer interrupts the process every ``INTERVAL_S``
of its CPU time and runs :func:`kernel`, a fixed piece of user-space
work (pure-Python dictionary arithmetic, small numpy matrix-vector
products and parsing a block of CSV text, the kinds of work the
simulator, its store and its reports do), recording the CPU time it
took. The kernel shares no code with the program, so a faster program
leaves it unchanged. A span's user CPU time, without the kernel's own,
is scaled by ``REFERENCE_S`` over the kernel's mean cost in the span:
the result is the user time the span would take on a host where the
kernel costs exactly ``REFERENCE_S``.

System time is left out. Creating a file in the checkout cost from
0.03 to 1.2 ms of system time on the reference host, rising with the
file-system churn of the minutes before (the benchmark's own
included), so the system time of identical ``sweep_short`` passes went
from 1.8 to 7.9 s while their scaled user time stayed within 3%.
"""

from __future__ import annotations

import json
import signal
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from time import thread_time
from typing import Iterable, List

import numpy as np

#: CPU time between two samples.
INTERVAL_S = 0.02
#: Kernel cost that defines the reference speed: about its mean cost
#: while the reference figures were taken (README.md).
REFERENCE_S = 4.5e-4
#: Fewest samples a scale factor is taken over: a shorter span borrows
#: the samples nearest to its midpoint.
MIN_SAMPLES = 8

_MATRIX = np.random.default_rng(2009).standard_normal((48, 48)) / 48.0
_START = np.ones(48)
_TABLE = {i: 0.5 * i for i in range(128)}
_CSV = "\n".join(",".join(f"{0.37 * i + j:.4f}" for j in range(8))
                 for i in range(60))


def kernel() -> float:
    """The fixed user-space work (about 0.45 ms on the reference host)."""
    acc = 0.0
    for i in range(500):
        acc += _TABLE[i & 127] * 1.0001
    x = _START
    for _ in range(24):
        x = np.maximum(_MATRIX @ x + 0.5, 0.0)
    rows = [[float(v) for v in line.split(",")] for line in _CSV.splitlines()]
    return acc + float(x[0]) + float(np.array(rows).sum())


@dataclass(frozen=True)
class Usage:
    """CPU seconds split into user and system time."""

    user: float = 0.0
    sys: float = 0.0

    @property
    def total(self) -> float:
        return self.user + self.sys

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(self.user + other.user, self.sys + other.sys)

    def __sub__(self, other: "Usage") -> "Usage":
        return Usage(self.user - other.user, self.sys - other.sys)


class HostSpeed:
    """Kernel samples taken every ``INTERVAL_S`` of this process's CPU.

    The handler runs in the main thread, so samples are placed and
    costed on the main thread's CPU clock (``time.thread_time``). The
    process-wide clock is no substitute: while a process CPU timer is
    armed, Linux advances it only at scheduler ticks (4 ms here).
    """

    def __init__(self) -> None:
        self.at: List[float] = []  # main-thread CPU time at each sample
        self.cost: List[float] = []  # CPU seconds the kernel took
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return  # a tick that lands inside a sample is skipped
        self._busy = True
        try:
            t0 = thread_time()
            kernel()
            self.at.append(t0)
            self.cost.append(thread_time() - t0)
        finally:
            self._busy = False

    def start(self) -> "HostSpeed":
        kernel()  # first call pays numpy's lazy set-up, outside the samples
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def __enter__(self) -> "HostSpeed":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _inside(self, c0: float, c1: float) -> slice:
        return slice(bisect_left(self.at, c0), bisect_left(self.at, c1))

    def own(self, c0: float, c1: float) -> float:
        """CPU seconds the kernel itself took between ``c0`` and ``c1``."""
        return float(sum(self.cost[self._inside(c0, c1)]))

    def factor(self, c0: float, c1: float) -> float:
        """``REFERENCE_S`` over the kernel's mean cost around a span."""
        if not self.at:
            raise RuntimeError("no host-speed samples were taken")
        inside = self._inside(c0, c1)
        if inside.stop - inside.start < MIN_SAMPLES:
            middle = bisect_left(self.at, 0.5 * (c0 + c1))
            first = max(0, min(middle - MIN_SAMPLES // 2,
                               len(self.at) - MIN_SAMPLES))
            inside = slice(first, first + MIN_SAMPLES)
        return REFERENCE_S / float(np.mean(self.cost[inside]))

    def scaled(self, c0: float, c1: float, used: Usage) -> float:
        """Scaled user CPU seconds of a span that used ``used``.

        ``c0`` and ``c1`` are the main thread's CPU times at its ends;
        ``used`` is what every thread used in it, the kernel included.
        """
        work = max(used.user - self.own(c0, c1), 0.0)
        return work * self.factor(c0, c1)

    def scaled_short(self, c0: float, c1: float, user_share: float) -> float:
        """Scaled user CPU seconds of a main-thread span too short to split.

        The kernel reports user and system time in scheduler ticks, so
        a span of a few ms takes the user share ``user_share`` of the
        span that encloses it.
        """
        work = c1 - c0 - self.own(c0, c1)
        return work * user_share * self.factor(c0, c1)

    def total_scaled(self, used: Usage) -> float:
        """Scaled user CPU seconds of ``used``, a span holding every sample."""
        return self.scaled(-np.inf, np.inf, used)

    def dump(self, path: Path) -> None:
        """Write the samples (how a pool worker hands them back)."""
        path.write_text(json.dumps([self.at, self.cost]))

    @classmethod
    def load(cls, paths: Iterable[Path]) -> "HostSpeed":
        """Samples of every dump in ``paths``, for :meth:`total_scaled`."""
        speed = cls()
        for path in paths:
            at, cost = json.loads(path.read_text())
            speed.at.extend(at)
            speed.cost.extend(cost)
        return speed
