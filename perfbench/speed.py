"""Host speed, sampled during a run, to express times at a fixed speed.

On a shared host the speed at which one core runs Python changes by up
to a factor of two within seconds, as other tenants load the same
physical core; process CPU time moves with it, so it does not help. A
cold g=5 run therefore took anywhere from 21 s to 41 s. To measure the
program rather than the host, a worker times a fixed reference loop
(``reference``) every ``INTERVAL_S`` seconds of its run, from a SIGALRM
handler, and converts each stretch of elapsed time between two samples
to seconds at the reference speed:

    scaled = sum(dt_i * REFERENCE_S / r_i)

where ``r_i`` is the mean of the two samples that bound the stretch.
The loop does the kind of work the package does (``Fraction`` and
integer arithmetic, tuple hashing, set and sort) and uses no part of the
package, so no change to the package changes it. The time spent in the
samples is left out of both the raw and the scaled time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.5
# A round value near the time of one ``reference()`` call on the machine
# where the bounds were set (2-vCPU Xeon VM, Python 3.11.7: 7 to 14 ms,
# depending on the other tenants). Only ratios of scaled times matter, so
# another value would do as well.
REFERENCE_S = 0.010


def reference() -> float:
    """Time one fixed piece of pure-Python exact arithmetic; seconds."""
    t0 = time.perf_counter()
    # Fraction row reduction of fixed 7 x 9 matrices, as in the cone layer.
    for k in range(4):
        rows = [
            [Fraction((3 * i + 5 * j + k) % 11 - 5, 1 + (i * j) % 4) for j in range(9)]
            for i in range(7)
        ]
        rank = 0
        for col in range(9):
            p = next((i for i in range(rank, 7) if rows[i][col]), None)
            if p is None:
                continue
            rows[rank], rows[p] = rows[p], rows[rank]
            for i in range(7):
                if i != rank and rows[i][col]:
                    f = rows[i][col] / rows[rank][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
    # Integer, tuple, set and sort work, as in the symmetry layer.
    seen = set()
    acc = 0
    for i in range(1, 4000):
        t = (i % 13, i % 17, -(i % 19))
        seen.add(t)
        acc += t[0] * t[1] - t[2] * i
    sorted(seen)
    return time.perf_counter() - t0


def probe() -> float:
    """Median of five reference times, for short stretches like set-up."""
    return statistics.median(reference() for _ in range(5))


class Sampler:
    """Samples ``reference()`` every INTERVAL_S seconds between ``start``
    and ``stop``, and scales the elapsed time by the sampled speed."""

    def __init__(self):
        self.marks: list[tuple[int, int, float]] = []  # (begin_ns, end_ns, r)
        self._previous = None

    def _sample(self) -> None:
        begin = time.perf_counter_ns()
        r = reference()
        self.marks.append((begin, time.perf_counter_ns(), r))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def probe_s(self) -> float:
        """Time spent in the samples taken between ``start`` and ``stop``."""
        return sum(end - begin for begin, end, _ in self.marks[1:-1]) / 1e9

    def result(self) -> tuple[float, float]:
        """(raw seconds, seconds at the reference speed) of the time from
        ``start`` to ``stop``, samples left out."""
        raw_ns = 0.0
        scaled_ns = 0.0
        marks = self.marks
        for (_, end0, r0), (begin1, _, r1) in zip(marks, marks[1:]):
            dt = begin1 - end0
            raw_ns += dt
            scaled_ns += dt * REFERENCE_S / ((r0 + r1) / 2)
        return raw_ns / 1e9, scaled_ns / 1e9
