"""Times in seconds at a reference speed, steady on a host of varying speed.

A shared host runs the same pure-Python work up to twice as fast at one
moment as at another, and its speed changes within a second. The clock
measures that speed while the program runs: every PERIOD_S an interval timer
interrupts the program and runs one calibration slice, a fixed amount of
pure-Python work of the same kind as the program's (bitmask branching and
memo lookups) that never calls the program. It allocates no object the
garbage collector tracks, so it does not move the program's collections. `seconds(a, b)` is then
the time from perf_counter a to b, less the calibration slices inside it, with
the stretch between two slices scaled by the mean of REF_SLICE_S over the
lengths of those two slices. A change to the program changes the time it takes and not
the slices, so it shows in full.

Denser slices track the host better: with one every 0.1 s, the spread of
normalised times of ~0.1 s of work fell to a third of that of raw times, where
smoothing the speed over 0.5 s or more kept a larger share of the spread.
"""

from __future__ import annotations

import bisect
import random
import signal
from time import perf_counter

PERIOD_S = 0.1
# About one slice's length on a 2-core Xeon VM under Python 3.11; it only
# sets the scale of the times reported.
REF_SLICE_S = 0.008


def _random_graphs(count: int, n: int, p: float) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(20071224)
    graphs = []
    for _ in range(count):
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        graphs.append(tuple(rows))
    return tuple(graphs)


_GRAPHS = _random_graphs(12, 24, 0.3)


def _stable(adj: tuple[int, ...], avail: int, memo: dict[int, int]) -> int:
    hit = memo.get(avail)
    if hit is not None:
        return hit
    v, best_d = -1, -1
    rest = avail
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        d = (adj[u] & avail).bit_count()
        if d > best_d:
            v, best_d = u, d
        rest ^= low
    if best_d <= 0:
        out = avail.bit_count()
    else:
        out = max(1 + _stable(adj, avail & ~(adj[v] | 1 << v), memo), _stable(adj, avail & ~(1 << v), memo))
    memo[avail] = out
    return out


def calibration_slice() -> int:
    """A fixed amount of work: maximum stable sets of twelve fixed graphs."""
    return sum(_stable(adj, (1 << len(adj)) - 1, {}) for adj in _GRAPHS)


class Clock:
    """Interleaves calibration slices with whatever runs between start and stop.

    After stop, position(t) maps a perf_counter reading t to reference-speed
    seconds since the first slice; a span's length is the difference of the
    positions of its ends, so lengths of adjacent spans add up.
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self._saved = None

    def _slice(self, *_):
        begin = perf_counter()
        calibration_slice()
        self.slices.append((begin, perf_counter()))

    def start(self) -> None:
        self._slice()
        self._saved = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._slice()
        self._index()

    def _index(self) -> None:
        speed = [REF_SLICE_S / (end - begin) for begin, end in self.slices]
        # the gap after slice i runs at the mean speed of the slices around it
        self._gap_speed = [(a + b) / 2 for a, b in zip(speed, speed[1:])] + [speed[-1]]
        self._begins = [begin for begin, _ in self.slices]
        self._at_end = [0.0]
        for i in range(len(self.slices) - 1):
            gap = self.slices[i + 1][0] - self.slices[i][1]
            self._at_end.append(self._at_end[-1] + gap * self._gap_speed[i])

    def position(self, t: float) -> float:
        i = bisect.bisect_right(self._begins, t) - 1
        if i < 0:  # before the first slice
            return (t - self._begins[0]) * self._gap_speed[0]
        return self._at_end[i] + max(0.0, t - self.slices[i][1]) * self._gap_speed[i]

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds from perf_counter a to b, slices left out."""
        return self.position(b) - self.position(a)

    def slice_share(self) -> float:
        """Share of the clock's running time spent in calibration slices."""
        busy = sum(end - begin for begin, end in self.slices)
        return busy / (self.slices[-1][1] - self.slices[0][0])
