"""Machine-speed calibration sampled while the cells run.

On a shared host the same pass of the same cells can take 4 s in one
minute and 7 s a few minutes later: the CPU itself runs slower while
neighbours are busy (process CPU time equals wall time throughout), and
those spells last longer than a benchmark run, so a median over passes
cannot remove them.  While a pass runs, a CPU-time timer interrupts it
every :data:`INTERVAL_S` to time a short, fixed burst of pure-Python
work, so the bursts sample the machine's speed evenly over the pass,
inside long cells too.  Dividing the pass's times by its median burst,
relative to :data:`REFERENCE_S`, cut the spread of pass times by about
half on such a host.  The burst uses no code of the program under
test, so a change to the program cannot move it, and the garbage
collector is off while it runs, so the program's heap does not either.
The bursts add about 2% to every time, alike on every commit.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
import statistics
import time
from typing import Dict, Iterator, List

#: Burst time that defines one normalised second (about one burst on the
#: 2-core reference container when its neighbours are idle).
REFERENCE_S = 0.004
#: CPU seconds between bursts.
INTERVAL_S = 0.2


class _Entry:
    __slots__ = ("value", "hits")

    def __init__(self, value: int) -> None:
        self.value = value
        self.hits = 0

    def touch(self, amount: int) -> int:
        self.hits += 1
        return (self.value * 31 + amount) & 0xFFFF


def _table() -> Dict[int, _Entry]:
    """About 13 MB of small objects: a burst over them misses the CPU
    caches the way the simulator's pointer-chasing does, which tracked the
    simulator's slowdowns better than a burst that fits in cache."""
    return {key: _Entry(key * 7) for key in range(1 << 17)}


def _work(table: Dict[int, _Entry], rounds: int = 2000) -> int:
    """An event-queue loop: heap pops and pushes, lookups spread over the
    table, method calls and small-integer arithmetic."""
    heap = [(key * 3 % 97, key) for key in range(256)]
    heapq.heapify(heap)
    acc = 0
    for step in range(rounds):
        when, key = heapq.heappop(heap)
        acc = (acc + table[(key * 2654435761 + acc) & 0x1FFFF].touch(step)) & 0xFFFFFF
        heapq.heappush(heap, (when + (acc & 63) + 1, (key * 13 + step) % 4096))
    return acc


class Calibrator:
    """Times bursts while :meth:`sampling`; :meth:`take` turns them into a
    slowdown against the reference."""

    def __init__(self) -> None:
        #: Burst times since the last :meth:`take`.
        self.samples: List[float] = []
        self._table = _table()

    def burst(self, *signal_args: object) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _work(self._table)
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Time one burst now and one every INTERVAL_S of CPU time."""
        self.burst()
        previous = signal.signal(signal.SIGPROF, self.burst)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def current(self) -> float:
        """Slowdown of the bursts so far, without consuming them."""
        return statistics.median(self.samples) / REFERENCE_S

    def take(self) -> float:
        """Slowdown of the bursts since the last call; measured times are
        divided by it."""
        samples, self.samples = self.samples, []
        return statistics.median(samples) / REFERENCE_S
