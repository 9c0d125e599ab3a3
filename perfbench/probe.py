"""A probe of the host's speed, sampled while `vqse run` executes.

On a small shared host the CPU's speed shifts by up to half for seconds at a
time, as other tenants load the same physical cores.  A timing taken before
or after a run misses shifts during it, so the probe samples the speed all
through the run: every ``PERIOD_S`` seconds a SIGALRM handler times one pass
of fixed loops that do not use vqse.  Run time over the mean pass time then
cancels the shift, and a change to vqse moves that ratio in proportion to
its run time.

Contention slows each kind of work by a different amount, so there is one
loop per kind of work vqse does, and each workload names the kinds it spends
its time on (``Workload.probe``):

* ``python``: interpreter work, objects and dicts;
* ``numpy``: small complex tensor contractions, bound by per-call overhead;
* ``blas``: a 128x128 complex matrix product.

The pass time is the geometric mean of the per-kind mean pass times.  A tick
costs about 2 % of the run; the ticks inside the run are subtracted from its
time, and as they fire uniformly in time they inflate every traced span by
the same fraction.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05


@dataclass
class _Item:
    key: int
    weight: float


class SpeedProbe:
    """Context manager: ticks while entered, then reports the pass time."""

    def __init__(self, kinds: tuple[str, ...]):
        rng = np.random.default_rng(0)
        self._op = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))).reshape(
            (2,) * 4)
        self._mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._big = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._eye = np.eye(2)
        self._work = {kind: getattr(self, f"_{kind}") for kind in kinds}
        self.passes: dict[str, list[float]] = {kind: [] for kind in kinds}
        self.ticks: list[float] = []

    def _python(self) -> None:
        totals: dict[int, float] = {}
        for i in range(300):
            item = _Item(i % 17, i * 0.5)
            totals[item.key] = totals.get(item.key, 0.0) + item.weight
        sorted(totals.items(), key=lambda kv: kv[1])

    def _numpy(self) -> None:
        for _ in range(8):
            t = self._mat.reshape((2,) * 6 + (64,))
            out = np.tensordot(self._op, t, axes=((2, 3), (1, 2)))
            np.moveaxis(out, (0, 1), (1, 2)).reshape(64, 64)
            np.kron(self._eye, self._eye)

    def _blas(self) -> None:
        self._big @ self._big

    def _tick(self, *_signal) -> None:
        tick_start = time.perf_counter()
        for kind, work in self._work.items():
            start = time.perf_counter()
            work()
            self.passes[kind].append(time.perf_counter() - start)
        self.ticks.append(time.perf_counter() - tick_start)

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def inside_s(self) -> float:
        """Time of the ticks that interrupted the run (not the first or last)."""
        return sum(self.ticks[1:-1])

    def pass_s(self) -> float:
        """Geometric mean over kinds of the mean pass time."""
        means = [statistics.fmean(p) for p in self.passes.values()]
        return math.exp(statistics.fmean(math.log(m) for m in means))
