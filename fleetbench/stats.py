"""How the benchmark turns raw timings into reported numbers.

A percentile is reported only when at least :data:`MIN_TAIL` samples lie
beyond it, so a p95 needs at least 200 samples. Values are nearest-rank:
every reported latency is one that was actually measured.

A run's median latency is the mean of the medians of consecutive slices
of its windows (:func:`sliced_percentile`). The host the benchmark was
tuned on alternates between speeds in phases of a few seconds. The
median of a whole run jumps between the speed levels as the share of
slow phases crosses one half; the mean over slices moves in proportion
to that share, like a rate.

Set-up is sub-second, so one sample lands inside one speed phase, and
samples taken back to back share it: their median is a coin flip between
"fast" and "slow". :class:`SetupSampler` spreads set-up samples through
the whole run instead, and a run reports their mean.

The host also drifts over minutes, and a whole run can be slow. Next to
every set-up sample the sampler times a fixed reference unit of work
(:func:`reference_s`), so a run knows how fast the host was while it
ran, averaged over the same moments.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "MIN_TAIL",
    "SetupSampler",
    "percentile",
    "reference_s",
    "sliced_percentile",
    "spread",
]

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


def _rank(n: int, q: float) -> int:
    return math.ceil(q / 100.0 * n)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of *values*.

    Raises :class:`ValueError` when fewer than :data:`MIN_TAIL` samples
    lie beyond it, because a tail read from a handful of samples is noise.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(values)
    rank = _rank(n, q)
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return sorted(values)[rank - 1]


def sliced_percentile(windows: Sequence[Sequence[float]], q: float) -> float:
    """Mean over slices of *windows* of each slice's *q*-th percentile.

    A slice gathers consecutive whole windows until :func:`percentile`
    can read *q* from it; samples left over at the end join the last
    slice. Raises :class:`ValueError` when all samples together are too
    few for one slice.
    """
    slices: list[list[float]] = []
    pending: list[float] = []
    for window in windows:
        pending.extend(window)
        if len(pending) - _rank(len(pending), q) >= MIN_TAIL:
            slices.append(pending)
            pending = []
    if not slices:
        return percentile(pending, q)
    slices[-1].extend(pending)
    return statistics.fmean(percentile(s, q) for s in slices)


_REFERENCE_MATRIX = np.random.default_rng(0).random((32, 32)) / 16.0


def _reference_unit() -> float:
    """Small matrix products and dict updates, the program's kind of work."""
    a = _REFERENCE_MATRIX
    for _ in range(4):
        a = np.tanh(a @ _REFERENCE_MATRIX)
    totals: dict[int, float] = {}
    for i in range(300):
        totals[i % 37] = totals.get(i % 37, 0.0) + i * 0.5
    return sum(sorted(totals.values())) + float(a[0, 0])


def reference_s() -> float:
    """Seconds 20 reference units take now: the median of 15 timings.

    The median keeps one preempted timing out; the work is fixed and
    part of the benchmark, so only the host's speed changes it.
    """
    times = []
    for _ in range(15):
        start = time.perf_counter()
        for _ in range(20):
            _reference_unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


class SetupSampler:
    """Set-up samples spread through a run, taken between units of loop work.

    The measured loop calls :meth:`tick` at every window start and before
    every request, outside the timed requests. Once
    *spacing_s* seconds of loop have passed since the last sample (half of
    that before the first), it runs *probe*, which builds a workload up to
    its first window and returns the seconds that took, and then
    *reference*, whose seconds go to :attr:`reference`. Garbage is
    collected before and after each probe, so a probe neither pays for the
    loop's garbage nor leaves its own to the loop. :meth:`tick` returns
    the seconds it paused the loop for, which the caller takes out of the
    loop's wall time.
    """

    def __init__(
        self,
        probe: Callable[[], float],
        spacing_s: float,
        clock: Callable[[], float] = time.perf_counter,
        reference: Callable[[], float] = reference_s,
    ) -> None:
        if spacing_s <= 0:
            raise ValueError(f"spacing {spacing_s} s is not positive")
        self.probe = probe
        self.spacing_s = spacing_s
        self.clock = clock
        self.measure_reference = reference
        self.samples: list[float] = []
        self.reference: list[float] = []
        self._due: float | None = None

    def tick(self) -> float:
        now = self.clock()
        if self._due is None:
            self._due = now + self.spacing_s / 2
        if now < self._due:
            return 0.0
        paused_s = self.sample()
        self._due = now + paused_s + self.spacing_s
        return paused_s

    def sample(self) -> float:
        """Take one sample now; return the seconds that took, collections included."""
        start = self.clock()
        gc.collect()
        self.samples.append(self.probe())
        gc.collect()
        self.reference.append(self.measure_reference())
        return self.clock() - start
