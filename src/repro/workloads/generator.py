"""Workload generator base classes.

A workload is a set of :class:`~repro.workloads.query.QueryFamily` entries
with relative weights, a nominal request rate and a loaded database size.
Generators produce :class:`WorkloadBatch` values — the realised execution
counts per family over a time window plus a uniform sample of concrete
queries standing in for the streaming query log. The DB simulator costs
batches per-family (``count × footprint``), which keeps the paper's
10 000-requests-per-second experiments cheap to simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import make_rng
from repro.workloads.query import Query, QueryFamily, QueryType, instantiate_many

__all__ = ["WorkloadBatch", "WorkloadGenerator", "MixWorkload"]


@dataclass
class WorkloadBatch:
    """Realised work over one window of simulated time.

    Attributes
    ----------
    workload_name:
        Name of the generating workload (used for workload-mapping keys).
    duration_s:
        Window length in simulated seconds.
    requested_rps:
        Offered load; the database may achieve less.
    counts:
        Executions per family name.
    families:
        Family definitions, keyed by name.
    sampled_queries:
        A uniform sample of concrete queries, standing in for the portion
        of the streaming query log the TDE would read in this window.
    family_examples:
        One concrete query per family that executed this window. The real
        streaming log contains *every* statement, so rare-but-heavy
        templates are visible to a log scanner even when a uniform sample
        misses them; this field models that coverage.
    """

    workload_name: str
    duration_s: float
    requested_rps: float
    counts: dict[str, int]
    families: dict[str, QueryFamily]
    sampled_queries: list[Query] = field(default_factory=list)
    family_examples: list[Query] = field(default_factory=list)

    @property
    def total_queries(self) -> int:
        """Total executions across families."""
        return sum(self.counts.values())

    @property
    def write_fraction(self) -> float:
        """Fraction of executions that are writes (0.0 if batch empty)."""
        total = self.total_queries
        if total == 0:
            return 0.0
        writes = sum(
            count
            for name, count in self.counts.items()
            if self.families[name].query_type.is_write
        )
        return writes / total

    def count_by_type(self) -> dict[QueryType, int]:
        """Execution counts aggregated by :class:`QueryType`."""
        out: dict[QueryType, int] = {}
        for name, count in self.counts.items():
            qtype = self.families[name].query_type
            out[qtype] = out.get(qtype, 0) + count
        return out

    def scaled(self, factor: float) -> "WorkloadBatch":
        """A copy with all counts scaled by *factor* (rate modulation)."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        return WorkloadBatch(
            workload_name=self.workload_name,
            duration_s=self.duration_s,
            requested_rps=self.requested_rps * factor,
            counts={name: int(round(c * factor)) for name, c in self.counts.items()},
            families=dict(self.families),
            sampled_queries=list(self.sampled_queries),
            family_examples=list(self.family_examples),
        )


class WorkloadGenerator:
    """Base generator: weighted families + rate → batches.

    Subclasses define :attr:`families` (via ``_build_families``) and may
    override :meth:`rate_at` for time-varying arrival rates (the production
    trace does).

    Parameters
    ----------
    name:
        Workload name, e.g. ``"tpcc"``.
    rps:
        Nominal offered request rate.
    data_size_gb:
        Loaded database size; the buffer-pool model compares it against
        ``shared_buffers``.
    seed:
        Seed for all randomness in this generator.
    sample_size:
        Number of concrete queries to materialise per batch as the
        query-log sample.
    """

    def __init__(
        self,
        name: str,
        rps: float,
        data_size_gb: float,
        seed: int | np.random.Generator | None = 0,
        sample_size: int = 200,
    ) -> None:
        if rps < 0:
            raise ValueError("rps must be >= 0")
        if data_size_gb <= 0:
            raise ValueError("data_size_gb must be positive")
        self.name = name
        self.rps = rps
        self.data_size_gb = data_size_gb
        self.sample_size = sample_size
        self._rng = make_rng(seed)
        self.families: dict[str, QueryFamily] = {
            fam.name: fam for fam in self._build_families()
        }
        if not self.families:
            raise ValueError("generator defines no query families")

    def _build_families(self) -> list[QueryFamily]:
        raise NotImplementedError

    def rate_at(self, time_s: float) -> float:
        """Offered rate at simulated time *time_s*; constant by default."""
        del time_s
        return self.rps

    def batch(self, duration_s: float, start_time_s: float = 0.0) -> WorkloadBatch:
        """Generate the batch for ``[start_time_s, start_time_s + duration_s)``."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        rate = self.rate_at(start_time_s)
        total = self._rng.poisson(rate * duration_s) if rate > 0 else 0
        names = list(self.families)
        weights = np.array([self.families[n].weight for n in names], dtype=float)
        weight_sum = weights.sum()
        if weight_sum <= 0:
            raise ValueError("family weights sum to zero")
        probs = weights / weight_sum
        counts = (
            self._rng.multinomial(total, probs)
            if total > 0
            else np.zeros(len(names), dtype=int)
        )
        count_map = {name: int(c) for name, c in zip(names, counts)}
        sampled = self._sample_families(count_map)
        executed = [self.families[n] for n, count in count_map.items() if count > 0]
        # The sample and the examples are contiguous in the stream: one
        # bulk draw covers both.
        queries = instantiate_many(sampled + executed, self._rng)
        return WorkloadBatch(
            workload_name=self.name,
            duration_s=duration_s,
            requested_rps=rate,
            counts=count_map,
            families=dict(self.families),
            sampled_queries=queries[: len(sampled)],
            family_examples=queries[len(sampled) :],
        )

    def _sample_families(self, counts: dict[str, int]) -> list[QueryFamily]:
        """Pick the families of up to ``sample_size`` queries ∝ family counts."""
        total = sum(counts.values())
        if total == 0:
            return []
        n = min(self.sample_size, total)
        names = [name for name, c in counts.items() if c > 0]
        probs = np.array([counts[name] for name in names], dtype=float)
        probs /= probs.sum()
        picks = self._rng.choice(len(names), size=n, p=probs)
        return [self.families[names[i]] for i in picks]


class MixWorkload(WorkloadGenerator):
    """A workload assembled from an explicit family list.

    Useful in tests and for ad-hoc scenarios; the standard benchmarks
    subclass :class:`WorkloadGenerator` directly.
    """

    def __init__(
        self,
        name: str,
        families: list[QueryFamily],
        rps: float,
        data_size_gb: float,
        seed: int | np.random.Generator | None = 0,
        sample_size: int = 200,
    ) -> None:
        self._families_spec = list(families)
        super().__init__(name, rps, data_size_gb, seed=seed, sample_size=sample_size)

    def _build_families(self) -> list[QueryFamily]:
        return list(self._families_spec)
