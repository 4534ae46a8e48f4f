"""The live production fleet of §5 (80 connected database deployments).

Provisions *n* database services across the paper's VM plan mix
(t2.small, t2.medium, m4.large, t2.large, m4.xlarge), assigns each a
production-style diurnal workload with per-instance scale and phase
jitter, and steps simulated time one monitoring window at a time across
the whole fleet. Figs. 9, 12 and 13 run on top of this.

Every member derives its randomness from a **keyed substream** of the
fleet's entropy root (:func:`~repro.common.rng.substream` keyed by the
member's fleet index), never from draws shared across members. That is
what lets the sharded executor (:mod:`repro.parallel`) rebuild member
*i* in any worker process — via :func:`build_member` — with exactly the
state a serial :class:`LiveFleet` would have given it, making fleet
results invariant to shard and worker count.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.cloud.monitoring import MonitoringAgent
from repro.cloud.provisioner import Provisioner, ServiceDeployment
from repro.common.rng import stream_root, substream
from repro.dbsim.batch_engine import MemberBatch
from repro.dbsim.engine import ExecutionResult
from repro.workloads.production import ProductionWorkload

__all__ = ["FleetMember", "FleetSpec", "LiveFleet", "PAPER_PLAN_MIX", "build_member"]

#: The §5 deployment plans, cycled over when provisioning the fleet.
PAPER_PLAN_MIX: tuple[str, ...] = (
    "t2.small",
    "t2.medium",
    "m4.large",
    "t2.large",
    "m4.xlarge",
)


@dataclass
class FleetMember:
    """One fleet database: deployment + workload + monitoring."""

    deployment: ServiceDeployment
    workload: ProductionWorkload
    monitoring: MonitoringAgent
    phase_offset_s: float

    @property
    def instance_id(self) -> str:
        return self.deployment.instance_id


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to (re)build any fleet member, picklable.

    ``build_member(spec, i)`` is a pure function of this spec, so a shard
    worker handed the spec plus its member indices reconstructs exactly
    the members a serial build would have produced.
    """

    size: int
    flavor: str = "postgres"
    mean_rps_range: tuple[float, float] = (80.0, 600.0)
    root: int = 0
    sample_size: int = 200
    monitoring_retention_s: float | None = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")


def build_member(spec: FleetSpec, index: int) -> FleetMember:
    """Build fleet member *index* from its keyed substreams.

    Draw order within the member's stream is part of the determinism
    contract — reordering the draws below changes every seeded fleet.
    """
    if not 0 <= index < spec.size:
        raise ValueError(f"member index {index} outside fleet of {spec.size}")
    rng = substream(spec.root, "member", index)
    data_size_gb = float(rng.uniform(8.0, 60.0))
    mean_rps = float(rng.uniform(*spec.mean_rps_range))
    # Tenants in nearby timezones: jitter phases by ±1 h.
    phase_offset_s = float(rng.uniform(-3600.0, 3600.0))
    provisioner = Provisioner(
        seed=substream(spec.root, "provision", index), start_index=index
    )
    deployment = provisioner.provision(
        plan=PAPER_PLAN_MIX[index % len(PAPER_PLAN_MIX)],
        flavor=spec.flavor,
        data_size_gb=data_size_gb,
        replicas=1,
    )
    workload = ProductionWorkload(
        mean_rps=mean_rps,
        data_size_gb=deployment.service.master.data_size_gb,
        seed=substream(spec.root, "workload", index),
        sample_size=spec.sample_size,
    )
    return FleetMember(
        deployment=deployment,
        workload=workload,
        monitoring=MonitoringAgent(
            deployment.instance_id,
            retention_s=spec.monitoring_retention_s,
        ),
        phase_offset_s=phase_offset_s,
    )


class LiveFleet:
    """*n* production databases stepped in lockstep windows.

    Parameters
    ----------
    size:
        Number of databases (the paper connects 80).
    flavor:
        DBMS flavor for every member.
    mean_rps_range:
        Per-member daily-average rate is drawn uniformly from this range —
        production tenants differ in size.
    seed:
        Master seed; members derive keyed substreams from it (see
        :func:`build_member`).
    sample_size:
        Per-window query-log sample size of every member's workload (the
        number of concrete queries materialised for the TDE to read).
    monitoring_retention_s:
        Retention window of every member's monitoring agent (see
        :class:`~repro.cloud.monitoring.MonitoringAgent`); ``None``
        retains everything.
    """

    def __init__(
        self,
        size: int = 80,
        flavor: str = "postgres",
        mean_rps_range: tuple[float, float] = (80.0, 600.0),
        seed: int | np.random.Generator | None = 0,
        sample_size: int = 200,
        monitoring_retention_s: float | None = None,
    ) -> None:
        spec = FleetSpec(
            size=size,
            flavor=flavor,
            mean_rps_range=mean_rps_range,
            root=stream_root(seed),
            sample_size=sample_size,
            monitoring_retention_s=monitoring_retention_s,
        )
        self._build(spec, range(size))

    @classmethod
    def from_spec(cls, spec: FleetSpec, indices: Iterable[int]) -> "LiveFleet":
        """The members *indices* of the fleet *spec* describes (one shard).

        Each member is exactly the one a full fleet would have built at
        that index (:func:`build_member`).
        """
        fleet = cls.__new__(cls)
        fleet._build(spec, indices)
        return fleet

    def _build(self, spec: FleetSpec, indices: Iterable[int]) -> None:
        self.spec = spec
        #: Fleet index of each entry of :attr:`members`, ascending.
        self.indices = tuple(sorted(indices))
        self.members: list[FleetMember] = [
            build_member(spec, i) for i in self.indices
        ]
        self._engine = MemberBatch(
            [m.deployment.service.master for m in self.members]
        )
        self.clock_s = 0.0

    def __len__(self) -> int:
        return len(self.members)

    def step(self, window_s: float) -> list[tuple[FleetMember, ExecutionResult]]:
        """Run one window on every member and advance the fleet clock."""
        out: list[tuple[FleetMember, ExecutionResult]] = []
        if any(m.deployment.service.master.crashed for m in self.members):
            # Serial semantics for a downed member: earlier members step
            # and ingest, then the dead member raises — generators and
            # monitoring past it must not advance.
            for member in self.members:
                batch = member.workload.batch(
                    window_s, start_time_s=self.clock_s + member.phase_offset_s
                )
                result = member.deployment.service.run(batch)
                member.monitoring.ingest(result)
                out.append((member, result))
            self.clock_s += window_s
            return out
        # Columnar hot path: every member draws only from its own keyed
        # substream, so generating all batches before stepping all members
        # consumes the streams exactly as the interleaved loop would.
        batches = [
            member.workload.batch(
                window_s, start_time_s=self.clock_s + member.phase_offset_s
            )
            for member in self.members
        ]
        results = self._engine.step_window(batches)
        for member, result in zip(self.members, results):
            member.monitoring.ingest(result)
            out.append((member, result))
        self.clock_s += window_s
        return out
