"""Delta-only wire discipline of the sharded fig09 protocol.

The repository snapshot crosses to each shard exactly once, at session
setup. These tests pin the invariants at the payload level: pickle
whatever actually crosses the pipe and prove it contains no repository
snapshot (nor any heavyweight object at all), that the broadcast is an
order of magnitude smaller than re-broadcasting the snapshot, that a
shard replies only for the members that need tuning, and that every
reply decodes back to value-identical objects.
"""

import pickle

from repro.cloud.fleet import FleetSpec
from repro.common.rng import stream_root
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.experiments.fig09_requests_per_minute import (
    Fig09ShardWorker,
    MemberOut,
    WindowCommand,
    _config_values,
    _decode_config,
    _decode_metrics,
    _decode_sample,
    _encode_sample,
    _ShardSpec,
)
from repro.parallel.stats import SessionStats, StepStats, render_session_stats
from repro.tuners.base import TrainingSample
from repro.workloads.production import ProductionWorkload

#: Class names that must never appear in a pipe payload.
_HEAVY_MARKERS = (
    b"WorkloadRepository",
    b"TrainingSample",
    b"KnobConfiguration",
    b"KnobCatalog",
    b"MetricsDelta",
    b"TimeSeries",
)

#: Knob values under which the members below raise no throttle.
_QUIET = {
    "work_mem": 256,
    "random_page_cost": 1.1,
    "effective_cache_size": 1024,
    "shared_buffers": 400,
}


def _make_worker(size: int = 2):
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [
            ProductionWorkload(
                mean_rps=10_000.0, data_size_gb=30.0, seed=90,
                name="production-offline",
            )
        ],
        n_configs=14,
        seed=91,
    )
    spec = _ShardSpec(
        fleet=FleetSpec(size=size, root=stream_root(0), sample_size=64),
        repository=repository,
        tde_seed=0,
    )
    return Fig09ShardWorker(spec, tuple(range(size))), catalog, repository


def _record_inspections(worker):
    """Wrap every TDE's inspect; returns ``{member index: (result, report)}``."""
    seen = {}
    for i, tde in zip(worker.fleet.indices, worker.tdes):
        def inspect(result, _i=i, _inspect=tde.inspect):
            report = _inspect(result)
            seen[_i] = (result, report)
            return report

        tde.inspect = inspect
    return seen


def _assert_light(payload: bytes) -> None:
    for marker in _HEAVY_MARKERS:
        assert marker not in payload, marker


class TestDeltaOnlyBroadcast:
    def test_steady_state_payload_has_no_repository_snapshot(self):
        worker, catalog, repository = _make_worker()
        outs0 = worker.step(WindowCommand(window_s=300.0))
        assert outs0, "window 0 raised no tuning request to check"
        _assert_light(pickle.dumps(outs0))

        # The coordinator's steady-state broadcast: one fitted config and
        # one fresh sample, both wire-encoded.
        first = outs0[0][1]
        sample = TrainingSample(
            first.workload_name,
            _decode_config(catalog, first.config),
            _decode_metrics(first.metrics),
            0.0,
        )
        command = WindowCommand(
            window_s=300.0,
            apply={0: first.config},
            new_samples=(_encode_sample(sample),),
        )
        payload = pickle.dumps(("step", command))
        _assert_light(payload)

        snapshot = pickle.dumps(repository)
        assert len(payload) * 10 <= len(snapshot), (
            f"steady-state payload {len(payload)}B is not >=10x smaller "
            f"than the {len(snapshot)}B snapshot broadcast it replaced"
        )
        _assert_light(pickle.dumps(worker.step(command)))

    def test_untraced_shard_replies_exactly_for_members_needing_tuning(self):
        worker, _, _ = _make_worker()
        worker.step(WindowCommand(window_s=300.0))
        quiet = worker.fleet.members[0].deployment.service.master.config
        seen = _record_inspections(worker)
        # Member 0 gets a config under which it raises no throttle;
        # member 1 keeps the defaults that throttle it.
        outs = worker.step(
            WindowCommand(
                window_s=300.0,
                apply={0: _config_values(quiet.with_values(_QUIET))},
            )
        )
        needing = [i for i, (_, report) in sorted(seen.items()) if report.needs_tuning]
        assert needing == [1]
        assert [i for i, _ in outs] == needing
        assert all(out.fragment is None for _, out in outs)

    def test_replies_decode_to_live_member_state(self):
        worker, catalog, _ = _make_worker()
        worker.step(WindowCommand(window_s=300.0))
        seen = _record_inspections(worker)
        outs = worker.step(WindowCommand(window_s=300.0))
        assert outs
        for i, out in outs:
            assert isinstance(out, MemberOut) and out.index == i
            master = worker.fleet.members[i].deployment.service.master
            assert _decode_config(catalog, out.config) == master.config
            result, report = seen[i]
            assert _decode_metrics(out.metrics).values == result.metrics.values
            assert out.throttles == tuple(report.throttles)
            assert out.workload_name == result.batch.workload_name
            assert out.memory_limit_mb == master.vm.db_memory_limit_mb
            assert out.active_connections == master.active_connections

    def test_sample_codec_round_trips_exactly(self):
        worker, catalog, _ = _make_worker()
        seen = _record_inspections(worker)
        worker.step(WindowCommand(window_s=300.0))
        result, _ = seen[0]
        sample = TrainingSample(
            result.batch.workload_name, result.config, result.metrics, 42.0
        )
        decoded = _decode_sample(catalog, _encode_sample(sample))
        assert decoded.workload_id == sample.workload_id
        assert decoded.config == sample.config
        assert decoded.metrics.values == sample.metrics.values
        assert decoded.timestamp_s == sample.timestamp_s
        # Value-exact means repr-exact: downstream maths sees the same bits.
        assert repr(decoded.metrics) == repr(sample.metrics)


class TestSessionStatsRendering:
    def test_render_reports_bytes_and_phases(self):
        stats = SessionStats(
            backend="process",
            shards=4,
            snapshot_bytes=50_000,
            final_snapshot_bytes=80_000,
        )
        stats.record(
            StepStats(
                command_bytes=40_000, bytes_sent=160_000, bytes_received=9_000,
                serialize_s=0.01, send_s=0.002, step_s=0.5, recv_s=0.51,
                merge_s=0.001,
            )
        )
        stats.record(
            StepStats(
                command_bytes=1_000, bytes_sent=4_000, bytes_received=2_000,
                serialize_s=0.001, send_s=0.001, step_s=0.4, recv_s=0.41,
                merge_s=0.001,
            )
        )
        text = render_session_stats(stats)
        assert "backend=process shards=4 windows=2" in text
        assert "setup snapshot: 50000 bytes/worker" in text
        assert "steady-state command: mean 1000 bytes/window" in text
        assert "80.0x smaller" in text
        assert "member step" in text and "reduce" in text
        assert stats.mean_command_bytes() == 1000.0
        assert stats.total("bytes_sent") == 164_000
