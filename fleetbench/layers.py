"""The layers a traced run times, and the per-layer metrics they yield.

Each layer is one public entry point of a program module, patched from
here for the traced run only. Observers take the counts that turn a
layer's calls into cache and waste ratios, at the boundary where the
work happens.
"""

from __future__ import annotations

from typing import Any

from repro.cloud.monitoring import MonitoringAgent
from repro.core.apply.dfa import DataFederationAgent
from repro.core.apply.reconciler import Reconciler
from repro.core.director.config_director import FALLBACK_SOURCE, ConfigDirector
from repro.core.tde.engine import ThrottlingDetectionEngine
from repro.dbsim.batch_engine import MemberBatch
from repro.dbsim.replication import ReplicatedService
from repro.tuners.gpr import GaussianProcessRegressor
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.repository import WorkloadRepository
from repro.tuners.workload_mapping import WorkloadMapper
from repro.workloads.generator import WorkloadGenerator

from scenarios import Episode
from tracer import Layer, Tracer

__all__ = ["LAYERS", "LAYER_NAMES", "layer_metrics"]


def _queries(tracer: Tracer, args: tuple[Any, ...], batch: Any) -> None:
    # Query objects the generator materialised for this window.
    tracer.counters["queries"] += len(batch.sampled_queries) + len(batch.family_examples)


def _needs_tuning(tracer: Tracer, args: tuple[Any, ...], report: Any) -> None:
    tracer.counters["needs_tuning"] += report.needs_tuning


def _fallback(tracer: Tracer, args: tuple[Any, ...], split: Any) -> None:
    tracer.counters["fallbacks"] += split.recommendation.source == FALLBACK_SOURCE


def _fit_rows(tracer: Tracer, args: tuple[Any, ...], gpr: Any) -> None:
    tracer.counters["fit_rows"] += len(args[1])


def _repository_rows(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    # The live repository is the largest one a run writes to.
    rows = args[0].total_samples()
    tracer.counters["rows_final"] = max(tracer.counters["rows_final"], rows)


def _not_applied(tracer: Tracer, args: tuple[Any, ...], report: Any) -> None:
    tracer.counters["not_applied"] += not report.applied


LAYERS = (
    Layer("workloads.batch", WorkloadGenerator, "batch", _queries),
    Layer("dbsim.step", MemberBatch, "step_window"),
    Layer("dbsim.step", ReplicatedService, "run"),
    Layer("cloud.monitoring.ingest", MonitoringAgent, "ingest"),
    Layer("core.tde.inspect", ThrottlingDetectionEngine, "inspect", _needs_tuning),
    Layer("core.director.route", ConfigDirector, "handle_tuning_request", _fallback),
    Layer("tuners.recommend", OtterTuneTuner, "recommend"),
    Layer("tuners.rank", OtterTuneTuner, "ranked_knobs"),
    Layer("tuners.gp_fit", GaussianProcessRegressor, "fit", _fit_rows),
    Layer("tuners.gp_ucb", GaussianProcessRegressor, "ucb"),
    Layer("tuners.map", WorkloadMapper, "map_workload"),
    Layer("tuners.repository.add", WorkloadRepository, "add", _repository_rows),
    Layer("core.apply.dfa", DataFederationAgent, "apply", _not_applied),
    Layer("core.apply.reconciler", Reconciler, "tick"),
)

#: Distinct layer names, in table order.
LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, traced: Episode, untraced_loop_s: float
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the *traced* episode as ``name -> (value, unit)``."""
    times = tracer.self_times()
    counters = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES:
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")

    def calls(name: str) -> int:
        return times.get(name, (0, 0.0))[0]

    recommends = calls("tuners.recommend")
    out["workloads.queries_per_batch"] = (
        _ratio(counters["queries"], calls("workloads.batch")), "count",
    )
    out["core.tde.needs_tuning_ratio"] = (
        _ratio(counters["needs_tuning"], calls("core.tde.inspect")), "ratio",
    )
    out["core.director.fallbacks"] = (counters["fallbacks"], "count")
    out["tuners.rank_per_request"] = (_ratio(calls("tuners.rank"), recommends), "ratio")
    out["tuners.gp_fit_per_request"] = (
        _ratio(calls("tuners.gp_fit"), recommends), "ratio",
    )
    out["tuners.gp_fit.rows_mean"] = (
        _ratio(counters["fit_rows"], calls("tuners.gp_fit")), "count",
    )
    out["tuners.repository.rows_final"] = (counters["rows_final"], "count")
    out["core.apply.dfa.not_applied"] = (counters["not_applied"], "count")

    stats = traced.stats
    out["parallel.member_step_s"] = (stats.total("step_s") if stats else 0.0, "s")
    out["parallel.serialize_s"] = (stats.total("serialize_s") if stats else 0.0, "s")
    out["parallel.command_bytes_mean"] = (
        stats.mean_command_bytes() if stats else 0.0, "bytes",
    )
    out["parallel.snapshot_bytes"] = (stats.snapshot_bytes if stats else 0, "bytes")

    layer_self_s = sum(self_s for _, self_s in times.values())
    out["loop.wall_s"] = (traced.loop_s, "s")
    out["loop.other_self_s"] = (traced.loop_s - layer_self_s, "s")
    out["trace.overhead_s"] = (traced.loop_s - untraced_loop_s, "s")
    return out
