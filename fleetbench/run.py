#!/usr/bin/env python3
"""Fleet benchmark of the AutoDBaaS reproduction: one command, three workloads.

Run from the repository root::

    python3 fleetbench/run.py --workload fleet-tde --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with only two outer
boundaries timed (window starts, tuning requests); timings are scaled to
a reference speed of the host (``REFERENCE_S``): request latencies by the
host's speed over their own window, the rest by its mean speed over the
run. ``--trace 1`` runs the
workload twice, untraced and then with every layer's entry point patched,
checks that both runs computed the same outputs, and reports per-layer
calls, self times and ratios plus the tracing overhead. Spans are written
to ``fleetbench/out/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
1 when an output check fails and 2 when the program cannot be imported.
See ``fleetbench/BENCHMARK.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: BLAS threads per process, shard children included (they inherit the
#: environment): with at most two busy processes this keeps total busy
#: threads within the two cores the benchmark was tuned on.
BLAS_THREADS = 1
#: Set-up samples a run aims for, spread evenly over its measured loop.
#: One sample sits in one of the host's speed phases, so a run's mean
#: varies with the share of samples that landed in slow phases.
SETUP_SAMPLES = 20
#: Seconds ``stats.reference_s()`` took on the 2-core box the benchmark was
#: tuned on, in a fast phase. A run's slowdown is its mean reference time
#: at the set-up samples over this; set-up and loop times are divided by it
#: (rates multiplied), so they read as on that box at that speed. Request
#: latencies are divided by their window's own slowdown instead: the box
#: switches between speeds every few seconds, a request's tail rank
#: depends on the speed it ran at, and a window lasts well under that.
#: The run prints the times as taken.
REFERENCE_S = 1.2e-3
WORKLOAD_NAMES = ("fleet-tde", "service-mixed", "fleet-observe")

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("member_windows_per_s", "1/s", "higher"),
    ("request_ms_p50", "ms", "lower"),
    ("request_ms_p95", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_fraction", "ratio", "higher"),
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=20.0,
        help="measured loop time to aim for: a run repeats its workload's "
        "fixed-size episode about this long, at least once",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error(f"--seconds {args.seconds} is not positive")
    return args


def _sampler(workload, seed: int, seconds: float):
    import scenarios
    from stats import SetupSampler

    return SetupSampler(
        lambda: scenarios.setup_probe(workload.name, seed),
        workload.nominal_loop_s(seconds) / SETUP_SAMPLES,
    )


def _setup_samples(sampler) -> list[float]:
    """The sampler's samples; a run too short for any takes one at its end."""
    if not sampler.samples:
        sampler.sample()
    return sampler.samples


def _slowdown(sampler) -> float:
    """How much slower the host ran than at :data:`REFERENCE_S`, on average."""
    return statistics.fmean(sampler.reference) / REFERENCE_S


def _tde_rate(episode) -> float:
    """TDE-triggered requests per TDE-managed member-hour of one episode.

    Exact for a seed, so it is a per-layer count: on ``fleet-tde`` it
    varies between seeds by more than any end-to-end bound (see
    BENCHMARK.md, Bounds).
    """
    return episode.tde_requests / episode.tde_member_hours


def _end_to_end(workload, seed: int, seconds: float):
    import scenarios
    from stats import percentile, reference_s, sliced_percentile, spread

    sampler = _sampler(workload, seed, seconds)
    repeats = workload.episodes(seconds)
    episodes = [
        scenarios.episode(workload.name, seed, sampler=sampler, reference=reference_s)
        for _ in range(repeats)
    ]
    setups = _setup_samples(sampler)
    problems = workload.checks(seed)
    problems += [p for e in episodes for p in e.problems]
    if any(e.output != episodes[0].output for e in episodes[1:]):
        problems.append("repeated episodes of one seed computed different outputs")
    request_ms = [[s * 1e3 for s in w] for e in episodes for w in e.request_s]
    window_reference = [ref for e in episodes for ref in e.request_reference]
    scaled_ms = [
        [ms * REFERENCE_S / ref for ms in w] for w, ref in zip(request_ms, window_reference)
    ]
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def requests(windows: list[list[float]]) -> dict[str, float]:
        pooled = [ms for w in windows for ms in w]
        return {
            "request_ms_p50": sliced_percentile(windows, 50),
            "request_ms_p95": sliced_percentile(windows, 95)
            if workload.sliced_p95
            else percentile(pooled, 95),
        }

    timed = {
        "setup_s": statistics.fmean(setups),
        "member_windows_per_s": sum(e.member_windows for e in episodes)
        / sum(e.loop_s for e in episodes),
        **requests(request_ms),
    }
    slowdown = _slowdown(sampler)
    metrics = {
        "setup_s": timed["setup_s"] / slowdown,
        "member_windows_per_s": timed["member_windows_per_s"] * slowdown,
        **requests(scaled_ms),
    }
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    metrics["ops_ok_fraction"] = 1.0 - failed / attempted
    units = {name: unit for name, unit, _ in END_TO_END}
    notes = [
        f"episodes {repeats}, requests {sum(map(len, request_ms))}, "
        f"attempted {attempted}, failed {failed}",
        f"setup.samples {len(setups)}, setup.spread {spread(setups):.4f}",
        f"tde_requests_per_member_hour {_tde_rate(episodes[0]):.4f}",
        f"window slowdown {min(window_reference) / REFERENCE_S:.4f}"
        f"-{max(window_reference) / REFERENCE_S:.4f} over {len(window_reference)} "
        "timed windows",
        f"host.slowdown {slowdown:.4f}, as timed: "
        + ", ".join(f"{name} {value:.6g}" for name, value in timed.items()),
    ]
    return (
        {name: (value, units[name]) for name, value in metrics.items()},
        attempted,
        failed,
        problems,
        notes,
    )


def _per_layer(workload, seed: int, seconds: float):
    import scenarios
    from layers import LAYERS, layer_metrics
    from stats import spread
    from tracer import Tracer

    # Both runs keep SessionStats, so trace.overhead_s is the tracer's alone.
    # Only the untraced one samples set-up: probes would add spans.
    sampler = _sampler(workload, seed, seconds)
    untraced = scenarios.episode(workload.name, seed, sampler=sampler, stats=True)
    setups = _setup_samples(sampler)
    tracer = Tracer()
    with tracer.layers(LAYERS):
        traced = scenarios.episode(workload.name, seed, tracer, stats=True)
    tracer.armed = False
    problems = workload.checks(seed) + untraced.problems + traced.problems
    if traced.output != untraced.output:
        problems.append("the traced run computed different outputs")
    spans = HERE / "out" / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans)
    metrics = layer_metrics(tracer, traced, untraced.loop_s)
    metrics["tde_requests_per_member_hour"] = (_tde_rate(traced), "1/h")
    metrics["host.slowdown"] = (_slowdown(sampler), "ratio")
    metrics["setup.samples"] = (len(setups), "count")
    metrics["setup.spread"] = (spread(setups), "ratio")
    notes = [f"{len(tracer.spans)} spans written to {spans.relative_to(HERE.parent)}"]
    return metrics, traced.attempted, traced.failed, problems, notes


def _stop_helpers() -> None:
    """Stop every process multiprocessing started here and wait for each.

    Shard workers are joined when their session closes; this also covers
    a session left open by an exception, and the resource tracker that the
    shared-memory ``MemberBank`` starts, which would otherwise outlive
    this process.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return _run(args)
    finally:
        _stop_helpers()


def _run(args: argparse.Namespace) -> int:
    # Before numpy loads: every process (shard children inherit the
    # environment) runs BLAS on this many threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "repro").is_dir():
        print(f"fleetbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import scenarios
    except ImportError as exc:
        print(f"fleetbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    # The interpreter imports the program once per process; set-up probes
    # start after it, so import time is reported on its own.
    import_s = time.perf_counter() - start

    workload = scenarios.WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failed, problems, notes = _per_layer(
            workload, args.seed, args.seconds
        )
        metrics["import_s"] = (import_s, "s")
    else:
        metrics, attempted, failed, problems, notes = _end_to_end(
            workload, args.seed, args.seconds
        )
        notes.append(f"import_s {import_s:.4f}")
    better = {name: b for name, _, b in END_TO_END}
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"seconds {args.seconds:g}  blas_threads {BLAS_THREADS}"
    )
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {better.get(name, '')}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
