"""Self-tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest fleetbench``. They need
no program sources except for the restore test, which patches the real
layer entry points, and the window-reference test, which imports the
workloads.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stats import MIN_TAIL, SetupSampler, percentile, sliced_percentile, spread  # noqa: E402
from tracer import Layer, Tracer  # noqa: E402


class _FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_only_direct_children() -> None:
    clock = _FakeClock()
    tracer = Tracer(clock=clock)
    tracer.armed = True

    def leaf(seconds: float) -> None:
        clock.now += seconds

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle() -> None:
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5

    traced_middle = tracer.wrap("middle", middle)

    def outer() -> None:
        clock.now += 3.0
        traced_middle()
        traced_leaf(4.0)

    tracer.wrap("outer", outer)()
    times = tracer.self_times()
    assert times["leaf"] == (2, 6.0)
    assert times["middle"] == (1, 1.5)
    assert times["outer"] == (1, 3.0)
    total = sum(self_s for _, self_s in times.values())
    assert total == pytest.approx(clock.now)


def test_unarmed_tracer_records_nothing() -> None:
    tracer = Tracer()
    assert tracer.wrap("f", lambda x: x + 1)(1) == 2
    assert tracer.spans == []


def test_span_closes_when_the_call_raises() -> None:
    tracer = Tracer()
    tracer.armed = True

    def boom() -> None:
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.self_times()["boom"][0] == 1


def test_layers_are_restored_after_a_traced_run_raises() -> None:
    from layers import LAYERS

    originals = [layer.owner.__dict__[layer.attr] for layer in LAYERS]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.layers(LAYERS):
            assert all(
                layer.owner.__dict__[layer.attr] is not original
                for layer, original in zip(LAYERS, originals)
            )
            raise RuntimeError("the run failed")
    assert all(
        layer.owner.__dict__[layer.attr] is original
        for layer, original in zip(LAYERS, originals)
    )


def test_layer_must_be_defined_on_its_owner() -> None:
    class Base:
        def f(self) -> int:
            return 1

    class Child(Base):
        pass

    with pytest.raises(KeyError):
        with Tracer().layers([Layer("child.f", Child, "f")]):
            pass
    assert "f" not in Child.__dict__


def test_percentile_needs_min_tail_samples_beyond_it() -> None:
    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 95) == 190.0
    assert percentile(values, 50) == 100.0
    with pytest.raises(ValueError):
        percentile(values[:-1], 95)
    # The rule is exactly MIN_TAIL samples beyond the reported rank.
    n = 20 * MIN_TAIL
    assert percentile(list(range(n)), 95) == n - MIN_TAIL - 1
    with pytest.raises(ValueError):
        percentile(list(range(2 * MIN_TAIL - 1)), 50)


def test_sliced_percentile_averages_slices_of_whole_windows() -> None:
    # p50 needs 2 * MIN_TAIL samples: windows of 15 pair up into slices.
    low = [1.0] * 15
    high = [3.0] * 15
    assert sliced_percentile([low, low, high, high], 50) == 2.0
    # A window left over at the end joins the last slice.
    assert sliced_percentile([low, low, high, high, high], 50) == 2.0
    # Empty windows (no requests) only delay a slice.
    assert sliced_percentile([low, [], low, high, [], high], 50) == 2.0
    # Too few samples for any slice: the whole-run rule applies.
    with pytest.raises(ValueError):
        sliced_percentile([low], 50)


def test_spread_is_quartile_distance_over_median() -> None:
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert spread([2.0]) == 0.0


def test_setup_sampler_spreads_samples_through_the_loop() -> None:
    clock = _FakeClock()
    probe_s = 0.25

    def probe() -> float:
        clock.now += probe_s
        return probe_s

    sampler = SetupSampler(probe, spacing_s=2.25, clock=clock, reference=lambda: 0.5)
    taken_at: list[float] = []
    loop_s = 0.0
    # Twenty seconds of loop in windows of 0.5 s each.
    while loop_s < 20.0:
        before = len(sampler.samples)
        paused = sampler.tick()
        if len(sampler.samples) > before:
            taken_at.append(loop_s)
            assert paused == pytest.approx(probe_s)
        else:
            assert paused == 0.0
        clock.now += 0.5
        loop_s += 0.5
    # The first sample waits half a spacing; later ones are a spacing of
    # loop time apart, rounded up to the next window start. The probe's own
    # time does not count as loop time. (Every time here is exact in binary.)
    assert taken_at[0] == 1.5
    gaps = [b - a for a, b in zip(taken_at, taken_at[1:])]
    assert all(gap == 2.5 for gap in gaps), gaps
    assert len(sampler.samples) == 8
    # The host's speed is taken at every sample too.
    assert sampler.reference == [0.5] * 8


def test_setup_sampler_never_samples_back_to_back() -> None:
    clock = _FakeClock()

    def slow_probe() -> float:
        clock.now += 5.0
        return 5.0

    sampler = SetupSampler(slow_probe, spacing_s=1.0, clock=clock, reference=lambda: 0.5)
    sampler.tick()
    clock.now += 0.5
    assert sampler.tick() == 5.0
    # Right after a probe, however long it took, the loop runs first.
    assert sampler.tick() == 0.0
    assert len(sampler.samples) == 1


def _runs(name: str, values_a: list[float], values_b: list[float]) -> list[dict]:
    return [
        {"set": label, "workload": "w", "metrics": {name: {"value": v}}}
        for label, values in (("A", values_a), ("B", values_b))
        for v in values
    ]


def test_window_reference_brackets_each_timed_window() -> None:
    from scenarios import Boundaries

    readings = iter([1.0, 3.0, 5.0, 9.0])
    bounds = Boundaries(reference=lambda: next(readings), timed=range(1, 3))
    for _ in range(3):
        bounds.window()
    bounds.close()
    assert bounds.window_reference == [1.0, 3.0, 5.0, 9.0]
    # Windows 1 and 2 are timed; each is read between its start and the next.
    assert bounds.request_windows == [1, 2]
    assert bounds.request_reference() == [4.0, 7.0]
    # Reference timings pause the loop, like set-up samples.
    assert bounds.paused_s > 0.0
    assert Boundaries(timed=range(1)).request_reference() == []


def test_steadiness_flags_median_shifts_in_both_directions() -> None:
    from steadiness import report

    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}],
    }
    steady = [1.0, 1.01, 1.02, 1.03]
    assert not report(bench, _runs("m", steady, steady))[1]
    faster = [0.8 * v for v in steady]
    slower = [1.2 * v for v in steady]
    assert report(bench, _runs("m", steady, slower))[1]
    assert report(bench, _runs("m", steady, faster))[1]
    assert report(bench, _runs("m", faster, steady))[1]


def test_steadiness_flags_every_spread_beyond_its_bound() -> None:
    from steadiness import report

    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.1}],
    }
    wide = [0.8, 0.9, 1.0, 1.1, 1.2]
    table, flagged = report(bench, _runs("setup_s", wide, wide))
    assert flagged
    assert "!" in table
