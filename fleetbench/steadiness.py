#!/usr/bin/env python3
"""Steadiness report: two sets of runs of the same code, compared per metric.

Run from the repository root::

    python3 fleetbench/steadiness.py --seeds 300-309

Sets A and B each run ``fleetbench/run.py --trace 0`` once per seed on
every workload of ``BENCHMARK.json``, one process at a time, with its
``run_seconds``. The two sets are interleaved run by run (A then B on
even seed positions, B then A on odd ones), so that drift of the host's
speed over minutes falls on both sets alike. Every run's metrics are
saved to ``fleetbench/out/steadiness.json`` as they arrive. For every
end-to-end metric on every workload the report prints each set's spread
(the distance between the first and third quartile of its runs, over
their median, as ``statistics.quantiles(values, n=4)`` gives them), each
set's median, and how much worse the second set's median is than the
first's, as a share of the first (negative: better). A spread or a
median shift in either direction beyond the metric's bound is flagged
``!``; a spread beyond a third of it, ``~``. The exit code is 1 when a
run fails or reports ``"correct": false``, and 3 when any value is
flagged ``!``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    return json.loads(lines[-1])


def _worse(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def report(bench: dict, runs: list[dict]) -> tuple[str, bool]:
    """Markdown table of spreads and median shifts; also whether any is flagged."""
    workloads = [w["name"] for w in bench["workloads"]]
    header = ["Metric", "Bound"] + [f"`{w}` spread A / spread B, worse" for w in workloads]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    flagged = False
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        row = [f"`{name}`", f"{bound:g}"]
        for workload in workloads:
            values = [
                [
                    r["metrics"][name]["value"]
                    for r in runs
                    if r["set"] == label and r["workload"] == workload
                ]
                for label in "AB"
            ]
            cells = []
            for vs in values:
                s = spread(vs)
                mark = "!" if s > bound else "~" if s > bound / 3 else ""
                flagged |= s > bound
                cells.append(f"{s:.3f}{mark}")
            medians = [statistics.median(vs) for vs in values]
            worse = _worse(medians[0], medians[1], metric["better"])
            mark = "!" if abs(worse) > bound else ""
            flagged |= abs(worse) > bound
            row.append(
                " / ".join(cells)
                + f" (median {medians[0]:.4g} → {medians[1]:.4g}, {worse:+.3f}{mark})"
            )
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines), flagged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("300-309"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for index, seed in enumerate(args.seeds):
            for label in "AB" if index % 2 == 0 else "BA":
                result = _run(workload, seed, bench["run_seconds"])
                if not result["correct"]:
                    print(f"{workload} seed {seed}: output check failed")
                    return 1
                runs.append({"set": label, "workload": workload, "seed": seed, **result})
                out.write_text(json.dumps(runs, indent=1))
                values = ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                )
                print(f"set {label} {workload} seed {seed}: {values}", flush=True)
    table, flagged = report(bench, runs)
    print(table)
    return 3 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
