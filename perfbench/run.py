"""lgdiamond benchmark: cold job timings per workload, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured without tracing: passes
over the workload's job list repeat while another pass fits in S
seconds, and each metric is the median over passes.  With --trace 1 the
run makes one untraced pass and two traced passes, reports per-layer
self times and counts, checks that every count repeats exactly between
the two traced passes, and writes the first traced pass's spans to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import harness
from workloads import WORKLOADS, jobs_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
RUN_LIMIT_S = 170.0  # every job is cut off by then, so the run ends within 180 s
SETUP_PROBES = 12

UNITS = {"setup_s": "s", "wall_s": "s", "job_max_s": "s", "peak_rss_mib": "MiB",
         "failed_frac": "ratio"}
# gated in BENCHMARK.json; job_max_s and failed_frac are printed but not gated
END_TO_END = ("setup_s", "wall_s", "peak_rss_mib")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def measure(jobs, seconds: float, deadline: float):
    """Setup probes, then passes while another pass fits in `seconds`."""
    harness.setup_probe(jobs[0], SRC, deadline - time.monotonic())  # writes bytecode
    setup = []
    for i in range(SETUP_PROBES):
        sample = harness.setup_probe(jobs[i % len(jobs)], SRC, deadline - time.monotonic())
        if sample is not None:
            setup.append(sample)
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(harness.run_pass(jobs, SRC, deadline))
        now = time.monotonic()
        if now - start + (now - began) > seconds or now >= deadline:
            break
    setup += [r.setup_s for p in passes for r in p if not r.failed]
    return passes, setup


def traced(jobs, workload: str, seed: int, deadline: float):
    untraced = harness.run_pass(jobs, SRC, deadline)
    first = harness.run_pass(jobs, SRC, deadline, trace=True)
    second = harness.run_pass(jobs, SRC, deadline, trace=True)
    a, b = harness.layer_metrics(first), harness.layer_metrics(second)
    drift = sorted(n for n in a if harness.is_count(n) and a[n] != b.get(n))
    metrics = {
        n: a[n] if harness.is_count(n) else statistics.median([a[n], b.get(n, a[n])])
        for n in a
    }
    traced_wall = statistics.median(
        [harness.pass_metrics(first)["wall_s"], harness.pass_metrics(second)["wall_s"]]
    )
    metrics["trace.overhead_ratio"] = traced_wall / harness.pass_metrics(untraced)["wall_s"]
    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"trace-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent_index"],
        "jobs": [
            {"job": r.job.name, "status": r.status,
             "spans": r.trace["spans"] if r.trace else []}
            for r in first
        ],
    }))
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    return [untraced, first, second], metrics, drift


def report_failures(passes) -> None:
    for p in passes:
        for r in p:
            if r.failed:
                print(f"FAILED {r.job.name} ({r.status}): {r.detail} [pin: {r.job.source}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lgdiamond" / "cli.py").is_file():
        print(f"error: no lgdiamond sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = jobs_for(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass")

    if args.trace:
        passes, metrics, drift = traced(jobs, args.workload, args.seed, deadline)
        correct_extra = not drift
        if drift:
            print("counts differ between the two traced passes: " + ", ".join(drift))
        units = {n: layer_unit(n) for n in metrics}
        for name in sorted(metrics):
            print(f"  {name:<28} {metrics[name]:.6g} {units[name]}")
    else:
        passes, setup = measure(jobs, args.seconds, deadline)
        e2e = harness.end_to_end(passes, setup)
        print(f"{len(passes)} passes, {len(setup)} setup samples")
        for name in ("setup_s", "wall_s", "job_max_s", "peak_rss_mib", "failed_frac"):
            print(f"  {name:<14} {e2e[name]:.6g} {UNITS[name]}")
        metrics = {n: e2e[n] for n in END_TO_END}
        units = UNITS
        correct_extra = True
    report_failures(passes)
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failed for p in passes for r in p)
    print(json.dumps({
        "correct": failed == 0 and correct_extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
