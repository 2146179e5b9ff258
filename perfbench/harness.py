"""Run jobs in fresh worker processes, check them, and aggregate metrics.

Every job runs in its own interpreter, as one `lgdiamond` invocation
does, so no timed job reads a ring or cyclotomic cache that an earlier
job filled.  Jobs run one at a time (a closed loop with one client).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Job

WORKER = Path(__file__).resolve().with_name("worker.py")
JOB_CAP_S = 60.0


class WorkerError(RuntimeError):
    """The worker process itself failed (a crash, not a job's exit code)."""


@dataclass
class JobResult:
    job: Job
    status: str  # "ok", "mismatch", "error" or "timeout"
    detail: str
    setup_s: float
    job_s: float
    rss_mib: float
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def spawn_worker(job: Job, src: Path, cap_s: float, trace=False, setup_only=False):
    """Run the worker on one job; returns its JSON output, or None on timeout."""
    if cap_s <= 0:
        return None
    spec = json.dumps({"text": job.text, "verify": job.verify, "setup_only": setup_only})
    # fixed string hashing, so that call counts repeat exactly between runs
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(WORKER), str(src), repr(time.monotonic())]
    try:
        proc = subprocess.run(
            argv + (["--trace"] if trace else []),
            input=spec,
            capture_output=True,
            text=True,
            timeout=cap_s,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return None  # subprocess.run has killed and reaped the worker
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker for job {job.name} exited with {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def check_output(job: Job, out: dict) -> str | None:
    """Why the worker's output differs from the job's pins, or None."""
    expect = job.expect
    if out["exit"] != expect["exit"]:
        return f"exit code {out['exit']}, expected {expect['exit']} ({out['error']})"
    got = out["output"] or {}
    for key, want in expect.items():
        if key != "exit" and got.get(key) != want:
            return f"{key} = {got.get(key)!r}, expected {want!r}"
    return None


def run_job(job: Job, src: Path, cap_s: float, trace=False) -> JobResult:
    started = time.monotonic()
    try:
        out = spawn_worker(job, src, cap_s, trace=trace)
        status, detail = "timeout", f"exceeded the per-job cap of {cap_s:.3g} s"
    except WorkerError as exc:
        out, status, detail = None, "error", str(exc)
    if out is None:
        return JobResult(job, status, detail, setup_s=0.0,
                         job_s=time.monotonic() - started, rss_mib=0.0)
    detail = check_output(job, out)
    return JobResult(
        job,
        "ok" if detail is None else "mismatch",
        detail or "",
        setup_s=out["setup_s"],
        job_s=out["job_s"],
        rss_mib=out["rss_kib"] / 1024,
        trace=out.get("trace"),
    )


def run_pass(jobs, src: Path, deadline: float, trace=False, cap_s=JOB_CAP_S):
    """One pass over the job list; each job is capped by cap_s and by the
    time left until `deadline` (a `time.monotonic()` value)."""
    results = []
    for job in jobs:
        cap = min(cap_s, deadline - time.monotonic())
        results.append(run_job(job, src, cap, trace=trace))
    return results


def setup_probe(job: Job, src: Path, cap_s: float) -> float | None:
    """setup_s of a fresh worker that only imports lgdiamond and parses."""
    out = spawn_worker(job, src, cap_s, setup_only=True)
    return None if out is None else out["setup_s"]


# -- end-to-end metrics -------------------------------------------------------------


def pass_metrics(results) -> dict:
    return {
        "wall_s": sum(r.job_s for r in results),
        "job_max_s": max(r.job_s for r in results),
        "peak_rss_mib": max(r.rss_mib for r in results),
    }


def end_to_end(passes, setup_samples) -> dict:
    """Medians over passes, and setup_s as the median over all samples."""
    per_pass = [pass_metrics(p) for p in passes]
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failed for p in passes for r in p)
    metrics = {
        name: statistics.median(m[name] for m in per_pass)
        for name in ("wall_s", "job_max_s", "peak_rss_mib")
    }
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["failed_frac"] = failed / attempted
    return metrics


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(results) -> dict:
    """Per-layer metrics of one traced pass: sums over its jobs."""
    total: dict = {}
    for r in results:
        if r.trace is None:
            continue
        for name, value in r.trace["metrics"].items():
            if name == "cyclotomic.degree":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    calls = total.get("jacobian.ring_calls", 0)
    total["jacobian.ring_hit_ratio"] = (
        1 - total["jacobian.ring_builds"] / calls if calls else 0.0
    )
    return total


def is_count(name: str) -> bool:
    return not (name.endswith("_s") or name.endswith("_ratio"))
