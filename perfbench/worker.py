"""Run one lgdiamond job cold, in this fresh interpreter, and report it.

    python3 perfbench/worker.py SRC_DIR SPAWN_TIME [--trace] < spec.json

The spec is a JSON object with the job-file `text`, `verify` (False acts
like `--no-verify`) and `setup_only`.  SPAWN_TIME is the parent's
`time.monotonic()` just before it started this process; the clock is
system-wide, so `setup_s` covers interpreter start, importing lgdiamond
and parsing the job file.  The job itself is timed from the parsed job to
the rendered text report, as `lgdiamond JOBFILE` would produce it.  One
JSON object is printed on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _summary(payload: dict) -> dict:
    """The report fields the benchmark pins."""
    if payload["command"] == "jacobian":
        return {
            "mu": payload["mu"],
            "q": payload["weights"]["q"],
            "oracle_agrees": payload["oracle_agrees"],
        }
    ver = payload["verification"]
    return {
        "h": payload["diamond"]["h"],
        "total": payload["total_dimension"],
        "checks": None if ver is None else [[c["name"], c["pass"]] for c in ver["checks"]],
    }


def main() -> int:
    src, spawned = sys.argv[1], float(sys.argv[2])
    trace = "--trace" in sys.argv[3:]
    spec = json.load(sys.stdin)
    sys.path.insert(0, src)
    from dataclasses import replace

    from lgdiamond import cli
    from lgdiamond.errors import LgError, PreconditionFailed

    tracer = None
    parse_job = cli.parse_job
    if trace:
        import tracer as tracing

        tracer = tracing.install()
        parse_job = tracer.span("cli.parse_job", cli.parse_job)
    out: dict = {"exit": 0, "error": None, "output": None, "job_s": 0.0}
    try:
        job = parse_job(spec["text"])
    except LgError as exc:
        job = None
        out.update(exit=1, error=f"error: {exc}")
    out["setup_s"] = time.monotonic() - spawned
    if job is not None and not spec["setup_only"]:
        start = time.perf_counter()
        try:
            report = cli.run(replace(job, verify=spec["verify"]))
            report.to_text()
            out["exit"] = 0 if report.ok else 2
            out["output"] = _summary(report.payload)
        except PreconditionFailed as exc:
            out.update(exit=2, error=f"verification precondition failed: {exc}")
        except LgError as exc:
            out.update(exit=1, error=f"error: {exc}")
        out["job_s"] = time.perf_counter() - start
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = {"metrics": tracer.metrics(), "spans": tracer.spans}
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
