"""Golden reports of the command line on fixed diamond and jacobian jobs.

    PYTHONPATH=src python3 tests/make_golden.py

writes tests/golden/: each job file, the stdout of every mode as
<job>.<mode>.out, and status.json with each run's exit code and stderr.
tests/test_golden.py re-runs the same jobs and compares the bytes, so a
change that should not move any report can show that it does not.
Regenerate only when a report is meant to change, and say why.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lgdiamond.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

QUARTIC = "x1^4 + x2^4 + x3^4 + x4^4"
QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
CUBIC = "x1^3 + x2^3 + x3^3"
HESSE = "x1^3 + x2^3 + x3^3 + x1*x2*x3"
MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"

# name -> (f, group); the mirror quintic is pinned in test_statespace.py
JOBS = {
    "k3-sld": (QUARTIC, "[SLd]"),
    "cubic-sld": (CUBIC, "[SLd]"),
    "cubic-jf": (CUBIC, "[jf]"),
    "cubic-diag": (CUBIC, "[jf, diag(1/3, 2/3, 0)]"),
    "cubic-gd-s3": (CUBIC, "[Gd, perm(1 2 3), perm(1 2)]"),
    "quintic-jf": (QUINTIC, "[jf]"),
    "quintic-a3": (QUINTIC, "[jf, perm(1 2 3)]"),
    "quintic-s3": (QUINTIC, "[jf, perm(1 2), perm(2 3)]"),
    # the Klein four-group carries some terms at a nonzero phase (orbits._carry)
    "quintic-v4": (QUINTIC, "[jf, perm(1 2)*perm(3 4), perm(1 3)*perm(2 4)]"),
    "quartic-twisted": (QUARTIC, "[jf, perm(1 2)*diag(1/4, 3/4, 0, 0), perm(3 4)]"),
    "quartic-xyzw-c4": (QUARTIC + " + x1*x2*x3*x4", "[jf, perm(1 2 3 4)]"),
    "quartic-xyzw-sld": (QUARTIC + " + x1*x2*x3*x4", "[SLd]"),
    "quartic-pairs": (QUARTIC + " + x1^2*x2^2 + x3^2*x4^2", "[jf, perm(1 2), perm(3 4)]"),
    "quartic-fallback": (
        QUARTIC + " + x1^2*x2^2 + x1*x2*x3*x4", "[jf, perm(1 2)*perm(3 4)]"
    ),
    "hesse-12": (HESSE, "[jf, perm(1 2)]"),
    "hesse-123": (HESSE, "[jf, perm(1 2 3)]"),
    "main-jf": (MAIN, "[jf]"),
    "main-sld": (MAIN, "[SLd]"),
}

# name -> f of a `command = jacobian` job; the anchor is the milnor-batch anchor,
# and the quintic Dwork deformation has a Jacobian ideal that is not monomial
JACOBIAN_JOBS = {
    "main-jacobian": MAIN,
    "cubes-jacobian": "x1^3 + x2^3",
    "anchor-jacobian": "x1^6*x2 + x2^5*x1 + x3^5*x4 + x4^3*x5 + x5^5",
    "quintic-dwork-jacobian": QUINTIC + " + x1*x2*x3*x4*x5",
}

MODES = {
    "text": [],
    "text-noverify": ["--no-verify"],
    "json": ["--format", "json"],
    "json-noverify": ["--format", "json", "--no-verify"],
}
# a jacobian job verifies nothing, so it runs without --no-verify only
JACOBIAN_MODES = ("text", "json")


def job_path(name: str) -> Path:
    return GOLDEN / f"{name}.job"


def job_text(name: str) -> str:
    if name in JACOBIAN_JOBS:
        return f"f = {JACOBIAN_JOBS[name]}\ncommand = jacobian\n"
    f, group = JOBS[name]
    return f"f = {f}\ngroup = {group}\n"


def golden_runs():
    """(job name, mode) of every golden run."""
    for name in JOBS:
        for mode in MODES:
            yield name, mode
    for name in JACOBIAN_JOBS:
        for mode in JACOBIAN_MODES:
            yield name, mode


def run_cli(argv) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one in-process command-line run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return out.getvalue(), err.getvalue(), code


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    for name, mode in golden_runs():
        job_path(name).write_text(job_text(name))
        out, err, code = run_cli([job_path(name), *MODES[mode]])
        (GOLDEN / f"{name}.{mode}.out").write_text(out)
        status[f"{name}.{mode}"] = {"exit": code, "stderr": err}
        print(f"{name}.{mode}: exit {code}", file=sys.stderr)
    (GOLDEN / "status.json").write_text(json.dumps(status, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
