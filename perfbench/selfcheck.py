"""Fast self-check of the benchmark harness on tiny inputs.

    python3 perfbench/selfcheck.py

Runs the elliptic cubic with SLd (order 9) and three milnor-batch
polynomials through the real worker, and checks that correct pins pass,
that a deliberately wrong pin and a wrong exit code fail and count in
failed_frac, that the per-job cap records a timeout, and that a traced
pass gives counts that repeat exactly.  Takes a few seconds; exits 0
when every check holds.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import harness
from run import SRC
from workloads import CUBIC_SLD, MILNOR_SKELETONS, milnor_jobs

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def main() -> int:
    deadline = time.monotonic() + 120
    milnor = milnor_jobs(7, skeletons=MILNOR_SKELETONS[:3], repeats=1)
    good = [CUBIC_SLD] + milnor

    results = harness.run_pass(good, SRC, deadline)
    check(all(r.status == "ok" for r in results),
          "pinned outputs of the cubic and three milnor jobs match: "
          + "; ".join(f"{r.job.name} {r.status} {r.detail}" for r in results))

    wrong_pin = replace(CUBIC_SLD, name="cubic-wrong-total",
                        expect={**CUBIC_SLD.expect, "total": 5})
    wrong_exit = replace(milnor[0], name="milnor-wrong-exit",
                         expect={**milnor[0].expect, "exit": 2})
    wrong_mu = replace(milnor[1], name="milnor-wrong-mu",
                       expect={**milnor[1].expect, "mu": milnor[1].expect["mu"] + 1})
    results = harness.run_pass([CUBIC_SLD, wrong_pin, wrong_exit, wrong_mu], SRC, deadline)
    check([r.status for r in results] == ["ok", "mismatch", "mismatch", "mismatch"],
          "a wrong total, exit code or mu is reported as a mismatch")
    check(harness.end_to_end([results], [0.1])["failed_frac"] == 0.75,
          "the three wrong pins count in failed_frac (3 of 4)")

    capped = harness.run_job(CUBIC_SLD, SRC, cap_s=0.001)
    check(capped.status == "timeout" and capped.failed,
          f"a job over the per-job cap is recorded as a timeout ({capped.status})")
    metrics = harness.end_to_end([[capped, results[0]]], [0.1])
    check(metrics["failed_frac"] == 0.5, "the timeout counts in failed_frac")

    first = harness.layer_metrics(harness.run_pass(good, SRC, deadline, trace=True))
    second = harness.layer_metrics(harness.run_pass(good, SRC, deadline, trace=True))
    counts = [n for n in first if harness.is_count(n)]
    check(all(first[n] == second[n] for n in counts),
          f"{len(counts)} counts repeat exactly across two traced passes")
    check(first["symmetry.group_order"] == 9 and first["statespace.blocks"] > 0,
          "the traced cubic reports its order-9 group and its invariant blocks")
    check(first["jacobian.nf_calls.groebner"] > 0 and first["jacobian.groebner_s"] > 0,
          "the traced milnor jobs report Groebner work")

    print("self-check " + ("passed" if not FAILURES else f"FAILED: {len(FAILURES)} checks"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
