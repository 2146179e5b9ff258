"""Workload definitions: fixed diamond jobs with pinned outputs and the
seeded milnor-batch generator.

Every job carries the job-file text the worker parses, whether the
diamond checks run, and the expected output with the source of that
expectation.  A pin is either a reference (a known Hodge diamond, a
closed-form Milnor number) or a regression pin (what the program
computed when the benchmark was defined); the `source` string says which.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

CHECK_NAMES = (
    "integer-charges",
    "charge-support",
    "identity-corners",
    "grading-corners",
    "transpose-symmetry",
    "residue-duality",
)
ALL_PASS = [[name, True] for name in CHECK_NAMES]

QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
QUARTIC = "x1^4 + x2^4 + x3^4 + x4^4"
MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"
CUBIC = "x1^3 + x2^3 + x3^3"


@dataclass(frozen=True)
class Job:
    """One job file plus the output the benchmark expects from it.

    `expect` maps output fields to pinned values: `exit` (the exit code
    `lgdiamond` would return), `h`, `total` and `checks` for diamond jobs
    (`checks` is None when verification is skipped), and `mu`, `q` and
    `oracle_agrees` for jacobian jobs.
    """

    name: str
    text: str
    verify: bool
    expect: dict
    source: str = ""


def diamond_job(name, f, group, h, total, source, verify=True) -> Job:
    return Job(
        name=name,
        text=f"f = {f}\ngroup = [{group}]\ncommand = diamond\n",
        verify=verify,
        expect={
            "exit": 0,
            "h": h,
            "total": total,
            "checks": ALL_PASS if verify else None,
        },
        source=source,
    )


K3_SLD = diamond_job(
    "k3-sld", QUARTIC, "SLd", [[1, 0, 1], [0, 20, 0], [1, 0, 1]], 24,
    "reference: Hodge numbers of a K3 surface (h^{1,1} = 20, corners 1)",
)
QUINTIC_A3 = diamond_job(
    "quintic-a3", QUINTIC, "jf, perm(1 2 3)",
    [[1, 0, 0, 1], [0, 49, 5, 0], [0, 5, 49, 0], [1, 0, 0, 1]], 112,
    "regression pin: lgdiamond 0.1.0's output (middle entries 49/5), not a reference",
)
QUINTIC_S3 = diamond_job(
    "quintic-s3", QUINTIC, "jf, perm(1 2), perm(2 3)",
    [[1, 0, 0, 0], [0, 37, 2, 0], [0, 2, 37, 0], [0, 0, 0, 1]], 80,
    "regression pin: lgdiamond 0.1.0's output (middle entries 37/2, total 80), not a "
    "reference; the group is not in SL, so verification is skipped",
    verify=False,
)
QUINTIC_J = diamond_job(
    "quintic-j", QUINTIC, "jf",
    [[1, 0, 0, 1], [0, 101, 1, 0], [0, 1, 101, 0], [1, 0, 0, 1]], 208,
    "reference: the quintic threefold's h^{2,1} = 101 and h^{1,1} = 1, which "
    "the charge table holds at h[1][1] and h[1][2]",
)
MAIN_J = diamond_job(
    "main-j", MAIN, "jf", [[1, 0, 1], [0, 20, 0], [1, 0, 1]], 24,
    "reference: the README's main example (diamond with total dimension 24)",
)
CUBIC_SLD = diamond_job(
    "cubic-sld", CUBIC, "SLd", [[1, 1], [1, 1]], 4,
    "reference: the README's elliptic-cubic example",
)

# -- milnor-batch ----------------------------------------------------------------

# Each slot fixes a block skeleton (kind, size); exponents are drawn from
# 2..6 by the seed.  Fixing the skeletons and accepting only polynomials
# whose Milnor number and weight denominator fall in the bands below keeps
# the work of one batch close to that of any other seed's batch, so the
# seed changes the inputs without changing the size of the workload.
MILNOR_SKELETONS = (
    (("chain", 3), ("power", 1)),
    (("loop", 2), ("chain", 2)),
    (("loop", 3), ("power", 1), ("power", 1)),
    (("chain", 2), ("chain", 2), ("power", 1)),
    (("loop", 2), ("loop", 2), ("power", 1), ("power", 1)),
    (("chain", 3), ("loop", 3)),
    (("power", 1), ("power", 1), ("chain", 2), ("power", 1)),
    (("loop", 2), ("chain", 3)),
)
MILNOR_REPEATS = 8
MU_BAND = (200, 600)
D0_BAND = (40, 200)
EXPONENTS = (2, 6)
_MAX_DRAWS = 100000
# One fixed polynomial outside the bands (mu = 1920, d0 = 2175) leads every
# batch.  It is several times slower than any banded job, so job_max_s
# times the same job for every seed instead of whichever random draw
# happened to be slowest.
MILNOR_ANCHOR = (("loop", (6, 5)), ("chain", (5, 3, 5)))


def _block_rows(kind: str, exps: tuple[int, ...]) -> list[list[int]]:
    """Exponent matrix of one power, chain or loop block."""
    k = len(exps)
    rows = []
    for i, e in enumerate(exps):
        row = [0] * k
        row[i] = e
        if kind == "loop" or (kind == "chain" and i + 1 < k):
            row[(i + 1) % k] += 1
        rows.append(row)
    return rows


def _solve_weights(rows: list[list[int]]) -> list[Fraction]:
    """q with rows * q = 1, by exact Gauss-Jordan elimination."""
    k = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(1)] for row in rows]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


def block_weights(blocks) -> list[Fraction]:
    q: list[Fraction] = []
    for kind, exps in blocks:
        q.extend(_solve_weights(_block_rows(kind, exps)))
    return q


def milnor_number(q) -> int:
    """prod (1/q_k - 1): the Milnor number of a quasihomogeneous isolated
    singularity, from its weights alone (the closed form of
    `lgdiamond.jacobian.milnor_number`)."""
    mu = Fraction(1)
    for qk in q:
        mu *= 1 / qk - 1
    if mu.denominator != 1:
        raise ValueError(f"weights {q} give a non-integral Milnor number {mu}")
    return int(mu)


def block_polynomial(blocks) -> str:
    terms = []
    pos = 0
    for kind, exps in blocks:
        k = len(exps)
        names = [f"x{pos + i + 1}" for i in range(k)]
        for i, e in enumerate(exps):
            term = f"{names[i]}^{e}"
            if kind == "loop" or (kind == "chain" and i + 1 < k):
                term += f"*{names[(i + 1) % k]}"
            terms.append(term)
        pos += k
    return " + ".join(terms)


def jacobian_job(name: str, blocks) -> Job:
    """A `command = jacobian` job pinned by checks that use no Groebner basis:
    mu against the closed form from weights solved block by block, and the
    report's weight-series oracle flag."""
    q = block_weights(blocks)
    return Job(
        name=name,
        text=f"f = {block_polynomial(blocks)}\ncommand = jacobian\n",
        verify=True,
        expect={
            "exit": 0,
            "mu": milnor_number(q),
            "q": [str(qk) for qk in q],
            "oracle_agrees": True,
        },
        source="reference: mu = prod(1/q_k - 1) and the weight-series oracle",
    )


def milnor_jobs(seed: int, skeletons=MILNOR_SKELETONS, repeats=MILNOR_REPEATS):
    """Distinct random invertible polynomials as jacobian jobs.

    Polynomials are de-duplicated up to the order of their blocks.
    """
    rng = random.Random(seed)
    seen = set()
    jobs = []
    for rep in range(repeats):
        for slot, skeleton in enumerate(skeletons):
            for _ in range(_MAX_DRAWS):
                blocks = tuple(
                    (kind, tuple(rng.randint(*EXPONENTS) for _ in range(size)))
                    for kind, size in skeleton
                )
                key = tuple(sorted(blocks))
                if key in seen:
                    continue
                q = block_weights(blocks)
                mu = milnor_number(q)
                d0 = lcm(*(qk.denominator for qk in q))
                if MU_BAND[0] <= mu <= MU_BAND[1] and D0_BAND[0] <= d0 <= D0_BAND[1]:
                    break
            else:
                raise RuntimeError(f"no new polynomial for milnor slot {slot}")
            seen.add(key)
            jobs.append(jacobian_job(f"milnor-{rep}-{slot}", blocks))
    return jobs


# -- workloads -------------------------------------------------------------------

FIXED = {
    "sl-abelian": (K3_SLD,),
    "perm-quintic": (QUINTIC_A3, QUINTIC_S3),
    "jf-verify": (QUINTIC_J, MAIN_J),
}
WORKLOADS = tuple(FIXED) + ("milnor-batch",)


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list for one seed.

    Fixed workloads run the same jobs for every seed, in an order the
    seed shuffles; milnor-batch is the fixed anchor followed by
    polynomials drawn from the seed.
    """
    if workload == "milnor-batch":
        return [jacobian_job("milnor-anchor", MILNOR_ANCHOR)] + milnor_jobs(seed)
    jobs = list(FIXED[workload])
    random.Random(seed).shuffle(jobs)
    return jobs
