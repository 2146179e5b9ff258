"""Spans and counters around lgdiamond's layers, installed from outside.

`install()` replaces functions and methods of the imported package with
wrappers.  The package binds names with `from ... import`, so a wrapper
goes into every module that looks the name up (for example `rho_constant`
is wrapped in `statespace`, where `StateSpace.transport` finds it).  A
span records (name, start, end, parent index); a counter only counts.
Nothing inside the package is edited: the wrappers live only in the
traced worker process.
"""

from __future__ import annotations

import time
from collections import Counter

# (module or class, attribute, span name): timed spans.
SPANS = (
    ("cli", "parse_polynomial", "polynomial.parse"),
    ("cli", "analyze_weights", "quasihom.weights"),
    ("cli", "generate_group", "symmetry.closure"),
    ("cli", "quotient_ring", "jacobian.ring"),
    ("cli", "poincare_dimensions", "jacobian.poincare"),
    ("cli", "assemble_diamond", "statespace.assemble"),
    ("cli", "verify_theorem", "statespace.verify"),
    ("cli", "render_text", "cli.render"),
    ("statespace", "quotient_ring", "jacobian.ring"),
    ("statespace", "fixed_locus", "symmetry.fixed_locus"),
    ("statespace", "restrict", "symmetry.restrict"),
    ("statespace", "rho_constant", "symmetry.rho"),
    ("statespace", "det", "linalg.det"),
    ("statespace", "transpose_check", "statespace.transpose"),
    ("statespace", "duality_check", "statespace.duality"),
    ("symmetry", "inverse", "linalg.inverse"),
    ("symmetry", "mat_mul", "linalg.mat_mul"),
    ("symmetry", "det", "linalg.det"),
    ("jacobian", "normal_form", "jacobian.nf"),
    ("jacobian", "groebner_basis", "jacobian.groebner"),
    ("jacobian", "hessian_determinant", "polynomial.hessian"),
    ("StateSpace", "__init__", "statespace.sectors"),
    ("StateSpace", "blocks", "statespace.blocks"),
    ("StateSpace", "centralizer", "statespace.centralizer"),
)

# (module or class, attribute, counter name): call counts only.  `rref` is
# counted where `statespace` looks it up (the Reynolds path) and where
# `_linalg.solve` looks it up.
COUNTS = (
    ("statespace", "rref", "statespace.rref"),
    ("_linalg", "rref", "linalg.rref"),
    ("StateSpace", "transport", "statespace.transport"),
    ("StateSpace", "apply_to_monomial", "statespace.apply"),
    ("GroupElement", "compose", "symmetry.compose"),
    ("CycNum", "__mul__", "cyclotomic.mul"),
    ("CycNum", "__rmul__", "cyclotomic.mul"),
    ("CycNum", "__add__", "cyclotomic.add"),
    ("CycNum", "__radd__", "cyclotomic.add"),
    ("CycNum", "__truediv__", "cyclotomic.div"),
    ("CycNum", "__rtruediv__", "cyclotomic.div"),
)

# normal_form calls are attributed to the nearest of these enclosing spans.
NF_PARENTS = {
    "jacobian.groebner": "groebner",
    "statespace.blocks": "blocks",
    "statespace.verify": "verify",
}


def totient(n: int) -> int:
    """Euler's phi: the number of rational coordinates of a CycNum at n."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


class Tracer:
    """Spans and counts for one job, kept in memory until the job ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {name: 0 for _, _, name in COUNTS}
        self.ring_keys: set = set()
        self.mu_total = 0
        self.group_order = 0
        self.classes = 0
        self.blocks_seen: set[int] = set()
        self.blocks = 0
        self.blocks_nonzero = 0
        self.conductors: set[int] = set()

    def span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- observers of return values ----------------------------------------

    def _ring(self, args, ring) -> None:
        key = (args[0].key(), args[1])
        if key not in self.ring_keys:
            self.ring_keys.add(key)
            self.mu_total += ring.mu

    def _group(self, args, group) -> None:
        self.group_order += group.order
        self.classes += len(group.classes)

    def _state(self, args, _none) -> None:
        self.conductors.add(args[0].n)

    def _blocks(self, args, blocks) -> None:
        if id(blocks) not in self.blocks_seen:
            self.blocks_seen.add(id(blocks))
            self.blocks += len(blocks)
            self.blocks_nonzero += sum(1 for b in blocks if b.dimension)

    def _parsed(self, args, result) -> None:
        self.conductors.add(result[0].n)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer self times and counts of this job."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        nf_under: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
            if name == "jacobian.nf":
                while parent >= 0 and spans[parent][0] not in NF_PARENTS:
                    parent = spans[parent][3]
                if parent >= 0:
                    nf_under[NF_PARENTS[spans[parent][0]]] += 1
        c = self.counts
        return {
            "cli.parse_job_s": self_s["cli.parse_job"],
            "cli.render_s": self_s["cli.render"],
            "polynomial.parse_s": self_s["polynomial.parse"],
            "polynomial.hessian_s": self_s["polynomial.hessian"],
            "quasihom.weights_s": self_s["quasihom.weights"],
            "symmetry.closure_s": self_s["symmetry.closure"],
            "symmetry.compose_calls": c["symmetry.compose"],
            "symmetry.group_order": self.group_order,
            "symmetry.classes": self.classes,
            "symmetry.fixed_locus_s": self_s["symmetry.fixed_locus"],
            "symmetry.restrict_s": self_s["symmetry.restrict"],
            "symmetry.rho_calls": calls["symmetry.rho"],
            "symmetry.rho_s": self_s["symmetry.rho"],
            "linalg.inverse_calls": calls["linalg.inverse"],
            "linalg.inverse_s": self_s["linalg.inverse"],
            "linalg.mat_mul_s": self_s["linalg.mat_mul"],
            "linalg.det_calls": calls["linalg.det"],
            "linalg.det_s": self_s["linalg.det"],
            "linalg.rref_calls": c["linalg.rref"] + c["statespace.rref"],
            "cyclotomic.mul_calls": c["cyclotomic.mul"],
            "cyclotomic.add_calls": c["cyclotomic.add"],
            "cyclotomic.div_calls": c["cyclotomic.div"],
            "cyclotomic.degree": max(
                (totient(n) for n in self.conductors), default=1
            ),
            "jacobian.ring_calls": calls["jacobian.ring"],
            "jacobian.ring_builds": len(self.ring_keys),
            "jacobian.ring_s": self_s["jacobian.ring"],
            "jacobian.groebner_s": self_s["jacobian.groebner"],
            "jacobian.poincare_s": self_s["jacobian.poincare"],
            "jacobian.mu_total": self.mu_total,
            "jacobian.nf_calls.groebner": nf_under["groebner"],
            "jacobian.nf_calls.blocks": nf_under["blocks"],
            "jacobian.nf_calls.verify": nf_under["verify"],
            "jacobian.nf_s": self_s["jacobian.nf"],
            "statespace.sectors_s": self_s["statespace.sectors"],
            "statespace.blocks_s": self_s["statespace.blocks"],
            "statespace.blocks": self.blocks,
            "statespace.blocks_nonzero": self.blocks_nonzero,
            "statespace.centralizer_s": self_s["statespace.centralizer"],
            "statespace.transport_calls": c["statespace.transport"],
            "statespace.apply_calls": c["statespace.apply"],
            "statespace.reynolds_blocks": c["statespace.rref"],
            "statespace.assemble_s": self_s["statespace.assemble"],
            "statespace.verify_s": self_s["statespace.verify"],
            "statespace.transpose_s": self_s["statespace.transpose"],
            "statespace.duality_s": self_s["statespace.duality"],
        }


def install() -> Tracer:
    """Wrap the layers of an imported lgdiamond package; returns the tracer."""
    from lgdiamond import _linalg, cli, cyclotomic, jacobian, statespace, symmetry

    owners = {
        "cli": cli,
        "statespace": statespace,
        "symmetry": symmetry,
        "jacobian": jacobian,
        "_linalg": _linalg,
        "StateSpace": statespace.StateSpace,
        "GroupElement": symmetry.GroupElement,
        "CycNum": cyclotomic.CycNum,
    }
    tracer = Tracer()
    observers = {
        ("cli", "parse_polynomial"): tracer._parsed,
        ("cli", "generate_group"): tracer._group,
        ("cli", "quotient_ring"): tracer._ring,
        ("statespace", "quotient_ring"): tracer._ring,
        ("StateSpace", "__init__"): tracer._state,
        ("StateSpace", "blocks"): tracer._blocks,
    }
    for owner, attr, name in SPANS:
        target = owners[owner]
        after = observers.get((owner, attr))
        setattr(target, attr, tracer.span(name, getattr(target, attr), after))
    for owner, attr, name in COUNTS:
        target = owners[owner]
        setattr(target, attr, tracer.counter(name, getattr(target, attr)))
    return tracer
