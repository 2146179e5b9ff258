"""Milnor algebras: Groebner bases for Jacobian ideals and residue pairings.

The quotient C[x]/(df/dx_1, ..., df/dx_N) of a quasihomogeneous
polynomial with isolated critical point is finite dimensional and
graded by weighted degree.  This module computes a reduced Groebner
basis of the Jacobian ideal in graded reverse lexicographic order,
enumerates the standard monomial basis, grades it, and equips it with
the residue pairing normalized against the Hessian class, read from
the few monomials whose residue is nonzero.

Inside, a monomial is one int (polynomial.Slots).  Variable i owns slot
i of S bits in an exponent vector E, the last variable highest, and the
top bit of every slot is a guard that stays clear.  A term is keyed by
its grevlex key (degree << S N) - E, so the order of keys is grevlex, the
leading term is max(), a product of monomials is + and a quotient -, and
divisibility, lcm and the coprime test are a few mask operations on E.
Polynomials are converted only at the edges: the partials go in and
normal forms come out.  A ring sizes one Slots from its weights, and its
Groebner basis is built, kept and read on it, as packed monic elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, prod
from operator import mul

from .cyclotomic import CycNum
from .errors import MilnorBoundExceeded, NonHomogeneous, NotIsolated
from .polynomial import Monomial, Polynomial, Slots, WeightSystem, hessian_determinant


def normal_form(terms: dict[int, CycNum], leads, slots: Slots) -> dict[int, CycNum]:
    """Remainder of packed terms under division by monic elements (as _monic
    gives them), largest key first; terms that cancel stay until popped.
    """
    mask, guard = slots.mask, slots.guard
    work = dict(terms)
    heap = [-k for k in work]
    heapify(heap)
    remainder: dict[int, CycNum] = {}
    while heap:
        lm = -heappop(heap)
        lc = work.pop(lm)
        if not lc:
            continue
        e = -lm & mask | guard
        for e_lead, key, tail in leads:
            if (e - e_lead) & guard == guard:
                shift, neg = lm - key, -lc
                for k, c in tail.items():
                    k += shift
                    acc = work.get(k)
                    if acc is None:
                        work[k] = neg * c
                        heappush(heap, -k)
                    else:
                        work[k] = acc - lc * c
                break
        else:
            remainder[lm] = lc
    return remainder


def _monic(terms: dict[int, CycNum], slots: Slots) -> tuple[int, int, dict[int, CycNum]]:
    """(E of the lead, key of the lead, the other terms) of terms over their lead."""
    lead = max(terms)
    inv = terms.pop(lead).inverse()
    return -lead & slots.mask, lead, {k: c * inv for k, c in terms.items()}


def groebner_basis(polys: list[Polynomial], slots: Slots, n: int) -> list:
    """The reduced monic Groebner basis of polys in grevlex order, as _monic
    triples over slots sorted by lead.

    Buchberger's algorithm with criteria M and F of Gebauer and Moeller
    (J. Symbolic Comput. 6, 1988): pairs wait in a heap by the key of
    their lcm, and each new element picks its pairs with the active ones.
    Their criterion B, which prunes older pairs, only drops pairs, so it
    is left out and every pair pushed is reduced.  Grevlex orders by
    degree first, so no term the algorithm meets has a larger degree than
    an input or a pair's lcm.

    A pair whose lcm the slots cannot hold is left out.  On the partials
    of f and the slots quotient_ring sizes, which hold every monomial of
    weighted degree up to c_hat + max q, that is exact.  Jac(f) is
    weighted homogeneous, so the pairs up to a weighted degree give every
    element of the reduced basis up to that degree.  For an isolated f,
    Jac(f) holds every monomial of degree over c_hat, and each monomial
    past c_hat + max q has a divisor of degree in (c_hat, c_hat + max q],
    so no reduced lead lies past it.  For a non-isolated f, the truncated
    leads lie in the full lead ideal, so they lack the pure power that the
    full basis lacks, and _standard_monomials still raises NotIsolated.
    """
    leads = [
        _monic({slots.key(m): c for m, c in p.terms.items()}, slots) for p in polys if p.terms
    ]
    guard, top, shift, zero = slots.guard, slots.bits - 1, slots.bits * slots.nvars, _zero(n)
    # the E of each element's lead, and the elements whose lead no later
    # lead divides
    exps = [e for e, _, _ in leads]
    inputs = len(leads)
    active: list[int] = []
    # the pairs (key of their lcm, i, j), i < j
    heap: list = []

    def lcm(a: int, b: int) -> int:
        ge = ((a | guard) - b) & guard  # the guard bits of the slots where a >= b
        return b ^ (a ^ b) & ge - (ge >> top)

    def update(new: int) -> None:
        t = exps[new]
        # criteria M and F: drop a new pair whose lcm another new pair's lcm
        # divides, keeping one of each lcm; a coprime pair (its lcm is the
        # product) always stays, so it prunes the others, and is dropped last
        # (Buchberger).  Sorted by E, coprime first, a pair comes after each
        # pair whose lcm divides its own, so testing against the kept pairs
        # is enough
        candidates = sorted((gamma := lcm(exps[k], t), gamma != exps[k] + t, k) for k in active)
        kept: list[int] = []
        for gamma, shared, k in candidates:
            gg = gamma | guard
            if not shared or not any((gg - other) & guard == guard for other in kept):
                kept.append(gamma)
                if shared and (deg := sum(slots.exponents(gamma))) < slots.cap:
                    heappush(heap, ((deg << shift) - gamma, k, new))
        active[:] = [k for k in active if ((exps[k] | guard) - t) & guard != guard]
        active.append(new)

    for new in range(inputs):
        update(new)
    while heap:
        key, i, j = heappop(heap)
        (_, ki, tail_i), (_, kj, tail_j) = leads[i], leads[j]
        # the S-polynomial: the monic leads cancel
        work = {k + key - ki: c for k, c in tail_i.items()}
        for k, c in tail_j.items():
            work[k + key - kj] = work.get(k + key - kj, zero) - c
        r = normal_form(work, leads, slots)
        if r:
            leads.append(_monic(r, slots))
            exps.append(leads[-1][0])
            update(len(leads) - 1)
    # minimalize: an active lead that another one divides is an input's
    # (a remainder's lead no earlier lead divides, and a later one would
    # have made it inactive); then reduce each tail against the others,
    # whose leads divide no term of it
    minimal = sorted(
        (
            leads[i]
            for i in active
            if i >= inputs
            or all(k == i or ((exps[i] | guard) - exps[k]) & guard != guard for k in active)
        ),
        key=lambda b: b[1],
    )
    return [
        (e, lead, normal_form(tail, minimal[:i] + minimal[i + 1 :], slots))
        for i, (e, lead, tail) in enumerate(minimal)
    ]


def _standard_monomials(
    leads: list[int], d: tuple[int, ...], slots: Slots
) -> tuple[list[tuple[Monomial, int]], dict[int, int]]:
    """Monomials outside the ideal of the leads (E packed in slots) as stairs
    (prefix, b), each for the prefix + (e,) with e < b (for 1 if there are
    no variables), and their grading {d0 * weighted degree: count} for the
    weights d, keys ascending.  NotIsolated if there are infinitely many.
    """
    nvars = len(d)
    if not nvars:
        return [((), 1)], {0: 1}
    # a leading monomial divides m exactly when its head (the exponents
    # before its last variable) divides m's prefix there and its last
    # exponent is at most m's; so prefixes grow one variable at a time,
    # each below the smallest last exponent of the leading monomials that
    # end at that variable with a head dividing the prefix.  Heads and
    # prefixes are packed (Slots); a pure power's head is 0
    guard, bits = slots.guard, slots.bits
    ending: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
    for e in leads:
        # the highest set bit lies in the last variable's slot
        shift = max(e.bit_length() - 1, 0) // bits * bits
        ending[shift // bits].append((e >> shift, e & (1 << shift) - 1))
    bounds = [min((e for e, head in heads if not head), default=None) for heads in ending]
    if None in bounds:
        raise NotIsolated(
            f"the Jacobian ideal contains no pure power of variable {bounds.index(None) + 1}; "
            "the critical point is not isolated"
        )
    # each prefix with its packed exponents and its degree over d / gcd(d)
    g = gcd(*d)
    d = [dk // g for dk in d]
    prefixes, exps, degrees = [()], [0], [0]
    for i in range(nvars):
        bs = []
        for e in exps:
            b, eg = bounds[i], e | guard
            for last, head in ending[i]:
                if last < b and (eg - head) & guard == guard:
                    b = last
            bs.append(b)
        if i < nvars - 1:
            unit, di = 1 << bits * i, d[i]
            prefixes = [p + (x,) for p, b in zip(prefixes, bs) for x in range(b)]
            exps = [e + x * unit for e, b in zip(exps, bs) for x in range(b)]
            degrees = [deg + x * di for deg, b in zip(degrees, bs) for x in range(b)]
    # a stair's degrees step by the last weight from its prefix's: +1 at the
    # first and -1 one stride past the last in a difference array, then
    # prefix sums along each residue class
    di = d[-1]
    ends = [deg + b * di for deg, b in zip(degrees, bs)]
    diff = [0] * (max(ends) + 1)
    for deg, end in zip(degrees, ends):
        diff[deg] += 1
        diff[end] -= 1
    for r in range(di):
        diff[r::di] = accumulate(diff[r::di])
    return list(zip(prefixes, bs)), {deg * g: c for deg, c in enumerate(diff) if c}


@dataclass
class JacobianRing:
    """Graded Milnor algebra of one polynomial with its residue pairing.

    Every monomial the ring reduces or pairs has weighted degree at most
    c_hat, and every Groebner term at most c_hat + max q (a reduced lead
    is x_i times a standard monomial), so one Slots sized from the weights
    holds them all.
    """

    f: Polynomial
    weights: WeightSystem
    slots: Slots = field(repr=False, compare=False)
    # the reduced Groebner basis as _monic triples over slots, sorted by lead
    groebner: list = field(repr=False, compare=False)
    # the standard monomials as _standard_monomials' stairs, which
    # graded_basis lists by degree on first read
    stairs: tuple[tuple[Monomial, int], ...]
    # {d0 * weighted degree: dimension}, keys in strictly ascending order
    graded: dict[int, int]
    top_monomial: Monomial
    hess_coefficient: CycNum
    mu: int
    # normal forms of monomials off the standard basis that the group action
    # reaches, filled on demand by monomial_form()
    forms: dict[Monomial, Polynomial] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def nvars(self) -> int:
        return self.f.nvars

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def c_hat(self) -> Fraction:
        return self.weights.central_charge

    @cached_property
    def top_degree(self) -> int:
        """d0 * c_hat, the degree of the top monomial."""
        return _integer_degree(self.top_monomial, self.weights)

    @cached_property
    def graded_basis(self) -> dict[int, tuple[Monomial, ...]]:
        """The standard monomials by d0 times their degree, keys as in graded,
        each degree's in grevlex order; listed on first read."""
        if not self.nvars:
            return {0: ((),)}
        # along a stair the packed key (Slots) steps by the last variable's,
        # and the degree by its weight
        slots, w = self.slots, self.weights
        step, di = slots.key((0,) * (self.nvars - 1) + (1,)), w.d[-1]
        split: dict[int, list] = {e: [] for e in self.graded}
        for prefix, b in self.stairs:
            key, e = slots.key(prefix + (0,)), _integer_degree(prefix, w)
            for x in range(b):
                split[e].append((key, prefix + (x,)))
                key += step
                e += di
        # keys are distinct, so sorting never compares the monomials
        return {e: tuple([m for _, m in sorted(ms)]) for e, ms in split.items()}

    @cached_property
    def standard(self) -> frozenset[Monomial]:
        """The standard monomials, for membership tests."""
        return frozenset(m for ms in self.graded_basis.values() for m in ms)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Normal form of p; its terms of degree over c_hat lie in the ideal and drop."""
        slots, w, top = self.slots, self.weights, self.top_degree
        terms = {slots.key(m): c for m, c in p.terms.items() if _integer_degree(m, w) <= top}
        nf = normal_form(terms, self.groebner, slots)
        return Polynomial._make(self.nvars, self.n, {slots.mono(k): c for k, c in nf.items()})

    @cached_property
    def socle(self) -> list[tuple[int, CycNum]]:
        """(E, Res) over every monomial whose residue is nonzero, E packed in slots.

        Res(m) is the top coefficient of NF(m) over the Hessian's, so the
        only standard such monomial is the top one.  Any other p = s L, for
        the lead L of a Groebner element, has Res(p) = -sum of c_t Res(s t)
        over the element's tail terms c_t t, so some s t below p in grevlex
        has a nonzero residue too.  Hence a search up from the top finds
        them all: each kept q and tail monomial t dividing q give the
        candidate q L / t, of key q + L - t, whose residue takes one normal
        form.
        """
        slots, gb = self.slots, self.groebner
        guard, mask = slots.guard, slots.mask
        top = slots.key(self.top_monomial)
        one = CycNum.one(self.n)
        # (E of t, key of L less key of t) per tail term t of an element with lead L
        tails = [(-t & mask, lead - t) for _, lead, tail in gb for t in tail]
        found = {top: one / self.hess_coefficient}
        seen = {top}
        stack = [top]
        while stack:
            q = stack.pop()
            eq = -q & mask | guard
            for e_t, shift in tails:
                p = q + shift
                if (eq - e_t) & guard != guard or p in seen:
                    continue
                seen.add(p)
                c = normal_form({p: one}, gb, slots).get(top)
                if c is not None:
                    found[p] = c / self.hess_coefficient
                    stack.append(p)
        return [(-k & mask, r) for k, r in found.items()]

    def dual(self, u: dict) -> dict[Monomial, CycNum]:
        """The functional <u, .> as {k: sum of u_m Res(m k)} over the socle.

        Each term u_m pairs only with the cofactors q/m of the socle
        monomials q that m divides, tested on packed exponents (Slots).  A
        monomial of a degree the slots cannot hold divides none, as every
        socle monomial has degree c_hat.
        """
        out: dict[Monomial, CycNum] = {}
        slots = self.slots
        guard, mask = slots.guard, slots.mask
        for m, c in u.items():
            if sum(m) >= slots.cap:
                continue
            e = -slots.key(m) & mask
            for eq, r in self.socle:
                if ((eq | guard) - e) & guard == guard:
                    k = slots.exponents(eq - e)
                    acc = out.get(k)
                    out[k] = c * r if acc is None else acc + c * r
        return out

    def monomial_form(self, mono: Monomial) -> Polynomial:
        """Normal form of one monomial, computed once per monomial and ring."""
        nf = self.forms.get(mono)
        if nf is None:
            nf = self.normal_form(Polynomial.monomial(mono, 1, self.nvars, self.n))
            self.forms[mono] = nf
        return nf


_RING_CACHE: dict[tuple, JacobianRing] = {}
# largest Milnor number quotient_ring builds; memory grows with mu (223 MiB at 10^6)
MAX_MILNOR = 10**7
_zero = lru_cache(maxsize=None)(CycNum.zero)


def quotient_ring(f: Polynomial, w: WeightSystem) -> JacobianRing:
    """The Milnor algebra C[x]/Jac(f), graded by the weights w.

    f must be quasihomogeneous of degree 1 for w.  The zero polynomial
    in zero variables yields the one-dimensional algebra C.  Raises
    NotIsolated when the critical point of f is not isolated, and
    MilnorBoundExceeded, before any Groebner work, when the weights give
    a Milnor number over MAX_MILNOR.
    """
    key = (f.key(), w)
    cached = _RING_CACHE.get(key)
    if cached is not None:
        return cached
    for mono in f.terms:
        deg = _integer_degree(mono, w)
        if deg != w.d0:
            raise NonHomogeneous(
                f"monomial with exponents {mono} has weighted degree "
                f"{Fraction(deg, w.d0)}, not 1"
            )
    if prod(w.d0 - dk for dk in w.d) > MAX_MILNOR * prod(w.d):
        raise MilnorBoundExceeded(
            f"the weights give Milnor number {milnor_number(w)}, "
            f"over the bound {MAX_MILNOR}"
        )
    # d0 * c_hat; a reduced Groebner term has degree at most c_hat + max q,
    # and so has a partial, as no weight exceeds 1/2, so at most this many
    # factors
    top = len(w.d) * w.d0 - 2 * sum(w.d)
    slots = Slots(f.nvars, (top + max(w.d, default=0)) // min(w.d, default=1))
    partials = [f.partial_derivative(i) for i in range(f.nvars)]
    groebner = groebner_basis(partials, slots, f.n)
    stairs, graded = _standard_monomials([e for e, _, _ in groebner], w.d, slots)
    hess = hessian_determinant(f)
    nf = normal_form({slots.key(m): c for m, c in hess.terms.items()}, groebner, slots)
    if len(nf) != 1:
        raise NotIsolated(
            "the Hessian class does not span the top graded piece; "
            "the critical point is degenerate"
        )
    ((top_key, coeff),) = nf.items()
    ring = JacobianRing(
        f=f,
        weights=w,
        slots=slots,
        groebner=groebner,
        stairs=tuple(stairs),
        graded=graded,
        top_monomial=slots.mono(top_key),
        hess_coefficient=coeff,
        mu=sum(b for _, b in stairs),
    )
    _RING_CACHE[key] = ring
    return ring


def _integer_degree(mono: Monomial, w: WeightSystem) -> int:
    """d0 times the weighted degree of mono."""
    return sum(map(mul, mono, w.d))


def poincare_dimensions(w: WeightSystem) -> dict[int, int]:
    """Graded dimensions of the Milnor algebra from the weights alone.

    Expands prod_k (1 - t^(d0 - d_k))/(1 - t^(d_k)) and returns
    {e: dimension} with e = d0 * degree, keys ascending.  The expansion
    runs over d0/g and d_k/g for g = gcd(d0, d_1, ..., d_N), and the keys
    are scaled back by g.  Independent of any Groebner computation, so it
    serves as a cross-check.
    """
    from sys import byteorder

    g = gcd(w.d0, *w.d)
    d0, d = w.d0 // g, [dk // g for dk in w.d]
    top = len(d) * d0 - 2 * sum(d)
    if top < 0:
        raise ArithmeticError("inexact polynomial division")
    # the series below t^size at t = 2^W, one slot of W bits per degree: no
    # coefficient there exceeds 2^N prod_k (size/d_k + 1) in absolute
    # value, and W, a multiple of 32, keeps one bit above that bound
    size = top + sum(d) + 1
    bound = 1 << len(d)
    for dk in d:
        bound *= size // dk + 1
    wide = bound.bit_length() // 32 + 1
    W = 32 * wide
    mask = (1 << W * size) - 1
    s = 1
    for dk in d:
        s -= s << W * (d0 - dk)
    for dk in d:
        # times 1 + t^dk + t^2dk + ... = (1 + t^dk)(1 + t^2dk)(1 + t^4dk)...
        step = dk
        while step < size:
            s = (s + (s << W * step)) & mask
            step *= 2
    # 2^(W - 1) added to every slot makes each slot c + 2^(W - 1), so no
    # slot borrows from the next; XOR-ing it back leaves c in each slot
    # (c + 2^W for a negative c, which no Milnor algebra's series has, so
    # the grading would disagree with it)
    halves = int.from_bytes((bytes(4 * wide - 1) + b"\x80") * size, "little")
    s = ((s + halves) & mask) ^ halves
    # the series is Q + R/D with deg Q = top and R/D proper over the
    # denominator D of degree sum(d), so its coefficients above top obey a
    # recurrence of that order: the sum(d) slots above top are all zero
    # exactly when R = 0
    if s >> W * (top + 1):
        raise ArithmeticError("inexact polynomial division")
    # native 32-bit words, least significant first, wide of them per slot
    words = memoryview(s.to_bytes(4 * wide * (top + 1), byteorder)).cast("I").tolist()
    if byteorder == "big":
        words.reverse()
    slots = words[::wide]
    for j in range(1, wide):
        slots = [c + (x << 32 * j) for c, x in zip(slots, words[j::wide])]
    return {e * g: c for e, c in enumerate(slots) if c}


def milnor_number(w: WeightSystem) -> int:
    """prod_k (1/q_k - 1), the expected dimension, as an exact integer."""
    mu = Fraction(1)
    for qk in w.q:
        mu *= 1 / qk - 1
    if mu.denominator != 1:
        qs = ", ".join(str(qk) for qk in w.q)
        raise NotIsolated(
            f"weights q = ({qs}) give the non-integral Milnor number {mu}; "
            "no polynomial with an isolated critical point has them"
        )
    return int(mu)
