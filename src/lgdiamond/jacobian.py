"""Milnor algebras: Groebner bases for Jacobian ideals and residue pairings.

The quotient C[x]/(df/dx_1, ..., df/dx_N) of a quasihomogeneous
polynomial with isolated critical point is finite dimensional and
graded by weighted degree.  This module computes a reduced Groebner
basis of the Jacobian ideal in graded reverse lexicographic order,
enumerates the standard monomial basis, grades it, and equips it with
the residue pairing normalized against the Hessian class, read from
the few monomials whose residue is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import accumulate
from math import gcd, prod
from operator import add, le, mul, sub

from .cyclotomic import CycNum
from .errors import MilnorBoundExceeded, NonHomogeneous, NotIsolated
from .polynomial import Monomial, Polynomial, WeightSystem, hessian_determinant


def grevlex_key(mono: Monomial):
    """Sort key under which the graded reverse lexicographic order is <."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(min, a, b))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def leading_monomial(p: Polynomial) -> Monomial:
    return max(p.terms, key=grevlex_key)


def _monic(p: Polynomial) -> Polynomial:
    lc = p.terms[leading_monomial(p)]
    inv = lc.inverse()
    return Polynomial._make(p.nvars, p.n, {m: c * inv for m, c in p.terms.items()})


def normal_form(p: Polynomial, leads) -> Polynomial:
    """Remainder of p under division by monic elements, smallest terms last.

    leads lists each divisor as (its leading monomial, the element).
    """
    work = dict(p.terms)
    remainder: dict[Monomial, CycNum] = {}
    while work:
        lm = max(work, key=grevlex_key)
        lc = work.pop(lm)
        if not lc:
            continue
        for blm, b in leads:
            if _divides(blm, lm):
                shift = tuple(x - y for x, y in zip(lm, blm))
                for m2, c2 in b.terms.items():
                    if m2 == blm:
                        continue
                    mm = _mono_mul(m2, shift)
                    acc = work.get(mm)
                    acc = -lc * c2 if acc is None else acc - lc * c2
                    if acc:
                        work[mm] = acc
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[lm] = lc
    return Polynomial._make(p.nvars, p.n, remainder)


def _s_polynomial(lead_a, lead_b) -> Polynomial:
    """S-polynomial of two (leading monomial, monic element) pairs."""
    (la, a), (lb, b) = lead_a, lead_b
    gamma = _mono_lcm(la, lb)
    sa = tuple(x - y for x, y in zip(gamma, la))
    sb = tuple(x - y for x, y in zip(gamma, lb))
    ta = Polynomial._make(a.nvars, a.n, {_mono_mul(m, sa): c for m, c in a.terms.items()})
    tb = Polynomial._make(b.nvars, b.n, {_mono_mul(m, sb): c for m, c in b.terms.items()})
    return ta - tb


def groebner_basis(polys: list[Polynomial], nvars: int, n: int) -> list[Polynomial]:
    """Reduced monic Groebner basis in grevlex order, sorted by leading term.

    Buchberger's algorithm with the pair update of Gebauer and Moeller
    (J. Symbolic Comput. 6, 1988): pairs wait in a heap by the grevlex
    key of their lcm, and each new element prunes the pairs before it
    joins.  Pairs that the update drops stay in the heap and are
    skipped when popped.
    """
    leads: list[tuple[Monomial, Polynomial]] = []
    # elements whose leading monomial no later leading monomial divides
    active: list[int] = []
    # the live pairs (i, j), i < j, with their lcms
    pairs: dict[tuple[int, int], Monomial] = {}
    heap: list = []

    def update(b: Polynomial) -> None:
        t = leading_monomial(b)
        new = len(leads)
        # criterion B: drop an old pair whose lcm t divides, unless the lcm
        # of t with one of its ends is that lcm
        for (i, j), gamma in list(pairs.items()):
            if (
                _divides(t, gamma)
                and _mono_lcm(leads[i][0], t) != gamma
                and _mono_lcm(leads[j][0], t) != gamma
            ):
                del pairs[i, j]
        candidates = [
            (_mono_lcm(leads[k][0], t), k, _coprime(leads[k][0], t)) for k in active
        ]
        # criteria M and F: drop a new pair whose lcm another new pair's lcm
        # divides, keeping one of each lcm; a coprime pair always stays, so it
        # prunes the others, and is dropped last (Buchberger).  Sorted by lcm
        # degree, coprime first, a pair comes after each pair whose lcm divides
        # its own, so testing against the kept pairs is enough
        candidates.sort(key=lambda c: (sum(c[0]), not c[2]))
        kept = []
        for gamma, k, coprime in candidates:
            if coprime or not any(_divides(other[0], gamma) for other in kept):
                kept.append((gamma, k, coprime))
        for gamma, k, coprime in kept:
            if not coprime:
                pairs[k, new] = gamma
                heappush(heap, (grevlex_key(gamma), k, new))
        active[:] = [k for k in active if not _divides(t, leads[k][0])]
        active.append(new)
        leads.append((t, b))

    for p in polys:
        if not p.is_zero():
            update(_monic(p))
    while heap:
        _, i, j = heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        r = normal_form(_s_polynomial(leads[i], leads[j]), leads)
        if not r.is_zero():
            update(_monic(r))
    lms = [lm for lm, _ in leads]
    # minimalize: drop elements whose leading term another one divides;
    # of several equal leading terms the lowest-index element stays
    keep = [
        i
        for i in range(len(leads))
        if not any(
            _divides(lms[k], lms[i]) and (lms[k] != lms[i] or k < i)
            for k in range(len(leads))
        )
    ]
    minimal = [leads[i] for i in keep]
    # reduce tails against the other elements; leading terms stay
    reduced = []
    for i, (lm, b) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append((lm, normal_form(b, others) if others else b))
    reduced.sort(key=lambda pair: grevlex_key(pair[0]))
    return [b for _, b in reduced]


def _standard_monomials(
    lms: list[Monomial], d: tuple[int, ...]
) -> tuple[list[tuple[Monomial, int]], dict[int, int]]:
    """Monomials outside the leading-term ideal as stairs (prefix, b), each
    for the prefix + (e,) with e < b (for 1 if there are no variables), and
    their grading {d0 * weighted degree: count} for the weights d, keys
    ascending.  NotIsolated if there are infinitely many.
    """
    nvars = len(d)
    if not nvars:
        return [((), 1)], {0: 1}
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in lms if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            raise NotIsolated(
                f"the Jacobian ideal contains no pure power of variable {i + 1}; "
                "the critical point is not isolated"
            )
        bounds.append(min(pure))
    # a leading monomial divides m exactly when its head (the exponents
    # before its last variable) divides m's prefix there and its last
    # exponent is at most m's; so prefixes grow one variable at a time,
    # each below the smallest last exponent of the leading monomials that
    # end at that variable with a head dividing the prefix
    ending: list[list[tuple[Monomial, int]]] = [[] for _ in range(nvars)]
    for lm in lms:
        last = max((j for j, e in enumerate(lm) if e), default=0)
        ending[last].append((lm[:last], lm[last]))

    def bound(i: int, prefix: Monomial) -> int:
        b = bounds[i]
        for head, e in ending[i]:
            if e < b and _divides(head, prefix):
                b = e
        return b

    prefixes: list[Monomial] = [()]
    for i in range(nvars - 1):
        grown = []
        for prefix in prefixes:
            # one append at a time: no temporary list beside grown
            for e in range(bound(i, prefix)):
                grown.append(prefix + (e,))
        prefixes = grown
    # a stair's degrees step by the last weight from its prefix's: +1 at the
    # first and -1 one stride past the last in a difference array, then
    # prefix sums along each residue class; over d / gcd(d), so the array
    # spans the degrees in lowest terms
    stairs = [(prefix, bound(nvars - 1, prefix)) for prefix in prefixes]
    g = gcd(*d)
    d = [dk // g for dk in d]
    di = d[-1]
    starts = [(sum(map(mul, prefix, d)), b) for prefix, b in stairs]
    diff = [0] * (max(deg + b * di for deg, b in starts) + 1)
    for deg, b in starts:
        diff[deg] += 1
        diff[deg + b * di] -= 1
    for r in range(di):
        diff[r::di] = accumulate(diff[r::di])
    return stairs, {deg * g: c for deg, c in enumerate(diff) if c}


@dataclass
class JacobianRing:
    """Graded Milnor algebra of one polynomial with its residue pairing."""

    f: Polynomial
    weights: WeightSystem
    # (leading monomial, element) of each Groebner element, for normal_form
    leads: tuple[tuple[Monomial, Polynomial], ...]
    # the standard monomials as _standard_monomials' stairs; basis lists them
    stairs: tuple[tuple[Monomial, int], ...]
    # {d0 * weighted degree: dimension}, keys in strictly ascending order
    graded: dict[int, int]
    top_monomial: Monomial
    hess_coefficient: CycNum
    mu: int
    # {monomial: Res} over every monomial with a nonzero residue, built by
    # socle() on the first pairing, so a ring that never pairs skips it
    support: dict[Monomial, CycNum] | None = field(
        default=None, repr=False, compare=False
    )
    # normal forms of monomials off the standard basis that the group action
    # or socle() reaches, filled on demand by monomial_form()
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
    def basis(self) -> tuple[Monomial, ...]:
        """The standard monomials in grevlex order, listed on first read."""
        if not self.nvars:
            return ((),)
        # the grevlex key packed into one int (the total degree, then the exponents
        # from the last variable on, each below base), not two tuples per monomial
        base = 1 + max(max(prefix + (b,)) for prefix, b in self.stairs)
        steps = [base**self.nvars - base**i for i in range(self.nvars)]
        basis: list[Monomial] = []
        keys: list[int] = []
        for prefix, b in self.stairs:
            key = sum(map(mul, prefix, steps))
            for e in range(b):
                basis.append(prefix + (e,))
                keys.append(key)
                key += steps[-1]
        # list.sort calls its key once per item, in list order, before it compares
        ordered = iter(keys)
        basis.sort(key=lambda _: next(ordered))
        return tuple(basis)

    @cached_property
    def basis_index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.basis)}

    def normal_form(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.leads)

    def socle(self) -> dict[Monomial, CycNum]:
        """{monomial: Res} over every monomial whose residue is nonzero.

        Res(m) is the top coefficient of NF(m) over the Hessian's, so the
        only standard such monomial is the top one.  Any other p = s L, for
        the lead L of a Groebner element, has Res(p) = -sum of c_t Res(s t)
        over the element's tail terms c_t t, so some s t below p in grevlex
        has a nonzero residue too.  Hence a search up from the top finds
        them all: each kept q and tail monomial t dividing q give the
        candidate q L / t, whose residue takes one normal form.
        """
        if self.support is None:
            top = self.top_monomial
            found = {top: CycNum.one(self.n) / self.hess_coefficient}
            tails = [(lm, t) for lm, b in self.leads for t in b.terms if t != lm]
            seen = {top}
            stack = [top]
            while stack:
                q = stack.pop()
                for lm, t in tails:
                    if not _divides(t, q):
                        continue
                    p = tuple(map(add, map(sub, q, t), lm))
                    if p in seen:
                        continue
                    seen.add(p)
                    c = self.monomial_form(p).terms.get(top)
                    if c is not None:
                        found[p] = c / self.hess_coefficient
                        stack.append(p)
            self.support = found
        return self.support

    def dual(self, u: dict) -> dict[Monomial, CycNum]:
        """The functional <u, .> as {k: sum of u_m Res(m k)} over the socle.

        Each term u_m pairs only with the cofactors q/m of the socle
        monomials q that m divides.
        """
        out: dict[Monomial, CycNum] = {}
        socle = self.socle().items()
        for m, c in u.items():
            for q, r in socle:
                if _divides(m, q):
                    k = tuple(map(sub, q, m))
                    acc = out.get(k)
                    out[k] = c * r if acc is None else acc + c * r
        return out

    def residue(self, u: dict, v: dict) -> CycNum:
        """Pairing <u, v>: sum of u_m v_m' Res(m m') over their terms.

        u and v are term dicts {monomial: CycNum} at the ring's conductor,
        such as Polynomial.terms, of any degrees: terms whose degrees do
        not sum to c_hat pair to zero.  Res(m) is the top coefficient of
        NF(m) against the Hessian, so that <1, hessian class> = 1.
        """
        # most pairings are zero: they share one zero per conductor
        total = _zero(self.n)
        for k, a in self.dual(u).items():
            c = v.get(k)
            if c is not None:
                total = total + a * c
        return total

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
    partials = [f.partial_derivative(i) for i in range(f.nvars)]
    gb = groebner_basis(partials, f.nvars, f.n)
    lms = [leading_monomial(b) for b in gb]
    stairs, graded = _standard_monomials(lms, w.d)
    leads = tuple(zip(lms, gb))
    hess = normal_form(hessian_determinant(f), leads)
    if len(hess.terms) != 1:
        raise NotIsolated(
            "the Hessian class does not span the top graded piece; "
            "the critical point is degenerate"
        )
    ((top, coeff),) = hess.terms.items()
    ring = JacobianRing(
        f=f,
        weights=w,
        leads=leads,
        stairs=tuple(stairs),
        graded=graded,
        top_monomial=top,
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
