"""Milnor algebras: Groebner bases for Jacobian ideals and residue pairings.

The quotient C[x]/(df/dx_1, ..., df/dx_N) of a quasihomogeneous
polynomial with isolated critical point is finite dimensional and
graded by weighted degree.  This module computes a reduced Groebner
basis of the Jacobian ideal in graded reverse lexicographic order,
enumerates the standard monomial basis, grades it, and equips it with
the residue pairing normalized against the Hessian class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from operator import add, le, mul

from .cyclotomic import CycNum
from .errors import NonHomogeneous, NotIsolated
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
    return Polynomial(p.nvars, p.n, {m: c * inv for m, c in p.terms.items()})


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
    return Polynomial(p.nvars, p.n, remainder)


def _s_polynomial(lead_a, lead_b) -> Polynomial:
    """S-polynomial of two (leading monomial, monic element) pairs."""
    (la, a), (lb, b) = lead_a, lead_b
    gamma = _mono_lcm(la, lb)
    sa = tuple(x - y for x, y in zip(gamma, la))
    sb = tuple(x - y for x, y in zip(gamma, lb))
    ta = Polynomial(a.nvars, a.n, {_mono_mul(m, sa): c for m, c in a.terms.items()})
    tb = Polynomial(b.nvars, b.n, {_mono_mul(m, sb): c for m, c in b.terms.items()})
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
        # divides, keeping one of each lcm; a coprime pair always stays,
        # so that it prunes the others, and is dropped last (Buchberger)
        kept = []
        for c, (gamma, k, coprime) in enumerate(candidates):
            if coprime or not any(
                _divides(other[0], gamma) for other in chain(candidates[c + 1 :], kept)
            ):
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


def _standard_monomials(lms: list[Monomial], nvars: int) -> list[Monomial]:
    """Monomials outside the leading-term ideal; NotIsolated if infinite."""
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
    prefixes: list[Monomial] = [()]
    for i, pure in enumerate(bounds):
        grown = []
        for prefix in prefixes:
            bound = pure
            for head, e in ending[i]:
                if e < bound and _divides(head, prefix):
                    bound = e
            # one append at a time: no temporary list beside grown
            for e in range(bound):
                grown.append(prefix + (e,))
        prefixes = grown
    # sorted by grevlex_key packed into one integer (the total degree, then
    # the exponents from the last variable on, each below base), so the
    # sort holds one int per monomial rather than two tuples
    base = max(bounds, default=0) + 1
    places = [base**i for i in range(nvars)]
    top = base**nvars
    prefixes.sort(key=lambda m: sum(m) * top - sum(map(mul, m, places)))
    return prefixes


@dataclass
class JacobianRing:
    """Graded Milnor algebra of one polynomial with its residue pairing."""

    f: Polynomial
    weights: WeightSystem
    groebner: tuple[Polynomial, ...]
    # (leading monomial, element) of each Groebner element, for normal_form
    leads: tuple[tuple[Monomial, Polynomial], ...]
    basis: tuple[Monomial, ...]
    basis_index: dict[Monomial, int]
    # {d0 * weighted degree: dimension}, keys in strictly ascending order
    graded: dict[int, int]
    top_monomial: Monomial
    hess_coefficient: CycNum
    mu: int
    # Res of product monomials, filled on demand by residue()
    residues: dict[Monomial, CycNum | None] = field(
        default_factory=dict, repr=False, compare=False
    )
    # normal forms of the monomials that the group action reaches off the
    # standard basis, filled on demand by monomial_form()
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

    def normal_form(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.leads)

    def monomial_degree(self, mono: Monomial) -> Fraction:
        return Fraction(_integer_degree(mono, self.weights), self.weights.d0)

    def residue(self, u: dict, v: dict) -> CycNum:
        """Pairing <u, v>: sum of u_m v_m' Res(m m') over their terms.

        u and v are term dicts {monomial: CycNum} at the ring's conductor,
        such as Polynomial.terms.  Res(m) is the top coefficient of NF(m)
        against the Hessian, so that <1, hessian class> = 1.
        """
        # most Gram entries are zero: they share one zero per conductor
        total = _zero(self.n)
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                r = self._monomial_residue(_mono_mul(m1, m2))
                if r is not None:
                    total = total + c1 * c2 * r
        return total

    def monomial_form(self, mono: Monomial) -> Polynomial:
        """Normal form of one monomial, computed once per monomial and ring."""
        nf = self.forms.get(mono)
        if nf is None:
            nf = self.normal_form(Polynomial.monomial(mono, 1, self.nvars, self.n))
            self.forms[mono] = nf
        return nf

    def _monomial_residue(self, mono: Monomial) -> CycNum | None:
        """Res(mono), None when zero; one normal form per monomial and ring."""
        if mono not in self.residues:
            nf = self.normal_form(Polynomial.monomial(mono, 1, self.nvars, self.n))
            top = nf.terms.get(self.top_monomial)
            self.residues[mono] = None if top is None else top / self.hess_coefficient
        return self.residues[mono]


_RING_CACHE: dict[tuple, JacobianRing] = {}
_zero = lru_cache(maxsize=None)(CycNum.zero)


def quotient_ring(f: Polynomial, w: WeightSystem) -> JacobianRing:
    """The Milnor algebra C[x]/Jac(f), graded by the weights w.

    f must be quasihomogeneous of degree 1 for w.  The zero polynomial
    in zero variables yields the one-dimensional algebra C.  Raises
    NotIsolated when the critical point of f is not isolated.
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
    partials = [f.partial_derivative(i) for i in range(f.nvars)]
    gb = groebner_basis(partials, f.nvars, f.n)
    lms = [leading_monomial(b) for b in gb]
    basis = _standard_monomials(lms, f.nvars)
    counts = Counter(_integer_degree(mono, w) for mono in basis)
    graded = {deg: counts[deg] for deg in sorted(counts)}
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
        groebner=tuple(gb),
        leads=leads,
        basis=tuple(basis),
        basis_index={m: i for i, m in enumerate(basis)},
        graded=graded,
        top_monomial=top,
        hess_coefficient=coeff,
        mu=len(basis),
    )
    _RING_CACHE[key] = ring
    return ring


def _integer_degree(mono: Monomial, w: WeightSystem) -> int:
    """d0 times the weighted degree of mono."""
    return sum(map(mul, mono, w.d))


def poincare_dimensions(w: WeightSystem) -> dict[int, int]:
    """Graded dimensions of the Milnor algebra from the weights alone.

    Expands prod_k (1 - t^(d0 - d_k))/(1 - t^(d_k)) and returns
    {e: dimension} with e = d0 * degree, keys ascending.  Independent of
    any Groebner computation, so it serves as a cross-check.
    """
    from sys import byteorder

    d0, d = w.d0, w.d
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
    # half = 2^(W - 1) added to every slot makes each slot c + half, so no
    # slot borrows from the next
    half = 1 << W - 1
    s = (s + int.from_bytes((bytes(4 * wide - 1) + b"\x80") * size, "little")) & mask
    # native 32-bit words, least significant first, wide of them per slot
    words = memoryview(s.to_bytes(4 * wide * size, byteorder)).cast("I").tolist()
    if byteorder == "big":
        words.reverse()
    slots = words[::wide]
    for j in range(1, wide):
        slots = [c + (x << 32 * j) for c, x in zip(slots, words[j::wide])]
    # the series is Q + R/D with deg Q = top and R/D proper over the
    # denominator D of degree sum(d), so its coefficients above top obey a
    # recurrence of that order: the sum(d) slots above top are all zero
    # exactly when R = 0
    if slots[top + 1 :] != [half] * (size - top - 1):
        raise ArithmeticError("inexact polynomial division")
    return {e: c - half for e, c in enumerate(slots[: top + 1]) if c != half}


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
