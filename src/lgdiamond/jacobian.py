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

from .cyclotomic import CycNum
from .errors import NonHomogeneous, NotIsolated
from .polynomial import Monomial, Polynomial, WeightSystem, hessian_determinant


def grevlex_key(mono: Monomial):
    """Sort key under which the graded reverse lexicographic order is <."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def leading_monomial(p: Polynomial) -> Monomial:
    return max(p.terms, key=grevlex_key)


def _monic(p: Polynomial) -> Polynomial:
    lc = p.terms[leading_monomial(p)]
    inv = lc.inverse()
    return Polynomial(p.nvars, p.n, {m: c * inv for m, c in p.terms.items()})


def normal_form(p: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of p under division by (monic) basis, smallest terms last."""
    pairs = [(leading_monomial(b), b) for b in basis]
    work = dict(p.terms)
    remainder: dict[Monomial, CycNum] = {}
    while work:
        lm = max(work, key=grevlex_key)
        lc = work.pop(lm)
        if not lc:
            continue
        for blm, b in pairs:
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


def _s_polynomial(a: Polynomial, b: Polynomial) -> Polynomial:
    la, lb = leading_monomial(a), leading_monomial(b)
    gamma = _mono_lcm(la, lb)
    sa = tuple(x - y for x, y in zip(gamma, la))
    sb = tuple(x - y for x, y in zip(gamma, lb))
    ta = Polynomial(a.nvars, a.n, {_mono_mul(m, sa): c for m, c in a.terms.items()})
    tb = Polynomial(b.nvars, b.n, {_mono_mul(m, sb): c for m, c in b.terms.items()})
    return ta - tb


def groebner_basis(polys: list[Polynomial], nvars: int, n: int) -> list[Polynomial]:
    """Reduced monic Groebner basis in grevlex order, sorted by leading term."""
    basis = [_monic(p) for p in polys if not p.is_zero()]
    lms = [leading_monomial(b) for b in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done: set[tuple[int, int]] = set()
    while pairs:
        i, j = min(pairs, key=lambda ij: grevlex_key(_mono_lcm(lms[ij[0]], lms[ij[1]])))
        pairs.remove((i, j))
        done.add((i, j))
        gamma = _mono_lcm(lms[i], lms[j])
        # coprime criterion: disjoint leading supports give a zero reduction
        if gamma == _mono_mul(lms[i], lms[j]):
            continue
        # chain criterion: a third basis element whose pairs are settled
        if any(
            k != i and k != j
            and _divides(lms[k], gamma)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        r = normal_form(_s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(_monic(r))
        lms.append(leading_monomial(basis[-1]))
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    # minimalize: drop elements whose leading term another one divides;
    # of several equal leading terms the lowest-index element stays
    keep = [
        i
        for i in range(len(basis))
        if not any(
            _divides(lms[k], lms[i]) and (lms[k] != lms[i] or k < i)
            for k in range(len(basis))
        )
    ]
    minimal = [basis[i] for i in keep]
    # reduce tails against the other elements
    reduced = []
    for i, b in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(b, others) if others else b)
    reduced.sort(key=lambda b: grevlex_key(leading_monomial(b)))
    return reduced


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
    # a leading monomial divides m exactly when it divides the prefix of m
    # up to its own last variable, so prefixes grow one variable at a time
    # and meet only the leading monomials that end at that variable
    ending: list[list[Monomial]] = [[] for _ in range(nvars)]
    for lm in lms:
        last = max((j for j, e in enumerate(lm) if e), default=0)
        ending[last].append(lm[: last + 1])
    prefixes: list[Monomial] = [()]
    for i, bound in enumerate(bounds):
        grown = []
        for prefix in prefixes:
            for e in range(bound):
                mono = prefix + (e,)
                # the standard monomials form an order ideal: past the
                # first divisible exponent none is standard
                if any(_divides(lm, mono) for lm in ending[i]):
                    break
                grown.append(mono)
        prefixes = grown
    prefixes.sort(key=grevlex_key)
    return prefixes


@dataclass
class JacobianRing:
    """Graded Milnor algebra of one polynomial with its residue pairing."""

    f: Polynomial
    weights: WeightSystem
    groebner: tuple[Polynomial, ...]
    basis: tuple[Monomial, ...]
    basis_index: dict[Monomial, int]
    graded: dict[Fraction, int]
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
        return normal_form(p, list(self.groebner))

    def monomial_degree(self, mono: Monomial) -> Fraction:
        return Fraction(_integer_degree(mono, self.weights), self.weights.d0)

    def residue(self, u: Polynomial, v: Polynomial) -> CycNum:
        """Pairing <u, v>: sum of u_m v_m' Res(m m') over their terms.

        Res(m) is the top coefficient of NF(m) against the Hessian, so
        that <1, hessian class> = 1.
        """
        u, v = u.lift(self.n), v.lift(self.n)
        total = CycNum.zero(self.n)
        for m1, c1 in u.terms.items():
            for m2, c2 in v.terms.items():
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
    graded = {Fraction(deg, w.d0): c for deg, c in counts.items()}
    hess = normal_form(hessian_determinant(f), gb)
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
    return sum(e * dk for e, dk in zip(mono, w.d))


def poincare_dimensions(w: WeightSystem) -> dict[Fraction, int]:
    """Graded dimensions of the Milnor algebra from the weights alone.

    Expands prod_k (t^(1 - q_k) - 1)/(t^(q_k) - 1) as a polynomial in
    t^(1/d0) and returns {degree: dimension}.  Independent of any
    Groebner computation, so it serves as a cross-check.
    """
    # multiply by each binomial t^(d0 - d_k) - 1, then divide exactly by
    # each t^(d_k) - 1; every step is linear in the length
    num = [1]
    for dk in w.d:
        shift = w.d0 - dk
        num = [a - b for a, b in zip([0] * shift + num, num + [0] * shift)]
    for dk in w.d:
        for i in range(len(num) - dk - 1, -1, -1):
            num[i] += num[i + dk]
        if any(num[:dk]):
            raise ArithmeticError("inexact polynomial division")
        num = num[dk:]
    return {Fraction(e, w.d0): c for e, c in enumerate(num) if c}


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
