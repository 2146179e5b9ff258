"""Monomial-matrix symmetries of a quasihomogeneous polynomial.

A GroupElement is the matrix M with M[i, sigma(i)] = e[phase_i]; it
substitutes x_i -> e[phase_i] * x_{sigma(i)} into polynomials.  Every
eigenvector of a monomial matrix lives on one sigma-cycle and has
root-of-unity entries, so group arithmetic and fixed loci need only
integer phases: an element holds numerators over one denominator, which
all elements of a closed group share, and fixed loci and transition
constants hold integers mod 2n at the state's conductor n.  Ages are
integer numerators over 2 * den; Fractions appear only in views (age(),
det_phase(), phase) and cyclotomic numbers only in restricted
coefficients, through phase_unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._linalg import smith_normal_form
# unused here; the benchmark tracer wraps these names in this module
from ._linalg import det, inverse, mat_mul  # noqa: F401
from .cyclotomic import CycNum, phase_unit
from .errors import (
    ClosureCapExceeded,
    LgError,
    MissingJ,
    NotASymmetry,
    NotInSL,
)
from .polynomial import Polynomial, WeightSystem, _ratio

_ZERO = Fraction(0)


class GroupElement:
    """Monomial matrix (sigma, phase): x_i -> e[phase_i] * x_{sigma(i)}.

    The phases are integer numerators num over one denominator den, each
    in [0, den).  GroupElement(sigma, phase) takes rational phases and
    writes them over their least common denominator; products and
    inverses stay over the larger denominator of their factors without
    reducing, so the elements of a closed group share one.  phase is the
    Fraction view; equality, hashing and key() go by value.
    """

    __slots__ = ("sigma", "num", "den")

    def __init__(self, sigma, phase) -> None:
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(len(sigma))):
            raise ValueError(f"{sigma} is not a permutation")
        phase = tuple(Fraction(a) % 1 for a in phase)
        if len(phase) != len(sigma):
            raise ValueError("phase vector length does not match")
        den = lcm(1, *(a.denominator for a in phase))
        self.sigma = sigma
        self.num = tuple(a.numerator * (den // a.denominator) for a in phase)
        self.den = den

    @classmethod
    def _make(cls, sigma: tuple[int, ...], num: tuple[int, ...], den: int):
        """An element from a permutation and numerators already in [0, den)."""
        g = object.__new__(cls)
        g.sigma, g.num, g.den = sigma, num, den
        return g

    # -- structure ---------------------------------------------------

    @property
    def phase(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    @property
    def nvars(self) -> int:
        return len(self.sigma)

    @property
    def is_diagonal(self) -> bool:
        return all(s == i for i, s in enumerate(self.sigma))

    @property
    def is_identity(self) -> bool:
        return self.is_diagonal and not any(self.num)

    @staticmethod
    def identity(nvars: int) -> "GroupElement":
        return GroupElement._make(tuple(range(nvars)), (0,) * nvars, 1)

    @staticmethod
    def diagonal(phases) -> "GroupElement":
        phases = tuple(phases)
        return GroupElement(tuple(range(len(phases))), phases)

    def over(self, den: int) -> "GroupElement":
        """The same element with its phases over den.

        Raises LgError unless den is a multiple of the least common
        denominator of the phases.
        """
        common = gcd(self.den, *self.num)
        least = self.den // common
        if den % least:
            raise LgError(
                f"phases of {format_element(self)} do not lie on the 1/{den} grid"
            )
        scale = den // least
        return GroupElement._make(
            self.sigma, tuple(a // common * scale for a in self.num), den
        )

    def key(self):
        """Hashable value: sigma and the phases over their least common denominator."""
        common = gcd(self.den, *self.num)
        return (self.sigma, tuple(a // common for a in self.num), self.den // common)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.sigma == other.sigma and all(
            a * other.den == b * self.den for a, b in zip(self.num, other.num)
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"GroupElement({self.sigma}, {self.phase})"

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Sigma-cycles (fixed points included), each from its minimal index."""
        return _cycles(self.sigma)

    def sign(self) -> int:
        return -1 if (self.nvars - len(self.cycles())) % 2 else 1

    def _cycle_totals(self):
        """(length, total numerator mod den) of each sigma-cycle."""
        return [
            (len(cyc), sum(self.num[i] for i in cyc) % self.den)
            for cyc in self.cycles()
        ]

    # -- group arithmetic ---------------------------------------------

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Matrix product self*other: substitute self first, then other."""
        a, b = self, other
        if a.den != b.den:
            den = lcm(a.den, b.den)
            a, b = a.over(den), b.over(den)
        return GroupElement._make(*_product_key(a, b), a.den)

    def inverse(self) -> "GroupElement":
        return GroupElement._make(*_inverse_key(self), self.den)

    def power(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse().power(-k)
        result = GroupElement.identity(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def order(self) -> int:
        o = 1
        for k, total in self._cycle_totals():
            o = lcm(o, k * (self.den // gcd(total, self.den)))
        return o

    # -- invariants ----------------------------------------------------

    def det_phase(self) -> Fraction:
        """Phase t with det(M) = e[t]."""
        half = self.den if self.sign() < 0 else 0
        return Fraction(2 * sum(self.num) + half, 2 * self.den) % 1

    def is_sl(self) -> bool:
        half = self.den if self.sign() < 0 else 0
        return (2 * sum(self.num) + half) % (2 * self.den) == 0

    def age_num(self) -> int:
        """The age as an integer numerator over 2 * den."""
        return sum(2 * total + (k - 1) * self.den for k, total in self._cycle_totals())

    def age(self) -> Fraction:
        """Sum of the fractional eigenvalue phases of the monomial matrix."""
        return Fraction(self.age_num(), 2 * self.den)

    def conductor(self) -> int:
        den = self.den
        n = lcm(1, *(den // gcd(a, den) for a in self.num))
        for k, total in self._cycle_totals():
            n = lcm(n, k * (den // gcd(total, den)))
        return n

    # -- action ----------------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """f(M x): substitute x_i -> e[phase_i] x_{sigma(i)}."""
        n = lcm(f.n, self.conductor())
        g = f.lift(n)
        scales = [phase_unit(2 * a, n) for a in self.over(n).num]
        return g.substitute_monomial(list(self.sigma), scales)

    def __str__(self) -> str:
        return format_element(self)


@lru_cache(maxsize=1024)
def _cycles(sigma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """GroupElement.cycles, by permutation: a group has few."""
    seen = [False] * len(sigma)
    out = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = sigma[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = sigma[v]
        out.append(tuple(cyc))
    return tuple(out)


@lru_cache(maxsize=1024)
def _cycle_text(sigma: tuple[int, ...]) -> str:
    """The cycles of sigma that move something, as format_element prints them."""
    return "*".join(
        "(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in _cycles(sigma) if len(cyc) > 1
    )


def format_element(g: GroupElement) -> str:
    cycles = _cycle_text(g.sigma)
    if not any(g.num):
        return cycles or "id"
    diag = "diag(" + ", ".join(_ratio(a, g.den) for a in g.num) + ")"
    return f"{cycles}*{diag}" if cycles else diag


def is_symmetry(f: Polynomial, g: GroupElement) -> bool:
    if g.nvars != f.nvars:
        return False
    n = lcm(f.n, g.conductor())
    return g.apply(f) == f.lift(n)


def make_jf(w: WeightSystem) -> GroupElement:
    """The grading symmetry: diagonal with phases equal to the weights."""
    return GroupElement.diagonal(w.q)


# -- diagonal symmetry groups ------------------------------------------------


@dataclass(frozen=True)
class DiagonalGroup:
    """All diagonal symmetries of a monomial family, as a finite abelian group."""

    nvars: int
    generators: tuple[tuple[Fraction, ...], ...]
    gen_orders: tuple[int, ...]
    invariant_factors: tuple[int, ...]
    order: int

    def elements(self):
        """Every element as a reduced phase vector, identity first."""
        vectors = [(_ZERO,) * self.nvars]
        for gen, s in zip(self.generators, self.gen_orders):
            new = []
            for v in vectors:
                cur = v
                for _ in range(s - 1):
                    cur = tuple((a + b) % 1 for a, b in zip(cur, gen))
                    new.append(cur)
            vectors.extend(new)
        return vectors


def diagonal_symmetries_of_rows(rows) -> DiagonalGroup:
    """Solve A*v in Z^M for v in (Q/Z)^N via the Smith normal form of A."""
    rows = [list(map(int, r)) for r in rows]
    nv = len(rows[0])
    s, _, v = smith_normal_form(rows)
    factors = []
    gens = []
    gen_orders = []
    for i in range(nv):
        si = s[i][i] if i < len(s) else 0
        if si == 0:
            raise LgError("diagonal symmetry group is infinite; input is degenerate")
        factors.append(si)
        if si > 1:
            gens.append(tuple(Fraction(v[j][i], si) % 1 for j in range(nv)))
            gen_orders.append(si)
    order = 1
    for si in factors:
        order *= si
    return DiagonalGroup(nv, tuple(gens), tuple(gen_orders), tuple(factors), order)


def diagonal_symmetries(f: Polynomial) -> DiagonalGroup:
    """The full diagonal symmetry group of f (all monomials constrained)."""
    return diagonal_symmetries_of_rows(sorted(f.terms))


def sl_diagonal_symmetries(f: Polynomial) -> DiagonalGroup:
    """The determinant-one diagonal symmetries of f.

    det(diag(e[v])) = e[sum v], so determinant one is the extra
    constraint that the all-ones row pairs v to an integer.
    """
    return diagonal_symmetries_of_rows(sorted(f.terms) + [(1,) * f.nvars])


# -- closed groups -----------------------------------------------------------


class FiniteGroup:
    """A closed list of monomial symmetries, sorted by (sigma, phase), and its classes.

    The elements share one denominator den, and index maps each element's
    (sigma, numerators) to its position; index_of lifts an element from
    outside to den first.  Products and conjugates are looked up there by
    their (sigma, numerators), built on demand without a GroupElement.
    generators indexes the closure generators, without repeats or the
    identity.  Classes are orbits of one walk under conjugation by them,
    begun at each smallest unclassified index, so each is led by its
    representative rep; conjugator[x] * rep * conjugator[x]^-1 = x.  The
    same walk gives centralizers[c], generators of the centralizer of
    class c's rep: over members x and generators s, with y = s x s^-1,
    the distinct non-identity conjugator[y]^-1 s conjugator[x] (Schreier's
    lemma; Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005).  When the generators commute pairwise, one product
    comparison per pair, the group is abelian and the walk is skipped:
    each element is its own class, its conjugator the identity and its
    centralizer generators the generators, exactly what the walk yields.
    diagonal says that every generator, so every element, is diagonal.
    """

    def __init__(self, elements: list[GroupElement], generators) -> None:
        self.den = elements[0].den
        ordered = sorted(elements, key=lambda g: (g.sigma, g.num))
        self.elements: tuple[GroupElement, ...] = tuple(ordered)
        self.index = {(g.sigma, g.num): i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)
        self.nvars = self.elements[0].nvars
        self.identity_index = self.index_of(GroupElement.identity(self.nvars))
        self.inv = tuple(self.index[_inverse_key(g)] for g in self.elements)
        gens = dict.fromkeys(map(self.index_of, generators))
        self.generators = tuple(s for s in gens if s != self.identity_index)
        class_of = [-1] * self.order
        conjugator = [self.identity_index] * self.order
        classes: list[tuple[int, ...]] = []
        centralizers: list[tuple[int, ...]] = []
        gens = [self.elements[s] for s in self.generators]
        pairs = ((a, b) for k, a in enumerate(gens) for b in gens[:k])
        if all(_product_key(a, b) == _product_key(b, a) for a, b in pairs):
            # abelian: prefill what the walk yields, so that it skips every element
            class_of = list(range(self.order))
            classes = [(g,) for g in range(self.order)]
            centralizers = [self.generators] * self.order
        for g in range(self.order):
            if class_of[g] >= 0:
                continue
            class_of[g] = len(classes)
            orbit = [g]
            schreier: dict[int, None] = {}
            for x in orbit:  # the orbit grows while it is walked
                for s in self.generators:
                    y = self.conjugate(s, x)
                    if class_of[y] < 0:  # its Schreier generator is the identity
                        class_of[y] = len(classes)
                        conjugator[y] = self.product(s, conjugator[x])
                        orbit.append(y)
                    elif x == y == g:
                        schreier[s] = None
                    else:
                        t = self.product(self.inv[conjugator[y]], self.product(s, conjugator[x]))
                        schreier[t] = None
            schreier.pop(self.identity_index, None)
            classes.append(tuple(sorted(orbit)))
            centralizers.append(tuple(schreier))
        self.classes = tuple(classes)
        self.centralizers = tuple(centralizers)
        self.class_of = tuple(class_of)
        self.conjugator = tuple(conjugator)
        # the determinant is a character, so the generators decide it
        self.all_sl = all(g.is_sl() for g in gens)
        # diagonal generators: every element is diagonal and G is abelian
        self.diagonal = all(g.is_diagonal for g in gens)

    def index_of(self, g: GroupElement) -> int | None:
        """Position of g, given over any denominator; None when g is not in the group."""
        if g.den != self.den:
            try:
                g = g.over(self.den)
            except LgError:  # a phase off the group's grid
                return None
        return self.index.get((g.sigma, g.num))

    def product(self, a: int, b: int) -> int:
        """Index of elements[a] * elements[b]."""
        return self.index[_product_key(self.elements[a], self.elements[b])]

    def conjugate(self, h: int, g: int) -> int:
        """Index of h * g * h^{-1}, keyed in one pass over the three elements."""
        x, y, z = self.elements[h], self.elements[g], self.elements[self.inv[h]]
        ys, yn, zs, zn, den = y.sigma, y.num, z.sigma, z.num, self.den
        sigma, num = [], []
        for s, a in zip(x.sigma, x.num):
            t = ys[s]
            sigma.append(zs[t])
            num.append((a + yn[s] + zn[t]) % den)
        return self.index[(tuple(sigma), tuple(num))]

    def contains(self, g: GroupElement) -> bool:
        return self.index_of(g) is not None


def _product_key(a: GroupElement, b: GroupElement):
    """(sigma, num) of a * b for two elements over one den, without building it."""
    den, bs, bn = a.den, b.sigma, b.num
    sigma, num = [], []
    for s, x in zip(a.sigma, a.num):
        sigma.append(bs[s])
        num.append((x + bn[s]) % den)
    return tuple(sigma), tuple(num)


@lru_cache(maxsize=1024)
def _inverse_sigma(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse permutation, by permutation: a group has few."""
    inv_sigma = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv_sigma[s] = i
    return tuple(inv_sigma)


def _inverse_key(g: GroupElement):
    """(sigma, num) of g^-1, without building it."""
    inv_sigma = _inverse_sigma(g.sigma)
    den, num = g.den, g.num
    return inv_sigma, tuple([-num[j] % den for j in inv_sigma])


def generate_group(
    generators,
    f: Polynomial,
    cap: int = 100000,
    require_sl: bool = False,
    require_j: GroupElement | None = None,
) -> FiniteGroup:
    """Close the generators under composition, validating symmetry of f.

    The generators are first written over the least common multiple of
    their reduced denominators, which every product then shares; an
    element is built only for a product not seen before.
    """
    nv = f.nvars
    for g in generators:
        if not is_symmetry(f, g):
            raise NotASymmetry(f"generator {format_element(g)} does not preserve f")
    den = lcm(1, *(g.den // gcd(g.den, *g.num) for g in generators))
    gens = [g.over(den) for g in generators]
    ident = GroupElement.identity(nv).over(den)
    elements = {(ident.sigma, ident.num): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                slot = _product_key(g, s)
                if slot not in elements:
                    if len(elements) >= cap:
                        raise ClosureCapExceeded(
                            f"group closure exceeded the cap of {cap} elements"
                        )
                    h = GroupElement._make(*slot, den)
                    elements[slot] = h
                    nxt.append(h)
        frontier = nxt
    group = FiniteGroup(list(elements.values()), gens)
    if require_sl and not group.all_sl:
        g = next(g for g in group.elements if not g.is_sl())
        raise NotInSL(f"element {format_element(g)} has determinant e[{g.det_phase()}] != 1")
    if require_j is not None and not group.contains(require_j):
        raise MissingJ("the group does not contain the grading symmetry j_f")
    return group


def group_conductor(group: FiniteGroup, extra: int = 1) -> int:
    """Conductor covering all phases, orders, and eigenvalue phases of G.

    Generators' phases span all phases and conjugates share eigenvalues, so
    generators and class representatives suffice; orders divide conductors.
    In a diagonal group the eigenvalue phases are the phases, integer
    combinations of the generators', so the generators alone suffice.
    """
    n = extra
    reps = () if group.diagonal else (cls[0] for cls in group.classes)
    for gi in (*group.generators, *reps):
        n = lcm(n, group.elements[gi].conductor())
    return n


# -- fixed loci --------------------------------------------------------------


@dataclass(frozen=True)
class FixedLocus:
    """Eigenvectors of one group element as phases, at a fixed conductor n.

    Phases are integers mod 2n counting steps of 1/(2n): the locus's own
    phases are even (they lie on the 1/n grid), and the odd half-steps
    leave room for the 1/2 that rho gains from an odd matching when n is
    odd.  Every eigenvector lives on one sigma-cycle, has phase 0 at the
    cycle's minimal index, and has root-of-unity entries.  Fix(g) has one
    coordinate per cycle with integral total phase, ordered by minimal
    index (i_fixed); fixed[i] = (column, phase) for each index i of such
    a cycle, so x_i restricts to e[phase/2n] * y_column.  moved lists the
    other eigenvectors as (cycle minimal index, theta, {index: phase})
    with eigenvalue e[theta/2n], ordered by (minimal index, ascending
    theta); their wedge fixes the sector letter xi_g.  The locus holds
    no CycNum: those appear only in restricted coefficients and basis
    vectors.
    """

    g: GroupElement
    n: int
    i_fixed: tuple[int, ...]
    fixed: dict[int, tuple[int, int]]
    moved: tuple[tuple[int, int, dict[int, int]], ...]

    @property
    def n_g(self) -> int:
        return len(self.i_fixed)

    def complement_indices(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.g.nvars) if k not in self.i_fixed)


def _half_steps(g: GroupElement, n: int) -> list[int]:
    """The phases of g as integers mod 2n; they must lie on the 1/n grid."""
    if n % g.den:
        g = g.over(n)
    scale = 2 * n // g.den
    return [a * scale for a in g.num]


def fixed_locus(g: GroupElement, n: int) -> FixedLocus:
    """Diagonalize g cycle by cycle and split eigenvectors by eigenvalue 1.

    A k-cycle of total phase a has eigenvalues e[(a + m)/k]; each must
    lie on the 1/n grid, or this raises LgError.
    """
    two_n = 2 * n
    steps = _half_steps(g, n)
    i_fixed: list[int] = []
    fixed: dict[int, tuple[int, int]] = {}
    moved = []
    for cyc in g.cycles():
        k = len(cyc)
        total = sum(steps[i] for i in cyc) % two_n
        for m in range(k):
            theta, rest = divmod(total + m * two_n, k)
            if rest or theta % 2:
                raise LgError(
                    f"an eigenvalue of {format_element(g)} has order not dividing {n}"
                )
            # walk the cycle: v[sigma(i)] = e[theta - phase_i] * v[i]
            phases = {}
            a = 0
            for i in cyc:
                phases[i] = a
                a = (a + theta - steps[i]) % two_n
            if theta == 0:
                fixed.update((i, (len(i_fixed), p)) for i, p in phases.items())
                i_fixed.append(cyc[0])
            else:
                moved.append((cyc[0], theta, phases))
    return FixedLocus(g, n, tuple(i_fixed), fixed, tuple(moved))


def restrict(f: Polynomial, locus: FixedLocus) -> Polynomial:
    """f on Fix(g) in N_g variables: x_i -> e[phase/2n] * y_column.

    A term that touches a moved index vanishes on Fix(g).
    """
    n = lcm(f.n, locus.n)
    scale = n // locus.n
    terms: dict[tuple[int, ...], CycNum] = {}
    for mono, coeff in f.lift(n).terms.items():
        out = [0] * locus.n_g
        phase = 0
        for i, e in enumerate(mono):
            if e:
                if i not in locus.fixed:
                    break
                col, a = locus.fixed[i]
                out[col] += e
                phase += e * a
        else:
            key = tuple(out)
            term = coeff * phase_unit(phase * scale, n)
            terms[key] = terms[key] + term if key in terms else term
    return Polynomial(locus.n_g, n, terms)


def restricted_weights(locus: FixedLocus, w: WeightSystem) -> WeightSystem:
    """Inherited weight system on Fix(g) (one weight per fixed cycle), over w's d0."""
    return WeightSystem(w.d0, tuple(w.d[i] for i in locus.i_fixed))


def rho_constant(h: GroupElement, locus_g: FixedLocus, locus_conj: FixedLocus) -> int:
    """Phase of the determinant e[t/2n] of Lambda(g) -> Lambda(hgh^{-1}), as t mod 2n.

    Lambda(g) is C^N/Fix(g) with the basis of moved eigenvectors of the
    locus.  h carries the eigenvector (C, theta) of g to a multiple of
    the eigenvector (sigma_h^{-1}(C), theta) of hgh^{-1}; with i0 the
    minimal index of sigma_h^{-1}(C), the multiple is
    e[phase_h(i0) + phase_v(sigma_h(i0))].  The determinant is the sign
    of this matching, which adds 1/2 (n half-steps) when odd, times the
    product of the multiples.
    """
    n = locus_g.n
    steps = _half_steps(h, n)
    target = {(c, theta): k for k, (c, theta, _) in enumerate(locus_conj.moved)}
    match = []
    total = 0
    for _, theta, phases in locus_g.moved:
        i0 = min(i for i, s in enumerate(h.sigma) if s in phases)
        match.append(target[(i0, theta)])
        total += steps[i0] + phases[h.sigma[i0]]
    odd = sum(a > b for k, a in enumerate(match) for b in match[k + 1 :]) % 2
    return (total + odd * n) % (2 * n)
