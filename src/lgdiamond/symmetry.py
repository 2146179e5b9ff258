"""Monomial-matrix symmetries of a quasihomogeneous polynomial.

A GroupElement is the matrix M with M[i, sigma(i)] = e[phase_i]; it
substitutes x_i -> e[phase_i] * x_{sigma(i)} into polynomials.  Group
arithmetic and fixed loci stay in exact rational phases: every
eigenvector of a monomial matrix lives on one sigma-cycle and has
root-of-unity entries.  Cyclotomic numbers appear only in restricted
coefficients, transition constants and the scalars of sector
transports, at a chosen conductor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._linalg import smith_normal_form
# unused here; the benchmark tracer wraps these names in this module
from ._linalg import det, inverse, mat_mul  # noqa: F401
from .cyclotomic import CycNum, root_of_unity
from .errors import (
    ClosureCapExceeded,
    LgError,
    MissingJ,
    NotASymmetry,
    NotInSL,
)
from .polynomial import Polynomial, WeightSystem

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GroupElement:
    """Monomial matrix (sigma, phase): x_i -> e[phase_i] * x_{sigma(i)}."""

    sigma: tuple[int, ...]
    phase: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "phase", tuple(Fraction(a) % 1 for a in self.phase))
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise ValueError(f"{self.sigma} is not a permutation")
        if len(self.phase) != len(self.sigma):
            raise ValueError("phase vector length does not match")

    # -- structure ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.sigma)

    @property
    def is_diagonal(self) -> bool:
        return all(s == i for i, s in enumerate(self.sigma))

    @property
    def is_identity(self) -> bool:
        return self.is_diagonal and all(a == 0 for a in self.phase)

    @staticmethod
    def identity(nvars: int) -> "GroupElement":
        return GroupElement(tuple(range(nvars)), (_ZERO,) * nvars)

    @staticmethod
    def diagonal(phases) -> "GroupElement":
        phases = tuple(Fraction(a) for a in phases)
        return GroupElement(tuple(range(len(phases))), phases)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Sigma-cycles (fixed points included), each from its minimal index."""
        seen = [False] * self.nvars
        out = []
        for start in range(self.nvars):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self.sigma[start]
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = self.sigma[v]
            out.append(tuple(cyc))
        return tuple(out)

    def sign(self) -> int:
        return -1 if (self.nvars - len(self.cycles())) % 2 else 1

    # -- group arithmetic ---------------------------------------------

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Matrix product self*other: substitute self first, then other."""
        sigma = tuple(other.sigma[s] for s in self.sigma)
        phase = tuple(a + other.phase[s] for a, s in zip(self.phase, self.sigma))
        return GroupElement(sigma, phase)

    def inverse(self) -> "GroupElement":
        inv_sigma = [0] * self.nvars
        for i, s in enumerate(self.sigma):
            inv_sigma[s] = i
        phase = tuple(-self.phase[inv_sigma[i]] for i in range(self.nvars))
        return GroupElement(tuple(inv_sigma), phase)

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
        for cyc in self.cycles():
            total = sum(self.phase[i] for i in cyc) % 1
            o = lcm(o, len(cyc) * total.denominator)
        return o

    # -- invariants ----------------------------------------------------

    def det_phase(self) -> Fraction:
        """Phase t with det(M) = e[t]."""
        t = sum(self.phase, _ZERO)
        if self.sign() < 0:
            t += Fraction(1, 2)
        return t % 1

    def is_sl(self) -> bool:
        return self.det_phase() == 0

    def age(self) -> Fraction:
        """Sum of the fractional eigenvalue phases of the monomial matrix."""
        total = _ZERO
        for cyc in self.cycles():
            k = len(cyc)
            a = sum(self.phase[i] for i in cyc) % 1
            total += a + Fraction(k - 1, 2)
        return total

    def conductor(self) -> int:
        n = 1
        for a in self.phase:
            n = lcm(n, a.denominator)
        for cyc in self.cycles():
            a = sum(self.phase[i] for i in cyc) % 1
            n = lcm(n, len(cyc) * a.denominator)
        return n

    # -- action ----------------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """f(M x): substitute x_i -> e[phase_i] x_{sigma(i)}."""
        n = lcm(f.n, self.conductor())
        g = f.lift(n)
        scales = [root_of_unity(a, n) for a in self.phase]
        return g.substitute_monomial(list(self.sigma), scales)

    def key(self):
        return (self.sigma, self.phase)

    def __str__(self) -> str:
        return format_element(self)


def format_element(g: GroupElement) -> str:
    if g.is_identity:
        return "id"
    parts = []
    for cyc in g.cycles():
        if len(cyc) > 1:
            parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    if any(a != 0 for a in g.phase):
        parts.append("diag(" + ", ".join(str(a) for a in g.phase) + ")")
    return "*".join(parts)


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
    """A closed list of monomial symmetries, sorted by key, and its classes.

    Products and conjugates are composed on demand; nothing of size |G|^2
    is stored.  Classes are orbits of one walk under conjugation by the
    generators, begun at each smallest unclassified index, so each is led
    by its representative rep; conjugator[x] * rep * conjugator[x]^-1 = x.
    """

    def __init__(self, elements: list[GroupElement], generators) -> None:
        ordered = sorted(elements, key=lambda g: g.key())
        self.elements: tuple[GroupElement, ...] = tuple(ordered)
        self.index = {g.key(): i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)
        self.nvars = self.elements[0].nvars
        self.identity_index = self.index[GroupElement.identity(self.nvars).key()]
        self.inv = tuple(self.index[g.inverse().key()] for g in self.elements)
        gens = [self.index[s.key()] for s in generators]
        class_of = [-1] * self.order
        conjugator = [self.identity_index] * self.order
        classes: list[tuple[int, ...]] = []
        for g in range(self.order):
            if class_of[g] >= 0:
                continue
            class_of[g] = len(classes)
            orbit = [g]
            for x in orbit:  # the orbit grows while it is walked
                for s in gens:
                    y = self.conjugate(s, x)
                    if class_of[y] < 0:
                        class_of[y] = len(classes)
                        conjugator[y] = self.product(s, conjugator[x])
                        orbit.append(y)
            classes.append(tuple(sorted(orbit)))
        self.classes = tuple(classes)
        self.class_of = tuple(class_of)
        self.conjugator = tuple(conjugator)
        self.all_sl = all(g.is_sl() for g in self.elements)

    def product(self, a: int, b: int) -> int:
        """Index of elements[a] * elements[b]."""
        return self.index[self.elements[a].compose(self.elements[b]).key()]

    def conjugate(self, h: int, g: int) -> int:
        """Index of h * g * h^{-1}."""
        hg = self.elements[h].compose(self.elements[g])
        return self.index[hg.compose(self.elements[self.inv[h]]).key()]

    def contains(self, g: GroupElement) -> bool:
        return g.key() in self.index


def generate_group(
    generators,
    f: Polynomial,
    cap: int = 100000,
    require_sl: bool = False,
    require_j: GroupElement | None = None,
) -> FiniteGroup:
    """Close the generators under composition, validating symmetry of f."""
    nv = f.nvars
    for g in generators:
        if not is_symmetry(f, g):
            raise NotASymmetry(f"generator {format_element(g)} does not preserve f")
    ident = GroupElement.identity(nv)
    elements = {ident.key(): ident}
    frontier = [ident]
    gens = list(generators)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g.compose(s)
                if h.key() not in elements:
                    if len(elements) >= cap:
                        raise ClosureCapExceeded(
                            f"group closure exceeded the cap of {cap} elements"
                        )
                    elements[h.key()] = h
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
    """Conductor covering all phases, orders, and eigenvalue phases of G."""
    n = extra
    for g in group.elements:
        n = lcm(n, g.conductor(), g.order())
    return n


# -- fixed loci --------------------------------------------------------------


@dataclass(frozen=True)
class FixedLocus:
    """Eigenvectors of one group element as phases, at a fixed conductor n.

    Every eigenvector lives on one sigma-cycle, has phase 0 at the
    cycle's minimal index, and has root-of-unity entries.  Fix(g) has
    one coordinate per cycle with integral total phase, ordered by
    minimal index (i_fixed); fixed[i] = (column, phase) for each index
    i of such a cycle, so x_i restricts to e[phase] * y_column.  moved
    lists the other eigenvectors as (cycle minimal index, theta,
    {index: phase}) with eigenvalue e[theta], ordered by (minimal
    index, ascending theta); their wedge fixes the sector letter xi_g.
    The locus holds no CycNum: those appear only in restricted
    coefficients, rho and transport scalars.
    """

    g: GroupElement
    n: int
    i_fixed: tuple[int, ...]
    fixed: dict[int, tuple[int, Fraction]]
    moved: tuple[tuple[int, Fraction, dict[int, Fraction]], ...]

    @property
    def n_g(self) -> int:
        return len(self.i_fixed)

    @property
    def d_g(self) -> int:
        return len(self.moved)

    @property
    def w_phases(self) -> tuple[Fraction, ...]:
        return tuple(theta for _, theta, _ in self.moved)

    def complement_indices(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.g.nvars) if k not in self.i_fixed)


def fixed_locus(g: GroupElement, n: int) -> FixedLocus:
    """Diagonalize g cycle by cycle and split eigenvectors by eigenvalue 1."""
    i_fixed: list[int] = []
    fixed: dict[int, tuple[int, Fraction]] = {}
    moved = []
    for cyc in g.cycles():
        k = len(cyc)
        total = sum(g.phase[i] for i in cyc) % 1
        for m in range(k):
            theta = (total + m) / k
            # walk the cycle: v[sigma(i)] = e[theta - phase_i] * v[i]
            phases = {}
            a = _ZERO
            for i in cyc:
                phases[i] = a
                a = (a + theta - g.phase[i]) % 1
            if theta == 0:
                fixed.update((i, (len(i_fixed), p)) for i, p in phases.items())
                i_fixed.append(cyc[0])
            else:
                moved.append((cyc[0], theta, phases))
    return FixedLocus(g, n, tuple(i_fixed), fixed, tuple(moved))


def restrict(f: Polynomial, locus: FixedLocus) -> Polynomial:
    """f on Fix(g) in N_g variables: x_i -> e[phase] * y_column.

    A term that touches a moved index vanishes on Fix(g).
    """
    n = lcm(f.n, locus.n)
    terms: dict[tuple[int, ...], CycNum] = {}
    for mono, coeff in f.lift(n).terms.items():
        out = [0] * locus.n_g
        phase = _ZERO
        for i, e in enumerate(mono):
            if e:
                if i not in locus.fixed:
                    break
                col, a = locus.fixed[i]
                out[col] += e
                phase += e * a
        else:
            key = tuple(out)
            term = coeff * root_of_unity(phase, n)
            terms[key] = terms[key] + term if key in terms else term
    return Polynomial(locus.n_g, n, terms)


def restricted_weights(locus: FixedLocus, w: WeightSystem) -> WeightSystem:
    """Inherited weight system on Fix(g) (one weight per fixed cycle)."""
    q = tuple(w.q[i] for i in locus.i_fixed)
    if not q:
        return WeightSystem(1, ())
    d0 = lcm(*(qk.denominator for qk in q))
    return WeightSystem(d0, tuple(int(qk * d0) for qk in q))


def rho_constant(
    h: GroupElement, locus_g: FixedLocus, locus_conj: FixedLocus
) -> Fraction:
    """Phase t in [0, 1) of the determinant e[t] of Lambda(g) -> Lambda(hgh^{-1}).

    Lambda(g) is C^N/Fix(g) with the basis of moved eigenvectors of the
    locus.  h carries the eigenvector (C, theta) of g to a multiple of
    the eigenvector (sigma_h^{-1}(C), theta) of hgh^{-1}; with i0 the
    minimal index of sigma_h^{-1}(C), the multiple is
    e[phase_h(i0) + phase_v(sigma_h(i0))].  The determinant is the sign
    of this matching, which adds 1/2 when odd, times the product of the
    multiples.
    """
    target = {(c, theta): k for k, (c, theta, _) in enumerate(locus_conj.moved)}
    match = []
    total = _ZERO
    for _, theta, phases in locus_g.moved:
        i0 = min(i for i, s in enumerate(h.sigma) if s in phases)
        match.append(target[(i0, theta)])
        total += h.phase[i0] + phases[h.sigma[i0]]
    odd = sum(a > b for k, a in enumerate(match) for b in match[k + 1 :]) % 2
    return (total + Fraction(odd, 2)) % 1
