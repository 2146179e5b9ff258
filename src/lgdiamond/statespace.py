"""Bigraded state spaces of quasihomogeneous polynomials with symmetry.

Every group element g contributes the Milnor algebra of the restriction
of f to its fixed locus, graded by weighted degree and shifted into two
charges by the age of g and of its inverse.  The group acts on these
sector spaces through monomial coordinate transports times a transition
constant, the determinant of h on the directions that g moves; the
invariants form the state space.  This module computes the invariants per
conjugacy class and internal degree, assembles the charge table (the
diamond), and mechanically verifies its structural properties.

Phases are integers mod 2n, where n is the state's conductor: steps of
1/(2n), so that the 1/2 a transition constant gains from an odd matching
stays exact at odd n.  Transports, transition constants and orbit values
are such integers, and a CycNum is built (by phase_unit) only for a
basis vector or a normal-form input.  Blocks walk orbits over centralizer
generators (see orbits.py).  A generator that sends a block monomial off
the standard basis stays on the walk when the normal form there is one
block monomial times a root of unity or a rational; any other block
falls back to the Reynolds projector over the full centralizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import det, mat_vec, rref
from .cyclotomic import CycNum, phase_unit
from .errors import LgError, NonIntegerCharge, PreconditionFailed
from .jacobian import JacobianRing, quotient_ring
from .orbits import _fixed_by_maps, _generator_maps, _image, _orbit_invariants
from .polynomial import Monomial, Polynomial, WeightSystem
from .symmetry import (
    FiniteGroup,
    FixedLocus,
    GroupElement,
    _half_steps,
    fixed_locus,
    format_element,
    group_conductor,
    make_jf,
    restrict,
    restricted_weights,
    rho_constant,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Sector:
    """One group element's contribution before taking invariants."""

    index: int
    g: GroupElement
    locus: FixedLocus
    ring: JacobianRing
    shift_left: Fraction
    shift_right: Fraction

    def charges(self, degree: Fraction) -> tuple[Fraction, Fraction]:
        """Bigrade of a class of the given internal weighted degree."""
        return (degree + self.shift_left, degree + self.shift_right)


@dataclass
class InvariantBlock:
    """Invariant classes of one conjugacy class at one internal degree.

    Vectors are written over the standard monomials of the class
    representative's sector ring.
    """

    class_index: int
    rep: int
    degree: Fraction
    q_left: Fraction
    q_right: Fraction
    monomials: tuple[Monomial, ...]
    basis: tuple[tuple[CycNum, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


class StateSpace:
    """Sectors, group action, and invariants for one (f, G) input."""

    def __init__(
        self,
        f: Polynomial,
        weights: WeightSystem,
        group: FiniteGroup,
        names: tuple[str, ...] | None = None,
    ) -> None:
        self.group = group
        self.weights = weights
        self.n = group_conductor(group, extra=f.n)
        self.f = f.lift(self.n)
        self.names = tuple(names) if names else tuple(
            f"x{i + 1}" for i in range(f.nvars)
        )
        self.loci = tuple(fixed_locus(g, self.n) for g in group.elements)
        sectors = []
        for i, g in enumerate(group.elements):
            locus = self.loci[i]
            ring = quotient_ring(
                restrict(self.f, locus), restricted_weights(locus, weights)
            )
            comp = sum(
                (weights.q[k] for k in locus.complement_indices()), _ZERO
            )
            sectors.append(
                Sector(
                    index=i,
                    g=g,
                    locus=locus,
                    ring=ring,
                    shift_left=g.age() - comp,
                    shift_right=g.inverse().age() - comp,
                )
            )
        self.sectors = tuple(sectors)
        self._transports: dict[tuple[int, int], tuple] = {}
        self._degree_cache: dict[int, dict[Fraction, tuple[Monomial, ...]]] = {}
        self._blocks: list[InvariantBlock] | None = None
        # centralizer generators of each class's representative, set by blocks()
        self._generators: list[list[int]] = []

    # -- group action on sectors ------------------------------------------

    def centralizer(self, gi: int) -> list[int]:
        group = self.group
        if len(group.classes[group.class_of[gi]]) == 1:
            return list(range(group.order))
        return [h for h in range(group.order) if group.conjugate(h, gi) == gi]

    def transport(self, hi: int, gi: int):
        """Coordinate data of h mapping sector g into sector hgh^{-1}.

        Returns (g', t, rows): the target sector index, the phase of the
        transition constant rho_{h,g} = e[t/2n], and per fixed cycle c of g
        a pair (j, phase) meaning the c-th coordinate of Fix(g) pulls back
        to e[phase/2n] * (j-th coordinate of Fix(g')) under h^{-1}.  h
        carries the fixed cycles of g one-to-one onto those of g'.  Phases
        are integers mod 2n.
        """
        cached = self._transports.get((hi, gi))
        if cached is not None:
            return cached
        gpi = self.group.conjugate(hi, gi)
        hinv = self.group.elements[self.group.inv[hi]]
        half = _half_steps(hinv, self.n)
        lg, lgp = self.loci[gi], self.loci[gpi]
        two_n = 2 * self.n
        rows = []
        for i_c in lg.i_fixed:
            j, a = lgp.fixed[hinv.sigma[i_c]]
            rows.append((j, (half[i_c] + a) % two_n))
        t = rho_constant(self.group.elements[hi], lg, lgp)
        result = (gpi, t, tuple(rows))
        self._transports[(hi, gi)] = result
        return result

    def apply_to_monomial(
        self, hi: int, gi: int, mono: Monomial
    ) -> tuple[int, Polynomial]:
        """Image of the class of a sector monomial under h, in normal form."""
        gpi, t, rows = self.transport(hi, gi)
        target, phase = _image(rows, t, mono, 2 * self.n)
        ring = self.sectors[gpi].ring
        poly = Polynomial(len(rows), self.n, {target: phase_unit(phase, self.n)})
        if target in ring.basis_index:
            return gpi, poly
        return gpi, ring.normal_form(poly)

    # -- invariants ---------------------------------------------------------

    def degree_monomials(self, gi: int) -> dict[Fraction, tuple[Monomial, ...]]:
        cached = self._degree_cache.get(gi)
        if cached is None:
            ring = self.sectors[gi].ring
            split: dict[Fraction, list[Monomial]] = {}
            for mono in ring.basis:
                split.setdefault(ring.monomial_degree(mono), []).append(mono)
            cached = {d: tuple(ms) for d, ms in split.items()}
            self._degree_cache[gi] = cached
        return cached

    def blocks(self) -> list[InvariantBlock]:
        if self._blocks is None:
            out = []
            generators: dict[tuple[int, ...], list[int]] = {}
            self._generators = []
            for ci, cls in enumerate(self.group.classes):
                rep = cls[0]
                cent = tuple(self.centralizer(rep))
                if cent not in generators:  # abelian groups share one centralizer
                    generators[cent] = _subgroup_generators(self.group, cent)
                gens = generators[cent]
                self._generators.append(gens)
                for degree in sorted(self.degree_monomials(rep)):
                    monos = self.degree_monomials(rep)[degree]
                    index_of = {m: k for k, m in enumerate(monos)}
                    maps = _generator_maps(
                        (self.transport(hi, rep) for hi in gens),
                        self.sectors, index_of, self.n,
                    )
                    if maps is not None:
                        basis = _orbit_invariants(maps, len(monos), self.n)
                    else:
                        basis = self._reynolds(rep, cent, index_of)
                    q_left, q_right = self.sectors[rep].charges(degree)
                    out.append(
                        InvariantBlock(
                            ci, rep, degree, q_left, q_right, monos, tuple(basis)
                        )
                    )
            self._blocks = out
        return self._blocks

    def _columns(self, hi: int, rep: int, index_of) -> list[dict[int, CycNum]]:
        """Matrix columns {row: coefficient} of h on a block, from normal forms."""
        cols = []
        for m in index_of:
            _, nf = self.apply_to_monomial(hi, rep, m)
            if any(m2 not in index_of for m2 in nf.terms):
                raise LgError("sector action does not preserve the degree")
            cols.append({index_of[m2]: c for m2, c in nf.terms.items()})
        return cols

    def _reynolds(self, rep: int, centralizer, index_of):
        """Projector image from the normal-form images of every centralizer element."""
        matrices = [self._columns(hi, rep, index_of) for hi in centralizer]
        return _reynolds_invariants(matrices, len(index_of), self.n)

    # -- summaries ----------------------------------------------------------

    def total_dimension(self) -> int:
        return sum(b.dimension for b in self.blocks())

    def block_polynomial(self, block: InvariantBlock, vec) -> Polynomial:
        return Polynomial(
            len(block.monomials[0]) if block.monomials else 0,
            self.n,
            {m: c for m, c in zip(block.monomials, vec) if c},
        )

    def format_block_vector(self, block: InvariantBlock, vec) -> str:
        sector = self.sectors[block.rep]
        names = [self.names[i] for i in sector.locus.i_fixed]
        poly = self.block_polynomial(block, vec)
        return f"[{poly.to_string(names)}] xi_{{{format_element(sector.g)}}}"


def _subgroup_generators(group: FiniteGroup, members) -> list[int]:
    """Members, in order, not in the subgroup generated by those kept before."""
    gens: list[int] = []
    span = {group.identity_index}
    for h in members:
        if h in span:
            continue
        gens.append(h)
        stack = list(span)
        while stack:
            x = stack.pop()
            for s in gens:
                y = group.product(x, s)
                if y not in span:
                    span.add(y)
                    stack.append(y)
    return gens


def _reynolds_invariants(matrices, count: int, n: int):
    """Image basis of the averaging projector, for non-monomial actions."""
    zero = CycNum.zero(n)
    weight = Fraction(1, len(matrices))
    cols = [[zero] * count for _ in range(count)]
    for mat in matrices:
        for k, col in enumerate(mat):
            for r, c in col.items():
                cols[k][r] = cols[k][r] + c
    cols = [[c * weight for c in col] for col in cols]
    reduced, pivots = rref([list(col) for col in cols])
    basis = [tuple(row) for row in reduced[: len(pivots)]]
    rows = [[cols[k][r] for k in range(count)] for r in range(count)]
    for vec in basis:
        if mat_vec(rows, list(vec)) != list(vec):
            raise LgError("averaging operator is not idempotent on its image")
    return basis


def _charge_fault(state: StateSpace, block: InvariantBlock, top: int) -> LgError | None:
    """Why an occupied block does not fit the charge table over [0, top]^2."""
    a, b = block.q_left, block.q_right
    if a.denominator == 1 and b.denominator == 1 and 0 <= a <= top and 0 <= b <= top:
        return None
    sector = f"invariant class in sector {format_element(state.group.elements[block.rep])}"
    if a.denominator != 1 or b.denominator != 1:
        return NonIntegerCharge(
            f"{sector} at internal degree {block.degree} carries non-integer "
            f"charge ({a}, {b})"
        )
    return LgError(f"{sector} has charge ({a}, {b}) outside [0, {top}]^2")


def assemble_diamond(state: StateSpace) -> tuple[int, list[list[int]]]:
    """Charge table h[a][b] over [0, D]^2 with D = N - 2.

    Raises NonIntegerCharge (or LgError for an out-of-range charge)
    when an invariant class falls outside the table.
    """
    top = state.f.nvars - 2
    if top < 0:
        raise LgError(
            "the charge table needs N >= 2 variables (D = N - 2); "
            f"f has N = {state.f.nvars}"
        )
    table = [[0] * (top + 1) for _ in range(top + 1)]
    for block in state.blocks():
        if not block.dimension:
            continue
        fault = _charge_fault(state, block, top)
        if fault is not None:
            raise fault
        table[int(block.q_left)][int(block.q_right)] += block.dimension
    return top, table


def invariant_basis(state: StateSpace, bidegree) -> list:
    """Invariant vectors at one exact bidegree, tagged by their block."""
    a, b = Fraction(bidegree[0]), Fraction(bidegree[1])
    out = []
    for block in state.blocks():
        if block.q_left == a and block.q_right == b:
            out.extend((block, vec) for vec in block.basis)
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    all_sl: bool

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _reduce_in_span(basis, leads, vec) -> bool:
    """Whether vec lies in the span of the basis vectors.

    leads[i] is the leading index of basis[i].  Assumes each basis vector
    is nonzero at its own leading index and zero at every other vector's
    leading index, which holds for both invariant-basis constructions
    (orbit vectors have disjoint support; echelon rows have pivot columns).
    """
    w = list(vec)
    for b, lead in zip(basis, leads):
        c = w[lead]
        if c:
            factor = c / b[lead]
            for i, bc in enumerate(b):
                if bc:
                    w[i] = w[i] - factor * bc
    return not any(w)


def _both(name: str, first: CheckResult, second: CheckResult) -> CheckResult:
    """One check that passes when both parts pass; witness of the first failure."""
    failed = next((c for c in (first, second) if not c.passed), None)
    if failed is not None:
        return CheckResult(name, False, failed.witness)
    return CheckResult(name, True, f"{first.witness}; {second.witness}")


def verify_theorem(state: StateSpace) -> VerificationReport:
    """Run the structural checks on the invariant state space.

    Preconditions raised as PreconditionFailed rather than reported as
    failed checks: the weights sum to 1, the group contains the grading
    symmetry, and every group element has determinant 1.  Outside these
    hypotheses the checks would fail vacuously, so verification refuses
    to run instead.
    """
    w = state.weights
    if not w.is_calabi_yau:
        raise PreconditionFailed(
            f"weights sum to {w.q_sum}, not 1; the charge table is only "
            "defined for weight sum 1"
        )
    jf = make_jf(w)
    if not state.group.contains(jf):
        raise PreconditionFailed(
            "group does not contain the grading symmetry "
            f"{format_element(jf)}"
        )
    if not state.group.all_sl:
        offender = next(g for g in state.group.elements if not g.is_sl())
        raise PreconditionFailed(
            f"group element {format_element(offender)} has determinant "
            f"e[{offender.det_phase()}], not 1"
        )
    group = state.group
    top = state.f.nvars - 2
    blocks = [b for b in state.blocks() if b.dimension]
    faults = [f for f in (_charge_fault(state, b, top) for b in blocks) if f]
    fraction = next((f for f in faults if isinstance(f, NonIntegerCharge)), None)
    outside = next((f for f in faults if not isinstance(f, NonIntegerCharge)), None)
    count = sum(b.dimension for b in blocks)
    checks = [
        CheckResult(
            "integer-charges",
            fraction is None,
            str(fraction or f"all {count} invariant classes have integer charges"),
        ),
        CheckResult(
            "charge-support",
            outside is None,
            str(outside or f"all charges lie in [0, {top}]^2"),
        ),
    ]

    id_class = group.class_of[group.identity_index]

    def corner(a: Fraction, b: Fraction):
        return [blk for blk in blocks if blk.q_left == a and blk.q_right == b]

    def corner_check(a, b, want_class, want_monomial, label) -> CheckResult:
        found = corner(Fraction(a), Fraction(b))
        dim = sum(blk.dimension for blk in found)
        if dim != 1:
            return CheckResult(
                label, False, f"h^({a},{b}) has dimension {dim}, expected 1"
            )
        blk = next(blk for blk in found if blk.dimension)
        if blk.class_index != want_class:
            return CheckResult(
                label,
                False,
                f"h^({a},{b}) is generated in sector "
                f"{format_element(group.elements[blk.rep])}",
            )
        vec = blk.basis[0]
        nonzero = [m for m, c in zip(blk.monomials, vec) if c]
        if want_monomial is not None and nonzero != [want_monomial]:
            return CheckResult(
                label, False, f"h^({a},{b}) generator is not the expected class"
            )
        return CheckResult(
            label, True, f"h^({a},{b}) = 1, spanned by "
            + state.format_block_vector(blk, vec)
        )

    id_ring = state.sectors[group.classes[id_class][0]].ring
    c1 = corner_check(0, 0, id_class, (0,) * state.f.nvars, "corner-unit")
    c2 = corner_check(top, top, id_class, id_ring.top_monomial, "corner-hessian")
    checks.append(_both("identity-corners", c1, c2))

    jf_idx = group.index_of(jf)
    jinv_idx = group.inv[jf_idx]
    c3 = corner_check(0, top, group.class_of[jf_idx], None, "corner-j")
    c4 = corner_check(top, 0, group.class_of[jinv_idx], None, "corner-j-inverse")
    checks.append(_both("grading-corners", c3, c4))

    passed, witness = transpose_check(state)
    checks.append(CheckResult("transpose-symmetry", passed, witness))

    passed, witness = duality_check(state)
    checks.append(CheckResult("residue-duality", passed, witness))

    return VerificationReport(tuple(checks), group.all_sl)


def _inverse_images(state: StateSpace, block_at, g: int, degree) -> list[Polynomial]:
    """Basis of the class of g^{-1} at a degree, carried into the sector of g^{-1}.

    The recorded conjugator of g^{-1} carries its class representative to
    g^{-1}, whose sector has the ring of g.  Empty when the class has no
    block at that degree.
    """
    group = state.group
    inv = group.inv[g]
    partner = block_at.get((group.class_of[inv], degree))
    if partner is None:
        return []
    hi = group.conjugator[inv]
    zero = CycNum.zero(state.n)
    images = []
    for vec in partner.basis:
        out: dict[Monomial, CycNum] = {}
        for mono, c in zip(partner.monomials, vec):
            if c:
                _, img = state.apply_to_monomial(hi, partner.rep, mono)
                for mono2, c2 in img.terms.items():
                    out[mono2] = out.get(mono2, zero) + c * c2
        images.append(Polynomial(state.sectors[inv].locus.n_g, state.n, out))
    return images


def _fixed_by_generators(state: StateSpace, block: InvariantBlock) -> bool:
    """Whether the centralizer generators of the block's class fix its basis.

    The generators' maps are built again from the transports that
    blocks() cached; a Reynolds block applies each generator's matrix
    in CycNum.
    """
    gens = state._generators[block.class_index]
    index_of = {m: k for k, m in enumerate(block.monomials)}
    maps = _generator_maps(
        (state._transports[hi, block.rep] for hi in gens), state.sectors, index_of, state.n
    )
    if maps is not None:
        return all(_fixed_by_maps(vec, maps, state.n) for vec in block.basis)
    zero = CycNum.zero(state.n)
    for hi in gens:
        cols = state._columns(hi, block.rep, index_of)
        for vec in block.basis:
            image = [zero] * len(vec)
            for c, col in zip(vec, cols):
                if c:
                    for r, x in col.items():
                        image[r] = image[r] + c * x
            if image != list(vec):
                return False
    return True


def transpose_check(state: StateSpace) -> tuple[bool, str]:
    """Does inverting group elements carry invariants onto invariants?

    Each occupied block's basis must first be fixed by the centralizer
    generators that built it.  Then this matches the dimension of the
    block of the inverse class at the same internal degree, carries the
    partner basis into the sector of the inverse element and reduces it
    against the block's own basis; with equal dimensions that is the
    same statement as carrying the block onto the partner.  Returns
    (passed, witness); independent of any hypothesis on the group.
    """
    group = state.group
    block_at = {(b.class_index, b.degree): b for b in state.blocks()}
    for b in state.blocks():
        if not b.dimension:
            continue
        name = format_element(group.elements[b.rep])
        if not _fixed_by_generators(state, b):
            return False, (
                f"an invariant of the class of {name} at internal degree "
                f"{b.degree} is not fixed by the centralizer of {name}"
            )
        images = _inverse_images(state, block_at, b.rep, b.degree)
        if len(images) != b.dimension:
            return False, (
                f"class of {name} has dimension {b.dimension} at internal degree "
                f"{b.degree} but the inverse class has {len(images)}"
            )
        index = {m: k for k, m in enumerate(b.monomials)}
        leads = [next(i for i, c in enumerate(v) if c) for v in b.basis]
        zero = CycNum.zero(state.n)
        for poly in images:
            image = [zero] * len(b.monomials)
            for mono, c in poly.terms.items():
                image[index[mono]] = c
            if not _reduce_in_span(b.basis, leads, image):
                return False, (
                    "sector-inversion image of an invariant of the class of "
                    f"{name} at internal degree {b.degree} is not invariant"
                )
    return True, (
        "inverting group elements transposes the charge table and maps "
        "invariants to invariants"
    )


def duality_check(state: StateSpace) -> tuple[bool, str]:
    """Is the residue pairing between complementary blocks nondegenerate?

    Pairs the block of a class at internal degree d against the block of
    the inverse class at the complementary degree of the sector ring,
    carried into the sector of the inverse element, and certifies a
    nonzero Gram determinant.  Returns (passed, witness); independent of
    any hypothesis on the group.
    """
    group = state.group
    block_at = {(b.class_index, b.degree): b for b in state.blocks()}
    done_pairs = set()
    for b in state.blocks():
        if not b.dimension:
            continue
        ring = state.sectors[b.rep].ring
        inverse_class = group.class_of[group.inv[b.rep]]
        dual_degree = ring.c_hat - b.degree
        key = tuple(sorted([(b.class_index, b.degree), (inverse_class, dual_degree)]))
        if key in done_pairs:
            continue
        done_pairs.add(key)
        images = _inverse_images(state, block_at, b.rep, dual_degree)
        name = format_element(group.elements[b.rep])
        if len(images) != b.dimension:
            return False, (
                f"dual block of {name} at internal degree {dual_degree} has "
                f"dimension {len(images)}, expected {b.dimension}"
            )
        gram = [
            [ring.residue(v, w) for w in images]
            for v in (state.block_polynomial(b, vec) for vec in b.basis)
        ]
        if not det(gram):
            return False, (
                f"residue pairing between the class of {name} at internal degree "
                f"{b.degree} and its dual block is degenerate"
            )
    return True, "residue pairings between dual blocks are nondegenerate"
