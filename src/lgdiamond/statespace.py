"""Bigraded state spaces of quasihomogeneous polynomials with symmetry.

Every group element g contributes the Milnor algebra of the restriction
of f to its fixed locus, graded by weighted degree and shifted into two
charges by the age of g and of its inverse.  The group acts on these
sector spaces through monomial coordinate transports times a transition
constant, the determinant of h on the directions that g moves; the
invariants form the state space.  This module computes the invariants per
conjugacy class and internal degree, assembles the charge table (the
diamond), and mechanically verifies its structural properties.  Loci and
rings (up to coordinates) and charge shifts are class functions, built on
first read; blocks() reads only those of class representatives, and loci
that restrict f alike share one ring.  Every sector ring is graded over
the job's d0 (restricted_weights), so degrees need no conversion, and
charges are integers over the state's unit = lcm(d0, 2 * den), which
every age, moved weight and internal degree divides into.

Phases are integers mod 2n, where n is the state's conductor: steps of
1/(2n), so that the 1/2 a transition constant gains from an odd matching
stays exact at odd n.  Transports, transition constants and orbit values
are such integers, and a CycNum is built (by phase_unit) only for a
basis vector or a normal-form input.  Centralizer generators come from
the class walk by Schreier's lemma, not a scan of the group.  When j_f
is in the group, its phase on a degree block (t_J - 2n e/d0, t_J that of
rho_{J,g}) settles the block at once: nonzero means no invariants.  In
the other blocks the generators whose rows keep every coordinate act by
characters, which mark the monomials where invariants vanish; the orbits
of those that keep the other monomials in the block are walked, and the
rest cut that basis (orbits.py).  A basis vector is held as its support, and
the symmetry checks walk supports only: partner bases are carried by one
transport per block.  Both checks reduce with the sparse elimination of
orbits.py; duality certifies a full-rank Gram matrix by eliminating its
dict rows, not by a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

# unused here; the benchmark tracer wraps these names in this module
from ._linalg import det, rref  # noqa: F401
from .cyclotomic import CycNum, phase_unit
from .errors import LgError, NonIntegerCharge, PreconditionFailed
from .jacobian import JacobianRing, quotient_ring
from .orbits import _add, _carry, _class_bases, _echelon, _fixes, _image, _reduce
from .polynomial import Monomial, Polynomial, WeightSystem
from .symmetry import (
    FiniteGroup,
    FixedLocus,
    _half_steps,
    fixed_locus,
    format_element,
    group_conductor,
    make_jf,
    restrict,
    restricted_weights,
    rho_constant,
)


@dataclass
class InvariantBlock:
    """Invariant classes of one conjugacy class at one internal degree.

    e is d0 times the internal degree and left, right are unit times the
    two charges, all integers; degree, q_left and q_right are their
    Fraction views.  Each basis vector is its support {k: nonzero
    CycNum}, the coefficient of monomials[k], a standard monomial of the
    class representative's sector ring.
    """

    class_index: int
    rep: int
    e: int
    left: int
    right: int
    d0: int
    unit: int
    monomials: tuple[Monomial, ...]
    basis: tuple[dict[int, CycNum], ...]

    @property
    def degree(self) -> Fraction:
        return Fraction(self.e, self.d0)

    @property
    def q_left(self) -> Fraction:
        return Fraction(self.left, self.unit)

    @property
    def q_right(self) -> Fraction:
        return Fraction(self.right, self.unit)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def terms(self, vec) -> dict[Monomial, CycNum]:
        """A basis vector as {monomial: coefficient}."""
        return {self.monomials[k]: c for k, c in vec.items()}


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
        self.unit = lcm(weights.d0, 2 * group.den)
        self.f = f.lift(self.n)
        self.names = tuple(names) if names else tuple(
            f"x{i + 1}" for i in range(f.nvars)
        )
        self._loci: dict[int, FixedLocus] = {}
        self._rings: dict[int, JacobianRing] = {}
        # restrict(f, locus) reads only locus.fixed, so loci equal there share a ring
        self._restricted: dict[tuple, JacobianRing] = {}
        self._transports: dict[tuple[int, int], tuple] = {}
        self._blocks: list[InvariantBlock] | None = None

    # -- sectors ------------------------------------------------------------

    def locus(self, gi: int) -> FixedLocus:
        """Fixed locus of g at the state's conductor, built on first read."""
        if gi not in self._loci:
            self._loci[gi] = fixed_locus(self.group.elements[gi], self.n)
        return self._loci[gi]

    def ring(self, gi: int) -> JacobianRing:
        """Milnor ring of f on Fix(g), built on first read; NotIsolated if degenerate."""
        ring = self._rings.get(gi)
        if ring is None:
            locus = self.locus(gi)
            key = tuple(locus.fixed.items())
            ring = self._restricted.get(key)
            if ring is None:
                f = restrict(self.f, locus)
                ring = quotient_ring(f, restricted_weights(locus, self.weights))
                self._restricted[key] = ring
            self._rings[gi] = ring
        return ring

    def shifts(self, gi: int) -> tuple[int, int]:
        """Charges of sector g less internal degree, times unit.

        They are the ages of g and g^-1 less the moved weights; the two
        ages sum to the number of moved coordinates.
        """
        w, unit, locus = self.weights, self.unit, self.locus(gi)
        moved = locus.complement_indices()
        weight = sum(w.d[k] for k in moved) * (unit // w.d0)
        age = self.group.elements[gi].age_num() * (unit // (2 * self.group.den))
        return age - weight, len(moved) * unit - age - weight

    # -- group action on sectors ------------------------------------------

    def centralizer(self, gi: int) -> list[int]:
        """Every element that commutes with g, by a scan of the whole group.

        Only tests/oracles.py and the tracer call it (traced
        statespace.centralizer_s reads 0); blocks() never does.
        """
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
        return cached or self._transport(hi, gi, self.group.conjugate(hi, gi))

    def _transport(self, hi: int, gi: int, gpi: int):
        """transport(hi, gi) computed for its known target gpi = hgh^{-1}, and cached."""
        hinv = self.group.elements[self.group.inv[hi]]
        half = _half_steps(hinv, self.n)
        lg, lgp = self.locus(gi), self.locus(gpi)
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
        ring = self.ring(gpi)
        poly = Polynomial(len(rows), self.n, {target: phase_unit(phase, self.n)})
        if target in ring.standard:
            return gpi, poly
        return gpi, ring.normal_form(poly)

    # -- invariants ---------------------------------------------------------

    def blocks(self) -> list[InvariantBlock]:
        if self._blocks is None:
            out = []
            # every ring before any block: interleaving the two ran slower, measured cold
            group = self.group
            rings = [self.ring(cls[0]) for cls in group.classes]
            d0, unit = self.weights.d0, self.unit
            jf = group.index_of(make_jf(self.weights))
            for ci, (cls, ring) in enumerate(zip(group.classes, rings)):
                rep = cls[0]
                left, right = self.shifts(rep)
                locus = self.locus(rep)
                t_j = None if jf is None else rho_constant(group.elements[jf], locus, locus)
                degrees = ring.graded_basis.items()
                # Schreier generators centralize rep, so each carries its sector to itself
                bases = _class_bases(degrees, t_j, ring, self.n, lambda: [
                    self._transport(hi, rep, rep) for hi in group.centralizers[ci]
                ])
                for (e, monos), basis in zip(degrees, bases):
                    q = e * (unit // d0)
                    out.append(InvariantBlock(
                        ci, rep, e, q + left, q + right, d0, unit, monos, tuple(basis)
                    ))
            self._blocks = out
        return self._blocks

    # -- summaries ----------------------------------------------------------

    def total_dimension(self) -> int:
        return sum(b.dimension for b in self.blocks())

    def format_block_vector(self, block: InvariantBlock, vec) -> str:
        i_fixed = self.locus(block.rep).i_fixed
        names = [self.names[i] for i in i_fixed]
        poly = Polynomial(len(i_fixed), self.n, block.terms(vec))
        g = self.group.elements[block.rep]
        return f"[{poly.to_string(names)}] xi_{{{format_element(g)}}}"


def _charge_fault(state: StateSpace, block: InvariantBlock, top: int) -> LgError | None:
    """Why an occupied block does not fit the charge table over [0, top]^2."""
    a, b, unit = block.left, block.right, block.unit
    if not (a % unit or b % unit) and 0 <= a <= top * unit and 0 <= b <= top * unit:
        return None
    a, b = block.q_left, block.q_right
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
        table[block.left // block.unit][block.right // block.unit] += block.dimension
    return top, table


def invariant_basis(state: StateSpace, bidegree) -> list:
    """Invariant vectors at one exact bidegree, tagged by their block."""
    a, b = (Fraction(x) * state.unit for x in bidegree)
    out = []
    for block in state.blocks():
        if block.left == a and block.right == b:
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

    def corner_check(a, b, want_class, want_monomial, label) -> CheckResult:
        left, right = a * state.unit, b * state.unit
        found = [blk for blk in blocks if blk.left == left and blk.right == right]
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
        if want_monomial is not None and list(blk.terms(vec)) != [want_monomial]:
            return CheckResult(
                label, False, f"h^({a},{b}) generator is not the expected class"
            )
        return CheckResult(
            label, True, f"h^({a},{b}) = 1, spanned by "
            + state.format_block_vector(blk, vec)
        )

    id_ring = state.ring(group.classes[id_class][0])
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


def _inverse_images(state: StateSpace, block_at, g: int, e: int) -> list[dict]:
    """Basis of the class of g^{-1} at d0 * degree e, carried into the sector of g^{-1}.

    The recorded conjugator of g^{-1} carries its class representative to
    g^{-1}, whose sector has the ring of g; its transport is read once.
    Each image is {monomial: nonzero CycNum}.  Empty when the class has
    no block at that degree.
    """
    group = state.group
    inv = group.inv[g]
    partner = block_at.get((group.class_of[inv], e))
    if partner is None or not partner.basis:
        return []
    transport = state.transport(group.conjugator[inv], partner.rep)
    return [
        _carry(vec, partner.monomials, transport, state.ring(inv), state.n)
        for vec in partner.basis
    ]


def _fixed_by_generators(state: StateSpace, block: InvariantBlock) -> bool:
    """Whether the centralizer generators of the block's class fix its basis.

    A generator acting by a character must be 0 on each basis vector's
    support; each other one must carry every basis vector back to itself.
    """
    ring = state.ring(block.rep)
    return all(
        _fixes(state.transport(hi, block.rep), block.basis, block.monomials, ring, state.n)
        for hi in state.group.centralizers[block.class_index]
    )


def transpose_check(state: StateSpace) -> tuple[bool, str]:
    """Does inverting group elements carry invariants onto invariants?

    Each occupied block's basis must first be fixed by the centralizer
    generators that built it.  Then this matches the dimension of the
    block of the inverse class at the same internal degree, carries the
    partner basis into the sector of the inverse element and reduces it
    against the block's own basis (orbits._reduce); with equal dimensions
    that is the same statement as carrying the block onto the partner.
    Returns (passed, witness); independent of any hypothesis on the group.
    """
    group = state.group
    block_at = {(b.class_index, b.e): b for b in state.blocks()}
    for b in state.blocks():
        if not b.dimension:
            continue
        name = format_element(group.elements[b.rep])
        if not _fixed_by_generators(state, b):
            return False, (
                f"an invariant of the class of {name} at internal degree "
                f"{b.degree} is not fixed by the centralizer of {name}"
            )
        images = _inverse_images(state, block_at, b.rep, b.e)
        if len(images) != b.dimension:
            return False, (
                f"class of {name} has dimension {b.dimension} at internal degree "
                f"{b.degree} but the inverse class has {len(images)}"
            )
        index = {m: k for k, m in enumerate(b.monomials)}
        by_lead = {min(vec): vec for vec in b.basis}
        for image in images:
            if _reduce({index[m]: c for m, c in image.items()}, by_lead):
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
    carried into the sector of the inverse element, and certifies full
    rank by sparse elimination (orbits._echelon), not a Gram determinant.
    A Gram row {j: nonzero} is the dual functional of one basis vector
    (JacobianRing.dual) read against the partner images, indexed by
    monomial once per block.  Returns (passed, witness); independent of
    any hypothesis on the group.
    """
    group = state.group
    block_at = {(b.class_index, b.e): b for b in state.blocks()}
    done_pairs = set()
    d0 = state.weights.d0
    for b in state.blocks():
        if not b.dimension:
            continue
        ring = state.ring(b.rep)
        inverse_class = group.class_of[group.inv[b.rep]]
        dual_e = ring.top_degree - b.e
        key = tuple(sorted([(b.class_index, b.e), (inverse_class, dual_e)]))
        if key in done_pairs:
            continue
        done_pairs.add(key)
        images = _inverse_images(state, block_at, b.rep, dual_e)
        name = format_element(group.elements[b.rep])
        if len(images) != b.dimension:
            return False, (
                f"dual block of {name} at internal degree {Fraction(dual_e, d0)} has "
                f"dimension {len(images)}, expected {b.dimension}"
            )
        partners: dict[Monomial, list[tuple[int, CycNum]]] = {}
        for j, image in enumerate(images):
            for m, c in image.items():
                partners.setdefault(m, []).append((j, c))
        gram = []
        for vec in b.basis:
            row: dict[int, CycNum] = {}
            for k, a in ring.dual(b.terms(vec)).items():
                for j, c in partners.get(k, ()):
                    _add(row, j, a * c)
            gram.append(row)
        if len(_echelon(gram)) != len(images):
            return False, (
                f"residue pairing between the class of {name} at internal degree "
                f"{b.degree} and its dual block is degenerate"
            )
    return True, "residue pairings between dual blocks are nondegenerate"
