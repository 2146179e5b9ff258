"""State-space construction, invariants, diamond assembly, verification."""

import functools
import random
from fractions import Fraction as F

import pytest

from lgdiamond.cyclotomic import CycNum, root_of_unity
from lgdiamond.errors import (
    ClosureCapExceeded,
    LgError,
    NonIntegerCharge,
    PreconditionFailed,
)
from lgdiamond._linalg import mat_mul
from lgdiamond.orbits import _orbit_invariants
from lgdiamond.polynomial import parse_polynomial
from lgdiamond.quasihom import analyze_weights
import lgdiamond.statespace as statespace
from lgdiamond.statespace import (
    StateSpace,
    _reynolds_invariants,
    _subgroup_generators,
    assemble_diamond,
    duality_check,
    invariant_basis,
    transpose_check,
    verify_theorem,
)
from lgdiamond.symmetry import (
    GroupElement,
    diagonal_symmetries,
    format_element,
    generate_group,
    make_jf,
    sl_diagonal_symmetries,
)

from oracles import action_matrix, group_tables, orbit_basis, trace_dimension

MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"
QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
QUARTIC = "x1^4 + x2^4 + x3^4 + x4^4"
CUBIC = "x1^3 + x2^3 + x3^3"


def build_state(text, extra_generators=()):
    f, names = parse_polynomial(text)
    _, _, w = analyze_weights(f)
    group = generate_group([make_jf(w), *extra_generators], f)
    return StateSpace(f, w, group, names)


MAIN_STATE = build_state(MAIN)

QUINTIC_T12 = GroupElement((1, 0, 2, 3, 4), (F(0),) * 5)
QUINTIC_T23 = GroupElement((0, 2, 1, 3, 4), (F(0),) * 5)
QUINTIC_C123 = GroupElement((1, 2, 0, 3, 4), (F(0),) * 5)
S3_STATE = build_state(QUINTIC, [QUINTIC_T12, QUINTIC_T23])
A3_STATE = build_state(QUINTIC, [QUINTIC_C123])


def diagonal_generators(text, sl):
    f, _ = parse_polynomial(text)
    group = sl_diagonal_symmetries(f) if sl else diagonal_symmetries(f)
    return [GroupElement.diagonal(p) for p in group.generators]


def cycle(nvars, *indices):
    sigma = list(range(nvars))
    for i, j in zip(indices, indices[1:] + indices[:1]):
        sigma[i] = j
    return GroupElement(tuple(sigma), (F(0),) * nvars)


# groups whose blocks all take the orbit walk
ORBIT_STATES = {
    "k3-sld": lambda: build_state(QUARTIC, diagonal_generators(QUARTIC, sl=True)),
    "quintic-a3": lambda: A3_STATE,
    "quintic-s3": lambda: S3_STATE,
    "cubic-gd-s3": lambda: build_state(
        CUBIC,
        [*diagonal_generators(CUBIC, sl=False), cycle(3, 0, 1, 2), cycle(3, 0, 1)],
    ),
}


# further groups for the brute-force check of the group structure
STRUCTURE_STATES = {
    **ORBIT_STATES,
    "main-sld": lambda: build_state(MAIN, diagonal_generators(MAIN, sl=True)),
    "quartic-twisted": lambda: build_state(
        QUARTIC,
        [
            cycle(4, 0, 1).compose(GroupElement.diagonal((F(1, 4), F(3, 4), 0, 0))),
            cycle(4, 2, 3),
        ],
    ),
}


@functools.cache
def named_state(name):
    return STRUCTURE_STATES[name]()


def blocks_of_element(state, g):
    ci = state.group.class_of[state.group.index_of(g)]
    return [b for b in state.blocks() if b.class_index == ci]


def test_main_diamond():
    top, table = assemble_diamond(MAIN_STATE)
    assert top == 2
    assert table == [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    assert MAIN_STATE.total_dimension() == 24


def test_main_sector_blocks():
    jf = make_jf(MAIN_STATE.weights)
    expected = {
        0: [(F(0), (F(0), F(0)), 1), (F(1), (F(1), F(1)), 13), (F(2), (F(2), F(2)), 1)],
        1: [(F(0), (F(0), F(2)), 1)],
        2: [],
        3: [(F(0), (F(1), F(1)), 1)],
        4: [(F(1, 4), (F(1), F(1)), 1)],
        5: [(F(0), (F(1), F(1)), 1)],
        6: [(F(1, 3), (F(1), F(1)), 1)],
        7: [(F(0), (F(1), F(1)), 1)],
        8: [(F(1, 4), (F(1), F(1)), 1)],
        9: [(F(0), (F(1), F(1)), 1)],
        10: [],
        11: [(F(0), (F(2), F(0)), 1)],
    }
    for k, want in expected.items():
        got = [
            (b.degree, (b.q_left, b.q_right), b.dimension)
            for b in blocks_of_element(MAIN_STATE, jf.power(k))
            if b.dimension
        ]
        assert got == want, k


def test_main_named_generators():
    jf = make_jf(MAIN_STATE.weights)
    # [x1] spans the j^4 sector contribution
    (b4,) = [b for b in blocks_of_element(MAIN_STATE, jf.power(4)) if b.dimension]
    assert b4.monomials == ((1, 0),)
    # [x4^2] spans the j^6 sector contribution
    (b6,) = [b for b in blocks_of_element(MAIN_STATE, jf.power(6)) if b.dimension]
    assert b6.monomials == ((0, 2),)
    assert MAIN_STATE.sectors[b6.rep].locus.i_fixed == (1, 3)


def test_main_verification():
    report = verify_theorem(MAIN_STATE)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "integer-charges",
        "charge-support",
        "identity-corners",
        "grading-corners",
        "transpose-symmetry",
        "residue-duality",
    ]
    corners = {c.name: c.witness for c in report.checks}
    assert "[1] xi_{id}" in corners["identity-corners"]
    assert "xi_{diag(1/4, 1/2, 1/12, 1/6)}" in corners["grading-corners"]
    assert report.all_sl


def test_main_trace_oracle_agrees():
    for b in MAIN_STATE.blocks():
        assert b.dimension == trace_dimension(MAIN_STATE, b)


def oracle_dimension(state, bidegree):
    a, b = F(bidegree[0]), F(bidegree[1])
    return sum(
        trace_dimension(state, blk)
        for blk in state.blocks()
        if (blk.q_left, blk.q_right) == (a, b)
    )


def test_main_invariant_api():
    assert oracle_dimension(MAIN_STATE, (1, 1)) == 20
    assert len(invariant_basis(MAIN_STATE, (1, 1))) == 20
    assert oracle_dimension(MAIN_STATE, (0, 2)) == 1
    assert invariant_basis(MAIN_STATE, (2, 2))[0][0].class_index == 0


def test_quintic_s3_diamond():
    top, table = assemble_diamond(S3_STATE)
    assert top == 3
    assert table == [
        [1, 0, 0, 0],
        [0, 37, 2, 0],
        [0, 2, 37, 0],
        [0, 0, 0, 1],
    ]
    assert S3_STATE.total_dimension() == 80
    for b in S3_STATE.blocks():
        assert b.dimension == trace_dimension(S3_STATE, b)


def test_quintic_s3_not_sl():
    assert not S3_STATE.group.all_sl
    with pytest.raises(PreconditionFailed, match="determinant"):
        verify_theorem(S3_STATE)


def test_quintic_a3_diamond_and_verification():
    top, table = assemble_diamond(A3_STATE)
    assert top == 3
    assert table == [
        [1, 0, 0, 1],
        [0, 49, 5, 0],
        [0, 5, 49, 0],
        [1, 0, 0, 1],
    ]
    assert A3_STATE.total_dimension() == 112
    assert A3_STATE.group.order == 15
    assert A3_STATE.group.all_sl
    report = verify_theorem(A3_STATE)
    assert report.passed
    for b in A3_STATE.blocks():
        assert b.dimension == trace_dimension(A3_STATE, b)


def test_mirror_quintic_diamond_and_verification():
    """SLd of the quintic (order 625), the mirror of the quintic with <J>."""
    state = build_state(QUINTIC, diagonal_generators(QUINTIC, sl=True))
    assert state.group.order == 625
    top, table = assemble_diamond(state)
    assert top == 3
    assert table == [
        [1, 0, 0, 1],
        [0, 1, 101, 0],
        [0, 101, 1, 0],
        [1, 0, 0, 1],
    ]
    assert state.total_dimension() == 208
    report = verify_theorem(state)
    assert report.passed
    assert len(report.checks) == 6


def test_quintic_a3_three_cycle_blocks():
    (b,) = [
        blk
        for blk in blocks_of_element(A3_STATE, QUINTIC_C123)
        if blk.dimension and blk.q_left == 1
    ]
    assert b.degree == F(2, 5)
    assert b.dimension == 6
    # quadratic monomials of the three-variable restriction y1^5*3 + y2^5 + y3^5
    assert len(b.monomials) == 6


def test_fermat_sector_invariants():
    for r, m in ((2, 3), (3, 2), (4, 5)):
        f, names = parse_polynomial(f"x1^{r * m}")
        _, _, w = analyze_weights(f)
        group = generate_group([GroupElement((0,), (F(1, r),))], f)
        state = StateSpace(f, w, group, names)
        assert state.total_dimension() == m
        survivors = [b for b in state.blocks() if b.dimension]
        assert all(b.rep == state.group.identity_index for b in survivors)
        monos = sorted(b.monomials[0] for b in survivors)
        assert monos == [(r * n,) for n in range(m)]
        for b in survivors:
            assert b.basis == ((CycNum.one(state.n),),)


def test_charge_relation_all_blocks():
    for state in (MAIN_STATE, S3_STATE, A3_STATE):
        for b in state.blocks():
            sector = state.sectors[b.rep]
            g = state.group.elements[b.rep]
            assert b.q_right - b.q_left == sector.locus.d_g - 2 * g.age()


def test_diagonal_lines():
    for state in (MAIN_STATE, A3_STATE):
        top = state.f.nvars - 2
        jf = make_jf(state.weights)
        for b in state.blocks():
            if not b.dimension:
                continue
            if b.rep == state.group.identity_index:
                assert b.q_left == b.q_right
        for k in range(1, jf.order()):
            g = jf.power(k)
            gi = state.group.index_of(g)
            if state.loci[gi].n_g:
                continue
            for b in blocks_of_element(state, g):
                if b.dimension:
                    assert b.q_left + b.q_right == top


def test_jf_action_is_diagonal():
    jf_idx = MAIN_STATE.group.index_of(make_jf(MAIN_STATE.weights))
    labels, rows = action_matrix(MAIN_STATE, jf_idx, (1, 1))
    assert len(labels) == 20
    for r in range(20):
        for c in range(20):
            expected = CycNum.one(12) if r == c else CycNum.zero(12)
            assert rows[r][c] == expected
    # fractional block: the only (1/2, 3/2) element is [1] in the j^2 sector
    labels2, rows2 = action_matrix(MAIN_STATE, jf_idx, (F(1, 2), F(3, 2)))
    assert len(labels2) == 1
    assert rows2 == [[root_of_unity(F(1, 2), 12)]]


def test_action_homomorphism():
    rng = random.Random(7)
    group = MAIN_STATE.group
    mats = {
        hi: action_matrix(MAIN_STATE, hi, (1, 1))[1] for hi in range(group.order)
    }
    for _ in range(10):
        h1 = rng.randrange(group.order)
        h2 = rng.randrange(group.order)
        assert mat_mul(mats[h2], mats[h1]) == mats[group.product(h2, h1)]


def test_identity_action_is_identity():
    labels, rows = action_matrix(A3_STATE, A3_STATE.group.identity_index, (1, 2))
    size = len(labels)
    assert size == 5
    for r in range(size):
        for c in range(size):
            expected = CycNum.one(A3_STATE.n) if r == c else CycNum.zero(A3_STATE.n)
            assert rows[r][c] == expected


def test_charge_additivity_disjoint_supports():
    f, names = parse_polynomial("x1^3 + x2^3 + x3^3")
    _, _, w = analyze_weights(f)
    dg = diagonal_symmetries(f)
    group = generate_group([GroupElement.diagonal(p) for p in dg.generators], f)
    assert group.order == 27
    state = StateSpace(f, w, group, names)
    charges = [s.charges(F(0)) for s in state.sectors]
    complements = [set(locus.complement_indices()) for locus in state.loci]
    for i, u in enumerate(group.elements):
        for j, v in enumerate(group.elements):
            if complements[i] & complements[j]:
                continue
            k = group.index_of(u.compose(v))
            assert charges[i][0] + charges[j][0] == charges[k][0]
            assert charges[i][1] + charges[j][1] == charges[k][1]


def test_trivial_group_fractional_charge():
    f, names = parse_polynomial("x1^4 + x2^4 + x3^4")
    _, _, w = analyze_weights(f)
    group = generate_group([GroupElement.identity(3)], f)
    state = StateSpace(f, w, group, names)
    with pytest.raises(NonIntegerCharge, match="1/4"):
        assemble_diamond(state)


def test_verification_preconditions():
    f, names = parse_polynomial("x1^4 + x2^4 + x3^4")
    _, _, w = analyze_weights(f)
    state = StateSpace(f, w, generate_group([make_jf(w)], f), names)
    with pytest.raises(PreconditionFailed, match="weights sum"):
        verify_theorem(state)

    f5, names5 = parse_polynomial(QUINTIC)
    _, _, w5 = analyze_weights(f5)
    no_j = generate_group([GroupElement.diagonal((F(1, 5), F(4, 5), 0, 0, 0))], f5)
    state5 = StateSpace(f5, w5, no_j, names5)
    with pytest.raises(PreconditionFailed, match="grading symmetry"):
        verify_theorem(state5)


def test_orbit_invariants_unit():
    n = 3
    one = CycNum.one(n)
    omega = root_of_unity(F(1, 3), n)
    # phases are integers mod 2n: the phase 1/3 is 2 half-steps of 1/6
    third = 2
    # cycle 0 -> 1 -> 2 -> 0 with total loop phase 1/3: nothing survives
    dead = [([1, 2, 0], [0, 0, third], None)]
    assert _orbit_invariants(dead, 3, n) == []
    # loop phases 1/3 each, total 1: one invariant line
    alive = [([1, 2, 0], [third] * 3, None)]
    basis = _orbit_invariants(alive, 3, n)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == one and v[1] == omega and v[2] == omega * omega


def test_orbit_invariants_rational_sizes():
    n = 2
    one = CycNum.one(n)
    # x -> -2y, y -> -x/2: the loop scalar is 1, so x - 2y is invariant
    swap = ([1, 0], [2, 2], [(2, 1), (1, 2)])
    assert _orbit_invariants([swap], 2, n) == [(one, CycNum.rational(-2, n))]
    # x -> 2y, y -> x: the loop scalar is 2, so nothing survives
    assert _orbit_invariants([([1, 0], [0, 0], [(2, 1), (1, 1)])], 2, n) == []


def test_reynolds_invariants_unit():
    n = 1
    one = CycNum.one(n)
    half = CycNum.rational(F(1, 2), n)
    ident = [{0: one}, {1: one}]
    # x -> x, y -> x - y: involution with invariant line spanned by (1, 1/2)
    refl = [{0: one, 1: one}, {1: CycNum.rational(-1, n)}]
    basis = _reynolds_invariants([ident, refl], 2, n)
    assert basis == [(one, half)]
    # a single non-idempotent matrix is rejected by the projector check
    with pytest.raises(LgError, match="idempotent"):
        _reynolds_invariants([refl], 2, n)


@pytest.mark.parametrize("name", list(ORBIT_STATES))
def test_centralizer_generators_span_centralizer(name):
    state = named_state(name)
    group = state.group
    for cls in group.classes:
        cent = state.centralizer(cls[0])
        gens = [group.elements[h] for h in _subgroup_generators(group, cent)]
        # each kept generator at least doubles the subgroup
        assert 2 ** len(gens) <= len(cent)
        ident = GroupElement.identity(group.nvars)
        span = {ident.key(): ident}
        stack = [ident]
        while stack:
            x = stack.pop()
            for s in gens:
                y = x.compose(s)
                if y.key() not in span:
                    span[y.key()] = y
                    stack.append(y)
        assert set(span) == {group.elements[h].key() for h in cent}


@pytest.mark.parametrize("name", list(ORBIT_STATES))
def test_blocks_match_orbit_oracle(name):
    """Generator phase walk against a CycNum walk over the whole centralizer."""
    state = named_state(name)
    for block in state.blocks():
        assert orbit_basis(state, block) == list(block.basis)


def double_one_term(block, monkeypatch):
    """Double one term of the block's first basis vector with several terms.

    The vector is then no longer invariant, and leaves the block's span.
    """
    k, vec = next((k, v) for k, v in enumerate(block.basis) if sum(map(bool, v)) > 1)
    first = next(i for i, c in enumerate(vec) if c)
    doubled = tuple(c * 2 if i == first else c for i, c in enumerate(vec))
    monkeypatch.setattr(block, "basis", block.basis[:k] + (doubled,) + block.basis[k + 1 :])


def reynolds_calls(monkeypatch):
    """Bases the Reynolds projector returns from now on, one per call."""
    calls = []

    def spy(matrices, count, n):
        calls.append(_reynolds_invariants(matrices, count, n))
        return calls[-1]

    monkeypatch.setattr(statespace, "_reynolds_invariants", spy)
    return calls


HESSE = "x1^3 + x2^3 + x3^3 + x1*x2*x3"

# images leave the standard basis; each normal form is one block monomial
# times a root of unity or a rational (x3^3 = -x1*x2*x4/4 in the first)
MONOMIAL_FORM_STATES = {
    "quartic-xyzw-c4": (QUARTIC + " + x1*x2*x3*x4", [cycle(4, 0, 1, 2, 3)]),
    "quartic-pairs": (
        QUARTIC + " + x1^2*x2^2 + x3^2*x4^2", [cycle(4, 0, 1), cycle(4, 2, 3)]
    ),
    "hesse-123": (HESSE, [cycle(3, 0, 1, 2)]),
}


@pytest.mark.parametrize("name", list(MONOMIAL_FORM_STATES))
def test_monomial_normal_forms_stay_on_orbit_walk(name, monkeypatch):
    """Blocks whose images reduce to one monomial skip the projector."""
    calls = reynolds_calls(monkeypatch)
    state = build_state(*MONOMIAL_FORM_STATES[name])
    blocks = state.blocks()
    assert calls == []
    for block in blocks:
        assert block.dimension == trace_dimension(state, block)
        assert orbit_basis(state, block) == list(block.basis)
    assert transpose_check(state)[0]


def test_reynolds_fallback_blocks(monkeypatch):
    """A normal form with two terms sends its block to the projector."""
    calls = reynolds_calls(monkeypatch)
    state = build_state(QUARTIC + " + x1^2*x2^2 + x1*x2*x3*x4", [cycle(4, 0, 1)])
    blocks = state.blocks()
    assert len(calls) == 3
    for block in blocks:
        assert block.dimension == trace_dimension(state, block)
    # the check applies each generator's matrix to the projector's basis
    assert transpose_check(state)[0]
    projected = next(b for b in blocks if b.dimension and list(b.basis) in calls)
    double_one_term(projected, monkeypatch)
    assert transpose_check(state) == (
        False,
        "an invariant of the class of id at internal degree 1 is not fixed by "
        "the centralizer of id",
    )


# -- group structure ------------------------------------------------------------


def assert_matches_tables(group, tables, pairs):
    """Classes, conjugators, products and conjugates against brute-force tables."""
    mult, conj, classes, _ = tables
    assert list(group.classes) == classes
    for ci, cls in enumerate(classes):
        for x in cls:
            assert group.class_of[x] == ci
            assert conj[group.conjugator[x]][cls[0]] == x
    for a, b in pairs:
        assert group.product(a, b) == mult[a][b]
        assert group.conjugate(a, b) == conj[a][b]


def sampled_pairs(group, limit=4096):
    pairs = [(a, b) for a in range(group.order) for b in range(group.order)]
    return random.Random(11).sample(pairs, limit) if len(pairs) > limit else pairs


@pytest.mark.parametrize("name", list(STRUCTURE_STATES))
def test_group_structure_matches_brute_force(name):
    state = named_state(name)
    group = state.group
    tables = group_tables(group)
    assert_matches_tables(group, tables, sampled_pairs(group))
    centralizers = tables[3]
    for g in range(group.order):
        assert state.centralizer(g) == centralizers[g]


# conjugators whose inverses carry a class representative elsewhere, on
# blocks whose partners are nonzero
@functools.cache
def k3_sld_c4():
    return build_state(
        QUARTIC, [*diagonal_generators(QUARTIC, sl=True), cycle(4, 0, 1, 2, 3)]
    )


@pytest.mark.parametrize(
    "name", ["quintic-s3", "cubic-gd-s3", "quartic-twisted", "k3-sld-c4"]
)
def test_inverse_images_land_in_inverse_sector(name, monkeypatch):
    """The partner map carries the class representative of g^{-1} onto g^{-1}."""
    state = k3_sld_c4() if name == "k3-sld-c4" else named_state(name)
    group = state.group
    block_at = {(b.class_index, b.degree): b for b in state.blocks()}
    apply = StateSpace.apply_to_monomial
    calls = []

    def spy(self, hi, gi, mono):
        target, image = apply(self, hi, gi, mono)
        calls.append((gi, target))
        return target, image

    monkeypatch.setattr(StateSpace, "apply_to_monomial", spy)
    seen = 0
    for b in state.blocks():
        inv = group.inv[b.rep]
        # the degrees that transpose and duality ask for
        for degree in (b.degree, state.sectors[b.rep].ring.c_hat - b.degree):
            calls.clear()
            images = statespace._inverse_images(state, block_at, b.rep, degree)
            partner = block_at.get((group.class_of[inv], degree))
            assert len(images) == (partner.dimension if partner else 0)
            assert all(call == (partner.rep, inv) for call in calls)
            seen += len(calls)
    assert seen


def block_named(state, element, degree):
    group = state.group
    return next(
        b
        for b in state.blocks()
        if format_element(group.elements[b.rep]) == element and b.degree == degree
    )


def test_transpose_reports_non_invariant_image(monkeypatch):
    block = block_named(A3_STATE, "(1 2 3)", F(2, 5))
    # a repeated basis vector spans less than the invariants of the partner
    monkeypatch.setattr(block, "basis", (block.basis[1],) + block.basis[1:])
    assert transpose_check(A3_STATE) == (
        False,
        "sector-inversion image of an invariant of the class of (1 2 3) at "
        "internal degree 2/5 is not invariant",
    )


def test_transpose_sees_a_block_moved_by_its_centralizer(monkeypatch):
    """The identity class is its own inverse with the identity as conjugator."""
    double_one_term(block_named(A3_STATE, "id", F(1)), monkeypatch)
    assert transpose_check(A3_STATE) == (
        False,
        "an invariant of the class of id at internal degree 1 is not fixed by "
        "the centralizer of id",
    )


def test_duality_reports_degenerate_pairing(monkeypatch):
    block = block_named(MAIN_STATE, "id", F(1))
    # the identity block at degree 1 is its own dual; two equal rows
    monkeypatch.setattr(block, "basis", (block.basis[1],) + block.basis[1:])
    assert duality_check(MAIN_STATE) == (
        False,
        "residue pairing between the class of id at internal degree 1 and its "
        "dual block is degenerate",
    )


def test_duality_reports_missing_dual_block():
    # Gd is not in SL, so the identity block at degree 1 has no dual partner
    assert duality_check(named_state("cubic-gd-s3")) == (
        False,
        "dual block of id at internal degree 1 has dimension 0, expected 1",
    )


@pytest.mark.parametrize(
    "q_left, check, error",
    [(F(1, 2), "integer-charges", NonIntegerCharge), (F(5), "charge-support", LgError)],
)
def test_charge_witness_is_assembly_message(q_left, check, error, monkeypatch):
    block = block_named(MAIN_STATE, "id", F(1))
    monkeypatch.setattr(block, "q_left", q_left)
    with pytest.raises(error) as raised:
        assemble_diamond(MAIN_STATE)
    checks = {c.name: c for c in verify_theorem(MAIN_STATE).checks}
    assert not checks[check].passed
    assert checks[check].witness == str(raised.value)


def test_group_structure_property():
    """Random diagonal and permutation generators on Fermat cubics and quartics."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fermats = []
    for text in (CUBIC, QUARTIC):
        f, _ = parse_polynomial(text)
        fermats.append((f, diagonal_symmetries(f).elements()))

    @st.composite
    def generator_sets(draw):
        f, diagonals = draw(st.sampled_from(fermats))
        nv = f.nvars
        phases = draw(st.lists(st.sampled_from(diagonals), min_size=1, max_size=2))
        sigmas = draw(st.lists(st.permutations(range(nv)), min_size=1, max_size=2))
        gens = [GroupElement.diagonal(p) for p in phases]
        gens += [GroupElement(tuple(sigma), (F(0),) * nv) for sigma in sigmas]
        return f, gens

    @hypothesis.settings(
        max_examples=20, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(generator_sets())
    def check(case):
        f, gens = case
        try:
            group = generate_group(gens, f, cap=64)
        except ClosureCapExceeded:
            hypothesis.assume(False)
        tables = group_tables(group)
        assert_matches_tables(group, tables, sampled_pairs(group, limit=1024))

    check()
