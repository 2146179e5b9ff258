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
from lgdiamond.cli import _resolve_generators, parse_job, run
from lgdiamond.orbits import (
    _carry,
    _fixed_space,
    _generator_maps,
    _image,
    _jf_phase,
    _orbit_invariants,
)
from lgdiamond.polynomial import Polynomial, parse_polynomial
from lgdiamond.quasihom import analyze_weights
import lgdiamond.jacobian as jacobian
import lgdiamond.statespace as statespace
from lgdiamond.statespace import (
    StateSpace,
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
    group_conductor,
    make_jf,
    restrict,
    restricted_weights,
    sl_diagonal_symmetries,
)

from make_golden import JOBS as GOLDEN_JOBS, job_text
from oracles import (
    action_matrix,
    all_sl_by_elements,
    conductor_by_elements,
    dense_duality_check,
    dense_transpose_check,
    fraction_charges,
    group_tables,
    orbit_basis,
    ref_closure,
    ref_compose,
    ref_element,
    ref_format,
    ref_inverse,
    ref_restricted_weights,
    reynolds_basis,
    reynolds_invariants,
    trace_dimension,
)

MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"
QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
QUARTIC = "x1^4 + x2^4 + x3^4 + x4^4"
CUBIC = "x1^3 + x2^3 + x3^3"
SEXTIC = "x1^6 + x2^6 + x3^6 + x4^6 + x5^6 + x6^6"


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
    assert MAIN_STATE.locus(b6.rep).i_fixed == (1, 3)


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


def permutation_subgroups(perms):
    """Every subgroup of the group the permutation tuples generate."""
    identity = tuple(range(len(perms[0])))

    def close(elems):
        group = {identity, *elems}
        stack = list(group)
        while stack:
            a = stack.pop()
            for b in list(group):
                for c in (tuple(a[i] for i in b), tuple(b[i] for i in a)):
                    if c not in group:
                        group.add(c)
                        stack.append(c)
        return frozenset(group)

    whole = close(perms)
    found = {close(())}
    stack = list(found)
    while stack:
        sub = stack.pop()
        for g in whole - sub:
            bigger = close(sub | {g})
            if bigger not in found:
                found.add(bigger)
                stack.append(bigger)
    return found


def parity_holds(perms):
    """dim (C^N)^T = N mod 2 for every subgroup T (Ebeling and Gusein-Zade).

    The fixed space of a permutation group has one dimension per orbit.
    """
    n = len(perms[0])
    for sub in permutation_subgroups(perms):
        orbits = {frozenset(t[i] for t in sub) for i in range(n)}
        if (len(orbits) - n) % 2:
            return False
    return True


def test_non_abelian_mirror_row_three_cycle():
    """SLd x| <(1 2 3)> mirrors <J> x| <(1 2 3)> on the Fermat quintic.

    The dual of (f, G x| S) is (f^T, G^T x| S) when S satisfies the
    parity condition (Ebeling and Gusein-Zade, arXiv:1907.11421; Priddis,
    Ward and Williams, arXiv:1812.06200); on the Fermat quintic f^T = f
    and the dual of <J> is SLd, so the tables are each other's rows
    reversed.
    """
    assert parity_holds([QUINTIC_C123.sigma])
    # S3 = <(1 2 3), (1 2)(4 5)> fails it: the whole S3 fixes a 2-dim space
    s3 = [QUINTIC_C123.sigma, (1, 0, 2, 4, 3)]
    assert len(permutation_subgroups(s3)) == 6 and not parity_holds(s3)
    large = per_class_state("quintic-sld-c3")
    assert (large.group.order, len(large.group.classes)) == (1875, 275)
    tables = []
    for state in (A3_STATE, large):
        report = verify_theorem(state)
        assert len(report.checks) == 6 and report.passed
        tables.append(assemble_diamond(state)[1])
    small_table, large_table = tables
    assert (small_table[1][1], small_table[1][2]) == (49, 5)
    assert (large_table[1][1], large_table[1][2]) == (5, 49)
    assert large_table == small_table[::-1]


def test_sextic_mirror_row_small_side():
    """<J> x| S on the Fermat sextic fourfold, the small sides of two mirror rows.

    S = <(1 2 3)> and S = <(1 2 3)(4 5 6)> satisfy the parity condition on
    six variables (fixed dimensions 6 and 4, and 6 and 2), so SLd x| S
    (order 23,328, too large for tier-1) has this table's rows reversed.
    """
    rows = [
        (cycle(6, 0, 1, 2), (182, 3, 784), 1158),
        (cycle(6, 0, 1, 2).compose(cycle(6, 3, 4, 5)), (144, 1, 624), 918),
    ]
    for s, entries, total in rows:
        assert parity_holds([s.sigma])
        state = build_state(SEXTIC, [s])
        assert state.group.order == 18
        report = verify_theorem(state)
        assert len(report.checks) == 6 and report.passed
        top, h = assemble_diamond(state)
        assert top == 4
        assert (h[1][1], h[1][3], h[2][2]) == entries
        assert state.total_dimension() == total


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
            assert b.basis == ({0: CycNum.one(state.n)},)


def test_charge_relation_all_blocks():
    for state in (MAIN_STATE, S3_STATE, A3_STATE):
        for b in state.blocks():
            g = state.group.elements[b.rep]
            assert b.q_right - b.q_left == len(state.locus(b.rep).moved) - 2 * g.age()


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
            if state.locus(gi).n_g:
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
    charges = [state.shifts(i) for i in range(group.order)]
    complements = [set(state.locus(i).complement_indices()) for i in range(group.order)]
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
    dead = [([1, 2, 0], [0, 0, third])]
    live = [True] * 3
    assert _orbit_invariants(dead, live, n) == []
    # loop phases 1/3 each, total 1: one invariant line
    alive = [([1, 2, 0], [third] * 3)]
    basis = _orbit_invariants(alive, live, n)
    assert len(basis) == 1
    v = basis[0]
    assert sorted(v) == [0, 1, 2]
    assert v[0] == one and v[1] == omega and v[2] == omega * omega
    # a character kills monomial 2, so the orbit that reaches it dies; entries
    # at a dead index are never read
    assert _orbit_invariants(alive, [True, True, False], n) == []
    swap = [([1, 0, None], [0, 0, None])]
    assert _orbit_invariants(swap, [True, True, False], n) == [{0: one, 1: one}]
    assert _orbit_invariants([], [False, True, False], n) == [{1: one}]


class FormRing:
    """A ring stand-in: standard monomials and the normal forms of a few others."""

    def __init__(self, n, basis, forms):
        self.standard = set(basis)
        self.forms = {
            m: Polynomial(len(m), n, {m2: CycNum.rational(c, n) for m2, c in terms.items()})
            for m, terms in forms.items()
        }

    def monomial_form(self, mono):
        return self.forms[mono]


# in coordinates (x, y, u, v) of one sector, the block is x, y; u and v
# reduce to multiples of x and y
X, Y, U, V = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def fixed_space(n, space, rows, forms, standard=(X, Y)):
    """_fixed_space from space on the block x, y under one transport (0, 0, rows)."""
    return _fixed_space(space, [(0, 0, rows)], (X, Y), FormRing(n, standard, forms), n)


def units(n):
    """The unit vectors of the block x, y."""
    return [{0: CycNum.one(n)}, {1: CycNum.one(n)}]


def test_fixed_space_unit():
    n = 1
    one = CycNum.one(n)
    # x -> u = x + y, y -> -y: involution with invariant line spanned by (1, 1/2)
    basis = fixed_space(n, units(n), [(2, 0), (1, n), (2, 0), (3, 0)], {U: {X: 1, Y: 1}})
    assert basis == [{0: one, 1: CycNum.rational(F(1, 2), n)}]
    # x -> x, y -> y: the whole block, in reduced echelon form
    assert fixed_space(n, units(n), [(0, 0), (1, 0), (2, 0), (3, 0)], {}) == units(n)
    # y -> u, a standard monomial outside the block
    with pytest.raises(LgError, match="does not preserve the degree"):
        fixed_space(n, units(n), [(0, 0), (2, 0), (2, 0), (3, 0)], {}, standard=(X, Y, U))


def test_fixed_space_rational_sizes():
    n = 2
    one = CycNum.one(n)
    # x -> -u = -2y, y -> -v = -x/2 (phase n is -1): x - 2y is invariant
    forms = {U: {Y: 2}, V: {X: F(1, 2)}}
    rows = [(2, n), (3, n), (2, 0), (3, 0)]
    assert fixed_space(n, units(n), rows, forms) == [{0: one, 1: CycNum.rational(-2, n)}]
    # x -> u = 2y, y -> x: the loop scalar is 2, so nothing survives
    assert fixed_space(n, units(n), [(2, 0), (0, 0), (2, 0), (3, 0)], forms) == []


def test_fixed_space_from_orbit_invariant():
    n = 2
    one, minus = CycNum.one(n), CycNum.rational(-1, n)
    # x - y, the invariant of x <-> y with phase n (-1), is the walk's start
    (odd,) = _orbit_invariants([([1, 0], [n, n])], [True, True], n)
    assert odd == {0: one, 1: minus}
    # x -> u = 2x - y, y -> v = x fixes x - y and nothing else
    forms = {U: {X: 2, Y: -1}, V: {X: 1}}
    rows = [(2, 0), (3, 0), (2, 0), (3, 0)]
    assert fixed_space(n, [odd], rows, forms) == [odd]
    assert fixed_space(n, units(n), rows, forms) == [odd]
    # x + y is not fixed, so the cut leaves nothing
    assert fixed_space(n, [{0: one, 1: one}], rows, forms) == []
    # with no transport to cut by, the start comes back as it is
    assert _fixed_space([odd], [], (X, Y), None, n) == [odd]


def test_reynolds_invariants_unit():
    n = 1
    one = CycNum.one(n)
    half = CycNum.rational(F(1, 2), n)
    ident = [{0: one}, {1: one}]
    # columns x -> x + y, y -> -y: involution with invariant line spanned by (1, 1/2)
    refl = [{0: one, 1: one}, {1: CycNum.rational(-1, n)}]
    basis = reynolds_invariants([ident, refl], 2, n)
    assert basis == [{0: one, 1: half}]
    # a single non-idempotent matrix is rejected by the projector check
    with pytest.raises(AssertionError, match="idempotent"):
        reynolds_invariants([refl], 2, n)


@pytest.mark.parametrize("name", list(STRUCTURE_STATES))
def test_centralizer_generators_span_centralizer(name):
    """Schreier generators of each class against the whole-group scan."""
    state = named_state(name)
    group = state.group
    for cls, gens in zip(group.classes, group.centralizers):
        cent = state.centralizer(cls[0])
        assert group.identity_index not in gens
        assert len(set(gens)) == len(gens)
        assert set(gens) <= set(cent)
        span = {group.identity_index}
        stack = [group.identity_index]
        while stack:
            x = stack.pop()
            for s in gens:
                y = group.product(x, s)
                if y not in span:
                    span.add(y)
                    stack.append(y)
        assert span == set(cent)


# fresh states, so that blocks() runs under the test; only the last is in SL
GUARD_STATES = {
    "quintic-s3": lambda: build_state(QUINTIC, [QUINTIC_T12, QUINTIC_T23]),
    "cubic-gd-s3": ORBIT_STATES["cubic-gd-s3"],
    "quintic-even-s3": lambda: build_state(
        QUINTIC, [QUINTIC_C123, GroupElement((1, 0, 2, 4, 3), (F(0),) * 5)]
    ),
}


@pytest.mark.parametrize("name", list(GUARD_STATES))
def test_no_library_path_scans_the_group_for_a_centralizer(name, monkeypatch):
    """blocks() and the verification checks never call StateSpace.centralizer."""
    reference = GUARD_STATES[name]()
    expected = (
        assemble_diamond(reference), transpose_check(reference), duality_check(reference)
    )
    state = GUARD_STATES[name]()
    assert len(state.group.classes) < state.group.order  # non-abelian

    def scan(self, gi):
        raise AssertionError("whole-group centralizer scan")

    monkeypatch.setattr(StateSpace, "centralizer", scan)
    assert (assemble_diamond(state), transpose_check(state), duality_check(state)) == expected
    if state.group.all_sl:
        report = verify_theorem(state)
        assert len(report.checks) == 6 and report.passed
    else:
        # a transposition has determinant -1 and Gd is not in SL
        with pytest.raises(PreconditionFailed, match="determinant"):
            verify_theorem(state)


def quintic_sld_c3():
    """SLd x| <(1 2 3)> on the Fermat quintic: order 1875, 275 classes."""
    return build_state(QUINTIC, [*diagonal_generators(QUINTIC, sl=True), QUINTIC_C123])


# the states on which sector data is read per class
PER_CLASS_STATES = {**STRUCTURE_STATES, "quintic-sld-c3": quintic_sld_c3}


@functools.cache
def per_class_state(name):
    return named_state(name) if name in STRUCTURE_STATES else PER_CLASS_STATES[name]()


@pytest.mark.parametrize("name", list(PER_CLASS_STATES))
def test_group_facts_from_generators_and_representatives(name):
    """The conductor and the SL test read generators and representatives only.

    Both agree with the per-element formulas, and every element's order
    divides its conductor.
    """
    state = per_class_state(name)
    group = state.group
    for extra in (1, 4, 7):
        assert group_conductor(group, extra) == conductor_by_elements(group, extra)
    for g in group.elements:
        assert g.conductor() % g.order() == 0
    assert group.all_sl == all_sl_by_elements(group)


@pytest.mark.parametrize("name", list(PER_CLASS_STATES))
def test_integer_charges_match_fraction_references(name):
    """Each block's e and charges, over d0 and the unit, are its Fraction degree and charges."""
    state = per_class_state(name)
    for block in state.blocks():
        degree, left, right = fraction_charges(state, block)
        assert F(block.e, state.weights.d0) == block.degree == degree
        assert (F(block.left, state.unit), F(block.right, state.unit)) == (left, right)


@pytest.mark.parametrize("name", list(PER_CLASS_STATES))
def test_group_lookups_match_fraction_references(name):
    """Closure, inverses, products and conjugates against (sigma, Fraction
    phase) arithmetic.

    Every pair is checked in the groups up to order 64.
    """
    group = per_class_state(name).group
    refs = [ref_element(g) for g in group.elements]
    assert len(set(refs)) == group.order
    assert set(refs) == ref_closure([group.elements[s] for s in group.generators])
    index = {r: i for i, r in enumerate(refs)}
    assert list(group.inv) == [index[ref_inverse(r)] for r in refs]
    if group.order <= 64:
        for h, rh in enumerate(refs):
            rh_inv = ref_inverse(rh)
            for g, rg in enumerate(refs):
                assert group.product(h, g) == index[ref_compose(rh, rg)]
                assert group.conjugate(h, g) == index[ref_compose(ref_compose(rh, rg), rh_inv)]


@pytest.mark.parametrize("name", list(PER_CLASS_STATES))
def test_listing_weights_and_shared_rings_match_references(name, monkeypatch):
    """Element text, restricted weights and each representative's shared ring.

    The ring is rebuilt from its own locus with the ring cache emptied,
    so sharing across loci that restrict f alike returns the same ring.
    """
    state = per_class_state(name)
    for g in state.group.elements:
        assert format_element(g) == ref_format(g)
    reps = [cls[0] for cls in state.group.classes]
    shared = {r: state.ring(r) for r in reps}
    monkeypatch.setattr(jacobian, "_RING_CACHE", {})
    for r in reps:
        locus = state.locus(r)
        w = restricted_weights(locus, state.weights)
        assert w == ref_restricted_weights(locus, state.weights)
        assert shared[r] == jacobian.quotient_ring(restrict(state.f, locus), w)


@pytest.mark.parametrize("name", list(PER_CLASS_STATES))
def test_inverse_sector_has_the_ring_of_g(name):
    """g^-1 has the fixed locus of g, in the same coordinates, so the same ring."""
    state = per_class_state(name)
    group = state.group
    for gi in range(group.order):
        locus, inverse = state.locus(gi), state.locus(group.inv[gi])
        assert (inverse.i_fixed, inverse.fixed) == (locus.i_fixed, locus.fixed)
        assert state.ring(group.inv[gi]) is state.ring(gi)


@pytest.mark.parametrize("name", list(PER_CLASS_STATES))
def test_sector_data_are_class_functions(name):
    """Every element has its class representative's N_g, age, mu and charge shifts.

    blocks() reads rings and shifts at representatives only, and the
    sector listing reads N_g, the age and mu there.
    """
    state = per_class_state(name)
    elements = state.group.elements
    for cls in state.group.classes:
        rep = cls[0]
        for gi in cls:
            assert state.locus(gi).n_g == state.locus(rep).n_g
            assert elements[gi].age() == elements[rep].age()
            assert state.ring(gi).mu == state.ring(rep).mu
            assert state.shifts(gi) == state.shifts(rep)


@pytest.mark.parametrize("name", list(PER_CLASS_STATES))
def test_rings_are_built_at_class_representatives(name):
    """Blocks and every check build loci and rings only at representatives and their inverses."""
    # a fresh state, so that no other test has read its rings
    state = {
        "quintic-a3": lambda: build_state(QUINTIC, [QUINTIC_C123]),
        "quintic-s3": GUARD_STATES["quintic-s3"],
    }.get(name, PER_CLASS_STATES[name])()
    # outside SL verification stops at its precondition, so run both checks here
    transpose_check(state)
    duality_check(state)
    if state.group.all_sl:
        assert verify_theorem(state).passed
    group = state.group
    reps = {cls[0] for cls in group.classes}
    inverses = {group.inv[r] for r in reps}
    assert reps <= set(state._rings) <= reps | inverses
    assert reps <= set(state._loci) <= reps | inverses


@pytest.mark.parametrize("name", list(ORBIT_STATES))
def test_blocks_match_orbit_oracle(name):
    """Generator phase walk against a CycNum walk over the whole centralizer."""
    state = named_state(name)
    for block in state.blocks():
        assert orbit_basis(state, block) == list(block.basis)


def double_term(basis):
    """The basis with the lead term of its first vector with several terms doubled.

    That vector is then no longer invariant, and leaves the block's span.
    Without such a vector the first one is doubled at its only term.
    """
    k = next((k for k, v in enumerate(basis) if len(v) > 1), 0)
    vec = basis[k]
    first = min(vec)
    return basis[:k] + ({**vec, first: vec[first] * 2},) + basis[k + 1 :]


def double_one_term(block, monkeypatch):
    """Double one term of the block's first basis vector with several terms."""
    monkeypatch.setattr(block, "basis", double_term(block.basis))


def fixed_space_calls(monkeypatch):
    """Bases of the blocks whose cut has generators, one per block from now on."""
    calls = []

    def spy(space, transports, *args):
        basis = _fixed_space(space, transports, *args)
        if transports:
            calls.append(basis)
        return basis

    monkeypatch.setattr("lgdiamond.orbits._fixed_space", spy)
    return calls


def mixed_blocks(state, monkeypatch):
    """The state's blocks whose generators are partly walked and partly cut.

    A generator acting by a character walks its block too: it marks the
    monomials where every invariant vanishes.  Blocks that j_f settles
    are never split.
    """
    mixed = set()

    def spy(transports, monomials, n):
        live, maps, rest = _generator_maps(transports, monomials, n)
        if 0 < len(rest) < len(transports):
            # each block holds its monomials, so their ids stay distinct
            mixed.add(id(monomials))
        return live, maps, rest

    monkeypatch.setattr("lgdiamond.orbits._generator_maps", spy)
    return [b for b in state.blocks() if id(b.monomials) in mixed]


HESSE = "x1^3 + x2^3 + x3^3 + x1*x2*x3"
QUARTIC_FALLBACK = QUARTIC + " + x1^2*x2^2 + x1*x2*x3*x4"

# images leave the standard basis; each normal form is one block monomial
# times a root of unity or a rational (x3^3 = -x1*x2*x4/4 in the first)
MONOMIAL_FORM_STATES = {
    "quartic-xyzw-c4": (QUARTIC + " + x1*x2*x3*x4", [cycle(4, 0, 1, 2, 3)]),
    "quartic-pairs": (
        QUARTIC + " + x1^2*x2^2 + x3^2*x4^2", [cycle(4, 0, 1), cycle(4, 2, 3)]
    ),
    "hesse-123": (HESSE, [cycle(3, 0, 1, 2)]),
}

# states with blocks cut by a generator, and how many: normal forms with
# two terms in the first two, one block monomial in the others; only a
# live monomial (one that every character fixes) sends a generator to the cut
FALLBACK_STATES = {
    "quartic-reynolds": ((QUARTIC_FALLBACK, [cycle(4, 0, 1)]), 1),
    "quartic-fallback": (
        (QUARTIC_FALLBACK, [cycle(4, 0, 1).compose(cycle(4, 2, 3))]), 2
    ),
    **{name: (args, None) for name, args in MONOMIAL_FORM_STATES.items()},
}


@pytest.mark.parametrize("name", list(FALLBACK_STATES))
def test_fallback_blocks_match_reynolds_oracle(name, monkeypatch):
    """Blocks with a cut against the projector over the whole centralizer.

    j_f acts on each block it does not settle as a character, so each cut
    block is mixed: walked by some generators before the others cut it.
    """
    calls = fixed_space_calls(monkeypatch)
    args, count = FALLBACK_STATES[name]
    state = build_state(*args)
    mixed = mixed_blocks(state, monkeypatch)
    blocks = state.blocks()
    assert calls and len(mixed) == len(calls)
    assert count is None or len(calls) == count
    for block in blocks:
        assert list(block.basis) == reynolds_basis(state, block)
        assert block.dimension == trace_dimension(state, block)


@pytest.mark.parametrize("name", list(MONOMIAL_FORM_STATES))
def test_monomial_normal_forms_leave_orbit_walk(name, monkeypatch):
    """Blocks cut by generators whose images reduce to one monomial match the orbits."""
    calls = fixed_space_calls(monkeypatch)
    state = build_state(*MONOMIAL_FORM_STATES[name])
    blocks = state.blocks()
    assert calls
    for block in blocks:
        assert block.dimension == trace_dimension(state, block)
        assert orbit_basis(state, block) == list(block.basis)
    assert transpose_check(state)[0]


def test_reynolds_fallback_blocks(monkeypatch):
    """A generator image whose normal form has two terms cuts its block."""
    calls = fixed_space_calls(monkeypatch)
    state = build_state(QUARTIC_FALLBACK, [cycle(4, 0, 1)])
    blocks = state.blocks()
    assert len(calls) == 1
    for block in blocks:
        assert block.dimension == trace_dimension(state, block)
    # the check carries the cut basis by each generator's transport
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
    block_at = {(b.class_index, b.e): b for b in state.blocks()}
    d0 = state.weights.d0
    transport = StateSpace.transport
    calls = []

    def spy(self, hi, gi):
        result = transport(self, hi, gi)
        calls.append((gi, result[0]))
        return result

    monkeypatch.setattr(StateSpace, "transport", spy)
    seen = 0
    for b in state.blocks():
        inv = group.inv[b.rep]
        # the degrees, times d0, that transpose and duality ask for
        dual = state.ring(b.rep).c_hat * d0 - b.e
        assert dual.denominator == 1
        for e in (b.e, int(dual)):
            calls.clear()
            images = statespace._inverse_images(state, block_at, b.rep, e)
            partner = block_at.get((group.class_of[inv], e))
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


def test_transpose_sees_a_character_that_moves_a_vector(monkeypatch):
    """A generator acting by a character must be 0 on each basis vector's support.

    SLd is diagonal, so every centralizer generator of k3-sld acts on the
    identity sector by a character, and a monomial outside every orbit
    vector is one where some character is nonzero.
    """
    state = named_state("k3-sld")
    identity = state.group.class_of[state.group.identity_index]
    block = next(
        b for b in state.blocks()
        if b.class_index == identity and 0 < b.dimension < len(b.monomials)
    )
    dead = min(set(range(len(block.monomials))) - {k for vec in block.basis for k in vec})
    monkeypatch.setattr(block, "basis", ({dead: CycNum.one(state.n)},) + block.basis[1:])
    assert transpose_check(state) == dense_transpose_check(state) == (
        False,
        f"an invariant of the class of id at internal degree {block.degree} is not "
        "fixed by the centralizer of id",
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


# the dense oracle route re-runs both symmetry checks on these states
ORACLE_CHECK_STATES = {
    "k3-sld": lambda: named_state("k3-sld"),
    "quintic-a3": lambda: A3_STATE,
    "main-jf": lambda: MAIN_STATE,
    "k3-sld-c4": k3_sld_c4,
    "quartic-reynolds": functools.cache(
        lambda: build_state(QUARTIC_FALLBACK, [cycle(4, 0, 1)])
    ),
    # images off the standard basis, reduced to one monomial on the orbit walk
    **{
        name: functools.cache(functools.partial(build_state, *args))
        for name, args in MONOMIAL_FORM_STATES.items()
    },
}


def repeat_vector(basis):
    """The second vector in place of the first, or the only one twice."""
    return (basis[1],) + basis[1:] if len(basis) > 1 else basis * 2


def scale_first(basis):
    """The first vector scaled by 2; an orbit vector is one orbit."""
    return ({k: c * 2 for k, c in basis[0].items()},) + basis[1:]


MUTATIONS = {"repeated": repeat_vector, "doubled": double_term, "scaled": scale_first}


def mutation_targets(state):
    """The largest occupied block in the identity class, and outside it if any."""
    identity = state.group.class_of[state.group.identity_index]
    blocks = sorted((b for b in state.blocks() if b.dimension), key=lambda b: -b.dimension)
    inside = [b for b in blocks if b.class_index == identity]
    outside = [b for b in blocks if b.class_index != identity]
    return inside[:1] + outside[:1]


@pytest.mark.parametrize("name", list(ORACLE_CHECK_STATES))
def test_checks_match_dense_oracle(name, monkeypatch):
    """Verdicts and witnesses of both checks against the dense route, intact and mutated."""
    state = ORACLE_CHECK_STATES[name]()
    caches = {}
    assert transpose_check(state) == dense_transpose_check(state)
    assert duality_check(state) == dense_duality_check(state, caches)
    verdicts = set()
    for mutation, mutate in MUTATIONS.items():
        for block in mutation_targets(state):
            with monkeypatch.context() as patch:
                patch.setattr(block, "basis", mutate(block.basis))
                transpose = transpose_check(state)
                duality = duality_check(state)
                assert transpose == dense_transpose_check(state), (mutation, block.degree)
                assert duality == dense_duality_check(state, caches), (
                    mutation, block.degree
                )
            verdicts.add((mutation, transpose[0], duality[0]))
    # a scaled vector spans the same line; a repeated one spans less
    assert ("scaled", True, True) in verdicts
    assert not any(t and d for m, t, d in verdicts if m == "repeated")


@pytest.mark.parametrize(
    "q_left, check, error",
    [(F(1, 2), "integer-charges", NonIntegerCharge), (F(5), "charge-support", LgError)],
)
def test_charge_witness_is_assembly_message(q_left, check, error, monkeypatch):
    block = block_named(MAIN_STATE, "id", F(1))
    # the charge is held as an integer over the state's unit; q_left is its view
    left = q_left * MAIN_STATE.unit
    assert left.denominator == 1
    monkeypatch.setattr(block, "left", int(left))
    assert block.q_left == q_left
    with pytest.raises(error) as raised:
        assemble_diamond(MAIN_STATE)
    checks = {c.name: c for c in verify_theorem(MAIN_STATE).checks}
    assert not checks[check].passed
    assert checks[check].witness == str(raised.value)


def fermat_generator_sets(hypothesis):
    """Strategy: a Fermat cubic or quartic, its weights, and random generators.

    One or two diagonal symmetries and one or two coordinate permutations.
    """
    st = hypothesis.strategies
    fermats = []
    for text in (CUBIC, QUARTIC):
        f, _ = parse_polynomial(text)
        fermats.append((f, analyze_weights(f)[2], diagonal_symmetries(f).elements()))

    @st.composite
    def generator_sets(draw):
        f, w, diagonals = draw(st.sampled_from(fermats))
        nv = f.nvars
        phases = draw(st.lists(st.sampled_from(diagonals), min_size=1, max_size=2))
        sigmas = draw(st.lists(st.permutations(range(nv)), min_size=1, max_size=2))
        gens = [GroupElement.diagonal(p) for p in phases]
        gens += [GroupElement(tuple(sigma), (F(0),) * nv) for sigma in sigmas]
        return f, w, gens

    return generator_sets()


def test_group_structure_property():
    """Random diagonal and permutation generators on Fermat cubics and quartics."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(
        max_examples=20, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(fermat_generator_sets(hypothesis))
    def check(case):
        f, _, gens = case
        try:
            group = generate_group(gens, f, cap=64)
        except ClosureCapExceeded:
            hypothesis.assume(False)
        tables = group_tables(group)
        assert_matches_tables(group, tables, sampled_pairs(group, limit=1024))

    check()


def assert_blocks_match_oracles(state):
    """j_f's block phases against its transport, and each block against the oracles.

    j_f is central, so its transport sends every monomial of a sector to
    itself; _image of that transport must give each monomial of a degree
    block the block's phase.  Each basis must equal the orbit walk over
    the whole centralizer (the projector where an image is not one block
    monomial) and have the dimension of the character formula.
    """
    group, two_n = state.group, 2 * state.n
    jf = group.index_of(make_jf(state.weights))
    assert jf is not None
    settled = 0
    for cls in group.classes:
        gpi, t, rows = state.transport(jf, cls[0])
        assert gpi == cls[0]
        d0 = state.ring(cls[0]).weights.d0
        for e, monos in state.ring(cls[0]).graded_basis.items():
            phase = _jf_phase(t, e, d0, state.n)
            assert {_image(rows, t, m, two_n) for m in monos} == {(m, phase) for m in monos}
            settled += phase != 0
    for block in state.blocks():
        expected = orbit_basis(state, block)
        if expected is None:
            expected = reynolds_basis(state, block)
        assert list(block.basis) == expected
        assert block.dimension == trace_dimension(state, block)
    return settled


def golden_state(name):
    job = parse_job(job_text(name))
    w = analyze_weights(job.f)[2]
    group = generate_group(_resolve_generators(job, job.f, w), job.f)
    return StateSpace(job.f, w, group, job.names)


@pytest.mark.parametrize("name", list(GOLDEN_JOBS))
def test_jf_phase_and_blocks_match_oracles_on_golden_groups(name):
    state = golden_state(name)
    settled = assert_blocks_match_oracles(state)
    # j_f settles some block of every golden group
    assert settled


def test_carry_scales_non_unit_coefficients_at_nonzero_phases():
    """_carry of a non-unit multiple of every basis vector, through the
    transport of each element of <j_f> x V4 on the quintic, against the
    images of its monomials by apply_to_monomial (the route of
    dense_inverse_images); some terms are carried at a nonzero phase."""
    state = golden_state("quintic-v4")
    n, two_n = state.n, 2 * state.n
    c = CycNum.rational(2, n) - root_of_unity(F(1, n), n)
    zero = CycNum.zero(n)
    phased = 0
    for block in state.blocks():
        for vec in block.basis:
            scaled = {k: c * x for k, x in vec.items()}
            for hi in range(state.group.order):
                transport = state.transport(hi, block.rep)
                gpi, t, rows = transport
                expected = {}
                for k, x in scaled.items():
                    phased += _image(rows, t, block.monomials[k], two_n)[1] != 0
                    _, image = state.apply_to_monomial(hi, block.rep, block.monomials[k])
                    for m, y in image.terms.items():
                        expected[m] = expected.get(m, zero) + x * y
                got = _carry(scaled, block.monomials, transport, state.ring(gpi), n)
                assert got == {m: y for m, y in expected.items() if y}
    assert phased


def test_jf_phase_and_blocks_match_oracles_property():
    """Random diagonal and permutation groups with j_f on Fermat cubics and quartics."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(
        max_examples=20, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(fermat_generator_sets(hypothesis))
    def check(case):
        f, w, gens = case
        try:
            group = generate_group([make_jf(w), *gens], f, cap=128)
        except ClosureCapExceeded:
            hypothesis.assume(False)
        assert_blocks_match_oracles(StateSpace(f, w, group))

    check()


def test_quintic_fallback_job_end_to_end(monkeypatch):
    """A quintic whose sector rings once took minutes to build, with verification.

    Regression pin: the diamond is what the code computed when its
    Groebner pairs were still chosen by a scan, in about 147 s; 3 blocks
    are cut by a generator after the others are walked, each of them
    matches the projector, and every check passes.
    """
    f = QUINTIC + " + x1*x2*x3*x4*x5 + x1^3*x2*x3"
    calls = fixed_space_calls(monkeypatch)
    report = run(parse_job(f"f = {f}\ngroup = [jf, perm(2 3)*perm(4 5)]\n"))
    assert report.payload["diamond"]["h"] == [
        [1, 0, 0, 1], [0, 59, 3, 0], [0, 3, 59, 0], [1, 0, 0, 1]
    ]
    checks = report.payload["verification"]["checks"]
    assert len(checks) == 6 and all(c["pass"] for c in checks)
    assert report.ok
    assert len(calls) == 3
    state = build_state(f, [cycle(5, 1, 2).compose(cycle(5, 3, 4))])
    mixed = mixed_blocks(state, monkeypatch)
    assert len(mixed) == 3
    for block in mixed:
        assert list(block.basis) == reynolds_basis(state, block)
