"""Tests for monomial symmetry groups, fixed loci, and transition constants."""

import random
from fractions import Fraction

import pytest

from lgdiamond._linalg import det, mat_mul, mat_vec
from lgdiamond.cyclotomic import CycNum, phase_unit, root_of_unity
from lgdiamond.errors import (
    ClosureCapExceeded,
    LgError,
    MissingJ,
    NotASymmetry,
    NotInSL,
)
from lgdiamond.polynomial import Polynomial, parse_polynomial
from lgdiamond.quasihom import analyze_weights
from lgdiamond.symmetry import (
    DiagonalGroup,
    FiniteGroup,
    GroupElement,
    diagonal_symmetries,
    diagonal_symmetries_of_rows,
    fixed_locus,
    format_element,
    generate_group,
    group_conductor,
    is_symmetry,
    make_jf,
    restrict,
    restricted_weights,
    rho_constant,
    sl_diagonal_symmetries,
)

from oracles import (
    age_via_matrix,
    column_generators,
    conjugate,
    eigenvalue_phases,
    eigenvector_matrices,
    element_matrix,
    ref_age,
    ref_compose,
    ref_conductor,
    ref_det_phase,
    ref_element,
    ref_inverse,
    ref_is_sl,
    ref_order,
    restrict_via_matrices,
    rho_via_matrices,
)

F = Fraction

MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"
QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
CHAIN2 = "x1^2*x2 + x2^3"


def diag(*phases):
    return GroupElement.diagonal([F(a) for a in phases])


def swap(n, i, j):
    sigma = list(range(n))
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return GroupElement(tuple(sigma), (F(0),) * n)


def random_element(rng, nv, den):
    sigma = list(range(nv))
    rng.shuffle(sigma)
    phase = tuple(F(rng.randrange(den), den) for _ in range(nv))
    return GroupElement(tuple(sigma), phase)


MAIN_F, _ = parse_polynomial(MAIN)
QUINTIC_F, _ = parse_polynomial(QUINTIC)
CHAIN2_F, _ = parse_polynomial(CHAIN2)

MAIN_W = analyze_weights(MAIN_F)[2]
MAIN_JF = make_jf(MAIN_W)
MAIN_G = generate_group([MAIN_JF], MAIN_F)

QUINTIC_JF = diag(*([F(1, 5)] * 5))
QUINTIC_T12 = swap(5, 0, 1)
QUINTIC_T23 = swap(5, 1, 2)
QUINTIC_G = generate_group([QUINTIC_T12, QUINTIC_T23, QUINTIC_JF], QUINTIC_F)


# -- element arithmetic -------------------------------------------------------


def test_compose_matches_matrix_product():
    rng = random.Random(7)
    for _ in range(25):
        a = random_element(rng, 4, 12)
        b = random_element(rng, 4, 12)
        lhs = element_matrix(a.compose(b), 12)
        rhs = mat_mul(element_matrix(a, 12), element_matrix(b, 12))
        assert lhs == rhs


def test_compose_is_substitution_order():
    f, _ = parse_polynomial("x1^2*x2 + x2^3 + x3^2*x4 + x4^3 + x1*x2*x3*x4")
    rng = random.Random(11)
    for _ in range(10):
        a = random_element(rng, 4, 6)
        b = random_element(rng, 4, 6)
        assert a.compose(b).apply(f) == b.apply(a.apply(f))


def test_inverse_power_order():
    rng = random.Random(3)
    for _ in range(20):
        g = random_element(rng, 5, 10)
        assert g.compose(g.inverse()).is_identity
        assert g.inverse().compose(g).is_identity
        assert g.power(g.order()).is_identity
        assert g.power(3) == g.compose(g).compose(g)
        assert g.power(-2) == g.inverse().compose(g.inverse())
    assert MAIN_JF.order() == 12
    assert swap(2, 0, 1).compose(diag(F(1, 2), 0)).order() == 4


def test_cycles_and_sign():
    g = GroupElement((1, 2, 0, 4, 3), (F(0),) * 5)
    assert g.cycles() == ((0, 1, 2), (3, 4))
    assert g.sign() == -1
    assert swap(5, 0, 1).sign() == -1
    assert GroupElement.identity(5).sign() == 1
    assert MAIN_JF.sign() == 1


def test_conjugation_of_diagonal_by_swap():
    h = swap(3, 0, 1)
    g = diag(F(1, 2), F(1, 3), F(1, 7))
    assert conjugate(g, h) == diag(F(1, 3), F(1, 2), F(1, 7))


def test_determinants():
    t = swap(2, 0, 1)
    assert t.det_phase() == F(1, 2)
    assert not t.is_sl()
    assert root_of_unity(t.det_phase(), 2) == CycNum.rational(-1, 2)
    sl_swap = t.compose(diag(F(1, 2), 0))
    assert sl_swap.det_phase() == 0
    assert sl_swap.is_sl()
    assert MAIN_JF.is_sl()
    assert QUINTIC_JF.is_sl()
    assert not diag(F(1, 5), 0, 0, 0, 0).is_sl()
    rng = random.Random(19)
    for _ in range(15):
        g = random_element(rng, 4, 12)
        assert root_of_unity(g.det_phase(), 12) == det(element_matrix(g, 12))


def test_age_and_eigenvalue_phases():
    assert swap(5, 0, 1).age() == F(1, 2)
    assert GroupElement((1, 2, 0, 3, 4), (F(0),) * 5).age() == 1
    assert MAIN_JF.age() == 1
    assert QUINTIC_JF.age() == 1
    assert QUINTIC_JF.power(4).age() == 4
    assert eigenvalue_phases(swap(2, 0, 1)) == (F(0), F(1, 2))
    assert eigenvalue_phases(diag(F(1, 4), F(3, 4))) == (F(1, 4), F(3, 4))


def test_age_duality_against_fixed_dimension():
    for group, n in ((MAIN_G, 12), (QUINTIC_G, 30)):
        nv = group.nvars
        for g in group.elements:
            n_g = fixed_locus(g, n).n_g
            assert g.age() + g.inverse().age() == nv - n_g


# -- symmetry checks ----------------------------------------------------------


def test_is_symmetry():
    assert is_symmetry(QUINTIC_F, QUINTIC_T12)
    assert is_symmetry(MAIN_F, MAIN_JF)
    # scaling only the graph monomials is not enough: x1*x3^9 breaks it
    assert not is_symmetry(MAIN_F, diag(F(1, 2), 0, 0, 0))
    # a plausible-looking chain generator that fails on the mixed monomial
    assert not is_symmetry(CHAIN2_F, diag(F(1, 6), F(1, 3)))
    assert is_symmetry(CHAIN2_F, diag(F(5, 6), F(1, 3)))


def test_make_jf():
    assert MAIN_JF.phase == (F(1, 4), F(1, 2), F(1, 12), F(1, 6))
    assert MAIN_JF.is_diagonal
    assert is_symmetry(MAIN_F, MAIN_JF)


# -- diagonal symmetry groups -------------------------------------------------


def test_diagonal_symmetries_main():
    group = diagonal_symmetries(MAIN_F)
    assert group.order == 72
    vectors = group.elements()
    assert len(vectors) == 72
    assert len(set(vectors)) == 72
    assert MAIN_JF.phase in vectors
    for v in vectors:
        for mono in MAIN_F.terms:
            total = sum(F(e) * a for e, a in zip(mono, v))
            assert total.denominator == 1


def test_graph_group_order_is_determinant():
    e = analyze_weights(MAIN_F)[1]
    assert diagonal_symmetries_of_rows(e.rows).order == 144 == e.det


def test_diagonal_symmetries_small_cases():
    fermat, _ = parse_polynomial("x1^6")
    assert diagonal_symmetries(fermat).order == 6
    loop, _ = parse_polynomial("x1^2*x2 + x2^2*x1")
    assert diagonal_symmetries(loop).order == 3
    quintic = diagonal_symmetries(QUINTIC_F)
    assert quintic.order == 3125
    assert quintic.invariant_factors == (5, 5, 5, 5, 5)


def test_diagonal_symmetries_infinite():
    with pytest.raises(LgError):
        diagonal_symmetries_of_rows([[1, 1]])


def test_trivial_diagonal_group():
    group = diagonal_symmetries_of_rows([[1, 0], [0, 1]])
    assert group.order == 1
    assert group.elements() == [(F(0), F(0))]


@pytest.mark.parametrize(
    "text, order, gens",
    [
        ("x1^4 + x2^4 + x3^4 + x4^4", 64, 3),
        ("x1^3 + x2^3 + x3^3", 9, 2),
        ("x1^5 + x2^5 + x3^5 + x4^5 + x5^5", 625, 4),
        (MAIN, 12, 1),
    ],
)
def test_sl_diagonal_symmetries(text, order, gens):
    f, _ = parse_polynomial(text)
    sl = sl_diagonal_symmetries(f)
    det_one = {v for v in diagonal_symmetries(f).elements() if sum(v) % 1 == 0}
    assert set(sl.elements()) == det_one
    assert sl.order == len(det_one) == order
    assert len(sl.generators) == gens


def span_mod_one(vectors, nvars):
    """Every Z-combination of the phase vectors, reduced mod 1."""
    seen = {(F(0),) * nvars}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for g in vectors:
                w = tuple((a + b) % 1 for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_column_generators_main():
    e = analyze_weights(MAIN_F)[1]
    rho = column_generators(e)
    assert rho == (
        (F(1, 2), F(0), F(0), F(0)),
        (F(3, 4), F(1, 2), F(11, 12), F(0)),
        (F(0), F(0), F(1, 6), F(0)),
        (F(0), F(0), F(0), F(1, 6)),
    )
    total = tuple(sum(col) % 1 for col in zip(*rho))
    assert total == MAIN_JF.phase
    # the columns generate the Smith-normal-form graph group
    assert span_mod_one(rho, 4) == set(diagonal_symmetries_of_rows(e.rows).elements())


def test_column_generators_chain2():
    e = analyze_weights(CHAIN2_F)[1]
    rho = column_generators(e)
    assert rho == ((F(1, 2), F(0)), (F(5, 6), F(1, 3)))
    total = tuple(sum(col) % 1 for col in zip(*rho))
    assert total == (F(1, 3), F(1, 3))
    assert span_mod_one(rho, 2) == set(diagonal_symmetries_of_rows(e.rows).elements())


def test_age_via_matrix():
    e2 = analyze_weights(CHAIN2_F)[1]
    assert age_via_matrix((F(5, 6), F(1, 3)), e2) == F(7, 6)
    with pytest.raises(ValueError):
        age_via_matrix((F(1, 2), F(1, 2)), e2)
    e4 = analyze_weights(MAIN_F)[1]
    assert age_via_matrix(MAIN_JF.phase, e4) == 1
    for g in MAIN_G.elements:
        assert g.is_diagonal
        assert age_via_matrix(g.phase, e4) == g.age()


def test_element_matches_fraction_reference():
    """Integer phases against the rational-phase reference, mixed denominators."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dens = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)

    @st.composite
    def element(draw, nv):
        sigma = draw(st.permutations(range(nv)))
        phase = [
            F(draw(st.integers(0, 2 * d)), d)  # numerators past d wrap mod 1
            for d in draw(st.lists(st.sampled_from(dens), min_size=nv, max_size=nv))
        ]
        return GroupElement(tuple(sigma), phase)

    @st.composite
    def cases(draw):
        nv = draw(st.integers(1, 5))
        return draw(element(nv)), draw(element(nv)), draw(st.integers(1, 4))

    @hypothesis.settings(
        max_examples=200, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(cases())
    def check(case):
        a, b, k = case
        ra, rb = ref_element(a), ref_element(b)
        assert ref_element(a.compose(b)) == ref_compose(ra, rb)
        assert ref_element(a.inverse()) == ref_inverse(ra)
        assert a.order() == ref_order(ra)
        assert a.age() == ref_age(ra)
        assert a.det_phase() == ref_det_phase(ra)
        assert a.is_sl() == ref_is_sl(ra)
        assert a.conductor() == ref_conductor(ra)
        assert (a == b) == (ra == rb)
        # the same element over a larger denominator is equal by value
        lifted = a.over(a.den * k)
        assert lifted.den == a.den * k
        assert lifted == a and hash(lifted) == hash(a) and lifted.key() == a.key()
        assert ref_element(lifted.compose(b)) == ref_compose(ra, rb)
        assert ref_element(a.compose(a.inverse())) == ref_element(
            GroupElement.identity(a.nvars)
        )

    check()


def test_over_rejects_a_coarser_grid():
    with pytest.raises(LgError, match="1/6 grid"):
        diag(F(1, 4), F(1, 2)).over(6)
    assert diag(F(2, 4), F(1, 2)).over(6).num == (3, 3)


def test_jf_lookup_in_group_at_larger_denominator():
    # chain cubic: j_f has denominator 3, the diagonal group denominator 12
    f, _ = parse_polynomial("x1^2*x2 + x2^2*x3 + x3^3")
    jf = make_jf(analyze_weights(f)[2])
    group = generate_group(
        [GroupElement.diagonal(p) for p in diagonal_symmetries(f).generators], f
    )
    assert (jf.den, group.den, group.order) == (3, 12, 12)
    assert group.contains(jf) and group.contains(jf.power(2))
    found = group.elements[group.index_of(jf)]
    assert found.den == 12 and found == jf and found.phase == jf.phase
    assert not group.contains(diag(F(1, 24), 0, 0))
    # elements are sorted by value, as with rational phases
    assert [g.phase for g in group.elements] == sorted(g.phase for g in group.elements)
    # a generator over a needlessly large denominator is reduced first
    assert generate_group([jf.over(24)], f).den == 3


# -- group closure ------------------------------------------------------------


def test_main_group_structure():
    assert MAIN_G.order == 12
    assert MAIN_G.all_sl
    assert len(MAIN_G.classes) == 12
    assert MAIN_G.elements[MAIN_G.identity_index].is_identity
    for i in range(MAIN_G.order):
        assert MAIN_G.product(i, MAIN_G.inv[i]) == MAIN_G.identity_index
    assert MAIN_G.contains(MAIN_JF.power(7))


def test_quintic_group_structure():
    assert QUINTIC_G.order == 30
    assert not QUINTIC_G.all_sl
    assert len(QUINTIC_G.classes) == 15
    sizes = sorted(len(c) for c in QUINTIC_G.classes)
    assert sizes == [1] * 5 + [2] * 5 + [3] * 5
    # conjugates against direct computation
    rng = random.Random(23)
    for _ in range(30):
        hi = rng.randrange(30)
        gi = rng.randrange(30)
        direct = conjugate(QUINTIC_G.elements[gi], QUINTIC_G.elements[hi])
        assert QUINTIC_G.conjugate(hi, gi) == QUINTIC_G.index_of(direct)
    # the transpositions times a fixed scalar form one class of size 3
    t12_class = QUINTIC_G.classes[QUINTIC_G.class_of[QUINTIC_G.index_of(QUINTIC_T12)]]
    assert len(t12_class) == 3


def test_generate_group_rejects_non_symmetry():
    with pytest.raises(NotASymmetry):
        generate_group([diag(F(1, 6), F(1, 3))], CHAIN2_F)


def test_generate_group_cap():
    with pytest.raises(ClosureCapExceeded):
        generate_group([QUINTIC_T12, QUINTIC_T23, QUINTIC_JF], QUINTIC_F, cap=5)


def test_generate_group_sl_filter():
    with pytest.raises(NotInSL):
        generate_group([diag(F(1, 5), 0, 0, 0, 0)], QUINTIC_F, require_sl=True)
    generate_group([QUINTIC_JF], QUINTIC_F, require_sl=True)


def test_generate_group_j_filter():
    with pytest.raises(MissingJ):
        generate_group([diag(F(1, 5), F(4, 5), 0, 0, 0)], QUINTIC_F, require_j=QUINTIC_JF)
    generate_group([QUINTIC_JF], QUINTIC_F, require_j=QUINTIC_JF)


def test_group_conductor():
    assert group_conductor(MAIN_G) == 12
    assert group_conductor(QUINTIC_G) == 30
    assert group_conductor(MAIN_G, extra=5) == 60


# -- fixed loci ---------------------------------------------------------------


def test_fixed_locus_diagonal():
    locus = fixed_locus(diag(0, F(1, 2)), 2)
    assert locus.n_g == 1
    assert locus.d_g == 1
    assert locus.i_fixed == (0,)
    assert locus.w_phases == (F(1, 2),)
    one, zero = CycNum.one(2), CycNum.zero(2)
    l_matrix, w_matrix = eigenvector_matrices(locus)
    assert l_matrix == [[one], [zero]]
    assert w_matrix == [[zero], [one]]


def test_fixed_locus_quintic_three_cycle():
    g = GroupElement((1, 2, 0, 3, 4), (F(0),) * 5)
    locus = fixed_locus(g, 30)
    assert locus.n_g == 3
    assert locus.i_fixed == (0, 3, 4)
    assert locus.w_phases == (F(1, 3), F(2, 3))
    l_matrix, _ = eigenvector_matrices(locus)
    col0 = [l_matrix[i][0] for i in range(5)]
    one, zero = CycNum.one(30), CycNum.zero(30)
    assert col0 == [one, one, one, zero, zero]


def test_fixed_locus_main_j6():
    g = MAIN_JF.power(6)
    assert g.phase == (F(1, 2), F(0), F(1, 2), F(0))
    locus = fixed_locus(g, 12)
    assert locus.n_g == 2
    assert locus.i_fixed == (1, 3)
    assert locus.complement_indices() == (0, 2)


def test_fixed_locus_off_the_grid_raises():
    # a twisted swap has eigenvalues e[1/4] and e[3/4]: off the 1/2 grid
    twisted = GroupElement((1, 0), (F(1, 2), F(0)))
    assert fixed_locus(twisted, 4).w_phases == (F(1, 4), F(3, 4))
    with pytest.raises(LgError, match="order not dividing 2"):
        fixed_locus(twisted, 2)
    # the phases themselves are off the 1/2 grid
    with pytest.raises(LgError, match="1/2 grid"):
        fixed_locus(diag(F(1, 3)), 2)


def test_fixed_locus_eigen_property():
    for group, n in ((MAIN_G, 12), (QUINTIC_G, 30)):
        for g in group.elements:
            locus = fixed_locus(g, n)
            m = element_matrix(g, n)
            l_matrix, w_matrix = eigenvector_matrices(locus)
            for c in range(locus.n_g):
                col = [l_matrix[i][c] for i in range(g.nvars)]
                assert mat_vec(m, col) == col
            for c in range(locus.d_g):
                col = [w_matrix[i][c] for i in range(g.nvars)]
                scale = root_of_unity(locus.w_phases[c], n)
                assert mat_vec(m, col) == [scale * x for x in col]
            assert det([lr + wr for lr, wr in zip(l_matrix, w_matrix)]) != 0


def test_restrict_quintic_three_cycle():
    g = GroupElement((1, 2, 0, 3, 4), (F(0),) * 5)
    locus = fixed_locus(g, 30)
    r = restrict(QUINTIC_F, locus)
    assert r.nvars == 3
    expected = Polynomial(3, r.n, {
        (5, 0, 0): CycNum.rational(3, r.n),
        (0, 5, 0): CycNum.one(r.n),
        (0, 0, 5): CycNum.one(r.n),
    })
    assert r == expected


def test_restrict_main_j6():
    locus = fixed_locus(MAIN_JF.power(6), 12)
    r = restrict(MAIN_F, locus)
    assert r.nvars == 2
    assert set(r.terms) == {(2, 0), (0, 6)}
    assert all(c == CycNum.one(r.n) for c in r.terms.values())


def test_restrict_chain_prefix():
    f, _ = parse_polynomial("x1^2 + x2^2*x1 + x3^2*x2")
    g = diag(0, 0, F(1, 2))
    assert is_symmetry(f, g)
    locus = fixed_locus(g, 2)
    r = restrict(f, locus)
    assert set(r.terms) == {(2, 0), (1, 2)}


def test_restrict_empty_fixed_locus():
    locus = fixed_locus(MAIN_JF, 12)
    assert locus.n_g == 0
    r = restrict(MAIN_F, locus)
    assert r.nvars == 0
    assert r.is_zero()


def test_restricted_weights():
    locus = fixed_locus(MAIN_JF.power(6), 12)
    w = restricted_weights(locus, MAIN_W)
    assert w.q == (F(1, 2), F(1, 6))
    assert w.d0 == 6
    assert w.d == (3, 1)
    empty = restricted_weights(fixed_locus(MAIN_JF, 12), MAIN_W)
    assert empty.q == ()


# -- transition constants -----------------------------------------------------


def test_rho_on_fermat():
    g = diag(F(1, 2))
    locus = fixed_locus(g, 2)
    # rho is held as an integer mod 2n: 2 half-steps of 1/2 are the phase 1/2
    assert F(rho_constant(g, locus, locus), 2 * locus.n) == F(1, 2)
    assert phase_unit(rho_constant(g, locus, locus), 2) == CycNum.rational(-1, 2)
    h = diag(F(1, 4))
    lg = fixed_locus(h, 4)
    for k in (1, 2, 3):
        assert phase_unit(rho_constant(h.power(k), lg, lg), 4) == root_of_unity(
            F(k, 4), 4
        )


def test_rho_identity_sector():
    locus = fixed_locus(GroupElement.identity(5), 30)
    for h in (QUINTIC_T12, QUINTIC_JF):
        assert phase_unit(rho_constant(h, locus, locus), 30) == CycNum.one(30)


def test_rho_at_jf_is_determinant():
    locus = fixed_locus(QUINTIC_JF, 30)
    for h in (QUINTIC_T12, QUINTIC_JF, QUINTIC_T12.compose(QUINTIC_JF)):
        conj = fixed_locus(conjugate(QUINTIC_JF, h), 30)
        assert phase_unit(rho_constant(h, locus, conj), 30) == root_of_unity(
            h.det_phase(), 30
        )


def test_rho_cocycle():
    n = 30
    loci = {g.key(): fixed_locus(g, n) for g in QUINTIC_G.elements}
    rng = random.Random(41)
    for _ in range(40):
        g = QUINTIC_G.elements[rng.randrange(30)]
        h1 = QUINTIC_G.elements[rng.randrange(30)]
        h2 = QUINTIC_G.elements[rng.randrange(30)]
        g1 = conjugate(g, h1)
        h21 = h2.compose(h1)
        g2 = conjugate(g, h21)
        lhs = phase_unit(rho_constant(h2, loci[g1.key()], loci[g2.key()]), n) * (
            phase_unit(rho_constant(h1, loci[g.key()], loci[g1.key()]), n)
        )
        rhs = phase_unit(rho_constant(h21, loci[g.key()], loci[g2.key()]), n)
        assert lhs == rhs


HESSE_F, _ = parse_polynomial("x1^3 + x2^3 + x3^3 + x1*x2*x3")
QUARTIC_F, _ = parse_polynomial("x1^4 + x2^4 + x3^4 + x4^4")


@pytest.mark.parametrize(
    "f, generators, pairs",
    [
        (MAIN_F, [MAIN_JF], 144),
        (HESSE_F, [diag(*([F(1, 3)] * 3)), swap(3, 0, 1)], 36),
        # a fixed 2-cycle with nonzero phases, seen by the x1*x2*x3 term
        (
            HESSE_F,
            [diag(*([F(1, 3)] * 3)), swap(3, 0, 1).compose(diag(F(1, 3), F(2, 3), 0))],
            36,
        ),
        (QUINTIC_F, [QUINTIC_JF, GroupElement((1, 2, 0, 3, 4), (F(0),) * 5)], 225),
        (
            QUARTIC_F,
            [
                diag(*([F(1, 4)] * 4)),
                swap(4, 0, 1).compose(diag(F(1, 4), F(3, 4), 0, 0)),
                swap(4, 2, 3),
            ],
            256,
        ),
    ],
    ids=["main-j", "hesse-swap", "hesse-twisted-swap", "quintic-a3", "quartic-twisted"],
)
def test_phase_loci_match_matrix_oracle(f, generators, pairs):
    """Closed-form rho and monomial restriction against the matrix route."""
    group = generate_group(generators, f)
    assert group.order**2 == pairs
    n = group_conductor(group, extra=f.n)
    loci = [fixed_locus(g, n) for g in group.elements]
    for gi, locus in enumerate(loci):
        assert restrict(f, locus) == restrict_via_matrices(f, locus)
        for hi, h in enumerate(group.elements):
            conj = loci[group.conjugate(hi, gi)]
            rho = phase_unit(rho_constant(h, locus, conj), n)
            assert rho == rho_via_matrices(h, locus, conj)


# -- formatting ---------------------------------------------------------------


def test_format_element():
    assert format_element(GroupElement.identity(3)) == "id"
    assert format_element(MAIN_JF) == "diag(1/4, 1/2, 1/12, 1/6)"
    assert format_element(swap(5, 0, 1)) == "(1 2)"
    twisted = GroupElement((1, 0), (F(1, 2), F(0)))
    assert format_element(twisted) == "(1 2)*diag(1/2, 0)"
