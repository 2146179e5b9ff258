"""Tests for the Milnor algebra machinery: Groebner bases, grading, residues."""

from fractions import Fraction

import pytest

from lgdiamond._linalg import det
from lgdiamond.cyclotomic import CycNum
from lgdiamond.errors import NonHomogeneous, NotIsolated
from lgdiamond.jacobian import (
    _standard_monomials,
    grevlex_key,
    groebner_basis,
    leading_monomial,
    milnor_number,
    normal_form,
    poincare_dimensions,
    quotient_ring,
)
from lgdiamond.cli import parse_job, run
from lgdiamond.polynomial import Polynomial, WeightSystem, parse_polynomial
from lgdiamond.quasihom import analyze_weights
from lgdiamond.statespace import StateSpace, assemble_diamond
from lgdiamond.symmetry import (
    GroupElement,
    generate_group,
    make_jf,
    restricted_weights,
)
from oracles import buchberger_basis, poincare_dense, standard_monomials_box

F = Fraction

MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"
QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
STAR = "x1^4 + x1*x2^3 + x1*x3^3 + x1*x4^3 + x2^2*x3^2 + x2^2*x4^2 + x3^2*x4^2"
CONE = "x1^3 + x1*x2^2 + x1*x3^2 + x1*x4^2"
HESSE = "x1^3 + x2^3 + x3^3 + x1*x2*x3"
# the milnor-batch benchmark anchor: mu = 1920, d0 = 2175
ANCHOR = "x1^6*x2 + x2^5*x1 + x3^5*x4 + x4^3*x5 + x5^5"
# partial derivatives that share a leading monomial, with their Milnor numbers
SHARED_LEADS = {
    "4*x1^5 + 5*x2^5 + 2*x1^4*x2": 16,
    "x1^4 + 5*x2^4 + 5*x3^4 + 5*x1*x2^3 + 5*x1*x2^2*x3": 27,
}


def ring_of(text: str):
    f, _ = parse_polynomial(text)
    w = analyze_weights(f)[2]
    return quotient_ring(f, w)


def poly(text: str, variables=None) -> Polynomial:
    return parse_polynomial(text, variables=variables)[0]


def keyed(w, dims: dict) -> dict[int, int]:
    """{degree: dim} rewritten with the integer keys d0 * degree of gradings."""
    assert all((deg * w.d0).denominator == 1 for deg in dims)
    return {int(deg * w.d0): k for deg, k in dims.items()}


# -- monomial order -----------------------------------------------------------


def test_grevlex_order():
    x1, x2 = (1, 0), (0, 1)
    assert grevlex_key(x1) > grevlex_key(x2)
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    # degree dominates
    assert grevlex_key((0, 3)) > grevlex_key((2, 0))
    # three variables: lower power of the last variable wins the tie
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))
    assert grevlex_key((1, 1, 0)) > grevlex_key((0, 1, 1))


def test_leading_monomial():
    p = parse_polynomial("x1^2 + x1*x2 + x2^3", allow_mixed_quadratics=True)[0]
    assert leading_monomial(p) == (0, 3)


# -- Groebner bases -----------------------------------------------------------


def test_groebner_monic_fermat():
    polys = [poly("3*x1^2", ["x1", "x2"]), poly("3*x2^2", ["x1", "x2"])]
    gb = groebner_basis(polys, 2, 1)
    assert [sorted(b.terms) for b in gb] == [[(0, 2)], [(2, 0)]]
    assert all(c == CycNum.one(1) for b in gb for c in b.terms.values())


def test_groebner_chain_example():
    f = poly("x1^3 + x1*x2^2")
    gb = groebner_basis([f.partial_derivative(0), f.partial_derivative(1)], 2, 1)
    lms = [leading_monomial(b) for b in gb]
    assert lms == [(1, 1), (2, 0), (0, 3)]
    # x1^2 carries the tail x2^2/3
    tail = gb[1] - Polynomial.monomial((2, 0), 1, 2, 1)
    assert tail == Polynomial.monomial((0, 2), 1, 2, 1) * F(1, 3)


@pytest.mark.parametrize("text, mu", SHARED_LEADS.items())
def test_groebner_shared_leading_monomial(text, mu):
    report = run(parse_job(f"f = {text}\ncommand = jacobian"))
    assert report.payload["mu"] == mu
    assert report.payload["oracle_agrees"]


def hesse_swap_state():
    f, names = parse_polynomial(HESSE)
    w = analyze_weights(f)[2]
    swap = GroupElement((1, 0, 2), (F(0),) * 3)
    return StateSpace(f, w, generate_group([make_jf(w), swap], f), names)


def test_hesse_cubic_swap_sectors():
    state = hesse_swap_state()
    for sector in state.sectors:
        weights = restricted_weights(sector.locus, state.weights)
        assert sector.ring.graded == poincare_dimensions(weights)
    # E/(x1 <-> x2) has genus 0: the swap fixes four points of the cubic
    # curve, the line x1 = x2 meets it three times and (1 : -1 : 0) lies on it
    assert assemble_diamond(state)[1] == [[1, 0], [0, 1]]


def partials(f: Polynomial) -> list[Polynomial]:
    return [f.partial_derivative(i) for i in range(f.nvars)]


def sympy_reduced_basis(f: Polynomial) -> list[Polynomial]:
    """The monic reduced grevlex basis of the Jacobian ideal of f, by sympy."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{f.nvars + 1}")
    expr = 0
    for mono, c in f.terms.items():
        q = c.as_fraction()
        term = sympy.Rational(q.numerator, q.denominator)
        for x, e in zip(xs, mono):
            term *= x**e
        expr += term
    gb = sympy.groebner([sympy.diff(expr, x) for x in xs], *xs, order="grevlex")
    basis = []
    for g in gb.exprs:
        terms = {m: F(int(c.p), int(c.q)) for m, c in sympy.Poly(g, *xs).terms()}
        lc = terms[max(terms, key=grevlex_key)]
        monic = {m: CycNum.rational(c / lc) for m, c in terms.items()}
        basis.append(Polynomial(f.nvars, 1, monic))
    basis.sort(key=lambda b: grevlex_key(leading_monomial(b)))
    return basis


@pytest.mark.parametrize("text", [*SHARED_LEADS, HESSE, MAIN])
def test_leading_monomials_match_sympy(text):
    f = poly(text)
    gb = groebner_basis(partials(f), f.nvars, f.n)
    expected = sympy_reduced_basis(f)
    assert [leading_monomial(b) for b in gb] == [leading_monomial(b) for b in expected]
    # the whole monic reduced basis, rational coefficients included
    assert gb == expected


def test_hesse_swap_sector_leading_monomials_match_sympy():
    state = hesse_swap_state()
    for sector in state.sectors:
        ring = sector.ring
        if not ring.nvars:
            continue
        assert all(c.is_rational() for c in ring.f.terms.values())
        expected = sympy_reduced_basis(ring.f)
        got = [leading_monomial(b) for b in ring.groebner]
        assert got == [leading_monomial(b) for b in expected]
        assert list(ring.groebner) == expected


# rings with a permutation in the group: quartic-fallback's sectors
QUARTIC_FALLBACK = (
    "x1^4 + x2^4 + x3^4 + x4^4 + x1^2*x2^2 + x1*x2*x3*x4",
    GroupElement((1, 0, 3, 2), (F(0),) * 4),
)


def sector_rings(text, *generators):
    f, names = parse_polynomial(text)
    w = analyze_weights(f)[2]
    state = StateSpace(f, w, generate_group([make_jf(w), *generators], f), names)
    return [sector.ring for sector in state.sectors]


@pytest.mark.parametrize("text", [*SHARED_LEADS, HESSE, MAIN])
def test_groebner_matches_buchberger_oracle(text):
    f = poly(text)
    assert groebner_basis(partials(f), f.nvars, f.n) == buchberger_basis(partials(f))


def test_sector_groebner_matches_buchberger_oracle():
    rings = [s.ring for s in hesse_swap_state().sectors]
    rings += sector_rings(*QUARTIC_FALLBACK)
    for ring in rings:
        if ring.nvars:
            assert list(ring.groebner) == buchberger_basis(partials(ring.f))


def test_groebner_matches_buchberger_property():
    """Random invertible polynomials with exponents up to 3."""
    hypothesis = pytest.importorskip("hypothesis")
    from test_acceptance import random_invertible

    @hypothesis.settings(
        max_examples=30, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=False))
    def check(rng):
        f = poly(random_invertible(rng, max_exponent=3))
        assert groebner_basis(partials(f), f.nvars, f.n) == buchberger_basis(
            partials(f)
        )

    check()


def test_normal_form_idempotent_and_kernel():
    f = poly(MAIN)
    w = analyze_weights(f)[2]
    ring = quotient_ring(f, w)
    p = parse_polynomial(
        "x1*x2 + x3^6 + 5*x4^2",
        variables=["x1", "x2", "x3", "x4"],
        allow_mixed_quadratics=True,
    )[0]
    nf = ring.normal_form(p)
    assert ring.normal_form(nf) == nf
    for i in range(4):
        shifted = f.partial_derivative(i) * Polynomial.monomial((1, 0, 2, 0), 1, 4, 1)
        assert ring.normal_form(shifted).is_zero()


# -- quotient rings -----------------------------------------------------------


def test_two_cubes():
    ring = ring_of("x1^3 + x2^3")
    assert ring.mu == 4
    assert ring.basis == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert ring.graded == keyed(ring.weights, {F(0): 1, F(1, 3): 2, F(2, 3): 1})
    assert ring.top_monomial == (1, 1)


def test_quintic_ring():
    ring = ring_of(QUINTIC)
    assert ring.mu == 1024
    assert ring.c_hat == 3
    d0 = ring.weights.d0
    assert ring.graded[0] == 1
    assert ring.graded[d0] == 101
    assert ring.graded[3 * d0] == 1
    assert ring.top_monomial == (3, 3, 3, 3, 3)
    assert ring.graded == poincare_dimensions(ring.weights)


def test_main_ring():
    ring = ring_of(MAIN)
    assert ring.mu == 165
    assert ring.c_hat == 2
    d0 = ring.weights.d0
    assert ring.graded[0] == 1
    assert ring.graded[d0] == 13
    assert ring.graded[2 * d0] == 1
    assert ring.graded == poincare_dimensions(ring.weights)


def test_star_ring():
    ring = ring_of(STAR)
    assert ring.mu == 81
    assert ring.graded == poincare_dimensions(ring.weights)


def test_loop_ring():
    ring = ring_of("x1^2*x2 + x2^3*x1")
    assert ring.mu == 6
    expected = keyed(
        ring.weights, {F(0): 1, F(1, 5): 1, F(2, 5): 2, F(3, 5): 1, F(4, 5): 1}
    )
    assert ring.graded == expected
    assert poincare_dimensions(ring.weights) == expected


def test_cone_not_isolated():
    with pytest.raises(NotIsolated):
        ring_of(CONE)


def test_zero_polynomial_ring():
    ring = quotient_ring(Polynomial.zero(0, 1), WeightSystem(1, ()))
    assert ring.mu == 1
    assert ring.basis == ((),)
    assert ring.graded == {F(0): 1}
    one = Polynomial.constant(1, 0, 1)
    assert ring.residue(one.terms, one.terms) == CycNum.one(1)


def test_non_homogeneous_rejected():
    f = poly("x1^3 + x2^3")
    with pytest.raises(NonHomogeneous):
        quotient_ring(f, WeightSystem(2, (1, 1)))


def test_mu_invariance():
    assert ring_of("x1^3 + x1*x2^2").mu == 4
    assert ring_of("x2^3 + x2*x1^2").mu == 4
    assert ring_of("7*x1^3 + 7*x1*x2^2").mu == 4
    assert ring_of("8*x1^3 + x2^3").mu == 4


def test_graded_in_ascending_order():
    quintic_a3 = sector_rings(QUINTIC, GroupElement((1, 2, 0, 3, 4), (F(0),) * 5))
    hesse_swap = [s.ring for s in hesse_swap_state().sectors]
    for ring in [ring_of(ANCHOR), *quintic_a3, *hesse_swap]:
        degrees = list(ring.graded)
        assert all(type(e) is int for e in degrees)
        assert all(a < b for a, b in zip(degrees, degrees[1:]))
        assert degrees == list(poincare_dimensions(ring.weights))


def test_ring_cache():
    assert ring_of(MAIN) is ring_of(MAIN)


STAIRCASES = [
    "x1^3 + x2^3", QUINTIC, MAIN, STAR, "x1^2*x2 + x2^3*x1", *SHARED_LEADS, HESSE,
    "x1^3 + x1*x2^2", "x2^3 + x2*x1^2", "7*x1^3 + 7*x1*x2^2", "8*x1^3 + x2^3",
    "x1^3", ANCHOR,
]


def assert_staircase_matches_box(ring):
    lms = [leading_monomial(b) for b in ring.groebner]
    got = _standard_monomials(lms, ring.nvars)
    assert got == standard_monomials_box(lms, ring.nvars)
    assert tuple(got) == ring.basis


@pytest.mark.parametrize("text", STAIRCASES)
def test_standard_monomials_match_box(text):
    assert_staircase_matches_box(ring_of(text))


def test_standard_monomials_match_box_on_sectors():
    for sector in hesse_swap_state().sectors:
        assert_staircase_matches_box(sector.ring)
    zero = quotient_ring(Polynomial.zero(0, 1), WeightSystem(1, ()))
    assert_staircase_matches_box(zero)
    assert _standard_monomials([], 0) == [()]


# -- weight series oracle -----------------------------------------------------


def test_poincare_two_cubes():
    w = analyze_weights(poly("x1^3 + x2^3"))[2]
    assert poincare_dimensions(w) == keyed(w, {F(0): 1, F(1, 3): 2, F(2, 3): 1})


def test_poincare_total_is_milnor_number():
    for text in (MAIN, QUINTIC, STAR, "x1^2*x2 + x2^3*x1", "x1^3 + x2^3", ANCHOR):
        w = analyze_weights(poly(text))[2]
        dims = poincare_dimensions(w)
        assert sum(dims.values()) == milnor_number(w)


@pytest.mark.parametrize("text", ["x1^3 + x2^3", MAIN, QUINTIC, ANCHOR])
def test_poincare_matches_dense_expansion(text):
    w = analyze_weights(poly(text))[2]
    assert poincare_dimensions(w) == poincare_dense(w)


def test_poincare_matches_dense_property():
    """Random invertible polynomials, as in the acceptance suite."""
    hypothesis = pytest.importorskip("hypothesis")
    from test_acceptance import random_invertible

    @hypothesis.settings(
        max_examples=40, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=False))
    def check(rng):
        w = analyze_weights(poly(random_invertible(rng)))[2]
        dims = poincare_dimensions(w)
        assert dims == poincare_dense(w)
        assert sum(dims.values()) == milnor_number(w)

    check()


def test_poincare_inexact_weights():
    # t^3 - 1 is not divisible by t^2 - 1
    with pytest.raises(ArithmeticError, match="inexact polynomial division"):
        poincare_dimensions(WeightSystem(5, (2,)))
    # (t - 1)/(t^2 - 1) has the negative top degree 3 - 2 * 2
    with pytest.raises(ArithmeticError, match="inexact polynomial division"):
        poincare_dimensions(WeightSystem(3, (2,)))


def test_poincare_zero_variables():
    assert poincare_dimensions(WeightSystem(1, ())) == {0: 1}


@pytest.mark.parametrize(
    "w, mu",
    [
        # x^20 in 8 variables: the coefficient bound 2^8 * 154^8 of the
        # series below t^153 needs slots wider than 64 bits
        (WeightSystem(20, (1,) * 8), 19**8),
        # x^3 in 70 variables: the middle dimension C(70, 35) > 2^66 itself
        # needs them
        (WeightSystem(3, (1,) * 70), 2**70),
    ],
    ids=["x^20-8-vars", "x^3-70-vars"],
)
def test_poincare_wide_slots(w, mu):
    dims = poincare_dimensions(w)
    assert dims == poincare_dense(w)
    assert sum(dims.values()) == milnor_number(w) == mu


def test_milnor_number_not_integral():
    # mu = 1/q - 1 = 3/2; the check must hold under python -O as well
    with pytest.raises(NotIsolated, match=r"q = \(2/5\).*3/2"):
        milnor_number(WeightSystem(5, (2,)))


def test_weight_system_derives_q():
    # q = d/d0 is derived, so mu and the weight series read the same weights
    w = WeightSystem(6, (2,))
    assert w.q == (F(1, 3),)
    assert milnor_number(w) == sum(poincare_dimensions(w).values()) == 2
    with pytest.raises(TypeError):
        WeightSystem(6, (2,), (F(1, 2),))


def test_poincare_symmetry():
    for text in (MAIN, QUINTIC, STAR):
        w = analyze_weights(poly(text))[2]
        dims = poincare_dimensions(w)
        top = len(w.d) * w.d0 - 2 * sum(w.d)
        assert top == w.central_charge * w.d0
        assert all(dims[top - e] == k for e, k in dims.items())


# -- residue pairing ----------------------------------------------------------


def test_residue_one_variable():
    ring = ring_of("x1^3")
    assert ring.basis == ((0,), (1,))
    assert ring.top_monomial == (1,)
    assert ring.hess_coefficient == CycNum.rational(6, 1)
    one = Polynomial.constant(1, 1, 1)
    x = Polynomial.monomial((1,), 1, 1, 1)
    assert ring.residue(x.terms, one.terms) == CycNum.rational(F(1, 6), 1)
    hessian = Polynomial.monomial(ring.top_monomial, ring.hess_coefficient, 1, 1)
    assert ring.residue(one.terms, hessian.terms) == CycNum.one(1)
    # degree mismatch pairs to zero
    assert ring.residue(x.terms, x.terms) == CycNum.zero(1)


def test_residue_normalization_main():
    ring = ring_of(MAIN)
    one = Polynomial.constant(1, 4, ring.n)
    hessian = Polynomial.monomial(ring.top_monomial, ring.hess_coefficient, 4, ring.n)
    assert ring.residue(one.terms, hessian.terms) == CycNum.one(ring.n)


def test_residue_gram_nondegenerate():
    ring = ring_of(MAIN)
    degree_one = [m for m in ring.basis if ring.monomial_degree(m) == 1]
    assert len(degree_one) == 13
    gram = [
        [
            ring.residue(
                Polynomial.monomial(a, 1, 4, ring.n).terms,
                Polynomial.monomial(b, 1, 4, ring.n).terms,
            )
            for b in degree_one
        ]
        for a in degree_one
    ]
    assert det(gram) != CycNum.zero(ring.n)


def test_residue_gram_small():
    ring = ring_of("x1^3 + x2^3")
    mid = [m for m in ring.basis if ring.monomial_degree(m) == F(1, 3)]
    gram = [
        [
            ring.residue(
                Polynomial.monomial(a, 1, 2, 1).terms, Polynomial.monomial(b, 1, 2, 1).terms
            )
            for b in mid
        ]
        for a in mid
    ]
    assert det(gram) != CycNum.zero(1)
