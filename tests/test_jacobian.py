"""Tests for the Milnor algebra machinery: Groebner bases, grading, residues."""

import functools
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from lgdiamond import cli, jacobian, polynomial
from lgdiamond._linalg import det
from lgdiamond.cyclotomic import CycNum, root_of_unity
from lgdiamond.errors import MilnorBoundExceeded, NonHomogeneous, NotIsolated
from lgdiamond.jacobian import (
    _integer_degree,
    _standard_monomials,
    milnor_number,
    normal_form,
    poincare_dimensions,
    quotient_ring,
)
from lgdiamond.cli import _resolve_generators, parse_job, run
from lgdiamond.polynomial import Polynomial, WeightSystem, parse_polynomial
from lgdiamond.quasihom import analyze_weights
from lgdiamond.statespace import StateSpace, assemble_diamond
from lgdiamond.symmetry import (
    GroupElement,
    generate_group,
    make_jf,
    restricted_weights,
)
from oracles import (
    brute_socle,
    buchberger_basis,
    grevlex_key,
    leading_monomial,
    monomials_of_degree,
    pairwise_residue,
    poincare_dense,
    reduced_by,
    residue,
    ring_basis,
    ring_groebner,
    ring_socle,
    standard_monomials_box,
)

F = Fraction

MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"
QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
STAR = "x1^4 + x1*x2^3 + x1*x3^3 + x1*x4^3 + x2^2*x3^2 + x2^2*x4^2 + x3^2*x4^2"
CONE = "x1^3 + x1*x2^2 + x1*x3^2 + x1*x4^2"
HESSE = "x1^3 + x2^3 + x3^3 + x1*x2*x3"
# a Dwork-type deformation: its Jacobian ideal is not monomial
QUARTIC_DWORK = "x1^4 + x2^4 + x3^4 + x4^4 + x1*x2*x3*x4"
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
    gb = ring_groebner(ring_of("x1^3 + x2^3"))
    assert [sorted(b.terms) for b in gb] == [[(0, 2)], [(2, 0)]]
    assert all(c == CycNum.one(1) for b in gb for c in b.terms.values())


def test_groebner_chain_example():
    gb = ring_groebner(ring_of("x1^3 + x1*x2^2"))
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
    for gi in range(state.group.order):
        weights = restricted_weights(state.locus(gi), state.weights)
        assert state.ring(gi).graded == poincare_dimensions(weights)
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


@pytest.mark.parametrize("text", [*SHARED_LEADS, HESSE, MAIN, QUARTIC_DWORK])
def test_leading_monomials_match_sympy(text):
    f = poly(text)
    gb = ring_groebner(ring_of(text))
    expected = sympy_reduced_basis(f)
    assert [leading_monomial(b) for b in gb] == [leading_monomial(b) for b in expected]
    # the whole monic reduced basis, rational coefficients included
    assert gb == expected


def test_hesse_swap_sector_leading_monomials_match_sympy():
    state = hesse_swap_state()
    for ring in sector_rings_of(state):
        if not ring.nvars:
            continue
        assert all(c.is_rational() for c in ring.f.terms.values())
        expected = sympy_reduced_basis(ring.f)
        basis = ring_groebner(ring)
        got = [leading_monomial(b) for b in basis]
        assert got == [leading_monomial(b) for b in expected]
        assert basis == expected


# rings with a permutation in the group: quartic-fallback's sectors
QUARTIC_FALLBACK = (
    "x1^4 + x2^4 + x3^4 + x4^4 + x1^2*x2^2 + x1*x2*x3*x4",
    GroupElement((1, 0, 3, 2), (F(0),) * 4),
)


def sector_rings(text, *generators):
    f, names = parse_polynomial(text)
    w = analyze_weights(f)[2]
    state = StateSpace(f, w, generate_group([make_jf(w), *generators], f), names)
    return sector_rings_of(state)


def sector_rings_of(state):
    """The sector ring of every group element, in element order."""
    return [state.ring(gi) for gi in range(state.group.order)]


@pytest.mark.parametrize("text", [*SHARED_LEADS, HESSE, MAIN])
def test_groebner_matches_buchberger_oracle(text):
    assert ring_groebner(ring_of(text)) == buchberger_basis(partials(poly(text)))


def test_sector_groebner_matches_buchberger_oracle():
    rings = sector_rings_of(hesse_swap_state())
    rings += sector_rings(*QUARTIC_FALLBACK)
    for ring in rings:
        if ring.nvars:
            assert ring_groebner(ring) == buchberger_basis(partials(ring.f))


# exponents a with sum 1/a_i = 1 on N <= 4 variables, so that x1*...*xN has
# weighted degree 1, leaving out those whose Buchberger oracle takes over 0.1 s
# once deformed (2, 3, 7, 42 and the other 2, 3 quartics, and 3, 4, 4, 6)
CALABI_YAU_FERMATS = [
    (2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 4, 5, 20), (2, 4, 6, 12),
    (2, 4, 8, 8), (2, 5, 5, 10), (2, 6, 6, 6), (3, 3, 4, 12), (3, 3, 6, 6),
    (4, 4, 4, 4),
]


def test_groebner_matches_buchberger_property():
    """Random invertible polynomials with exponents up to 6, and Fermat
    polynomials with sum q = 1 plus psi * x1*...*xN: ideals that are not monomial.
    Where the oracle's leads lack a pure power, f is not isolated, and the
    ring names the first variable without one."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from test_acceptance import random_invertible

    @hypothesis.settings(
        max_examples=40, deadline=None, derandomize=True, database=None
    )
    # the quartic + 4 x1x2x3x4 lacks a pure power of x4, which no draw of the
    # 40 gives, so every run takes the NotIsolated branch at least once
    @hypothesis.example(random.Random(0), (4, 4, 4, 4), Fraction(4))
    @hypothesis.given(
        st.randoms(use_true_random=False),
        st.sampled_from(CALABI_YAU_FERMATS),
        st.fractions(-6, 6, max_denominator=5).filter(bool),
    )
    def check(rng, exponents, psi):
        fermat = " + ".join(f"x{i + 1}^{a}" for i, a in enumerate(exponents))
        product = "*".join(f"x{i + 1}" for i in range(len(exponents)))
        for text in (random_invertible(rng, max_exponent=6), f"{fermat} + ({psi})*{product}"):
            f = parse_polynomial(text, allow_mixed_quadratics=True)[0]
            w = analyze_weights(f)[2]
            basis = buchberger_basis(partials(f))
            missing = first_without_pure_power(basis)
            if missing is None:
                assert ring_groebner(quotient_ring(f, w)) == basis, text
            else:
                with pytest.raises(NotIsolated, match=f"no pure power of variable {missing};"):
                    quotient_ring(f, w)

    check()


def first_without_pure_power(basis):
    """The first variable (from 1) that no leading monomial is a pure power of."""
    lms = [leading_monomial(b) for b in basis]
    powers = {i for lm in lms for i, e in enumerate(lm) if e == sum(lm)}
    return next((i + 1 for i in range(len(lms[0])) if i not in powers), None)


@pytest.mark.parametrize(
    "text, variable",
    [
        ("x1^2 + x2^2 + 2*x1*x2", 2),
        ("x1^2 + x2^2 - 2*x1*x2", 2),
        ("x1^3 + x2^3 + x3^3 - 3*x1*x2*x3", 3),
        ("x1^4 + x2^4 + x3^4 + x4^4 + 4*x1*x2*x3*x4", 4),
        ("x1^4 + x2^4 + x3^4 + x4^4 - 4*x1*x2*x3*x4", 4),
    ],
)
def test_singular_members_are_not_isolated(text, variable):
    """The singular members of the Fermat pencils: the slots hold no more
    than an isolated ring needs, and the truncated leads still lack the
    pure power that the full basis lacks."""
    f = parse_polynomial(text, allow_mixed_quadratics=True)[0]
    assert first_without_pure_power(buchberger_basis(partials(f))) == variable
    message = (
        f"the Jacobian ideal contains no pure power of variable {variable}; "
        "the critical point is not isolated"
    )
    with pytest.raises(NotIsolated) as excinfo:
        quotient_ring(f, analyze_weights(f)[2])
    assert str(excinfo.value) == message


def test_groebner_leaves_out_pairs_past_the_slots(monkeypatch):
    """On three-bit slots (cap 4) the ring of x1^3 + x1*x2^2 leaves out the
    pair of x1*x2 and x2^3, whose lcm x1*x2^3 has degree 4, and reads the
    same basis as plain Buchberger and as the default slots; no exponent
    wraps into its neighbour."""
    text = "x1^3 + x1*x2^2"
    expected = buchberger_basis(partials(poly(text)))
    # the pairs that groebner_basis pushes, as (key, i, j); normal_form pushes ints
    pairs = []
    real = jacobian.heappush
    monkeypatch.setattr(
        jacobian,
        "heappush",
        lambda h, x: (isinstance(x, tuple) and pairs.append(x[1:])) or real(h, x),
    )
    wide = ring_of(text)
    assert pairs == [(0, 1), (1, 2)]
    pairs.clear()
    monkeypatch.setattr(polynomial, "_SLOT_BITS", 1)
    narrow = ring_of(text)
    slots = narrow.slots
    assert slots.cap == 4 < wide.slots.cap
    assert pairs == [(0, 1)]
    assert ring_groebner(narrow) == ring_groebner(wide) == expected
    keys = [k for _, lead, tail in narrow.groebner for k in (lead, *tail)]
    assert all(-k & slots.mask & slots.guard == 0 for k in keys)
    assert all(sum(slots.mono(k)) == (k + slots.mask) >> slots.bits * slots.nvars for k in keys)


def test_ring_normal_form_on_slots_sized_from_the_weights(monkeypatch):
    """A ring built on slots no wider than its weights need reads the same
    Milnor ring, and keeps them for a polynomial of higher degree: the terms
    of degree over c_hat lie in the ideal."""
    wide = ring_of(QUARTIC_DWORK)
    monkeypatch.setattr(polynomial, "_SLOT_BITS", 1)
    narrow = ring_of(QUARTIC_DWORK)
    assert narrow is not wide and narrow == wide
    assert ring_groebner(narrow) == ring_groebner(wide)
    slots = narrow.slots
    # degree c_hat + 1/4 = 9/4 has at most 9 factors, below the cap of 16
    assert slots.cap == 16 < wide.slots.cap
    high = poly("x1^9*x2^7 + 3*x3^20 + x1*x2*x3*x4^5")
    nf = narrow.normal_form(high)
    assert nf == wide.normal_form(high) == wide.normal_form(poly("x1*x2*x3*x4^5"))
    assert not nf.is_zero()
    assert narrow.slots is slots and slots.cap == 16
    assert narrow.normal_form(poly("x1^9*x2^7 + 3*x3^20")).is_zero()


def test_ring_slots_wider_than_the_default():
    """x1^2 + x2^90 has mu = 89, and a monomial of degree c_hat + 1/2 =
    133/90 has up to 133 factors, so its ring needs 9-bit slots.  Normal
    forms match plain Buchberger reduction; the terms over c_hat drop, one
    of them past every slot, and the top monomial x2^88 stays."""
    ring = ring_of("x1^2 + x2^90")
    assert ring.mu == 89 and ring.top_monomial == (0, 88)
    assert ring.slots.bits == 9 > polynomial._SLOT_BITS
    basis = buchberger_basis(partials(ring.f))
    assert ring_groebner(ring) == basis
    for text in ("x2^88 + 3*x1*x2^43 + x2^5", "x2^89", "x1^3*x2^60 + 2*x2^300", "x2^88 + x2^300"):
        p = poly(text, ["x1", "x2"])
        assert ring.normal_form(p) == reduced_by(p, basis), text
    assert ring.normal_form(poly("x2^89 + x2^300", ["x1", "x2"])).is_zero()
    assert ring_socle(ring) == brute_socle(ring) == {(0, 88): 1 / ring.hess_coefficient}


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
    assert ring_basis(ring) == ((0, 0), (0, 1), (1, 0), (1, 1))
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
    assert ring_basis(ring) == ((),)
    assert ring.graded == {F(0): 1}
    one = Polynomial.constant(1, 0, 1)
    assert residue(ring, one.terms, one.terms) == CycNum.one(1)


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
    hesse_swap = sector_rings_of(hesse_swap_state())
    for ring in [ring_of(ANCHOR), *quintic_a3, *hesse_swap]:
        degrees = list(ring.graded)
        assert all(type(e) is int for e in degrees)
        assert all(a < b for a, b in zip(degrees, degrees[1:]))
        assert degrees == list(poincare_dimensions(ring.weights))


def test_jacobian_job_reads_mu_and_grading_from_the_stairs(monkeypatch):
    build, built = cli.quotient_ring, []
    monkeypatch.setattr(cli, "quotient_ring", lambda f, w: built.append(build(f, w)) or built[-1])
    report = run(parse_job(f"f = {ANCHOR}\ncommand = jacobian"))
    (ring,) = built
    assert "graded_basis" not in ring.__dict__ and "standard" not in ring.__dict__
    # the forced listing gives the same mu and grading
    basis = ring_basis(ring)
    counts = Counter(_integer_degree(m, ring.weights) for m in basis)
    assert report.payload["mu"] == ring.mu == len(basis) == 1920
    assert list(ring.graded.items()) == sorted(counts.items())
    assert ring.standard == set(basis)


@pytest.mark.parametrize("command", ["jacobian", "diamond"])
def test_degenerate_hessian_class_is_not_isolated(monkeypatch, command):
    monkeypatch.setattr(
        jacobian, "hessian_determinant", lambda f: Polynomial.zero(f.nvars, f.n)
    )
    with pytest.raises(NotIsolated, match="does not span the top graded piece"):
        run(parse_job(f"f = x1^3 + x2^3 + x3^3\ncommand = {command}"))


STAIRCASES = [
    "x1^3 + x2^3", QUINTIC, MAIN, STAR, "x1^2*x2 + x2^3*x1", *SHARED_LEADS, HESSE,
    "x1^3 + x1*x2^2", "x2^3 + x2*x1^2", "7*x1^3 + 7*x1*x2^2", "8*x1^3 + x2^3",
    "x1^3", ANCHOR,
]


def assert_staircase_matches_box(ring):
    lms = [leading_monomial(b) for b in ring_groebner(ring)]
    leads = [e for e, _, _ in ring.groebner]
    stairs, graded = _standard_monomials(leads, ring.weights.d, ring.slots)
    box = standard_monomials_box(lms, ring.nvars)
    assert tuple(stairs) == ring.stairs
    # the basis is listed from the stairs on first read, by degree, each
    # degree's in grevlex order (the box's)
    split = {}
    for mono in box:
        split.setdefault(_integer_degree(mono, ring.weights), []).append(mono)
    degrees = sorted(split)
    assert list(ring.graded_basis.items()) == [(e, tuple(split[e])) for e in degrees]
    assert ring.mu == sum(b for _, b in stairs) == len(box)
    assert list(graded.items()) == [(e, len(split[e])) for e in degrees]
    assert graded == ring.graded


@pytest.mark.parametrize("text", STAIRCASES)
def test_standard_monomials_match_box(text):
    assert_staircase_matches_box(ring_of(text))


def test_standard_monomials_match_box_on_sectors():
    for ring in sector_rings_of(hesse_swap_state()):
        assert_staircase_matches_box(ring)
    zero = quotient_ring(Polynomial.zero(0, 1), WeightSystem(1, ()))
    assert_staircase_matches_box(zero)
    assert _standard_monomials([], (), zero.slots) == ([((), 1)], {0: 1})


# -- weight series oracle -----------------------------------------------------


def test_poincare_two_cubes():
    w = analyze_weights(poly("x1^3 + x2^3"))[2]
    assert poincare_dimensions(w) == keyed(w, {F(0): 1, F(1, 3): 2, F(2, 3): 1})


def test_poincare_total_is_milnor_number():
    for text in (MAIN, QUINTIC, STAR, "x1^2*x2 + x2^3*x1", "x1^3 + x2^3", ANCHOR):
        w = analyze_weights(poly(text))[2]
        dims = poincare_dimensions(w)
        assert sum(dims.values()) == milnor_number(w)


# d0 = det(E) and g = gcd(d0, d); the series runs over d0/g and d/g
LOWEST_TERMS = {"x1^3 + x2^3": (9, 3), MAIN: (144, 12), QUINTIC: (3125, 625), ANCHOR: (2175, 1)}


@pytest.mark.parametrize("text", list(LOWEST_TERMS))
def test_poincare_matches_dense_expansion(text):
    w = analyze_weights(poly(text))[2]
    assert (w.d0, gcd(w.d0, *w.d)) == LOWEST_TERMS[text]
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
        # the first in lowest terms only after dividing by g = 3
        (WeightSystem(60, (3,) * 8), 19**8),
    ],
    ids=["x^20-8-vars", "x^3-70-vars", "x^20-8-vars-over-g"],
)
def test_poincare_wide_slots(w, mu):
    dims = poincare_dimensions(w)
    assert dims == poincare_dense(w)
    assert sum(dims.values()) == milnor_number(w) == mu


def test_milnor_number_not_integral():
    # mu = 1/q - 1 = 3/2; the check must hold under python -O as well
    with pytest.raises(NotIsolated, match=r"q = \(2/5\).*3/2"):
        milnor_number(WeightSystem(5, (2,)))


def test_milnor_bound(monkeypatch):
    # the cubes (mu 8) sit on a bound of 8 and over a bound of 7; weights
    # whose mu is not an integer stay NotIsolated over the bound
    cubes = "x1^3 + x2^3 + x3^3"
    monkeypatch.setattr(jacobian, "MAX_MILNOR", 8)
    assert ring_of(cubes).mu == 8
    monkeypatch.setattr(jacobian, "MAX_MILNOR", 7)
    with pytest.raises(MilnorBoundExceeded, match="Milnor number 8, over the bound 7"):
        ring_of(cubes)
    with pytest.raises(NotIsolated, match="non-integral Milnor number 28/3"):
        quotient_ring(poly("x1^5 + x1^2*x2^2"), WeightSystem(10, (2, 3)))


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
    assert ring_basis(ring) == ((0,), (1,))
    assert ring.top_monomial == (1,)
    assert ring.hess_coefficient == CycNum.rational(6, 1)
    one = Polynomial.constant(1, 1, 1)
    x = Polynomial.monomial((1,), 1, 1, 1)
    assert residue(ring, x.terms, one.terms) == CycNum.rational(F(1, 6), 1)
    hessian = Polynomial.monomial(ring.top_monomial, ring.hess_coefficient, 1, 1)
    assert residue(ring, one.terms, hessian.terms) == CycNum.one(1)
    # degree mismatch pairs to zero
    assert residue(ring, x.terms, x.terms) == CycNum.zero(1)


def test_residue_normalization_main():
    ring = ring_of(MAIN)
    one = Polynomial.constant(1, 4, ring.n)
    hessian = Polynomial.monomial(ring.top_monomial, ring.hess_coefficient, 4, ring.n)
    assert residue(ring, one.terms, hessian.terms) == CycNum.one(ring.n)


def test_residue_gram_nondegenerate():
    ring = ring_of(MAIN)
    d0 = ring.weights.d0
    degree_one = [m for m in ring_basis(ring) if _integer_degree(m, ring.weights) == d0]
    assert len(degree_one) == 13
    gram = [
        [
            residue(
                ring,
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
    d0 = ring.weights.d0
    mid = [m for m in ring_basis(ring) if 3 * _integer_degree(m, ring.weights) == d0]
    gram = [
        [
            residue(
                ring,
                Polynomial.monomial(a, 1, 2, 1).terms, Polynomial.monomial(b, 1, 2, 1).terms
            )
            for b in mid
        ]
        for a in mid
    ]
    assert det(gram) != CycNum.zero(1)


# rings whose Groebner bases have tails, so that monomials off the standard
# basis have residues, and Fermat rings, whose socle is the top monomial
RESIDUE_RINGS = (
    MAIN, ANCHOR, QUARTIC_FALLBACK[0], HESSE, "x1^2*x2 + x2^3", "x1^3 + x2^3",
)
SOCLE_GOLDEN_JOBS = ("main-sld", "quartic-fallback", "quartic-pairs", "quintic-a3")
GOLDEN = Path(__file__).resolve().parent / "golden"


@functools.cache
def residue_rings():
    """The residue rings, each with its socle by brute force."""
    rings = [ring_of(text) for text in RESIDUE_RINGS]
    rings += [r for r in sector_rings(*QUARTIC_FALLBACK) if r.nvars]
    return tuple((ring, brute_socle(ring)) for ring in rings)


def golden_rings(name):
    job = parse_job((GOLDEN / f"{name}.job").read_text())
    w = analyze_weights(job.f)[2]
    group = generate_group(_resolve_generators(job, job.f, w), job.f)
    return sector_rings_of(StateSpace(job.f, w, group, job.names))


def test_residue_off_the_standard_basis():
    # x1^2 reduces to -3 x2^2, so x1 pairs with itself though x1^2 is not standard
    ring = ring_of("x1^2*x2 + x2^3")
    assert ring.top_monomial == (0, 2)
    assert (2, 0) not in ring.standard
    x1 = {(1, 0): CycNum.one(1)}
    assert residue(ring, x1, x1) == CycNum.rational(F(-1, 8), 1)
    assert ring_socle(ring) == {
        (0, 2): CycNum.rational(F(1, 24), 1), (2, 0): CycNum.rational(F(-1, 8), 1)
    }


def test_socle_matches_brute_force():
    known = {id(ring): socle for ring, socle in residue_rings()}
    rings = [ring for ring, _ in residue_rings()]
    for name in SOCLE_GOLDEN_JOBS:
        rings += golden_rings(name)
    rings = {id(r): r for r in rings if r.mu <= 3000}
    assert len(rings) > 20
    for key, ring in rings.items():
        assert ring_socle(ring) == (known[key] if key in known else brute_socle(ring))


def test_residue_matches_pairwise_oracle():
    """Random term dicts, their terms often pairing at degree c_hat."""
    hypothesis = pytest.importorskip("hypothesis")
    rings = residue_rings()
    # every monomial of degree c_hat, and those with a nonzero residue
    pools = [
        (monomials_of_degree(w.d, len(w.d) * w.d0 - 2 * sum(w.d)), sorted(socle))
        for w, socle in ((r.weights, socle) for r, socle in rings)
    ]
    units = [[root_of_unity(F(k, r.n), r.n) for k in range(r.n)] for r, _ in rings]
    caches = [{} for _ in rings]

    @hypothesis.settings(
        max_examples=100, deadline=None, derandomize=True, database=None
    )
    # a seeded random.Random: hypothesis records only its seed, not each call
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=True))
    def check(rng):
        i = rng.randrange(len(rings))
        ring = rings[i][0]

        def coefficient():
            return rng.choice(units[i]) * rng.choice((1, -2, 3, F(1, 2)))

        u, v = {}, {}
        for _ in range(rng.randint(1, 4)):
            q = rng.choice(rng.choice(pools[i]))
            m = tuple(rng.randint(0, e) for e in q)
            u[m] = coefficient()
            v[tuple(a - b for a, b in zip(q, m))] = coefficient()
        for _ in range(rng.randint(0, 2)):
            noise = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
            (u if rng.random() < 0.5 else v)[noise] = coefficient()
        assert residue(ring, u, v) == pairwise_residue(ring, u, v, caches[i])
        assert residue(ring, v, u) == pairwise_residue(ring, v, u, caches[i])

    check()
