"""Polynomial parsing, arithmetic, calculus, and weight bookkeeping."""

import random
from fractions import Fraction
from itertools import product

import pytest

from lgdiamond.cyclotomic import CycNum, root_of_unity
from lgdiamond.errors import MixedQuadraticError, PolySyntaxError
from lgdiamond.polynomial import (
    Polynomial,
    Slots,
    WeightSystem,
    hessian_determinant,
    parse_polynomial,
)
from oracles import dense_hessian, grevlex_key


def test_parse_chain_plus_fermat_example():
    f, names = parse_polynomial("x1^2*x2 + x2^2 + x3^6*x2 + x4^6")
    assert names == ["x1", "x2", "x3", "x4"]
    assert set(f.terms) == {(2, 1, 0, 0), (0, 2, 0, 0), (0, 1, 6, 0), (0, 0, 0, 6)}
    assert all(c == 1 for c in f.terms.values())


def test_parse_collects_variables_in_natural_order():
    _, names = parse_polynomial("b2^3 + b10^2*b2 + a^4")
    assert names == ["a", "b2", "b10"]


def test_parse_with_explicit_variables_and_unknown_name():
    f, names = parse_polynomial("y^3 + x^2", variables=["x", "y", "z"])
    assert names == ["x", "y", "z"]
    assert f.nvars == 3
    with pytest.raises(PolySyntaxError):
        parse_polynomial("w^2", variables=["x", "y"])


def test_parse_phases_and_rational_coefficients():
    f, _ = parse_polynomial("e[1/3]*x^2 - y/2 + 5", variables=["x", "y"])
    assert f.n == 3
    assert f.coefficient((2, 0)) == root_of_unity(Fraction(1, 3))
    assert f.coefficient((0, 1)) == Fraction(-1, 2)
    assert f.coefficient((0, 0)) == 5


def test_parse_rejects_mixed_quadratics_even_after_expansion():
    with pytest.raises(MixedQuadraticError):
        parse_polynomial("x*y")
    with pytest.raises(MixedQuadraticError):
        parse_polynomial("(x + y)^2")
    f, _ = parse_polynomial("(x + y)^2", allow_mixed_quadratics=True)
    assert f.coefficient((1, 1)) == 2
    # degree-3 cross terms are fine
    parse_polynomial("x*y^2 + x^3 + y^3")


def test_parse_syntax_errors():
    for bad in ("", "x +", "x1 x2", "(x", "x^y", "x^-2", "1/(x+1)*x"):
        with pytest.raises(PolySyntaxError):
            parse_polynomial(bad)
    with pytest.raises(ZeroDivisionError):
        parse_polynomial("x/0")


def test_arithmetic_identities():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x - x).is_zero()
    assert x**0 == Polynomial.constant(1, 2)


def test_partial_derivatives():
    f, _ = parse_polynomial("x^3*y + 2*y^2", variables=["x", "y"], allow_mixed_quadratics=True)
    fx = f.partial_derivative(0)
    fy = f.partial_derivative(1)
    assert fx == parse_polynomial("3*x^2*y", variables=["x", "y"], allow_mixed_quadratics=True)[0]
    assert fy == parse_polynomial("x^3 + 4*y", variables=["x", "y"])[0]


def test_substitute_monomial_scaling_fixes_quasihomogeneous_poly():
    f, _ = parse_polynomial("x1^2*x2 + x2^2 + x3^6*x2 + x4^6")
    q = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 12), Fraction(1, 6)]
    g = f.lift(12)
    scales = [root_of_unity(qk, 12) for qk in q]
    assert g.substitute_monomial([0, 1, 2, 3], scales) == g


def test_substitute_monomial_swap():
    f, _ = parse_polynomial("x^2*y + y^3")
    one = CycNum.one(1)
    swapped = f.substitute_monomial([1, 0], [one, one])
    assert swapped == parse_polynomial("y^2*x + x^3")[0]


def test_hessian_determinant_small_cases():
    f, _ = parse_polynomial("x^2 + y^2")
    assert hessian_determinant(f) == Polynomial.constant(4, 2)
    g, _ = parse_polynomial("x^3", variables=["x"])
    assert hessian_determinant(g) == parse_polynomial("6*x", variables=["x"])[0]


def test_hessian_degree_is_central_charge():
    f, _ = parse_polynomial("x1^2*x2 + x2^2 + x3^6*x2 + x4^6")
    q = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 12), Fraction(1, 6)]
    hess = hessian_determinant(f)
    assert not hess.is_zero()
    degrees = {sum(e * qk for e, qk in zip(mono, q)) for mono in hess.terms}
    assert degrees == {Fraction(2)}


# Dwork deformations, the quartic one with a phase so its conductor is 5, and
# the milnor-batch anchor (a loop and a chain)
HESSIAN_CASES = [
    "x1^5 + x2^5 + x3^5 + x4^5 + x5^5 + x1*x2*x3*x4*x5",
    "x1^4 + x2^4 + x3^4 + x4^4 - 4*e[1/5]*x1*x2*x3*x4",
    "x1^6*x2 + x2^5*x1 + x3^5*x4 + x4^3*x5 + x5^5",
]


@pytest.mark.parametrize("text", HESSIAN_CASES)
def test_hessian_matches_dense_oracle(text):
    f, _ = parse_polynomial(text)
    assert hessian_determinant(f) == dense_hessian(f)


def test_hessian_matches_dense_oracle_property():
    """Random invertible polynomials on up to four variables."""
    hypothesis = pytest.importorskip("hypothesis")
    from test_acceptance import random_invertible

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=False))
    def check(rng):
        f, _ = parse_polynomial(random_invertible(rng, max_exponent=6))
        assert hessian_determinant(f) == dense_hessian(f)

    check()


def test_packed_keys_order_as_grevlex():
    """Keys sort as grevlex_key, unpack to their monomials, add as products,
    and the guard bits decide divisibility, on every monomial of a box."""
    slots = Slots(3, 9)
    monos = list(product(range(4), repeat=3))
    keys = {m: slots.key(m) for m in monos}
    assert sorted(monos, key=keys.get) == sorted(monos, key=grevlex_key)
    rng = random.Random(7)
    for a, b in (rng.sample(monos, 2) for _ in range(200)):
        assert slots.mono(keys[a]) == a
        assert slots.mono(keys[a] + keys[b]) == tuple(x + y for x, y in zip(a, b))
        ea, eb = -keys[a] & slots.mask, -keys[b] & slots.mask
        divides = ((eb | slots.guard) - ea) & slots.guard == slots.guard
        assert divides == all(x <= y for x, y in zip(a, b))


def test_to_string_round_trip():
    for text in (
        "x1^2*x2 + x2^2 + x3^6*x2 + x4^6",
        "-x^3 + 2*y^2 - 1/2",
        "e[1/3]*x^2 + e[2/3]*y^5",
    ):
        f, names = parse_polynomial(text)
        again, _ = parse_polynomial(f.to_string(names), variables=names)
        assert again == f


def test_weight_system_properties():
    ws = WeightSystem(144, (36, 72, 12, 24))
    assert ws.q_sum == 1
    assert ws.is_calabi_yau
    assert ws.central_charge == 2
    assert ws.nvars == 4
