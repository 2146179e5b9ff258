"""Exact cyclotomic arithmetic: fixed values first, then field axioms."""

import random
from fractions import Fraction
from math import lcm

import pytest

from lgdiamond.cyclotomic import (
    CycNum,
    cyclotomic_polynomial,
    phase_unit,
    root_of_unity,
)
from lgdiamond.errors import ConductorMismatch


def test_cyclotomic_polynomials_match_known_tables():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def test_half_turn_is_minus_one():
    assert root_of_unity(Fraction(1, 2)) == -1


def test_phase_unit_at_odd_conductor():
    # a phase with denominator 30 is off the 1/15 grid but still in Q(zeta_15)
    t = Fraction(7, 30)
    assert phase_unit(t, 15) == -root_of_unity(t - Fraction(1, 2), 15)
    assert phase_unit(t, 15).lift(30) == root_of_unity(t, 30)
    assert phase_unit(Fraction(1, 2), 15) == CycNum.rational(-1, 15)
    assert phase_unit(Fraction(2, 5), 15) == root_of_unity(Fraction(2, 5), 15)
    with pytest.raises(ConductorMismatch):
        root_of_unity(Fraction(1, 2), 15)


def test_primitive_cube_roots_sum_to_minus_one():
    w = root_of_unity(Fraction(1, 3))
    assert w + w**2 == -1
    assert (1 + w) * (1 + w**2) == 1


def test_inverse_of_one_plus_i():
    i = root_of_unity(Fraction(1, 4))
    assert (1 + i).inverse() == (1 - i) / 2
    assert (1 + i) * (1 + i).inverse() == 1


def test_root_powers_compose_across_conductors():
    z12 = root_of_unity(Fraction(1, 12))
    assert z12**4 == root_of_unity(Fraction(1, 3))
    assert z12**6 == -1
    assert z12**12 == 1
    assert root_of_unity(Fraction(7, 12)) == z12**7


def test_all_nth_roots_sum_to_zero():
    for n in range(2, 16):
        total = CycNum.zero(n)
        for k in range(n):
            total = total + root_of_unity(Fraction(k, n), n)
        assert total.is_zero()


def test_phase_addition_is_multiplication():
    a, b = Fraction(5, 12), Fraction(11, 12)
    assert root_of_unity(a) * root_of_unity(b) == root_of_unity(a + b, 12)


def test_rational_detection_and_extraction():
    x = CycNum.rational(Fraction(3, 7), 12)
    assert x.is_rational()
    assert x.as_fraction() == Fraction(3, 7)
    w = root_of_unity(Fraction(1, 3))
    assert not w.is_rational()
    with pytest.raises(ValueError):
        w.as_fraction()


def test_conductor_mismatch_is_rejected():
    a = root_of_unity(Fraction(1, 3))
    b = root_of_unity(Fraction(1, 4))
    with pytest.raises(ConductorMismatch):
        _ = a + b
    with pytest.raises(ConductorMismatch):
        _ = a * b
    with pytest.raises(ConductorMismatch):
        a.lift(4)
    with pytest.raises(ConductorMismatch):
        root_of_unity(Fraction(1, 3), 4)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(4).inverse()
    with pytest.raises(ZeroDivisionError):
        CycNum.one(4) / 0


def _random_element(rng, n):
    deg = len(cyclotomic_polynomial(n)) - 1
    return CycNum(
        n,
        [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(deg)],
    )


def test_field_axioms_on_random_elements():
    rng = random.Random(20260817)
    for n in (1, 2, 3, 4, 6, 8, 12, 30):
        for _ in range(8):
            a = _random_element(rng, n)
            b = _random_element(rng, n)
            c = _random_element(rng, n)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) - b == a
            if not a.is_zero():
                assert a * a.inverse() == 1
                assert (a**3) * (a**-3) == 1
            assert a**0 == 1


def test_lift_is_a_field_embedding():
    rng = random.Random(7)
    for n, m in ((3, 12), (4, 12), (6, 30), (1, 8), (12, 60)):
        assert m % n == 0
        for _ in range(6):
            a = _random_element(rng, n)
            b = _random_element(rng, n)
            assert (a + b).lift(m) == a.lift(m) + b.lift(m)
            assert (a * b).lift(m) == a.lift(m) * b.lift(m)
            assert a.lift(m).lift(m) == a.lift(m)
    z = root_of_unity(Fraction(1, 5))
    assert z.lift(30) == root_of_unity(Fraction(1, 5), 30)
    assert z.lift(lcm(5, 6)) ** 5 == 1


def test_equality_across_conductors_uses_common_field():
    assert CycNum.rational(2, 3) == CycNum.rational(2, 4)
    assert root_of_unity(Fraction(1, 3)) == root_of_unity(Fraction(2, 6))
    assert root_of_unity(Fraction(1, 3)) != root_of_unity(Fraction(1, 4))
