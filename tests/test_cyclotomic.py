"""Exact cyclotomic arithmetic: fixed values first, then field axioms."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from lgdiamond.cyclotomic import (
    CycNum,
    cyclotomic_polynomial,
    phase_unit,
    root_of_unity,
    unit_phases,
)
from lgdiamond.errors import ConductorMismatch
from lgdiamond.polynomial import Polynomial, WeightSystem
from lgdiamond.statespace import StateSpace
from lgdiamond.symmetry import GroupElement, generate_group, restrict
from oracles import (
    ref_cyc,
    ref_cyc_add,
    ref_cyc_div,
    ref_cyc_eq,
    ref_cyc_inverse,
    ref_cyc_is_rational,
    ref_cyc_lift,
    ref_cyc_mul,
    ref_cyc_pow,
    ref_cyc_rational,
    ref_cyc_str,
    ref_cyc_sub,
)

F = Fraction
CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 30)


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
    # phase_unit(k, n) is e[k/2n]; a phase with denominator 30 is off the
    # 1/15 grid but still in Q(zeta_15)
    t = Fraction(7, 30)
    assert phase_unit(7, 15) == -root_of_unity(t - Fraction(1, 2), 15)
    assert phase_unit(7, 15).lift(30) == root_of_unity(t, 30)
    assert phase_unit(15, 15) == CycNum.rational(-1, 15)
    assert phase_unit(12, 15) == root_of_unity(Fraction(2, 5), 15)
    with pytest.raises(ConductorMismatch):
        root_of_unity(Fraction(1, 2), 15)


def test_phase_unit_reduces_mod_2n_and_rejects_half_steps_at_even_n():
    assert phase_unit(-2, 4) == phase_unit(6, 4) == root_of_unity(Fraction(3, 4), 4)
    assert phase_unit(4, 4) == root_of_unity(Fraction(1, 2), 4)
    with pytest.raises(ConductorMismatch):
        phase_unit(1, 4)


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


OPERATORS = (
    lambda x, y: x + y,
    lambda x, y: x - y,
    lambda x, y: x * y,
    lambda x, y: x / y,
)


def test_conductor_mismatch_is_rejected():
    a = root_of_unity(Fraction(1, 3))
    b = root_of_unity(Fraction(1, 4))
    with pytest.raises(ConductorMismatch):
        _ = a + b
    with pytest.raises(ConductorMismatch):
        _ = a * b
    with pytest.raises(ConductorMismatch):
        _ = a - b
    with pytest.raises(ConductorMismatch):
        _ = a / b
    with pytest.raises(ConductorMismatch):
        a.lift(4)
    with pytest.raises(ConductorMismatch):
        root_of_unity(Fraction(1, 3), 4)
    # rational and unit operands of another conductor are refused alike, either side
    for x, y in [(a, CycNum.rational(F(2, 7), 4)), (CycNum.rational(F(-3, 5), 3), b)]:
        for left in (x, CycNum.one(3), -CycNum.one(3)):
            for right in (y, CycNum.one(4), -CycNum.one(4)):
                for op in OPERATORS:
                    with pytest.raises(ConductorMismatch):
                        op(left, right)
                    with pytest.raises(ConductorMismatch):
                        op(right, left)


def test_units_and_rationals_scale_in_one_step():
    for n in CONDUCTORS:
        x = root_of_unity(F(1, n), n) * F(3, 4) - 2
        one = CycNum.one(n)
        for unit in (1, F(1), one):
            assert x * unit == x and unit * x == x and x / unit == x
            assert (x * unit).key() == (unit * x).key() == (x / unit).key() == x.key()
        for unit in (-1, F(-1), -one):
            assert (x / unit).key() == (-x).key() == (x * unit).key() == (unit * x).key()
        assert (one * one).key() == one.key() and ((-one) * (-one)).key() == one.key()
        assert (one / -one).key() == (-one).key()
        assert (one + one).key() == CycNum.rational(2, n).key()
        assert (one - one).key() == CycNum.zero(n).key()


def test_other_operand_types_are_refused():
    """No float or str enters the field: each raises TypeError, either side."""
    x = root_of_unity(F(1, 5)) + F(1, 2)
    for other in (0.5, 1.0, "1"):
        for op in OPERATORS:
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        assert CycNum.__mul__(x, other) is NotImplemented
        assert CycNum.__truediv__(x, other) is NotImplemented


def test_division_by_zero_raises():
    x = root_of_unity(Fraction(1, 5)) + 2
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(4).inverse()
    with pytest.raises(ZeroDivisionError):
        CycNum.one(4) / 0
    for zero in (0, F(0), CycNum.zero(5), -CycNum.zero(5), CycNum.rational(0, 5)):
        with pytest.raises(ZeroDivisionError):
            _ = x / zero
        with pytest.raises(ZeroDivisionError):
            _ = CycNum.one(5) / zero
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(5) ** -1


def test_wrong_coordinate_count_raises():
    with pytest.raises(ValueError, match="need 4 coordinates for conductor 5, got 3"):
        CycNum(5, [1, 2, 3])
    with pytest.raises(ValueError):
        CycNum(1, [])


def test_negative_rationals_keep_a_positive_denominator():
    x = CycNum.rational(F(-2, 3), 5)
    inv = x.inverse()
    assert inv == F(-3, 2) and inv.as_fraction() == F(-3, 2)
    assert inv.num == (-3, 0, 0, 0) and inv.den == 2
    z = root_of_unity(F(1, 5)) - F(1, 4)
    for q in (F(-2, 3), -3):
        y = z / q
        assert y.den > 0
        assert y.key() == (z * (1 / F(q))).key()
        assert y * q == z
    for n in (1, 5, 12):
        deg = len(cyclotomic_polynomial(n)) - 1
        z = root_of_unity(F(1, n), n) - F(1, 4)
        for q in (F(-2, 3), F(-5), F(-1), F(7, -4)):
            divisor = CycNum.rational(q, n)
            inv = divisor.inverse()
            assert _canonical(inv) and inv.key() == CycNum.rational(1 / q, n).key()
            assert inv.key() == (n, (-q.denominator,) + (0,) * (deg - 1), -q.numerator)
            y = z / divisor
            assert _canonical(y) and y.key() == (z * (1 / q)).key() == (z / q).key()


def _canonical(x) -> bool:
    """num/den in lowest terms, den > 0, one int per power-basis coordinate."""
    deg = len(cyclotomic_polynomial(x.n)) - 1
    return (
        len(x.num) == deg
        and all(type(a) is int for a in x.num + (x.den,))
        and x.den > 0
        and gcd(x.den, *x.num) == 1
    )


def test_keys_are_canonical():
    for n in CONDUCTORS:
        deg = len(cyclotomic_polynomial(n)) - 1
        halves = CycNum(n, [F(2, 4)] + [F(-3, 6)] * (deg - 1))
        assert halves.key() == CycNum(n, [F(1, 2)] + [F(-1, 2)] * (deg - 1)).key()
        assert halves.key() == (n, (1,) + (-1,) * (deg - 1), 2)
        x = halves * 7 + root_of_unity(F(1, n), n)
        zero = x - x
        assert zero.key() == CycNum.zero(n).key() == (n, (0,) * deg, 1)
        y = x / -3
        assert y.den > 0 and _canonical(y)
        assert y.key() == (x * F(-1, 3)).key()
        units = unit_phases(n)
        step = 1 if n % 2 else 2
        for j in range(0, 2 * n, step):
            for k in range(0, 2 * n, step):
                product = phase_unit(j, n) * phase_unit(k, n)
                assert units[product.key()] == (j + k) % (2 * n)


def test_equal_polynomials_share_a_ring():
    """Polynomial.key() reads coefficient keys, so sectors of a state that
    restrict f to equal values share one ring."""
    w = root_of_unity(F(1, 3))
    first = Polynomial(2, 3, {(3, 0): CycNum(3, [F(2, 4), 0]), (0, 3): w})
    second = Polynomial(2, 3, {(0, 3): phase_unit(5, 3) * phase_unit(3, 3), (3, 0): F(1, 2)})
    assert list(first.terms) != list(second.terms)
    assert first.key() == second.key()
    # Fix(g3) is (x1, x2) and Fix(g2) is (x1, x3): f restricts to first on
    # one and to second, terms in its order, on the other
    f = Polynomial(3, 3, {(0, 0, 3): second.terms[(0, 3)], (3, 0, 0): F(1, 2), (0, 3, 0): w})
    g3, g2 = (GroupElement((0, 1, 2), phases) for phases in ((0, 0, F(1, 3)), (0, F(1, 3), 0)))
    group = generate_group([g3, g2], f)
    state = StateSpace(f, WeightSystem(3, (1, 1, 1)), group)
    a, b = group.index_of(g3), group.index_of(g2)
    for gi, poly in ((a, first), (b, second)):
        assert list(restrict(state.f, state.locus(gi)).terms) == list(poly.terms)
    assert state._key(a) != state._key(b)
    assert state.ring(a) is state.ring(b)


def test_arithmetic_matches_fraction_reference():
    """Integer coordinates against the Fraction-coordinate reference."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coord = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))

    @st.composite
    def element(draw, n):
        deg = len(cyclotomic_polynomial(n)) - 1
        shape = draw(st.sampled_from(("dense", "sparse", "rational")))
        if shape == "rational":
            return CycNum(n, [draw(coord)] + [0] * (deg - 1))
        if shape == "sparse":
            return CycNum(n, [draw(coord) if draw(st.booleans()) else 0 for _ in range(deg)])
        return CycNum(n, draw(st.lists(coord, min_size=deg, max_size=deg)))

    @st.composite
    def cases(draw):
        n = draw(st.sampled_from(CONDUCTORS))
        a = draw(element(n))
        # b equals a by value a fifth of the time, built by another route
        b = CycNum(n, a.c) if draw(st.integers(0, 4)) == 0 else draw(element(n))
        m = draw(st.sampled_from([m for m in CONDUCTORS if m % n == 0]))
        return a, b, draw(coord), draw(st.integers(-3, 3)), m

    def agrees(x, ref):
        assert _canonical(x)
        assert ref_cyc(x) == ref
        assert x.key() == CycNum(*ref).key()

    @hypothesis.settings(
        max_examples=200, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(cases())
    def check(case):
        a, b, q, k, m = case
        ra, rb, rq = ref_cyc(a), ref_cyc(b), ref_cyc_rational(q, a.n)
        agrees(a, ra)
        agrees(a + b, ref_cyc_add(ra, rb))
        agrees(a - b, ref_cyc_sub(ra, rb))
        agrees(a * b, ref_cyc_mul(ra, rb))
        agrees(-a, ref_cyc_sub(ref_cyc_rational(0, a.n), ra))
        agrees(a + q, ref_cyc_add(ra, rq))
        agrees(q - a, ref_cyc_sub(rq, ra))
        agrees(a * q, ref_cyc_mul(ra, rq))
        agrees(a * CycNum.rational(q, a.n), ref_cyc_mul(ra, rq))
        if b:
            agrees(a / b, ref_cyc_div(ra, rb))
            agrees(b.inverse(), ref_cyc_inverse(rb))
        if q:
            agrees(a / q, ref_cyc_div(ra, rq))
        if a:
            agrees(q / a, ref_cyc_div(rq, ra))
        if a or k >= 0:
            agrees(a**k, ref_cyc_pow(ra, k))
        agrees(a.lift(m), ref_cyc_lift(ra, m))
        assert (a == b) == ref_cyc_eq(ra, rb)
        assert (a.lift(m) == b) == ref_cyc_eq(ref_cyc_lift(ra, m), rb)
        assert (a == q) == ref_cyc_eq(ra, rq)
        assert a.is_rational() == ref_cyc_is_rational(ra)
        assert str(a) == ref_cyc_str(ra)
        assert repr(a) == f"CycNum({a.n}, {ra[1]})"

    check()


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
