"""Exact linear algebra: fixed cases, then randomized round trips."""

import random
from fractions import Fraction

import pytest

from lgdiamond._linalg import det, inverse, mat_mul, rref, smith_normal_form
from lgdiamond.cyclotomic import CycNum, root_of_unity
from lgdiamond.orbits import _echelon, _reduce

from oracles import frac_matrix, mat_vec, solve


def test_det_fixed_values():
    assert det(frac_matrix([[1, 2], [3, 4]])) == -2
    assert det(frac_matrix([[2, 1, 0, 0], [0, 2, 0, 0], [0, 1, 6, 0], [0, 0, 0, 6]])) == 144
    assert det(frac_matrix([[1, 1], [1, 1]])) == 0


def test_inverse_fixed_value():
    inv = inverse(frac_matrix([[1, 2], [3, 4]]))
    assert inv == [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]]


def test_solve_unique_and_singular():
    a = frac_matrix([[2, 1], [1, 3]])
    x = solve(a, [Fraction(5), Fraction(10)])
    assert mat_vec(a, x) == [5, 10]
    assert solve(frac_matrix([[1, 2], [2, 4]]), [Fraction(1), Fraction(2)]) is None


def test_rref_pivots():
    m, pivots = rref(frac_matrix([[0, 2, 4], [1, 1, 1], [1, 3, 5]]))
    assert pivots == [0, 1]
    assert m[0] == [1, 0, -1]
    assert m[1] == [0, 1, 2]
    assert m[2] == [0, 0, 0]


def test_random_inverse_round_trip_fractions():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a = [[Fraction(rng.randrange(-5, 6)) for _ in range(n)] for _ in range(n)]
            if det(a) == 0:
                continue
            ident = mat_mul(a, inverse(a))
            assert ident == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_random_inverse_round_trip_cyclotomic():
    rng = random.Random(12)
    n = 12
    for size in (1, 2, 3):
        for _ in range(4):
            a = [
                [
                    root_of_unity(Fraction(rng.randrange(12), 12), n)
                    * rng.randrange(-2, 3)
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            if not det(a):
                continue
            ident = mat_mul(a, inverse(a))
            for i in range(size):
                for j in range(size):
                    assert ident[i][j] == (1 if i == j else 0)


def test_det_multiplicative_over_cyclotomic():
    i = root_of_unity(Fraction(1, 4), 4)
    one = CycNum.one(4)
    a = [[i, one], [one * 0, i]]
    b = [[one, i], [i, one]]
    assert det(mat_mul(a, b)) == det(a) * det(b)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ValueError):
        inverse(frac_matrix([[1, 2], [2, 4]]))


def test_smith_normal_form_fixed_cases():
    s, u, v = smith_normal_form([[2, 0], [0, 4]])
    assert [s[0][0], s[1][1]] == [2, 4]
    s, _, _ = smith_normal_form([[1, 2], [3, 4]])
    assert [s[0][0], s[1][1]] == [1, 2]
    # 5x5 Fermat quintic exponent matrix: group of diagonal symmetries
    s, _, _ = smith_normal_form([[5 if i == j else 0 for j in range(5)] for i in range(5)])
    assert all(s[i][i] == 5 for i in range(5))


def test_smith_normal_form_random_properties():
    rng = random.Random(13)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        s, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert abs(det(frac_matrix(u))) == 1
        assert abs(det(frac_matrix(v))) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        for a_, b_ in zip(diag, diag[1:]):
            assert a_ >= 0
            if a_:
                assert b_ % a_ == 0
            else:
                assert b_ == 0


def test_echelon_back_substitutes_through_changed_pivots():
    # rows e_i + e_(i+1), then e_3: each new lead reaches every earlier
    # pivot only through the leads that were subtracted from it
    one = CycNum.one(3)
    rows = [{i: one, i + 1: one} for i in range(3)] + [{3: one}]
    assert _echelon(rows) == [{i: one} for i in range(4)]


def test_sparse_echelon_matches_dense_rref():
    """_echelon and _reduce on random sparse CycNum rows against the dense rref."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def entry(draw, n):
        # zero two times in three; otherwise a small sum of roots of unity
        if draw(st.integers(0, 2)):
            return CycNum.zero(n)
        terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, n - 1)),
                              min_size=1, max_size=2))
        return sum((c * root_of_unity(Fraction(k, n), n) for c, k in terms), CycNum.zero(n))

    @st.composite
    def combination(draw, rows, n):
        """A sum of the rows with coefficients from entry, as a sparse dict."""
        out = {}
        for row in rows:
            c = draw(entry(n))
            for k, x in row.items():
                out[k] = out.get(k, CycNum.zero(n)) + c * x
        return {k: x for k, x in out.items() if x}

    @st.composite
    def cases(draw):
        n = draw(st.sampled_from((3, 5, 15)))
        cols = draw(st.integers(1, 6))
        dense = [[draw(entry(n)) for _ in range(cols)] for _ in range(draw(st.integers(1, 6)))]
        rows = [{k: x for k, x in enumerate(row) if x} for row in dense]
        # a later row may be replaced by a combination of the rows before it
        for i in range(1, len(rows)):
            if draw(st.integers(0, 3)) == 0:
                rows[i] = draw(combination(rows[:i], n))
                dense[i] = [rows[i].get(k, CycNum.zero(n)) for k in range(cols)]
        return n, cols, dense, rows

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases(), st.data())
    def check(case, data):
        n, cols, dense, rows = case
        draw = data.draw
        zero = CycNum.zero(n)
        basis = _echelon(rows)
        m, pivots = rref(dense)
        assert len(basis) == len(pivots)
        assert [[row.get(k, zero) for k in range(cols)] for row in basis] == m[: len(pivots)]
        leads = [min(row) for row in basis]
        assert leads == pivots
        for row in basis:
            assert all(row.get(lead, zero) == (lead == min(row)) for lead in leads)
        by_lead = dict(zip(leads, basis))
        inside = draw(combination(basis, n))
        assert _reduce(inside, by_lead) == {}
        if basis:
            lead = draw(st.sampled_from(leads))
            scaled = dict(by_lead)
            scaled[lead] = {k: 2 * x for k, x in by_lead[lead].items()}
            assert _reduce(inside, scaled) == {}
        outside = [k for k in range(cols + 1) if k not in pivots]
        k = draw(st.sampled_from(outside))
        off = dict(inside)
        off[k] = off.get(k, zero) + CycNum.one(n)
        assert _reduce({k: x for k, x in off.items() if x}, by_lead)

    check()
