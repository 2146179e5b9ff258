"""Graph analysis, weights, invertible classification, transposition."""

from fractions import Fraction

import pytest

from lgdiamond.errors import (
    NoGraphMonomial,
    NotQuasihomogeneous,
    SingularExponentMatrix,
    WeightOutOfRange,
)
from lgdiamond.polynomial import Polynomial, parse_polynomial
from lgdiamond.quasihom import (
    ExponentMatrix,
    analyze_weights,
    build_graph,
    classify_invertible,
    exponent_matrix,
    fraction_free_solve,
    solve_weights,
    transpose_polynomial,
)
from lgdiamond.symmetry import make_jf

from oracles import frac_matrix, fraction_weights, solve

MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"
QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
STAR = "x1^4 + x1*x2^3 + x1*x3^3 + x1*x4^3 + x2^2*x3^2 + x2^2*x4^2 + x3^2*x4^2"
CONE = "x1^3 + x1*x2^2 + x1*x3^2 + x1*x4^2"


def test_main_example_graph_and_weights():
    f, _ = parse_polynomial(MAIN)
    graph, e, w = analyze_weights(f)
    assert graph.kappa == (1, 1, 1, 3)
    assert e.rows == ((2, 1, 0, 0), (0, 2, 0, 0), (0, 1, 6, 0), (0, 0, 0, 6))
    assert e.det == 144
    assert w.q == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 12), Fraction(1, 6))
    assert w.d == (36, 72, 12, 24)
    assert w.d0 == 144
    assert w.is_calabi_yau
    assert make_jf(w).order() == 12


def test_main_example_tie_break_prefers_smaller_exponent():
    # variable 3 heads both x2*x3^6 and x1*x3^9; the 6 wins
    f, _ = parse_polynomial(MAIN)
    graph = build_graph(f)
    assert graph.monomial_of[2] == (0, 1, 6, 0)


def test_weights_are_tie_break_independent():
    # re-solve with the rejected candidate row x1*x3^9 in place
    f, _ = parse_polynomial(MAIN)
    _, e, w = analyze_weights(f)
    alt_rows = list(e.rows)
    alt_rows[2] = (1, 0, 9, 0)
    alt_e = ExponentMatrix(tuple(alt_rows), *fraction_free_solve(alt_rows))
    assert (alt_e.det, alt_e.adj_ones) == fraction_weights(alt_rows)
    assert solve_weights(f, alt_e).q == w.q


def test_integer_weights_match_fraction_route():
    """Random invertible polynomials, as in the acceptance suite."""
    hypothesis = pytest.importorskip("hypothesis")
    from test_acceptance import random_invertible

    @hypothesis.settings(
        max_examples=60, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=False))
    def check(rng):
        f, _ = parse_polynomial(random_invertible(rng))
        _, e, w = analyze_weights(f)
        assert (e.det, e.adj_ones) == (w.d0, w.d) == fraction_weights(e.rows)

    check()


def test_fraction_free_solve_matches_fraction_route():
    """Any square integer matrix: singular ones, negative determinants."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=200, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def check(rows):
        d0, adj_ones = fraction_free_solve(rows)
        q = solve(frac_matrix(rows), [Fraction(1)] * len(rows))
        if q is None:
            assert (d0, adj_ones) == (0, ())
        else:
            assert (d0, adj_ones) == fraction_weights(rows)

    check()


def test_triangular_chain_weights():
    f, _ = parse_polynomial("x1^2 + x2^2*x1 + x3^2*x2")
    _, e, w = analyze_weights(f)
    assert e.rows == ((2, 0, 0), (1, 2, 0), (0, 1, 2))
    assert w.q == (Fraction(1, 2), Fraction(1, 4), Fraction(3, 8))
    assert not w.is_calabi_yau
    assert w.q_sum == Fraction(9, 8)


def test_loop_graph_and_weights():
    f, _ = parse_polynomial("x1^2*x2 + x2^2*x3 + x3^2*x1")
    graph, e, w = analyze_weights(f)
    assert graph.kappa == (1, 2, 0)
    assert graph.cycles == ((0, 1, 2),)
    assert e.det == 9
    assert w.q == (Fraction(1, 3),) * 3
    cls = classify_invertible(f, graph)
    assert cls.atoms == (("loop", (0, 1, 2), (2, 2, 2)),)


def test_fermat_plus_loop_classification():
    f, _ = parse_polynomial("x1^2 + x2^2*x3 + x3^2*x2")
    graph, _, w = analyze_weights(f)
    cls = classify_invertible(f, graph)
    assert cls.atoms == (("fermat", (0,), (2,)), ("loop", (1, 2), (2, 2)))
    assert w.q == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))


def test_chain_classification_orders_leaf_to_root():
    f, _ = parse_polynomial("x1^2*x2 + x2^3*x3 + x3^4")
    graph = build_graph(f)
    cls = classify_invertible(f, graph)
    assert cls.atoms == (("chain", (0, 1, 2), (2, 3, 4)),)


def test_branching_component_is_not_invertible():
    f, _ = parse_polynomial("x1^3 + x2^2*x1 + x3^2*x1")
    graph = build_graph(f)
    cls = classify_invertible(f, graph)
    assert not cls.is_invertible
    assert "branch" in cls.reason or "chain" in cls.reason


def test_quintic_classification_and_decomposition():
    f, _ = parse_polynomial(QUINTIC)
    graph = build_graph(f)
    assert len(graph.components) == 5
    assert graph.cycles == tuple((j,) for j in range(5))
    assert set(graph.monomial_of) == set(f.terms)
    cls = classify_invertible(f, graph)
    assert cls.atoms is not None
    assert [a[0] for a in cls.atoms] == ["fermat"] * 5


def test_isolated_vertices_with_nongraph_monomial():
    f, _ = parse_polynomial("x1^3 + x2^3 + x3^3 + x1*x2*x3")
    graph = build_graph(f)
    assert graph.kappa == (0, 1, 2)
    assert set(f.terms) - set(graph.monomial_of) == {(1, 1, 1)}
    assert not classify_invertible(f, graph).is_invertible


def test_cone_decomposition_and_star_flag():
    f, _ = parse_polynomial(CONE)
    graph, _, w = analyze_weights(f)
    assert graph.kappa == (0, 0, 0, 0)
    assert graph.cycles == ((0,),)
    assert graph.monomial_of[0] == (3, 0, 0, 0)
    assert w.q == (Fraction(1, 3),) * 4


def test_star_example_weights_and_transpose():
    f, _ = parse_polynomial(STAR)
    graph, e, w = analyze_weights(f)
    assert graph.kappa == (0, 0, 0, 0)
    assert len(set(f.terms) - set(graph.monomial_of)) == 3
    assert w.q == (Fraction(1, 4),) * 4
    assert w.is_calabi_yau
    t = transpose_polynomial(e)
    assert t.weights == (Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert not t.all_positive
    assert sum(t.weights) == w.q_sum


def test_chain2_transpose():
    f, _ = parse_polynomial("x1^2*x2 + x2^3")
    _, e, w = analyze_weights(f)
    assert e.rows == ((2, 1), (0, 3))
    assert e.det == 6
    t = transpose_polynomial(e)
    assert set(t.polynomial.terms) == {(2, 0), (1, 3)}
    assert t.weights == (Fraction(1, 2), Fraction(1, 6))
    assert t.all_positive
    assert sum(t.weights) == w.q_sum == Fraction(2, 3)


def test_direct_sum_graph_is_disjoint_union():
    f, _ = parse_polynomial("x1^2*x2 + x2^3", variables=["x1", "x2", "x3", "x4"])
    g, _ = parse_polynomial("x3^2*x4 + x4^3", variables=["x1", "x2", "x3", "x4"])
    graph = build_graph(f + g)
    assert graph.components == ((0, 1), (2, 3))


def test_no_graph_monomial_error():
    with pytest.raises(NoGraphMonomial):
        build_graph(parse_polynomial("x1^2*x2^2 + x1^3")[0])
    with pytest.raises(NoGraphMonomial):
        build_graph(parse_polynomial("x1^2 + x2^3*x1^2")[0])


def test_not_quasihomogeneous_error():
    f, _ = parse_polynomial("x1^3 + x2^3 + x1*x2^3")
    graph = build_graph(f)
    e = exponent_matrix(graph)
    with pytest.raises(NotQuasihomogeneous):
        solve_weights(f, e)
    # the other two ways solving for weights fails
    singular, _ = parse_polynomial("x1*x2", allow_mixed_quadratics=True)
    with pytest.raises(SingularExponentMatrix, match="determinant 0"):
        analyze_weights(singular)
    heavy, _ = parse_polynomial("x1*x2 + x2^3", allow_mixed_quadratics=True)
    with pytest.raises(WeightOutOfRange, match="q_1 = 2/3"):
        analyze_weights(heavy)


def test_weights_always_in_range_on_examples():
    for text in (MAIN, QUINTIC, STAR, CONE, "x1^9*x2 + x2^2", "x1^2*x2 + x2^8*x1"):
        f, _ = parse_polynomial(text)
        _, _, w = analyze_weights(f)
        assert all(0 < qk <= Fraction(1, 2) for qk in w.q)


def test_euler_identity_for_quasihomogeneous_inputs():
    for text in (MAIN, QUINTIC, STAR):
        f, _ = parse_polynomial(text)
        _, _, w = analyze_weights(f)
        total = Polynomial.zero(f.nvars, f.n)
        for k in range(f.nvars):
            xk = tuple(1 if i == k else 0 for i in range(f.nvars))
            total = total + f.partial_derivative(k) * Polynomial.monomial(
                xk, w.q[k], f.nvars, f.n
            )
        assert total == f
