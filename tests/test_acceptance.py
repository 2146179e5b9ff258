"""Acceptance suite: one test per criterion; run with -v for per-line results.

Criterion 2 checks the quintic orbifold by the order-30 group <J> x S3,
which is not determinant-one, against a sector count derived inside the
test from exponent vectors, orbit counts and ages, without calling the
engine.  Verification is skipped for that group, because its
transpositions have determinant -1.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from lgdiamond.cyclotomic import CycNum, phase_unit
from lgdiamond.errors import (
    MixedQuadraticError,
    NotInSL,
    NotIsolated,
    PreconditionFailed,
)
from lgdiamond.jacobian import milnor_number, poincare_dimensions, quotient_ring
from lgdiamond.polynomial import parse_polynomial
from lgdiamond.quasihom import analyze_weights
from lgdiamond.statespace import (
    StateSpace,
    assemble_diamond,
    duality_check,
    transpose_check,
    verify_theorem,
)
from lgdiamond.symmetry import (
    GroupElement,
    generate_group,
    make_jf,
    rho_constant,
)

from oracles import averaging_columns, trace_dimension

MAIN = "x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9"
QUINTIC = "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
STAR = "x1^4 + x1*x2^3 + x1*x3^3 + x1*x4^3 + x2^2*x3^2 + x2^2*x4^2 + x3^2*x4^2"
CONE = "x1^3 + x1*x2^2 + x1*x3^2 + x1*x4^2"
CUBIC = "x1^3 + x2^3 + x3^3"

_states: dict = {}


def state_for(text, extra=()):
    """Build (and memoize) the state space of f with the group <jf, extra>."""
    key = (text, extra)
    if key not in _states:
        f, names = parse_polynomial(text)
        _, _, w = analyze_weights(f)
        gens = [make_jf(w)] + [GroupElement(sigma, phases) for sigma, phases in extra]
        group = generate_group(gens, f)
        state = StateSpace(f, w, group, names)
        state.blocks()
        _states[key] = state
    return _states[key]


QUINTIC_PERMS = (
    ((1, 0, 2, 3, 4), (F(0),) * 5),
    ((0, 2, 1, 3, 4), (F(0),) * 5),
)
CUBIC_SL = ((((0, 1, 2)), (F(1, 3), F(2, 3), F(0))),)


def test_criterion_1_main_example_diamond():
    started = time.monotonic()
    state = state_for(MAIN)
    top, table = assemble_diamond(state)
    elapsed = time.monotonic() - started
    assert state.weights.q == (F(1, 4), F(1, 2), F(1, 12), F(1, 6))
    assert top == 2
    assert table == [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    assert state.total_dimension() == 24
    assert verify_theorem(state).passed
    assert elapsed <= 60, f"main example took {elapsed:.1f} s"


def quintic_s3_reference() -> tuple[list[list[int]], int]:
    """Diamond of the Fermat quintic with <J> x S3, counted sector by sector.

    Every element is J^k times a permutation sigma of x1, x2, x3, and the
    conjugacy classes are the pairs (k, cycle type of sigma).  On a cycle
    of length L, J^k * sigma has eigenvalues e(k/5 + j/L), j = 0..L-1, so
    a cycle contributes one fixed coordinate y_c when k = 0 and none
    otherwise.  The restriction sum_c L_c * y_c^5 has Milnor basis {0..3}
    per fixed coordinate.  A class of exponent sum s carries the charges
    (s/5 + age(g) - d/5, s/5 + age(g^-1) - d/5), d = codim Fix(g).

    The centralizer <J> x C_S3(sigma) acts by monomial transport times
    det(h on the moved directions).  J scales a monomial by e(-s/5) and
    the moved directions by e(d/5), so J-invariance is s = d mod 5, which
    is exactly integrality of the charges.  The permutation part:
      - sigma = 1, k = 0: S3 permutes the exponent vectors of x1, x2, x3;
        invariants are orbit sums, one per S3-orbit.
      - sigma = 1, k > 0: Fix is 0 and (1 2) acts on the vacuum by its
        determinant -1, so the sector is empty.
      - sigma a 3-cycle: <sigma> fixes each y_c and has determinant 1 on
        the moved directions, so every J-invariant monomial survives.
      - sigma a transposition: g acts on its own sector by det g = -1,
        so the sector is empty.

    Returns the charge table and the untwisted dimension at (1, 1).
    """
    table = [[0] * 4 for _ in range(4)]
    untwisted_11 = 0
    for k in range(5):
        for cycles in ((1, 1, 1), (3,), (2, 1)):
            if sum(L - 1 for L in cycles) % 2:
                continue  # det g = sign(sigma) = -1 acts on the whole sector
            if cycles == (1, 1, 1) and k:
                continue  # (1 2) acts on the vacuum of J^k by det (1 2) = -1
            lengths = cycles + (1, 1)  # x4 and x5 are never permuted
            eig = [F(k, 5) + F(j, L) for L in lengths for j in range(L)]
            age = sum((e % 1 for e in eig), F(0))
            age_inv = sum((-e % 1 for e in eig), F(0))
            moved = sum(1 for e in eig if e % 1)
            fixed = len(eig) - moved
            vectors = [
                v for v in itertools.product(range(4), repeat=fixed)
                if (sum(v) - moved) % 5 == 0
            ]
            if cycles == (1, 1, 1):
                vectors = {tuple(sorted(v[:3])) + v[3:] for v in vectors}
            for v in vectors:
                shift = F(sum(v) - moved, 5)
                a, b = shift + age, shift + age_inv
                assert a.denominator == b.denominator == 1, (k, cycles, v)
                table[int(a)][int(b)] += 1
                if cycles == (1, 1, 1) and (a, b) == (1, 1):
                    untwisted_11 += 1
    return table, untwisted_11


def test_criterion_2_quintic_diamond():
    started = time.monotonic()
    state = state_for(QUINTIC, QUINTIC_PERMS)
    top, table = assemble_diamond(state)
    elapsed = time.monotonic() - started
    assert state.group.order == 30
    assert top == 3
    assert elapsed <= 600, f"quintic example took {elapsed:.1f} s"
    reference, untwisted_11 = quintic_s3_reference()
    assert untwisted_11 == 31
    identity_class = state.group.class_of[state.group.identity_index]
    (untwisted,) = [
        b for b in state.blocks()
        if b.class_index == identity_class and (b.q_left, b.q_right) == (1, 1)
    ]
    assert untwisted.dimension == untwisted_11
    total = sum(map(sum, reference))
    assert table == reference, (
        f"computed diamond {table} (total {state.total_dimension()}) does not "
        f"match the sector count {reference} (total {total})"
    )


def test_criterion_3_milnor_numbers():
    for text, expected in ((QUINTIC, 1024), (MAIN, 165), (STAR, 81), ("x1^3 + x2^3", 4)):
        f, _ = parse_polynomial(text)
        _, _, w = analyze_weights(f)
        assert milnor_number(w) == expected, text
        assert quotient_ring(f, w).mu == expected, text


def test_criterion_4_fermat_sectors():
    for r, m in ((2, 3), (3, 2), (4, 5)):
        f, names = parse_polynomial(f"x1^{r * m}")
        _, _, w = analyze_weights(f)
        group = generate_group([GroupElement((0,), (F(1, r),))], f)
        state = StateSpace(f, w, group, names)
        assert state.total_dimension() == m, (r, m)
        survivors = [b for b in state.blocks() if b.dimension]
        assert all(b.rep == state.group.identity_index for b in survivors)
        assert sorted(b.monomials[0] for b in survivors) == [
            (r * n,) for n in range(m)
        ]


def random_invertible(rng: random.Random, max_exponent: int = 5) -> str:
    """A random invertible polynomial on up to four variables.

    Variables are partitioned into consecutive blocks, each realized as
    a power monomial, a chain, or a loop, with exponents in
    2..max_exponent.
    """
    nv = rng.randint(1, 4)
    terms = []
    pos = 0
    while pos < nv:
        size = rng.randint(1, min(3, nv - pos))
        block = list(range(pos, pos + size))
        exps = [rng.randint(2, max_exponent) for _ in block]
        kind = "power" if size == 1 else rng.choice(("chain", "loop"))
        if kind == "power":
            terms.append(f"x{block[0] + 1}^{exps[0]}")
        elif kind == "chain":
            for i, v in enumerate(block):
                if i + 1 < size:
                    terms.append(f"x{v + 1}^{exps[i]}*x{block[i + 1] + 1}")
                else:
                    terms.append(f"x{v + 1}^{exps[i]}")
        else:
            for i, v in enumerate(block):
                terms.append(f"x{v + 1}^{exps[i]}*x{block[(i + 1) % size] + 1}")
        pos += size
    return " + ".join(terms)


def test_criterion_5_oracle_equivalence():
    # graded dimensions against the weight-series oracle
    rng = random.Random(20260817)
    samples = [random_invertible(rng) for _ in range(12)]
    for text in samples + [MAIN, QUINTIC]:
        f, _ = parse_polynomial(text)
        _, _, w = analyze_weights(f)
        assert quotient_ring(f, w).graded == poincare_dimensions(w), text
    # computed invariant bases against the character-trace oracle
    for state in (state_for(MAIN), state_for(QUINTIC, QUINTIC_PERMS)):
        for block in state.blocks():
            assert block.dimension == trace_dimension(state, block), (
                block.class_index,
                block.degree,
            )


def _reynolds_blocks_idempotent(state: StateSpace) -> None:
    """Assert R o R == R for the averaging operator of every block."""
    zero = CycNum.zero(state.n)
    for cls in state.group.classes:
        rep = cls[0]
        for monos in state.degree_monomials(rep).values():
            columns = averaging_columns(state, rep, monos)
            for j in range(len(monos)):
                acc: dict[int, CycNum] = {}
                for k, c in columns[j].items():
                    for r, c2 in columns[k].items():
                        acc[r] = acc.get(r, zero) + c * c2
                assert {r: c for r, c in acc.items() if c} == columns[j]


def test_criterion_6_invariant_suites():
    main = state_for(MAIN)
    quintic = state_for(QUINTIC, QUINTIC_PERMS)
    cubic = state_for(CUBIC, CUBIC_SL)
    fermat_states = []
    for r, m in ((2, 3), (4, 5)):
        f, names = parse_polynomial(f"x1^{r * m}")
        _, _, w = analyze_weights(f)
        group = generate_group([GroupElement((0,), (F(1, r),))], f)
        fermat_states.append(StateSpace(f, w, group, names))

    # age duality on every closed test group
    for state in [main, quintic, cubic] + fermat_states:
        group = state.group
        nv = state.f.nvars
        for gi, g in enumerate(group.elements):
            assert g.age() + group.elements[group.inv[gi]].age() == nv - state.locus(gi).n_g

    # age lower bound under the weight-sum-one and determinant-one hypotheses
    for state in (main, cubic):
        assert state.group.all_sl and state.weights.is_calabi_yau
        jf_idx = state.group.index_of(make_jf(state.weights))
        for gi, g in enumerate(state.group.elements):
            if gi == state.group.identity_index or state.locus(gi).n_g:
                continue
            assert g.age() >= 1
            assert (g.age() == 1) == (gi == jf_idx)

    # transition-constant cocycle identity on 100 random triples
    rng = random.Random(7)
    group = quintic.group
    locus = quintic.locus
    n = quintic.n
    for _ in range(100):
        h1 = rng.randrange(group.order)
        h2 = rng.randrange(group.order)
        g = rng.randrange(group.order)
        g1 = group.conjugate(h1, g)
        g2 = group.conjugate(h2, g1)
        h21 = group.product(h2, h1)
        assert group.conjugate(h21, g) == g2
        lhs = phase_unit(rho_constant(group.elements[h21], locus(g), locus(g2)), n)
        rhs = phase_unit(
            rho_constant(group.elements[h2], locus(g1), locus(g2)), n
        ) * phase_unit(rho_constant(group.elements[h1], locus(g), locus(g1)), n)
        assert lhs == rhs

    # averaging operator is idempotent on every block
    for state in (main, quintic, cubic):
        _reynolds_blocks_idempotent(state)

    # inversion symmetry: transposed dimension table and invariant images
    for state in (main, quintic, cubic):
        _, table = assemble_diamond(state)
        size = len(table)
        assert all(
            table[a][b] == table[b][a] for a in range(size) for b in range(size)
        )
        passed, witness = transpose_check(state)
        assert passed, witness

    # residue pairing between complementary blocks has full rank
    for state in (main, quintic, cubic):
        passed, witness = duality_check(state)
        assert passed, witness


def test_criterion_7_negative_paths():
    with pytest.raises(MixedQuadraticError):
        parse_polynomial("x1*x2")

    f5, _ = parse_polynomial(QUINTIC)
    with pytest.raises(NotInSL):
        generate_group(
            [GroupElement.diagonal((F(1, 5), 0, 0, 0, 0))], f5, require_sl=True
        )

    cone, _ = parse_polynomial(CONE)
    _, _, w_cone = analyze_weights(cone)
    with pytest.raises(NotIsolated):
        quotient_ring(cone, w_cone)

    f, names = parse_polynomial(QUINTIC)
    _, _, w = analyze_weights(f)
    group = generate_group(
        [GroupElement.diagonal((F(1, 5), F(4, 5), 0, 0, 0))], f
    )
    state = StateSpace(f, w, group, names)
    with pytest.raises(PreconditionFailed):
        verify_theorem(state)
