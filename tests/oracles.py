"""Reference computations that only tests use.

Each oracle recomputes a quantity by a route other than the one the
library takes, so a test can compare the two.  None of them is reached
from the command line or the public API.
"""

from fractions import Fraction

from lgdiamond._linalg import inverse, solve
from lgdiamond.cyclotomic import CycNum


def trace_dimension(state, block) -> int:
    """Invariant dimension of a block from the character formula.

    Averages tr(h | block) over the centralizer of the block's class
    representative, reading each diagonal entry off the image of one
    monomial under h.  Raises AssertionError when the average is not an
    integer, which no genuine group action allows.
    """
    zero = CycNum.zero(state.n)
    standard = state.sectors[block.rep].ring.basis_index
    centralizer = state.centralizer(block.rep)
    total = zero
    for hi in centralizer:
        _, _, rows, _ = state.transport(hi, block.rep)
        for mono in block.monomials:
            target = [0] * len(mono)
            for (j, _), e in zip(rows, mono):
                target[j] += e
            target = tuple(target)
            # a standard monomial sent to another one adds nothing to the trace
            if target != mono and target in standard:
                continue
            _, image = state.apply_to_monomial(hi, block.rep, mono)
            total = total + image.terms.get(mono, zero)
    average = total / len(centralizer)
    if not average.is_rational() or average.as_fraction().denominator != 1:
        raise AssertionError(f"trace average {average} is not an integer")
    return int(average.as_fraction())


def action_matrix(state, hi: int, bidegree):
    """Matrix of h on the full bidegree slice across all sectors.

    Returns (labels, rows) where labels[k] = (sector index, monomial)
    names the k-th coordinate and rows is the square matrix sending
    coordinate vectors of the slice to their images under h.
    """
    a, b = Fraction(bidegree[0]), Fraction(bidegree[1])
    labels = []
    for gi in range(state.group.order):
        sector = state.sectors[gi]
        for mono in sector.ring.basis:
            if sector.charges(sector.ring.monomial_degree(mono)) == (a, b):
                labels.append((gi, mono))
    index = {lab: k for k, lab in enumerate(labels)}
    zero = CycNum.zero(state.n)
    size = len(labels)
    rows = [[zero] * size for _ in range(size)]
    for k, (gi, mono) in enumerate(labels):
        gpi, nf = state.apply_to_monomial(hi, gi, mono)
        for mono2, c in nf.terms.items():
            rows[index[(gpi, mono2)]][k] = c
    return labels, rows


def column_generators(e):
    """Columns of E^{-1} reduced mod 1; they generate the graph group."""
    nv = len(e.rows)
    inv = inverse([[Fraction(x) for x in row] for row in e.rows])
    return tuple(tuple(inv[j][i] % 1 for j in range(nv)) for i in range(nv))


def age_via_matrix(gbar, e) -> Fraction:
    """Age of a diagonal element from the integer vector s = E*gbar.

    Raises ValueError when E*gbar is not integral, that is, when gbar
    is not a symmetry of the graph monomials.
    """
    nv = len(e.rows)
    gbar = [Fraction(x) for x in gbar]
    s = [sum(e.rows[i][j] * gbar[j] for j in range(nv)) for i in range(nv)]
    if any(x.denominator != 1 for x in s):
        raise ValueError(f"E*gbar = {s} is not an integer vector")
    sol = solve([[Fraction(x) for x in row] for row in e.rows], s)
    return sum(sol, Fraction(0))
