"""Reference computations that only tests use.

Each oracle recomputes a quantity by a route other than the one the
library takes, so a test can compare the two.  None of them is reached
from the command line or the public API.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from lgdiamond._linalg import det, inverse, mat_mul, solve
from lgdiamond.cyclotomic import CycNum, _divide_exact, root_of_unity
from lgdiamond.errors import NotIsolated
from lgdiamond.jacobian import grevlex_key
from lgdiamond.polynomial import Polynomial


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
        _, _, rows = state.transport(hi, block.rep)
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


def orbit_basis(state, block):
    """Invariants of a block by an orbit walk over every centralizer element.

    Multiplies the CycNum scalars that apply_to_monomial gives along each
    orbit and keeps an orbit, with value 1 at its smallest index, when
    every path agrees.  Returns None when some image is not a single
    monomial of the block.
    """
    index_of = {m: k for k, m in enumerate(block.monomials)}
    count = len(block.monomials)
    centralizer = state.centralizer(block.rep)
    zero, one = CycNum.zero(state.n), CycNum.one(state.n)
    visited = set()
    basis = []
    for k0 in range(count):
        if k0 in visited:
            continue
        values = {k0: one}
        stack = [k0]
        alive = True
        while stack:
            k = stack.pop()
            for hi in centralizer:
                _, image = state.apply_to_monomial(hi, block.rep, block.monomials[k])
                if len(image.terms) != 1:
                    return None
                ((mono, c),) = image.terms.items()
                if mono not in index_of:
                    return None
                k2, v2 = index_of[mono], c * values[k]
                if k2 not in values:
                    values[k2] = v2
                    stack.append(k2)
                elif values[k2] != v2:
                    alive = False
        visited.update(values)
        if alive:
            basis.append(tuple(values.get(k, zero) for k in range(count)))
    return basis


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


# -- group elements and fixed loci as matrices -----------------------------------


def element_matrix(g, n: int):
    """The monomial matrix M[i][sigma(i)] = e[phase_i] at conductor n."""
    zero = CycNum.zero(n)
    m = [[zero] * g.nvars for _ in range(g.nvars)]
    for i in range(g.nvars):
        m[i][g.sigma[i]] = root_of_unity(g.phase[i], n)
    return m


def conjugate(g, h):
    """h * g * h^{-1}, composed directly rather than read off a table."""
    return h.compose(g).compose(h.inverse())


def group_tables(group):
    """Group structure by brute force: every pair composed, classes by scan.

    Returns (mult, conj, classes, centralizers) over the indices of
    group.elements: mult[a][b] indexes elements[a] * elements[b],
    conj[h][g] indexes h g h^{-1}, classes lists each conjugacy class
    sorted, in order of its smallest member, and centralizers[g] lists
    every h with h g h^{-1} = g.
    """
    elements = group.elements
    order = len(elements)
    index = {g.key(): i for i, g in enumerate(elements)}
    mult = [[index[a.compose(b).key()] for b in elements] for a in elements]
    inv = [index[g.inverse().key()] for g in elements]
    conj = [[mult[mult[h][g]][inv[h]] for g in range(order)] for h in range(order)]
    classes = []
    seen = set()
    for g in range(order):
        if g not in seen:
            orbit = sorted({conj[h][g] for h in range(order)})
            seen.update(orbit)
            classes.append(tuple(orbit))
    centralizers = [[h for h in range(order) if conj[h][g] == g] for g in range(order)]
    return mult, conj, classes, centralizers


def eigenvalue_phases(g) -> tuple:
    """Sorted eigenvalue phases: (a + m)/k for each k-cycle of total phase a."""
    out = []
    for cyc in g.cycles():
        k = len(cyc)
        a = sum(g.phase[i] for i in cyc) % 1
        out.extend(Fraction(a + m, k) for m in range(k))
    return tuple(sorted(out))


def eigenvector_matrices(locus):
    """(L, W): the fixed and moved eigenvectors of a locus as N x N_g and N x d_g.

    Column c of L is e[phase] at every index of the c-th fixed cycle;
    the columns of W are the moved eigenvectors in the locus's order.
    """
    nv, n = locus.g.nvars, locus.n
    zero = CycNum.zero(n)
    l_rows = [[zero] * locus.n_g for _ in range(nv)]
    for i, (c, a) in locus.fixed.items():
        l_rows[i][c] = root_of_unity(a, n)
    w_rows = [[zero] * locus.d_g for _ in range(nv)]
    for c, (_, _, phases) in enumerate(locus.moved):
        for i, a in phases.items():
            w_rows[i][c] = root_of_unity(a, n)
    return l_rows, w_rows


def rho_via_matrices(h, locus_g, locus_conj):
    """rho_{h,g} as det of h on C^N/Fix(g), in the bases [L | W] of both loci."""
    n = locus_g.n
    if locus_g.d_g == 0:
        return CycNum.one(n)
    l_conj, w_conj = eigenvector_matrices(locus_conj)
    basis = inverse([lr + wr for lr, wr in zip(l_conj, w_conj)])
    _, w_g = eigenvector_matrices(locus_g)
    image = mat_mul(mat_mul(basis, element_matrix(h, n)), w_g)
    return det([image[locus_conj.n_g + i] for i in range(locus_g.d_g)])


def restrict_via_matrices(f, locus):
    """f composed with the columns of L: x_i -> sum_c L[i][c] * y_c."""
    n = lcm(f.n, locus.n)
    cols = locus.n_g
    l_rows, _ = eigenvector_matrices(locus)
    g = f.lift(n)
    out = Polynomial.zero(cols, n)
    for mono, coeff in g.terms.items():
        piece = Polynomial.constant(coeff, cols, n)
        for i, e in enumerate(mono):
            if e:
                row = Polynomial(cols, n, {
                    tuple(int(j == c) for j in range(cols)): l_rows[i][c].lift(n)
                    for c in range(cols)
                })
                piece = piece * row**e
        out = out + piece
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def poincare_dense(w) -> dict[Fraction, int]:
    """The weight series by dense products and one long division.

    Multiplies out prod_k (t^(d0 - d_k) - 1) and prod_k (t^(d_k) - 1) as
    dense coefficient lists and divides the first by the second.
    """
    num = [1]
    den = [1]
    for dk in w.d:
        num = _poly_mul(num, [-1] + [0] * (w.d0 - dk - 1) + [1])
        den = _poly_mul(den, [-1] + [0] * (dk - 1) + [1])
    quotient = _divide_exact(num, den)
    return {Fraction(e, w.d0): c for e, c in enumerate(quotient) if c}


def standard_monomials_box(lms, nvars: int):
    """Standard monomials by testing every monomial of the bounding box.

    The box runs below the smallest pure power of each variable among
    the leading monomials lms; every monomial in it is tested against
    every leading monomial.  Sorted by grevlex_key.
    """
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in lms if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            raise NotIsolated(f"no pure power of variable {i + 1}")
        bounds.append(min(pure))
    out = [
        mono
        for mono in product(*(range(b) for b in bounds))
        if not any(all(x <= y for x, y in zip(lm, mono)) for lm in lms)
    ]
    out.sort(key=grevlex_key)
    return out
