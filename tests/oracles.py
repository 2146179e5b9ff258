"""Reference computations that only tests use.

Each oracle recomputes a quantity by a route other than the one the
library takes, so a test can compare the two.  None of them is reached
from the command line or the public API.
"""

from collections import deque
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from operator import add

from lgdiamond._linalg import det, inverse, mat_mul, rref
from lgdiamond.cyclotomic import (
    CycNum,
    _divide_exact,
    _reduction_rows,
    cyclotomic_polynomial,
    root_of_unity,
)
from lgdiamond.errors import NotIsolated
from lgdiamond.polynomial import Polynomial, WeightSystem
from lgdiamond.symmetry import format_element


def trace_dimension(state, block) -> int:
    """Invariant dimension of a block from the character formula.

    Averages tr(h | block) over the centralizer of the block's class
    representative, reading each diagonal entry off the image of one
    monomial under h.  Raises AssertionError when the average is not an
    integer, which no genuine group action allows.
    """
    zero = CycNum.zero(state.n)
    standard = state.ring(block.rep).standard
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
    every path agrees, as its support {index: CycNum}.  Returns None when
    some image is not a single monomial of the block.
    """
    index_of = {m: k for k, m in enumerate(block.monomials)}
    count = len(block.monomials)
    centralizer = state.centralizer(block.rep)
    one = CycNum.one(state.n)
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
            basis.append(values)
    return basis


def frac_matrix(a):
    """Copy an integer or rational matrix with Fraction entries."""
    return [[Fraction(x) for x in row] for row in a]


def solve(a, b):
    """Unique solution of a square system, or None if singular."""
    n = len(a)
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [reduced[i][n] for i in range(n)]


def fraction_weights(rows):
    """(det(E), det(E) q) for the solution q of E q = 1, over Fraction.

    The route the weights took before they were solved in integers:
    Gauss-Jordan over Fraction entries, then q scaled by the determinant.
    """
    d0 = det(frac_matrix(rows))
    q = solve(frac_matrix(rows), [Fraction(1)] * len(rows))
    return d0, tuple(qk * d0 for qk in q)


def mat_vec(a, v):
    """Matrix-vector product."""
    out = []
    for row in a:
        acc = row[0] * 0 if row else 0
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def reynolds_invariants(matrices, count: int, n: int):
    """Image basis of the average of matrices, each a list of columns {row: CycNum}.

    Returns the reduced echelon rows of the image as supports {index:
    CycNum}.  Raises AssertionError when the average is not idempotent on
    its image, which no average over a group allows.
    """
    zero = CycNum.zero(n)
    weight = Fraction(1, len(matrices))
    cols = [[zero] * count for _ in range(count)]
    for mat in matrices:
        for k, col in enumerate(mat):
            for r, c in col.items():
                cols[k][r] = cols[k][r] + c
    cols = [[c * weight for c in col] for col in cols]
    reduced, pivots = rref([list(col) for col in cols])
    rows = [[cols[k][r] for k in range(count)] for r in range(count)]
    basis = []
    for vec in reduced[: len(pivots)]:
        if mat_vec(rows, vec) != vec:
            raise AssertionError("averaging operator is not idempotent on its image")
        basis.append({k: c for k, c in enumerate(vec) if c})
    return basis


def averaging_columns(state, rep: int, monomials):
    """Columns of the centralizer average of rep on the span of monomials.

    Column k maps row indices to the coefficients of the normal form of
    the k-th monomial, summed over every centralizer element through
    apply_to_monomial and divided by the centralizer's order.
    """
    index_of = {m: k for k, m in enumerate(monomials)}
    centralizer = state.centralizer(rep)
    zero = CycNum.zero(state.n)
    scale = CycNum.rational(Fraction(1, len(centralizer)), state.n)
    columns = []
    for mono in monomials:
        col = {}
        for hi in centralizer:
            _, nf = state.apply_to_monomial(hi, rep, mono)
            for m2, c2 in nf.terms.items():
                r = index_of[m2]
                col[r] = col.get(r, zero) + c2
        columns.append({r: c * scale for r, c in col.items() if c})
    return columns


def reynolds_basis(state, block):
    """Invariants of a block as the image of the Reynolds projector.

    Averages the centralizer on the block with averaging_columns and
    returns the reduced echelon basis of the image as
    reynolds_invariants does.
    """
    average = averaging_columns(state, block.rep, block.monomials)
    return reynolds_invariants([average], len(block.monomials), state.n)


# -- the symmetry checks over dense vectors ---------------------------------------
#
# The route transpose_check and duality_check took before invariant vectors
# became supports: every vector is a tuple over all of its block's monomials,
# partner images come from apply_to_monomial one monomial at a time, and
# every coordinate is tested for zero.


def dense_basis(state, block):
    """The block's basis vectors as tuples over all of its monomials."""
    zero = CycNum.zero(state.n)
    return [tuple(vec.get(k, zero) for k in range(len(block.monomials))) for vec in block.basis]


def reduce_in_span(basis, leads, vec) -> bool:
    """Whether vec lies in the span of the basis vectors.

    leads[i] is the leading index of basis[i].  Assumes each basis vector
    is nonzero at its own leading index and zero at every other vector's
    leading index.
    """
    w = list(vec)
    for b, lead in zip(basis, leads):
        c = w[lead]
        if c:
            factor = c / b[lead]
            for i, bc in enumerate(b):
                if bc:
                    w[i] = w[i] - factor * bc
    return not any(w)


def dense_inverse_images(state, block_at, g: int, degree) -> list:
    """The partner basis of g^{-1} at a degree, carried into its sector monomial by monomial."""
    group = state.group
    inv = group.inv[g]
    partner = block_at.get((group.class_of[inv], degree))
    if partner is None:
        return []
    hi = group.conjugator[inv]
    zero = CycNum.zero(state.n)
    images = []
    for vec in dense_basis(state, partner):
        out = {}
        for mono, c in zip(partner.monomials, vec):
            if c:
                _, img = state.apply_to_monomial(hi, partner.rep, mono)
                for mono2, c2 in img.terms.items():
                    out[mono2] = out.get(mono2, zero) + c * c2
        images.append(Polynomial(state.locus(inv).n_g, state.n, out))
    return images


def dense_fixed_by_generators(state, block) -> bool:
    """Whether each centralizer generator's matrix, from normal forms, fixes the basis."""
    zero = CycNum.zero(state.n)
    index_of = {m: k for k, m in enumerate(block.monomials)}
    basis = dense_basis(state, block)
    for hi in state.group.centralizers[block.class_index]:
        for vec in basis:
            image = [zero] * len(vec)
            for mono, c in zip(block.monomials, vec):
                if c:
                    _, nf = state.apply_to_monomial(hi, block.rep, mono)
                    for mono2, x in nf.terms.items():
                        image[index_of[mono2]] = image[index_of[mono2]] + c * x
            if image != list(vec):
                return False
    return True


def dense_transpose_check(state):
    """transpose_check over dense vectors: (passed, witness) with the same messages."""
    group = state.group
    block_at = {(b.class_index, b.degree): b for b in state.blocks()}
    zero = CycNum.zero(state.n)
    for b in state.blocks():
        if not b.dimension:
            continue
        name = format_element(group.elements[b.rep])
        if not dense_fixed_by_generators(state, b):
            return False, (
                f"an invariant of the class of {name} at internal degree "
                f"{b.degree} is not fixed by the centralizer of {name}"
            )
        images = dense_inverse_images(state, block_at, b.rep, b.degree)
        if len(images) != b.dimension:
            return False, (
                f"class of {name} has dimension {b.dimension} at internal degree "
                f"{b.degree} but the inverse class has {len(images)}"
            )
        index = {m: k for k, m in enumerate(b.monomials)}
        basis = dense_basis(state, b)
        leads = [next(i for i, c in enumerate(v) if c) for v in basis]
        for poly in images:
            image = [zero] * len(b.monomials)
            for mono, c in poly.terms.items():
                image[index[mono]] = c
            if not reduce_in_span(basis, leads, image):
                return False, (
                    "sector-inversion image of an invariant of the class of "
                    f"{name} at internal degree {b.degree} is not invariant"
                )
    return True, (
        "inverting group elements transposes the charge table and maps "
        "invariants to invariants"
    )


def residue(ring, u: dict, v: dict) -> CycNum:
    """<u, v>: sum of u_m v_m' Res(m m') over their terms, from ring.dual.

    u and v are term dicts {monomial: CycNum} at the ring's conductor, of
    any degrees: terms whose degrees do not sum to c_hat pair to zero.
    """
    total = CycNum.zero(ring.n)
    for k, a in ring.dual(u).items():
        c = v.get(k)
        if c is not None:
            total = total + a * c
    return total


def pairwise_residue(ring, u: dict, v: dict, residues: dict):
    """<u, v> over every term pair: sum of u_m v_m' Res(m m').

    Res of each product monomial is the top coefficient of its normal
    form over the Hessian's, one normal form per product monomial;
    residues caches them for this ring.
    """
    total = CycNum.zero(ring.n)
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            mono = tuple(map(add, m1, m2))
            if mono not in residues:
                nf = ring.normal_form(Polynomial.monomial(mono, 1, ring.nvars, ring.n))
                top = nf.terms.get(ring.top_monomial)
                residues[mono] = None if top is None else top / ring.hess_coefficient
            r = residues[mono]
            if r is not None:
                total = total + c1 * c2 * r
    return total


def monomials_of_degree(d, e: int) -> list:
    """Every exponent vector m with sum of m_k d_k equal to e."""
    if not d:
        return [()] if e == 0 else []
    return [
        (a,) + rest
        for a in range(e // d[0] + 1)
        for rest in monomials_of_degree(d[1:], e - a * d[0])
    ]


def brute_socle(ring) -> dict:
    """{monomial: Res} over every monomial of degree c_hat with a nonzero residue."""
    w = ring.weights
    top = len(w.d) * w.d0 - 2 * sum(w.d)
    residues = {}
    one = {(0,) * ring.nvars: CycNum.one(ring.n)}
    for mono in monomials_of_degree(w.d, top):
        pairwise_residue(ring, {mono: CycNum.one(ring.n)}, one, residues)
    return {m: r for m, r in residues.items() if r is not None}


def dense_duality_check(state, caches=None):
    """duality_check over dense vectors: Gram matrices of Polynomials, then det.

    Each entry pairs every term of one vector with every term of the other
    (pairwise_residue).  caches holds one residue cache per ring, keyed by
    id(ring), and may be passed again to later calls on the same state.
    """
    group = state.group
    block_at = {(b.class_index, b.degree): b for b in state.blocks()}
    done_pairs = set()
    caches = {} if caches is None else caches
    for b in state.blocks():
        if not b.dimension:
            continue
        ring = state.ring(b.rep)
        inverse_class = group.class_of[group.inv[b.rep]]
        dual_degree = ring.c_hat - b.degree
        key = tuple(sorted([(b.class_index, b.degree), (inverse_class, dual_degree)]))
        if key in done_pairs:
            continue
        done_pairs.add(key)
        images = dense_inverse_images(state, block_at, b.rep, dual_degree)
        name = format_element(group.elements[b.rep])
        if len(images) != b.dimension:
            return False, (
                f"dual block of {name} at internal degree {dual_degree} has "
                f"dimension {len(images)}, expected {b.dimension}"
            )
        nvars = len(b.monomials[0])
        rows = [
            Polynomial(nvars, state.n, {m: c for m, c in zip(b.monomials, vec) if c})
            for vec in dense_basis(state, b)
        ]
        residues = caches.setdefault(id(ring), {})
        gram = [
            [pairwise_residue(ring, v.terms, w.terms, residues) for w in images]
            for v in rows
        ]
        if not det(gram):
            return False, (
                f"residue pairing between the class of {name} at internal degree "
                f"{b.degree} and its dual block is degenerate"
            )
    return True, "residue pairings between dual blocks are nondegenerate"


def w_phases(locus) -> tuple:
    """Eigenvalue phases of a locus's moved eigenvectors, as Fractions in [0, 1)."""
    return tuple(Fraction(theta, 2 * locus.n) for _, theta, _ in locus.moved)


def monomial_degree(ring, mono) -> Fraction:
    """Weighted degree of a monomial, summed from the weights q_k."""
    return sum((e * q for e, q in zip(mono, ring.weights.q)), Fraction(0))


def action_matrix(state, hi: int, bidegree):
    """Matrix of h on the full bidegree slice across all sectors.

    Returns (labels, rows) where labels[k] = (sector index, monomial)
    names the k-th coordinate and rows is the square matrix sending
    coordinate vectors of the slice to their images under h.
    """
    a, b = Fraction(bidegree[0]), Fraction(bidegree[1])
    labels = []
    for gi in range(state.group.order):
        ring = state.ring(gi)
        left, right = (Fraction(x, state.unit) for x in state.shifts(gi))
        for mono in ring_basis(ring):
            degree = monomial_degree(ring, mono)
            if (degree + left, degree + right) == (a, b):
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
    inv = inverse(frac_matrix(e.rows))
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
    sol = solve(frac_matrix(e.rows), s)
    return sum(sol, Fraction(0))


# -- group elements in rational phases -----------------------------------------
#
# The arithmetic GroupElement had before it held integer numerators over one
# denominator: a pair (sigma, phase) with phase a tuple of Fractions in
# [0, 1), every sum re-normalized with % 1.


def ref_element(g):
    """(sigma, phase) of a GroupElement, phases read through its Fraction view."""
    return tuple(g.sigma), tuple(Fraction(a) % 1 for a in g.phase)


def _ref_cycles(sigma):
    seen, out = set(), []
    for start in range(len(sigma)):
        if start not in seen:
            cyc = [start]
            seen.add(start)
            v = sigma[start]
            while v != start:
                cyc.append(v)
                seen.add(v)
                v = sigma[v]
            out.append(tuple(cyc))
    return out


def ref_compose(a, b):
    """a*b: substitute a first, then b."""
    (sa, pa), (sb, pb) = a, b
    return tuple(sb[s] for s in sa), tuple((x + pb[s]) % 1 for x, s in zip(pa, sa))


def ref_inverse(a):
    sigma, phase = a
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv), tuple(-phase[inv[i]] % 1 for i in range(len(sigma)))


def ref_order(a) -> int:
    sigma, phase = a
    o = 1
    for cyc in _ref_cycles(sigma):
        total = sum(phase[i] for i in cyc) % 1
        o = lcm(o, len(cyc) * total.denominator)
    return o


def ref_det_phase(a) -> Fraction:
    sigma, phase = a
    t = sum(phase, Fraction(0))
    if (len(sigma) - len(_ref_cycles(sigma))) % 2:
        t += Fraction(1, 2)
    return t % 1


def ref_is_sl(a) -> bool:
    return ref_det_phase(a) == 0


def ref_age(a) -> Fraction:
    sigma, phase = a
    total = Fraction(0)
    for cyc in _ref_cycles(sigma):
        total += sum(phase[i] for i in cyc) % 1 + Fraction(len(cyc) - 1, 2)
    return total


def ref_conductor(a) -> int:
    sigma, phase = a
    n = 1
    for x in phase:
        n = lcm(n, x.denominator)
    for cyc in _ref_cycles(sigma):
        total = sum(phase[i] for i in cyc) % 1
        n = lcm(n, len(cyc) * total.denominator)
    return n


def ref_closure(generators) -> set:
    """Every (sigma, phase) the generators reach, walked breadth first by ref_compose."""
    gens = [ref_element(g) for g in generators]
    nv = len(gens[0][0])
    identity = (tuple(range(nv)), (Fraction(0),) * nv)
    seen, frontier = {identity}, [identity]
    while frontier:
        grown = []
        for a in frontier:
            for s in gens:
                b = ref_compose(a, s)
                if b not in seen:
                    seen.add(b)
                    grown.append(b)
        frontier = grown
    return seen


def ref_format(g) -> str:
    """format_element's text, each phase printed as str(Fraction) from ref_element."""
    sigma, phase = ref_element(g)
    if sigma == tuple(range(len(sigma))) and not any(phase):
        return "id"
    parts = [
        "(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in _ref_cycles(sigma) if len(cyc) > 1
    ]
    if any(phase):
        parts.append("diag(" + ", ".join(str(a) for a in phase) + ")")
    return "*".join(parts)


def fraction_charges(state, block):
    """(degree, q_left, q_right) of a block, in Fractions.

    The degree is read off the block's first monomial with the sector
    ring's weights q.  The charges add the ages of g and g^-1 (ref_age)
    and subtract the moved weights: k q for a k-cycle of g whose total
    phase is not integral, (k - 1) q for one whose total phase is.
    """
    a = ref_element(state.group.elements[block.rep])
    degree = monomial_degree(state.ring(block.rep), block.monomials[0])
    q = state.weights.q
    moved = Fraction(0)
    for cyc in _ref_cycles(a[0]):
        fixed = sum(a[1][i] for i in cyc) % 1 == 0
        moved += (len(cyc) - fixed) * q[cyc[0]]
    return degree, degree + ref_age(a) - moved, degree + ref_age(ref_inverse(a)) - moved


def ref_restricted_weights(locus, w) -> WeightSystem:
    """The weights of Fix(g) over w's d0, read from their Fractions q."""
    q = [w.q[i] for i in locus.i_fixed]
    assert all((qk * w.d0).denominator == 1 for qk in q)
    return WeightSystem(w.d0, tuple(int(qk * w.d0) for qk in q))


# -- cyclotomic numbers in Fraction coordinates ---------------------------------
#
# The arithmetic CycNum had before it held integer numerators over one
# denominator: a pair (n, coords) with coords a tuple of Fractions in the
# power basis of Q(zeta_n), every coordinate operation a Fraction operation.


def ref_cyc(x):
    """(n, coords) of a CycNum, its numerators read over its denominator."""
    return x.n, tuple(Fraction(a, x.den) for a in x.num)


def ref_cyc_rational(q, n: int):
    deg = len(cyclotomic_polynomial(n)) - 1
    return n, (Fraction(q),) + (Fraction(0),) * (deg - 1)


def _ref_cyc_reduce(vals: dict, n: int) -> tuple:
    """Reduce a sparse exponent->Fraction map to the power basis."""
    deg = len(cyclotomic_polynomial(n)) - 1
    acc = [Fraction(0)] * max(deg, n)
    for e, c in vals.items():
        acc[e % n] += c
    rows = _reduction_rows(n)
    for e in range(n - 1, deg - 1, -1):
        c = acc[e]
        if c:
            row = rows[e - deg]
            for j in range(deg):
                if row[j]:
                    acc[j] += c * row[j]
    return tuple(acc[:deg])


def ref_cyc_add(a, b):
    return a[0], tuple(x + y for x, y in zip(a[1], b[1]))


def ref_cyc_sub(a, b):
    return a[0], tuple(x - y for x, y in zip(a[1], b[1]))


def ref_cyc_mul(a, b):
    vals: dict[int, Fraction] = {}
    for i, x in enumerate(a[1]):
        if x:
            for j, y in enumerate(b[1]):
                if y:
                    vals[i + j] = vals.get(i + j, Fraction(0)) + x * y
    return a[0], _ref_cyc_reduce(vals, a[0])


def ref_cyc_inverse(a):
    """Extended Euclid in Q[x]: u*a + v*Phi_n = g, a nonzero constant."""
    n, coords = a
    if not any(coords):
        raise ZeroDivisionError("division by zero in cyclotomic field")
    r0 = [Fraction(x) for x in cyclotomic_polynomial(n)]
    r1 = list(coords)
    u0, u1 = [Fraction(0)], [Fraction(1)]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            return n, _ref_cyc_reduce({k: x / r1[0] for k, x in enumerate(u1)}, n)
        # r0 = q*r1 + r2
        r2 = list(r0)
        q: dict[int, Fraction] = {}
        d1 = len(r1) - 1
        for i in range(len(r2) - 1, d1 - 1, -1):
            if r2[i]:
                qc = r2[i] / r1[-1]
                q[i - d1] = qc
                for j in range(d1 + 1):
                    r2[i - d1 + j] -= qc * r1[j]
        u2 = list(u0) + [Fraction(0)] * max(0, len(u1) + max(q, default=0) - len(u0) + 1)
        for k, qc in q.items():
            for j, x in enumerate(u1):
                if x:
                    u2[k + j] -= qc * x
        r0, r1 = r1, r2
        u0, u1 = u1, u2


def ref_cyc_div(a, b):
    return ref_cyc_mul(a, ref_cyc_inverse(b))


def ref_cyc_pow(a, k: int):
    if k < 0:
        return ref_cyc_pow(ref_cyc_inverse(a), -k)
    out = ref_cyc_rational(1, a[0])
    for _ in range(k):
        out = ref_cyc_mul(out, a)
    return out


def ref_cyc_lift(a, m: int):
    n, coords = a
    return m, _ref_cyc_reduce({k * (m // n): x for k, x in enumerate(coords)}, m)


def ref_cyc_eq(a, b) -> bool:
    m = lcm(a[0], b[0])
    return ref_cyc_lift(a, m) == ref_cyc_lift(b, m)


def ref_cyc_is_rational(a) -> bool:
    return not any(a[1][1:])


def ref_cyc_str(a) -> str:
    n, coords = a
    if ref_cyc_is_rational(a):
        return str(coords[0])
    parts = []
    for k, x in enumerate(coords):
        if x == 0:
            continue
        if k == 0:
            parts.append(str(x))
        else:
            z = f"e[{Fraction(k, n)}]"
            parts.append(z if x == 1 else f"({x})*{z}")
    return " + ".join(parts)


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


def conductor_by_elements(group, extra: int = 1) -> int:
    """The conductor as an lcm of every element's conductor and order."""
    n = extra
    for g in group.elements:
        n = lcm(n, g.conductor(), g.order())
    return n


def all_sl_by_elements(group) -> bool:
    """Whether every element, not only every generator, has determinant one."""
    return all(g.is_sl() for g in group.elements)


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
    The locus holds its phases as integers mod 2n; they become Fractions
    here, and root_of_unity writes them at conductor n.
    """
    nv, n = locus.g.nvars, locus.n
    zero = CycNum.zero(n)
    l_rows = [[zero] * locus.n_g for _ in range(nv)]
    for i, (c, a) in locus.fixed.items():
        l_rows[i][c] = root_of_unity(Fraction(a, 2 * n), n)
    w_rows = [[zero] * len(locus.moved) for _ in range(nv)]
    for c, (_, _, phases) in enumerate(locus.moved):
        for i, a in phases.items():
            w_rows[i][c] = root_of_unity(Fraction(a, 2 * n), n)
    return l_rows, w_rows


def rho_via_matrices(h, locus_g, locus_conj):
    """rho_{h,g} as det of h on C^N/Fix(g), in the bases [L | W] of both loci."""
    n = locus_g.n
    if not locus_g.moved:
        return CycNum.one(n)
    l_conj, w_conj = eigenvector_matrices(locus_conj)
    basis = inverse([lr + wr for lr, wr in zip(l_conj, w_conj)])
    _, w_g = eigenvector_matrices(locus_g)
    image = mat_mul(mat_mul(basis, element_matrix(h, n)), w_g)
    return det([image[locus_conj.n_g + i] for i in range(len(locus_g.moved))])


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


def poincare_dense(w) -> dict[int, int]:
    """The weight series by dense products and one long division.

    Multiplies out prod_k (t^(d0 - d_k) - 1) and prod_k (t^(d_k) - 1) as
    dense coefficient lists and divides the first by the second.  Keys
    are d0 times the weighted degree, as in poincare_dimensions.
    """
    num = [1]
    den = [1]
    for dk in w.d:
        num = _poly_mul(num, [-1] + [0] * (w.d0 - dk - 1) + [1])
        den = _poly_mul(den, [-1] + [0] * (dk - 1) + [1])
    quotient = _divide_exact(num, den)
    return {e: c for e, c in enumerate(quotient) if c}


def grevlex_key(mono):
    """Sort key under which the graded reverse lexicographic order is <."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def leading_monomial(p: Polynomial):
    return max(p.terms, key=grevlex_key)


def ring_groebner(ring) -> list:
    """A ring's Groebner basis as Polynomials, its packed terms unpacked by ring.slots."""
    one, mono = CycNum.one(ring.n), ring.slots.mono
    return [
        Polynomial(ring.nvars, ring.n, {mono(lead): one, **{mono(k): c for k, c in tail.items()}})
        for _, lead, tail in ring.groebner
    ]


def ring_socle(ring) -> dict:
    """{monomial: Res} of a ring's socle, its packed exponents unpacked by ring.slots."""
    return {ring.slots.exponents(e): r for e, r in ring.socle}


def ring_basis(ring) -> tuple:
    """A ring's standard monomials, all degrees of its graded_basis, by packed key."""
    return tuple(
        sorted((m for monos in ring.graded_basis.values() for m in monos), key=ring.slots.key)
    )


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


def _lead(terms):
    return max(terms, key=grevlex_key)


def _monic_terms(terms):
    inv = terms[_lead(terms)].inverse()
    return {m: c * inv for m, c in terms.items()}


def _reduce_terms(terms, basis):
    """Full remainder of a term dict under division by monic term dicts."""
    work = dict(terms)
    rem = {}
    while work:
        mono = _lead(work)
        c = work.pop(mono)
        for g in basis:
            lg = _lead(g)
            if all(a <= b for a, b in zip(lg, mono)):
                shift = tuple(a - b for a, b in zip(mono, lg))
                for m2, c2 in g.items():
                    if m2 != lg:
                        target = tuple(a + b for a, b in zip(m2, shift))
                        acc = work[target] - c * c2 if target in work else -(c * c2)
                        if acc:
                            work[target] = acc
                        else:
                            del work[target]
                break
        else:
            rem[mono] = c
    return rem


def reduced_by(p: Polynomial, basis) -> Polynomial:
    """Full remainder of p under division by a monic basis of Polynomials."""
    return Polynomial(p.nvars, p.n, _reduce_terms(p.terms, [g.terms for g in basis]))


def buchberger_basis(polys):
    """Reduced monic Groebner basis in grevlex order by plain Buchberger.

    Every pair is reduced, first in first out, with no criterion that
    skips one.  The basis is then minimalized and the tail of each
    element reduced against the rest.  Sorted by leading monomial, as
    groebner_basis returns it.
    """
    nvars, n = polys[0].nvars, polys[0].n
    basis = [_monic_terms(p.terms) for p in polys if p.terms]
    queue = deque((i, j) for j in range(len(basis)) for i in range(j))
    while queue:
        i, j = queue.popleft()
        a, b = basis[i], basis[j]
        la, lb = _lead(a), _lead(b)
        gamma = tuple(map(max, la, lb))
        s = {}
        for g, lg, sign in ((a, la, 1), (b, lb, -1)):
            shift = tuple(x - y for x, y in zip(gamma, lg))
            for m, c in g.items():
                target = tuple(x + y for x, y in zip(m, shift))
                s[target] = s[target] + c * sign if target in s else c * sign
        r = _reduce_terms({m: c for m, c in s.items() if c}, basis)
        if r:
            basis.append(_monic_terms(r))
            queue.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    leads = [_lead(g) for g in basis]
    minimal = [
        g
        for i, g in enumerate(basis)
        if not any(
            all(x <= y for x, y in zip(leads[k], leads[i]))
            and (leads[k] != leads[i] or k < i)
            for k in range(len(basis))
        )
    ]
    reduced = []
    for g in minimal:
        lg = _lead(g)
        tail = _reduce_terms({m: c for m, c in g.items() if m != lg}, minimal)
        reduced.append(Polynomial(nvars, n, {lg: g[lg], **tail}))
    reduced.sort(key=lambda p: grevlex_key(_lead(p.terms)))
    return reduced


def dense_hessian(f: Polynomial) -> Polynomial:
    """Hessian determinant by the permutation expansion, for N <= 5.

    The dense matrix holds the tuple-keyed second partials of f, and the
    determinant sums sign(s) * prod_i H[i][s(i)] over all N! permutations
    with Polynomial arithmetic: no packed key and no minor is shared.
    """
    nv = f.nvars
    assert nv <= 5, "N! products grow too fast past five variables"
    h = [[f.partial_derivative(i).partial_derivative(j) for j in range(nv)] for i in range(nv)]
    total = Polynomial.zero(nv, f.n)
    for perm in permutations(range(nv)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = Polynomial.constant(-1 if inversions % 2 else 1, nv, f.n)
        for i, j in enumerate(perm):
            term = term * h[i][j]
        total = total + term
    return total
