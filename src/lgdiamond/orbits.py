"""Monomial actions on invariant blocks, in integer phases mod 2n.

A sector transport (StateSpace.transport) sends a monomial of one sector
to e[t/2n] times a monomial of another.  A block is the standard
monomials of one sector at one degree.  j_f is central, so it scales a
whole block by one phase (_jf_phase), and _class_bases gives a block
where that phase is nonzero no invariants and no generator map.  On the
other blocks a transport whose rows keep every coordinate acts by a
character (_characters), and an invariant vanishes at each monomial where
some character is nonzero; _generator_maps turns each other centralizer
generator that keeps every live monomial standard into a map m_k ->
e[phases[k]/2n] m_perm[k], _orbit_invariants walks these maps over the
live monomials, and _fixed_space cuts the result by the other
generators, carrying vectors by _carry.  Vectors are held as their
supports, and a CycNum is built only for a basis vector or a normal-form
input.

_echelon and _reduce, the one elimination over supports, serve _fixed_space
and both symmetry checks: a pivot row is nonzero at its lead (its smallest
column) and zero at every other lead, as orbit vectors are too.
"""

from __future__ import annotations

from operator import mul

from .cyclotomic import phase_unit, unit_phases
from .errors import LgError
from .polynomial import Monomial


def _image(rows, t: int, mono: Monomial, two_n: int) -> tuple[Monomial, int]:
    """Target monomial and phase mod 2n of a sector monomial under a transport."""
    out = [0] * len(rows)
    phase = t
    for (j, a), e in zip(rows, mono):
        if e:
            out[j] += e
            phase += e * a
    return tuple(out), phase % two_n


def _characters(transport, monomials, two_n: int):
    """Phases mod 2n by which a transport scales each monomial, or None.

    A transport (g', t, rows) whose rows keep every coordinate (j == c)
    sends a monomial to itself times e[chi/2n], chi = t + sum of e_c a_c:
    it acts by a character.  None when some row moves a coordinate.
    """
    _, t, rows = transport
    if any(j != c for c, (j, _) in enumerate(rows)):
        return None
    coeffs = [a for _, a in rows]
    return [(t + sum(map(mul, m, coeffs))) % two_n for m in monomials]


def _generator_maps(transports, monomials, n: int):
    """Split a block's generator transports (g', t, rows) into (live, maps, rest).

    Each transport that acts by a character (_characters) scales every
    monomial, so an invariant vanishes wherever a character is nonzero:
    live[k] says that every character is 0 at monomials[k].  maps holds
    (perm, phases) of each other transport that sends every live monomial
    to a block monomial, read at live indices only; rest holds the
    transports that send some live monomial elsewhere.
    """
    two_n = 2 * n
    count = len(monomials)
    live = [True] * count
    moving = []
    for transport in transports:
        chis = _characters(transport, monomials, two_n)
        if chis is None:
            moving.append(transport)
        else:
            live = [x and not chi for x, chi in zip(live, chis)]
    maps, rest = [], []
    if not any(live):
        return live, maps, rest
    index_of = {m: k for k, m in enumerate(monomials)}
    for transport in moving:
        _, t, rows = transport
        perm, phases = [0] * count, [0] * count
        for k, m in enumerate(monomials):
            if not live[k]:
                continue
            target, phases[k] = _image(rows, t, m, two_n)
            k2 = index_of.get(target)
            if k2 is None:
                rest.append(transport)
                break
            perm[k] = k2
        else:
            maps.append((perm, phases))
    return live, maps, rest


def _orbit_invariants(maps, live, n: int):
    """Invariants of the maps from _generator_maps on a block, given its live monomials.

    An orbit carries one invariant, valued 1 at its smallest index, when
    it meets no dead monomial and the phases summed along every path
    agree, and nothing otherwise.  Each invariant is its support {index:
    nonzero CycNum}.
    """
    two_n = 2 * n
    visited = [not x for x in live]
    basis = []
    for k0 in range(len(live)):
        if visited[k0]:
            continue
        values = {k0: 0}
        stack = [k0]
        alive = True
        while stack:
            k = stack.pop()
            for perm, phases in maps:
                k2 = perm[k]
                if not live[k2]:
                    alive = False
                    continue
                v2 = (values[k] + phases[k]) % two_n
                seen = values.get(k2)
                if seen is None:
                    values[k2] = v2
                    stack.append(k2)
                elif seen != v2:
                    alive = False
        for k in values:
            visited[k] = True
        if alive:
            basis.append({k: phase_unit(v, n) for k, v in values.items()})
    return basis


def _jf_phase(t_j: int, e: int, d0: int, n: int) -> int:
    """Phase mod 2n by which j_f scales each monomial of a sector ring at degree e/d0.

    j_f scales y_c by e[q_c], and its transport pulls y_c back by the
    inverse, so a monomial of weighted degree e/d0 gains -2n e/d0 on top
    of t_j, the phase of rho_{J,g}.  That is an integer whenever j_f is in
    the group, as n is then a multiple of every q_c's denominator.
    """
    two_n = 2 * n
    return (t_j - two_n * e // d0) % two_n


def _class_bases(degrees, t_j, ring, n: int, generators):
    """Invariant bases of one class's blocks, one per (e, monomials) in degrees.

    ring is the sector ring of the class representative g, whose d0 times
    the degree is e.  t_j is the phase of rho_{J,g} when j_f is in the
    group, else None.  j_f is central, so it scales a whole block by one
    phase (_jf_phase), and a block where that phase is nonzero has no
    invariants.  generators() lists the transports of the centralizer
    generators; it is called at the first block that j_f does not settle,
    or never.  Every other block walks the orbits of its generators
    (_generator_maps, _orbit_invariants) and is cut by the rest
    (_fixed_space).
    """
    d0 = ring.weights.d0
    transports = None
    for e, monos in degrees:
        if t_j is not None and _jf_phase(t_j, e, d0, n):
            yield []
            continue
        if transports is None:
            transports = generators()
        live, maps, rest = _generator_maps(transports, monos, n)
        yield _fixed_space(_orbit_invariants(maps, live, n), rest, monos, ring, n)


def _carry(vec, monomials, transport, ring, n: int) -> dict:
    """A vector {k: coefficient of monomials[k]} carried by a transport (g', t, rows).

    Returns {monomial: nonzero CycNum} over the standard monomials of
    ring, the ring of sector g'.  A coefficient is kept at a phase of 0,
    as under the identity; a unit coefficient times another phase is one
    phase_unit of the summed phase; a target off the standard basis is
    replaced by its normal form.
    """
    _, t, rows = transport
    two_n = 2 * n
    units = unit_phases(n)
    out = {}
    for k, c in vec.items():
        target, phase = _image(rows, t, monomials[k], two_n)
        if not phase:
            scaled = c
        elif (unit := units.get(c.key())) is None:
            scaled = c * phase_unit(phase, n)
        else:
            scaled = phase_unit((unit + phase) % two_n, n)
        if target in ring.standard:
            terms = ((target, scaled),)
        else:
            terms = ((m, scaled * x) for m, x in ring.monomial_form(target).terms.items())
        for m, x in terms:
            out[m] = out[m] + x if m in out else x
    return {m: x for m, x in out.items() if x}


def _fixes(transport, basis, monomials, ring, n: int) -> bool:
    """Whether a transport of a sector to itself fixes every vector of basis.

    A transport acting by a character (_characters) fixes a vector when
    the character is 0 on its support; any other must carry the vector
    (_carry) back to itself.
    """
    chis = _characters(transport, [monomials[k] for vec in basis for k in vec], 2 * n)
    if chis is not None:
        return not any(chis)
    return all(
        _carry(vec, monomials, transport, ring, n) == {monomials[k]: c for k, c in vec.items()}
        for vec in basis
    )


def _fixed_space(space, transports, monomials, ring, n: int):
    """Reduced echelon basis of the vectors in space that every transport fixes.

    ring is the ring of the block's sector, which every transport maps to
    itself.  space is in reduced echelon form over the block.  Per
    transport, each vector v of the space so far gives a row: v carried - v
    in columns k, v in columns count + k.  The rows of the reduced echelon
    form with zero difference are, by their second halves, the next space.
    Raises LgError when an image leaves the block.
    """
    if not transports:
        return space
    index_of = {m: k for k, m in enumerate(monomials)}
    count = len(monomials)
    for transport in transports:
        rows = []
        for vec in space:
            row = {count + k: c for k, c in vec.items()}
            for m, c in _carry(vec, monomials, transport, ring, n).items():
                if m not in index_of:
                    raise LgError("sector action does not preserve the degree")
                row[index_of[m]] = c
            for k, c in vec.items():
                _add(row, k, -c)
            rows.append(row)
        space = [
            {k - count: c for k, c in row.items()}
            for row in _echelon(rows) if min(row) >= count
        ]
    return space


def _add(row: dict, k, c) -> None:
    """row[k] += c, keeping only nonzero entries."""
    x = row[k] + c if k in row else c
    if x:
        row[k] = x
    else:
        del row[k]


def _reduce(row: dict, pivots: dict) -> dict:
    """row less its parts along the pivot rows {lead: pivot}, as a new dict.

    Subtracting a pivot changes the row at no other lead, so the leads that
    the row meets are read once; dividing by the pivot's lead value lets a
    scaled pivot reduce too.
    """
    w = dict(row)
    for lead in [k for k in w if k in pivots]:
        factor = w[lead] / pivots[lead][lead]
        for k, x in pivots[lead].items():
            _add(w, k, -factor * x)
    return w


def _echelon(rows):
    """Reduced echelon form of sparse rows {column: nonzero}, sorted by lead column."""
    pivots: dict = {}  # lead column -> row with 1 there and 0 at every other lead
    holders: dict = {}  # column -> leads of the pivots that may be nonzero there
    for row in rows:
        w = _reduce(row, pivots)
        if not w:
            continue
        lead = min(w)
        inv = 1 / w[lead]
        w = {k: x * inv for k, x in w.items()}
        for p_lead in holders.pop(lead, ()):
            p = pivots[p_lead]
            c = p.get(lead)
            if c is not None:
                for k, x in w.items():
                    _add(p, k, -c * x)
                    holders.setdefault(k, set()).add(p_lead)
        for k in w:
            holders.setdefault(k, set()).add(lead)
        pivots[lead] = w
    return [pivots[lead] for lead in sorted(pivots)]
