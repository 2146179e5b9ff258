"""Monomial actions on invariant blocks, in integer phases mod 2n.

A sector transport (StateSpace.transport) sends a monomial of one sector
to e[t/2n] times a monomial of another.  On a block, the standard
monomials of one sector at one degree, _generator_maps turns each
centralizer generator that keeps every block monomial standard into a map
m_k -> e[phases[k]/2n] m_perm[k]; _orbit_invariants walks these maps, and
_fixed_space cuts the result by the other generators, carrying vectors by
_carry.  Vectors are held as their supports, and a CycNum is built only
for a basis vector or a normal-form input.

_echelon and _reduce, the one elimination over supports, serve _fixed_space
and both symmetry checks: a pivot row is nonzero at its lead (its smallest
column) and zero at every other lead, as orbit vectors are too.
"""

from __future__ import annotations

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


def _generator_maps(transports, monomials, n: int):
    """Split a block's generator transports (g', t, rows) into (maps, rest).

    maps holds (perm, phases) of each transport that sends every block
    monomial to a block monomial; rest holds the other transports.
    """
    two_n = 2 * n
    index_of = {m: k for k, m in enumerate(monomials)}
    maps, rest = [], []
    for transport in transports:
        _, t, rows = transport
        perm, phases = [], []
        for m in monomials:
            target, phase = _image(rows, t, m, two_n)
            k = index_of.get(target)
            if k is None:
                rest.append(transport)
                break
            perm.append(k)
            phases.append(phase)
        else:
            maps.append((perm, phases))
    return maps, rest


def _orbit_invariants(maps, count: int, n: int):
    """Invariants of the maps from _generator_maps on a block of count monomials.

    An orbit carries one invariant, valued 1 at its smallest index, when
    the phases summed along every path agree, and nothing otherwise.
    Each invariant is its support {index: nonzero CycNum}.
    """
    two_n = 2 * n
    visited = [False] * count
    basis = []
    for k0 in range(count):
        if visited[k0]:
            continue
        values = {k0: 0}
        stack = [k0]
        alive = True
        while stack:
            k = stack.pop()
            for perm, phases in maps:
                k2 = perm[k]
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


def _carry(vec, monomials, transport, ring, n: int) -> dict:
    """A vector {k: coefficient of monomials[k]} carried by a transport (g', t, rows).

    Returns {monomial: nonzero CycNum} over the standard monomials of
    ring, the ring of sector g'.  A unit coefficient times the transport
    phase is one phase_unit of the summed phase; a target off the standard
    basis is replaced by its normal form.
    """
    _, t, rows = transport
    two_n = 2 * n
    units = unit_phases(n)
    out = {}
    for k, c in vec.items():
        target, phase = _image(rows, t, monomials[k], two_n)
        unit = units.get(c.key())
        if unit is None:
            scaled = c * phase_unit(phase, n)
        else:
            scaled = phase_unit((unit + phase) % two_n, n)
        if target in ring.basis_index:
            terms = ((target, scaled),)
        else:
            terms = ((m, scaled * x) for m, x in ring.monomial_form(target).terms.items())
        for m, x in terms:
            out[m] = out[m] + x if m in out else x
    return {m: x for m, x in out.items() if x}


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
