"""Monomial actions on invariant blocks, in integer phases mod 2n.

A sector transport (StateSpace.transport) sends a monomial of one sector
to e[t/2n] times a monomial of another.  On a block, the standard
monomials of one sector at one degree, a centralizer generator then acts
as m_k -> (p/q) e[phases[k]/2n] m_perm[k], with phases integers mod 2n
and p/q a positive rational that is 1 unless a target monomial reduces
to a block monomial times a rational.  This module builds those maps,
walks their orbits for the invariants and carries vectors, held as
their supports, by transports.  A CycNum is built only for a basis
vector; root-of-unity coordinates are read back to phases through
unit_phases.
"""

from __future__ import annotations

from fractions import Fraction

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


def _generator_maps(transports, sectors, index_of, n: int):
    """(perm, phases, sizes) of each generator on a block, or None.

    transports yields each generator's transport (g', t, rows) of the
    block's sector; it is read lazily, so nothing past a generator that
    fails is fetched.  When a target monomial is not standard in the
    ring of sectors[g'], its normal form must be one block monomial
    times a root of unity, read back to a phase through the unit table,
    or times a rational p/q, whose sign is a phase; otherwise this
    returns None and the block takes the Reynolds projector.  sizes is
    None when every p/q is 1.
    """
    two_n = 2 * n
    units = unit_phases(n)
    maps = []
    for gpi, t, rows in transports:
        ring = sectors[gpi].ring
        perm, phases, sizes = [], [], None
        for k, m in enumerate(index_of):
            target, phase = _image(rows, t, m, two_n)
            if target not in index_of:
                if target in ring.basis_index:
                    raise LgError("sector action does not preserve the degree")
                nf = ring.monomial_form(target)
                if len(nf.terms) != 1:
                    return None
                ((target, c),) = nf.terms.items()
                unit = units.get(c.key())
                if unit is None:
                    if not c.is_rational():
                        return None
                    r = c.as_fraction()
                    unit = 0 if r > 0 else n
                    if sizes is None:
                        sizes = [(1, 1)] * len(index_of)
                    sizes[k] = (abs(r.numerator), r.denominator)
                if target not in index_of:
                    raise LgError("sector action does not preserve the degree")
                phase = (phase + unit) % two_n
            perm.append(index_of[target])
            phases.append(phase)
        maps.append((perm, phases, sizes))
    return maps


def _orbit_invariants(maps, count: int, n: int):
    """Invariants of the maps from _generator_maps on a block of count monomials.

    An orbit carries one invariant, valued 1 at its smallest index, when
    the scalars multiplied along every path agree, and nothing otherwise.
    Each invariant is its support {index: nonzero CycNum}.
    """
    two_n = 2 * n
    visited = [False] * count
    basis = []
    for k0 in range(count):
        if visited[k0]:
            continue
        values = {k0: 0}
        size = {k0: (1, 1)}
        stack = [k0]
        alive = True
        while stack:
            k = stack.pop()
            p, q = size[k]
            for perm, phases, sizes in maps:
                k2 = perm[k]
                v2 = (values[k] + phases[k]) % two_n
                p2, q2 = (p, q) if sizes is None else (p * sizes[k][0], q * sizes[k][1])
                seen = values.get(k2)
                if seen is None:
                    values[k2] = v2
                    size[k2] = (p2, q2)
                    stack.append(k2)
                elif seen != v2 or size[k2][0] * q2 != size[k2][1] * p2:
                    alive = False
        for k in values:
            visited[k] = True
        if alive:
            vec = {}
            for k, v in values.items():
                p, q = size[k]
                vec[k] = phase_unit(v, n) if p == q else phase_unit(v, n) * Fraction(p, q)
            basis.append(vec)
    return basis


def _carry(vec, monomials, transport, sectors, n: int) -> dict:
    """A vector {k: coefficient of monomials[k]} carried by a transport (g', t, rows).

    Returns {monomial: nonzero CycNum} over the standard monomials of the
    ring of sectors[g'].  A unit coefficient times the transport phase is
    one phase_unit of the summed phase; a target off the standard basis
    is replaced by its normal form.
    """
    gpi, t, rows = transport
    ring = sectors[gpi].ring
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
