"""Singularity-graph analysis of a quasihomogeneous polynomial.

Every variable of an admissible polynomial heads a "graph monomial"
x_j^a (a pure power, making j a root) or x_j^a * x_k (an arrow j -> k).
The chosen monomials define a functional graph whose components each
contain exactly one cycle, an integer exponent matrix whose rows are
the chosen monomials, and through it the unique reduced weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    LgError,
    NoGraphMonomial,
    NotQuasihomogeneous,
    SingularExponentMatrix,
    WeightOutOfRange,
)
from .polynomial import Monomial, Polynomial, WeightSystem


@dataclass(frozen=True)
class SingularityGraph:
    """kappa map, chosen graph monomials, and component structure (0-based)."""

    kappa: tuple[int, ...]
    monomial_of: tuple[Monomial, ...]
    components: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def nvars(self) -> int:
        return len(self.kappa)


@dataclass(frozen=True)
class ExponentMatrix:
    """Rows are the chosen graph monomials; always invertible.

    det is det(E) and adj_ones is adj(E)*1, so E q = 1 solves to
    q = adj_ones / det.
    """

    rows: tuple[Monomial, ...]
    det: int
    adj_ones: tuple[int, ...]


@dataclass(frozen=True)
class Classification:
    """Fermat/chain/loop atoms, or a reason the polynomial is not invertible.

    Each atom is (kind, vertices, exponents) with 0-based vertex indices;
    chain vertices run from the far leaf to the root.
    """

    atoms: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] | None
    reason: str | None

    @property
    def is_invertible(self) -> bool:
        return self.atoms is not None


@dataclass(frozen=True)
class TransposeResult:
    polynomial: Polynomial
    weights: tuple[Fraction, ...]
    all_positive: bool


def _graph_candidates(f: Polynomial, j: int):
    """(is_mixed, exponent, target) for every graph monomial headed by j."""
    out = []
    for mono in f.terms:
        support = [k for k, e in enumerate(mono) if e]
        if support == [j] and mono[j] >= 2:
            out.append((0, mono[j], j, mono))
        elif len(support) == 2 and mono[j] >= 1:
            k = support[0] if support[1] == j else support[1]
            if mono[k] == 1 and j in support:
                out.append((1, mono[j], k, mono))
    return out


def require_variables(f: Polynomial) -> None:
    """Reject a constant f: it has no variables, hence no singularity."""
    if not f.nvars:
        raise LgError("f has no variables; a constant defines no singularity")


def build_graph(f: Polynomial) -> SingularityGraph:
    """Select a graph monomial for every variable and build the graph.

    Tie-breaks: a pure power beats any arrow; among arrows the smallest
    exponent wins, then the smallest target index.  The reduced weights
    do not depend on the choice; the selection only fixes determinism.
    """
    require_variables(f)
    nv = f.nvars
    kappa = []
    chosen = []
    for j in range(nv):
        candidates = _graph_candidates(f, j)
        if not candidates:
            raise NoGraphMonomial(
                f"variable #{j + 1} heads no monomial x^a or x^a*y; "
                "the polynomial cannot define an isolated singularity"
            )
        candidates.sort(key=lambda c: c[:3])
        _, _, target, mono = candidates[0]
        kappa.append(target)
        chosen.append(mono)

    # undirected components of the functional graph
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in range(nv):
        parent[find(j)] = find(kappa[j])
    groups: dict[int, list[int]] = {}
    for j in range(nv):
        groups.setdefault(find(j), []).append(j)
    components = tuple(tuple(sorted(g)) for g in sorted(groups.values()))

    # the unique cycle per component: iterate kappa until a repeat
    cycles = []
    for comp in components:
        seen: dict[int, int] = {}
        v = comp[0]
        while v not in seen:
            seen[v] = len(seen)
            v = kappa[v]
        cycle_start = seen[v]
        walk = sorted(seen, key=seen.get)[cycle_start:]
        start = walk.index(min(walk))
        cycles.append(tuple(walk[start:] + walk[:start]))
    return SingularityGraph(tuple(kappa), tuple(chosen), components, tuple(cycles))


def fraction_free_solve(rows) -> tuple[int, tuple[int, ...]]:
    """det(E) and adj(E)*1 of a square integer matrix E, or (0, ()).

    Fraction-free Gauss-Jordan elimination of [E | 1] (Bareiss, Math.
    Comp. 22, 1968): each division by the previous pivot is exact, and
    the last pivot and column end as det(PE) and det(PE) E^-1 1 for the
    row permutation P of the pivoting.
    """
    n = len(rows)
    m = [[*row, 1] for row in rows]
    prev = sign = 1
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            return 0, ()
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for r, row in enumerate(m):
            if r != k:
                a = row[k]
                m[r] = [(pivot * x - a * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return sign * prev, tuple(sign * row[n] for row in m)


def exponent_matrix(graph: SingularityGraph) -> ExponentMatrix:
    rows = graph.monomial_of
    d, adj_ones = fraction_free_solve(rows)
    if d <= 0:
        raise SingularExponentMatrix(
            f"graph exponent matrix has determinant {d}; expected positive"
        )
    return ExponentMatrix(rows, d, adj_ones)


def solve_weights(f: Polynomial, e: ExponentMatrix) -> WeightSystem:
    """Weights d = adj(E)*1 over d0 = det(E), validated against every monomial of f."""
    d0, d = e.det, e.adj_ones
    for mono in sorted(f.terms):
        degree = sum(map(mul, mono, d))
        if degree != d0:
            raise NotQuasihomogeneous(
                f"monomial with exponents {mono} has weighted degree "
                f"{Fraction(degree, d0)}, not 1"
            )
    for k, dk in enumerate(d):
        if not 0 < 2 * dk <= d0:
            raise WeightOutOfRange(
                f"weight q_{k + 1} = {Fraction(dk, d0)} lies outside (0, 1/2]"
            )
    return WeightSystem(d0, d)


def analyze_weights(f: Polynomial) -> tuple[SingularityGraph, ExponentMatrix, WeightSystem]:
    """Convenience pipeline: graph, exponent matrix, weights."""
    graph = build_graph(f)
    e = exponent_matrix(graph)
    return graph, e, solve_weights(f, e)


def classify_invertible(f: Polynomial, graph: SingularityGraph) -> Classification:
    """Fermat/chain/loop decomposition when f has exactly N monomials."""
    nv = f.nvars
    if len(f.terms) != nv:
        return Classification(None, f"{len(f.terms)} monomials for {nv} variables")
    if set(graph.monomial_of) != set(f.terms) or len(set(graph.monomial_of)) != nv:
        extra = sorted(set(f.terms) - set(graph.monomial_of))
        return Classification(None, f"monomial {extra[0]} is not a graph monomial")
    atoms = []
    for comp, cycle in zip(graph.components, graph.cycles):
        tree = [v for v in comp if v not in cycle]
        exps = {v: graph.monomial_of[v][v] for v in comp}
        if not tree:
            if len(cycle) == 1:
                atoms.append(("fermat", cycle, (exps[cycle[0]],)))
            else:
                atoms.append(("loop", cycle, tuple(exps[v] for v in cycle)))
            continue
        if len(cycle) != 1:
            return Classification(None, f"component {comp} has a loop with attached vertices")
        root = cycle[0]
        indegree = {v: 0 for v in comp}
        for v in comp:
            if v != root:
                indegree[graph.kappa[v]] += 1
        if any(n > 1 for n in indegree.values()):
            return Classification(None, f"component {comp} branches; not a chain")
        leaves = [v for v in tree if indegree[v] == 0]
        if len(leaves) != 1:
            return Classification(None, f"component {comp} is not a single chain")
        path = [leaves[0]]
        while path[-1] != root:
            path.append(graph.kappa[path[-1]])
        atoms.append(("chain", tuple(path), tuple(exps[v] for v in path)))
    return Classification(tuple(atoms), None)


def transpose_polynomial(e: ExponentMatrix) -> TransposeResult:
    """Polynomial built from the columns of E, with its weight solution."""
    nv = len(e.rows)
    terms = {tuple(e.rows[j][i] for j in range(nv)): 1 for i in range(nv)}
    ft = Polynomial(nv, 1, terms)
    d0, d = fraction_free_solve(list(zip(*e.rows)))
    if not d0:
        raise SingularExponentMatrix("transpose system is singular")
    qt = tuple(Fraction(dk, d0) for dk in d)
    return TransposeResult(ft, qt, all(x > 0 for x in qt))
