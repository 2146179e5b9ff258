"""lgdiamond: bigraded state spaces of Landau-Ginzburg orbifolds.

Given a quasihomogeneous polynomial with an isolated critical point at
the origin and a finite group of monomial-matrix symmetries, this
package computes the orbifold state space sector by sector, assembles
its Hodge diamond, and checks the expected symmetry and duality
properties of that diamond.

The usual pipeline:

    >>> from lgdiamond import (
    ...     StateSpace, analyze_weights, assemble_diamond,
    ...     generate_group, make_jf, parse_polynomial, verify_theorem,
    ... )
    >>> f, names = parse_polynomial("x1^3 + x2^3 + x3^3")
    >>> _, _, w = analyze_weights(f)
    >>> group = generate_group([make_jf(w)], f)
    >>> state = StateSpace(f, w, group, names)
    >>> assemble_diamond(state)[1]
    [[1, 1], [1, 1]]

Importing the package imports none of its modules: each name below is
imported from its module on first access, so code that uses only the
Milnor layer (polynomials, weights, Jacobian rings) never compiles the
group and state-space modules.
"""

from importlib import import_module

# each public name and the module that defines it
_SOURCE = {
    "GroupElement": "symmetry",
    "LgError": "errors",
    "MissingJ": "errors",
    "NonIntegerCharge": "errors",
    "NotInSL": "errors",
    "NotIsolated": "errors",
    "Polynomial": "polynomial",
    "PreconditionFailed": "errors",
    "StateSpace": "statespace",
    "WeightSystem": "polynomial",
    "analyze_weights": "quasihom",
    "assemble_diamond": "statespace",
    "classify_invertible": "quasihom",
    "diagonal_symmetries": "symmetry",
    "duality_check": "statespace",
    "generate_group": "symmetry",
    "invariant_basis": "statespace",
    "make_jf": "symmetry",
    "milnor_number": "jacobian",
    "parse_polynomial": "polynomial",
    "poincare_dimensions": "jacobian",
    "quotient_ring": "jacobian",
    "transpose_check": "statespace",
    "transpose_polynomial": "quasihom",
    "verify_theorem": "statespace",
}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
