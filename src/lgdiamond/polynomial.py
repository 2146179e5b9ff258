"""Sparse multivariate polynomials with exact cyclotomic coefficients.

A Polynomial stores {exponent tuple: nonzero CycNum} plus the number of
variables and the conductor shared by all coefficients.  Variable names
are not part of the data; parse() returns the name list it inferred so
callers can render results back in the user's names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import CycNum, root_of_unity
from .errors import MixedQuadraticError, PolySyntaxError

Monomial = tuple[int, ...]


class Polynomial:
    __slots__ = ("nvars", "n", "terms")

    def __init__(self, nvars: int, n: int, terms: dict | None = None) -> None:
        self.nvars = nvars
        self.n = n
        clean: dict[Monomial, CycNum] = {}
        for mono, coeff in (terms or {}).items():
            if not isinstance(coeff, CycNum):
                coeff = CycNum.rational(coeff, n)
            elif coeff.n != n:
                coeff = coeff.lift(n)
            if coeff:
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity")
                clean[tuple(mono)] = coeff
        self.terms = clean

    @classmethod
    def _make(cls, nvars: int, n: int, terms: dict) -> "Polynomial":
        """A polynomial over terms already nonzero, of arity nvars, at conductor n."""
        p = object.__new__(cls)
        p.nvars, p.n, p.terms = nvars, n, terms
        return p

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nvars: int, n: int = 1) -> "Polynomial":
        return Polynomial(nvars, n, {})

    @staticmethod
    def constant(value, nvars: int, n: int = 1) -> "Polynomial":
        return Polynomial(nvars, n, {(0,) * nvars: value})

    @staticmethod
    def monomial(mono: Monomial, coeff, nvars: int, n: int = 1) -> "Polynomial":
        return Polynomial(nvars, n, {tuple(mono): coeff})

    @staticmethod
    def variable(index: int, nvars: int, n: int = 1) -> "Polynomial":
        mono = tuple(1 if k == index else 0 for k in range(nvars))
        return Polynomial(nvars, n, {mono: 1})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def key(self):
        """Hashable identity for memoization."""
        return (self.nvars, self.n, tuple(sorted((m, c.key()) for m, c in self.terms.items())))

    def lift(self, m: int) -> "Polynomial":
        if m == self.n:
            return self
        return Polynomial(self.nvars, m, {mono: c.lift(m) for mono, c in self.terms.items()})

    def coefficient(self, mono: Monomial) -> CycNum:
        return self.terms.get(tuple(mono), CycNum.zero(self.n))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials have different variable counts")
        if self.n != other.n:
            raise ValueError("polynomials have different conductors; lift first")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = Polynomial.constant(other, self.nvars, self.n)
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            acc = c if acc is None else acc + c
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return Polynomial._make(self.nvars, self.n, terms)

    def __neg__(self):
        return Polynomial._make(self.nvars, self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = Polynomial.constant(other, self.nvars, self.n)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            if isinstance(other, CycNum):
                scale = other if other.n == self.n else other.lift(self.n)
            else:
                scale = CycNum.rational(other, self.n)
            terms = {m: c * scale for m, c in self.terms.items()} if scale else {}
            return Polynomial._make(self.nvars, self.n, terms)
        self._check(other)
        terms: dict[Monomial, CycNum] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                acc = terms.get(mono)
                acc = prod if acc is None else acc + prod
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        return Polynomial._make(self.nvars, self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1, self.nvars, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        m = lcm(self.n, other.n)
        return self.lift(m).terms == other.lift(m).terms

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"

    # -- calculus --------------------------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        terms: dict[Monomial, CycNum] = {}
        for mono, c in self.terms.items():
            e = mono[index]
            if e:
                lowered = tuple(x - 1 if k == index else x for k, x in enumerate(mono))
                acc = terms.get(lowered)
                add = c * e
                acc = add if acc is None else acc + add
                if acc:
                    terms[lowered] = acc
                else:
                    terms.pop(lowered, None)
        return Polynomial._make(self.nvars, self.n, terms)

    def substitute_monomial(self, targets: list[int], scales: list[CycNum]) -> "Polynomial":
        """Apply the substitution x_i -> scales[i] * x_targets[i]."""
        terms: dict[Monomial, CycNum] = {}
        for mono, c in self.terms.items():
            new = [0] * self.nvars
            coeff = c
            for i, e in enumerate(mono):
                if e:
                    new[targets[i]] += e
                    coeff = coeff * scales[i] ** e
            key = tuple(new)
            acc = terms.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return Polynomial._make(self.nvars, self.n, terms)

    # -- display ---------------------------------------------------------

    def to_string(self, names: list[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"x{k + 1}" for k in range(self.nvars)]
        parts = []
        for mono in sorted(self.terms, key=lambda m: (-sum(m), m)):
            c = self.terms[mono]
            factors = [
                names[k] if e == 1 else f"{names[k]}^{e}"
                for k, e in enumerate(mono)
                if e
            ]
            body = "*".join(factors)
            cs = str(c)
            if not factors:
                parts.append(f"({cs})" if ("+" in cs or "*" in cs) else cs)
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            elif ("+" in cs) or ("*" in cs) or ("/" in cs and not c.is_rational()):
                parts.append(f"({cs})*{body}")
            else:
                parts.append(f"{cs}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


# bits per exponent slot while the degrees allow, the top one a guard bit
_SLOT_BITS = 8


class Slots:
    """Monomials packed into ints, for degrees below cap.

    Variable i owns bits [S i, S i + S) of an exponent vector E, whose top
    bit (in guard) stays clear, so a | b when ((E_b | guard) - E_a) & guard
    is guard (Bachmann and Schoenemann, ISSAC 1998).  The key of a monomial
    is (degree << S nvars) - E: keys order as grevlex, a product of
    monomials is a sum of keys, and E = -key & mask.
    """

    __slots__ = ("nvars", "bits", "mask", "guard", "cap")

    def __init__(self, nvars: int, degree: int) -> None:
        bits = max(_SLOT_BITS, degree.bit_length() + 1)
        self.nvars, self.bits, self.cap = nvars, bits, 1 << bits - 1
        self.mask = (1 << bits * nvars) - 1
        self.guard = self.mask // ((1 << bits) - 1) << bits - 1

    def key(self, mono: Monomial) -> int:
        e = 0
        for x in reversed(mono):
            e = e << self.bits | x
        return (sum(mono) << self.bits * self.nvars) - e

    def mono(self, key: int) -> Monomial:
        return self.exponents(-key & self.mask)

    def exponents(self, e: int) -> Monomial:
        low = (1 << self.bits) - 1
        return tuple([e >> s & low for s in range(0, self.bits * self.nvars, self.bits)])


def hessian_determinant(f: Polynomial) -> Polynomial:
    """Determinant of the matrix of second partial derivatives.

    The second partials come from one pass over f's terms, as packed keys
    (Slots), and each minor on the last rows is keyed by the bitmask of its
    columns and expanded along its first row.
    """
    nv = f.nvars
    slots = Slots(nv, nv * max(map(sum, f.terms), default=0))
    units = [slots.key(tuple(int(k == i) for k in range(nv))) for i in range(nv)]
    h = [[{} for _ in range(nv)] for _ in range(nv)]
    for mono, c in f.terms.items():
        key = slots.key(mono)
        for i, ei in enumerate(mono):
            for j, ej in enumerate(mono):
                if ei and ej > (i == j):
                    h[i][j][key - units[i] - units[j]] = c * (ei * (ej - (i == j)))
    memo: dict[int, dict[int, CycNum]] = {0: {0: CycNum.one(f.n)}}

    def minor(cols: int) -> dict[int, CycNum]:
        got = memo.get(cols)
        if got is None:
            got = {}
            for c, entry in enumerate(h[nv - cols.bit_count()]):
                if not (cols >> c & 1 and entry):
                    continue
                sub = minor(cols ^ 1 << c)
                # the sign of the column's position among the minor's columns
                odd = (cols & (1 << c) - 1).bit_count() & 1
                for k1, c1 in entry.items():
                    c1 = -c1 if odd else c1
                    for k2, c2 in sub.items():
                        k, term = k1 + k2, c1 * c2
                        acc = got.get(k)
                        got[k] = term if acc is None else acc + term
            got = memo[cols] = {k: c for k, c in got.items() if c}
        return got

    det = minor((1 << nv) - 1)
    return Polynomial._make(nv, f.n, {slots.mono(k): c for k, c in det.items()})


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, through one gcd."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


@dataclass(frozen=True)
class WeightSystem:
    """Integral weights d and degree d0 with reduced weights q = d/d0.

    analyze_weights takes d0 = det(E) for the exponent matrix E and
    d = adj(E)*1, so gcd(d0, d_1, ..., d_N) may exceed 1 (it is 625 on
    the Fermat quintic); reports print this d0, not the lowest terms.
    """

    d0: int
    d: tuple[int, ...]
    q: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", tuple(Fraction(dk, self.d0) for dk in self.d))

    @property
    def nvars(self) -> int:
        return len(self.d)

    @property
    def q_sum(self) -> Fraction:
        return sum(self.q, Fraction(0))

    @property
    def central_charge(self) -> Fraction:
        return sum((1 - 2 * qk for qk in self.q), Fraction(0))

    @property
    def is_calabi_yau(self) -> bool:
        return self.q_sum == 1


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()\[\]^+\-*/]))")

_NUM, _NAME, _OP = 1, 2, 3


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise PolySyntaxError(f"unexpected character at: {tail[:20]!r}")
        if m.group(_NUM):
            out.append(("num", int(m.group(_NUM))))
        elif m.group(_NAME):
            out.append(("name", m.group(_NAME)))
        else:
            op = m.group(_OP)
            out.append(("op", "^" if op == "**" else op))
        pos = m.end()
    return out


def _natural_key(name: str):
    m = re.fullmatch(r"([A-Za-z_]+)(\d*)", name)
    if m is None:
        return (name, 0)
    return (m.group(1), int(m.group(2) or 0))


class _Parser:
    def __init__(self, tokens, var_index: dict[str, int], nvars: int, n: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.vars = var_index
        self.nvars = nvars
        self.n = n

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise PolySyntaxError(f"expected {op!r}, found {val!r}")

    def parse_expression(self) -> Polynomial:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        acc = self.parse_term() * sign
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                term = self.parse_term()
                acc = acc + term if val == "+" else acc - term
            else:
                return acc

    def parse_term(self) -> Polynomial:
        acc = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = acc * self.parse_factor()
            elif kind == "op" and val == "/":
                self.take()
                divisor = self.parse_factor()
                if set(divisor.terms) - {(0,) * self.nvars}:
                    raise PolySyntaxError("division is only allowed by constants")
                if divisor.is_zero():
                    raise ZeroDivisionError("division by zero in polynomial expression")
                c = divisor.terms[(0,) * self.nvars]
                acc = acc * c.inverse()
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise PolySyntaxError("missing '*' between factors")
            else:
                return acc

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise PolySyntaxError("exponent must be a nonnegative integer")
            return base**val
        return base

    def parse_atom(self) -> Polynomial:
        kind, val = self.take()
        if kind == "num":
            return Polynomial.constant(val, self.nvars, self.n)
        if kind == "op" and val == "(":
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.parse_atom()
        if kind == "name":
            nxt_kind, nxt_val = self.peek()
            if val == "e" and nxt_kind == "op" and nxt_val == "[":
                self.take()
                phase = self.parse_rational()
                self.expect_op("]")
                return Polynomial.constant(root_of_unity(phase, self.n), self.nvars, self.n)
            if val not in self.vars:
                raise PolySyntaxError(f"unknown variable {val!r}")
            return Polynomial.variable(self.vars[val], self.nvars, self.n)
        raise PolySyntaxError(f"unexpected token {val!r}")

    def parse_rational(self) -> Fraction:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        kind, val = self.take()
        if kind != "num":
            raise PolySyntaxError("expected a rational number")
        num = val
        kind, val = self.peek()
        if kind == "op" and val == "/":
            self.take()
            kind, den = self.take()
            if kind != "num" or den == 0:
                raise PolySyntaxError("expected a nonzero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def _phase_conductor(tokens) -> int:
    """lcm of denominators of every e[...] phase in the token stream."""
    n = 1
    for idx, (kind, val) in enumerate(tokens):
        if kind == "name" and val == "e" and idx + 1 < len(tokens):
            if tokens[idx + 1] == ("op", "["):
                j = idx + 2
                ints = []
                while j < len(tokens) and tokens[j] != ("op", "]"):
                    if tokens[j][0] == "num":
                        ints.append(tokens[j][1])
                    j += 1
                if len(ints) == 2 and ints[1]:
                    n = lcm(n, Fraction(ints[0], ints[1]).denominator)
    return n


def check_no_mixed_quadratics(f: Polynomial) -> None:
    for mono in f.terms:
        if sum(mono) == 2 and sum(1 for e in mono if e) == 2:
            raise MixedQuadraticError(
                "monomial with two distinct variables of degree one each; "
                "remove quadratic cross terms by a linear change of coordinates"
            )


def parse_polynomial(
    text: str,
    variables: list[str] | None = None,
    allow_mixed_quadratics: bool = False,
) -> tuple[Polynomial, list[str]]:
    """Parse an expression like '2*x1^3*x2 - e[1/3]*x2^2 + 1/2'.

    Returns the polynomial and the ordered variable names.  When the
    variable list is not given, names are collected from the expression
    and ordered naturally (x2 before x10).  Monomials x_i*x_j with two
    distinct degree-one variables are rejected unless explicitly allowed.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolySyntaxError("empty polynomial expression")
    if variables is None:
        seen = []
        for idx, (kind, val) in enumerate(tokens):
            if kind != "name":
                continue
            if val == "e" and idx + 1 < len(tokens) and tokens[idx + 1] == ("op", "["):
                continue
            if val not in seen:
                seen.append(val)
        variables = sorted(seen, key=_natural_key)
    names = list(variables)
    n = _phase_conductor(tokens)
    parser = _Parser(tokens, {v: k for k, v in enumerate(names)}, len(names), n)
    poly = parser.parse_expression()
    if parser.pos != len(parser.tokens):
        raise PolySyntaxError(f"trailing input near {parser.peek()[1]!r}")
    if not allow_mixed_quadratics:
        check_no_mixed_quadratics(poly)
    return poly, names
