"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum is a vector of rational coordinates in the power basis
1, z, ..., z^(D-1) of Q(zeta_n), where z = e[1/n] = exp(2*pi*i/n) and
D = deg Phi_n.  The coordinates are held as integer numerators over one
positive denominator in lowest terms, so every operation is integer
arithmetic with one gcd per result, and equal numbers have equal keys.
All arithmetic is exact; reduction uses the identities z^n = 1 and
Phi_n(z) = 0.

Binary operations accept ints and Fractions, which are coerced into the
field, but two CycNums are only combined when they live in the same
field; mixing conductors raises ConductorMismatch.  Embedding into a
larger field is always explicit via lift().
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .errors import ConductorMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # long division of integer polynomials, den monic, remainder known zero
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    if any(num[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first (monic)."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k-D is x^k mod Phi_n as D coefficients, for k in [D, n)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    if deg < n:
        cur = [-phi[j] for j in range(deg)]
        rows.append(tuple(cur))
        for _ in range(deg + 1, n):
            top = cur[deg - 1]
            cur = [0] + cur[: deg - 1]
            if top:
                first = rows[0]
                cur = [cur[j] + top * first[j] for j in range(deg)]
            rows.append(tuple(cur))
    return tuple(rows)


def _reduce(acc: list[int], n: int) -> tuple[int, ...]:
    """Integer coefficients of 1, z, z^2, ... (acc, consumed) in the power basis."""
    deg = len(cyclotomic_polynomial(n)) - 1
    for e in range(n, len(acc)):
        acc[e % n] += acc[e]
    del acc[n:]
    acc += [0] * (deg - len(acc))
    rows = _reduction_rows(n)
    for e in range(deg, len(acc)):
        c = acc[e]
        if c:
            for j, r in enumerate(rows[e - deg]):
                if r:
                    acc[j] += c * r
    return tuple(acc[:deg])


def _new(n: int, num: tuple[int, ...], den: int) -> "CycNum":
    """The CycNum num/den at conductor n, for den > 0, brought to lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple(a // g for a in num)
        den //= g
    x = object.__new__(CycNum)
    x.n = n
    x.num = num
    x.den = den
    return x


def _scale(x: "CycNum", p: int, q: int) -> "CycNum":
    """x * p/q for q > 0; x itself when p/q is 1."""
    if p == q:
        return x
    return _new(x.n, tuple(a * p for a in x.num), x.den * q)


def _combine(x: "CycNum", y: "CycNum", op) -> "CycNum":
    """x + y or x - y, as op is add or sub."""
    if x.den == y.den:
        return _new(x.n, tuple(map(op, x.num, y.num)), x.den)
    dx, dy = x.den, y.den
    return _new(x.n, tuple(op(a * dy, b * dx) for a, b in zip(x.num, y.num)), dx * dy)


class CycNum:
    """An element of Q(zeta_n): integer coordinates num over one denominator den.

    num holds one int per power-basis coordinate mod Phi_n and den > 0,
    with gcd(den, *num) = 1; zero is (0, ..., 0)/1.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coords) -> None:
        deg = len(cyclotomic_polynomial(n)) - 1
        c = [x if type(x) is Fraction else Fraction(x) for x in coords]
        if len(c) != deg:
            raise ValueError(f"need {deg} coordinates for conductor {n}, got {len(c)}")
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*(x.denominator for x in c))
        self.n = n
        self.num = tuple(x.numerator * (den // x.denominator) for x in c)
        self.den = den

    # -- constructors ----------------------------------------------------

    @staticmethod
    def rational(value, n: int = 1) -> "CycNum":
        deg = len(cyclotomic_polynomial(n)) - 1
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return _new(n, (q.numerator,) + (0,) * (deg - 1), q.denominator)

    @staticmethod
    def zero(n: int = 1) -> "CycNum":
        return CycNum.rational(0, n)

    @staticmethod
    def one(n: int = 1) -> "CycNum":
        return CycNum.rational(1, n)

    # -- structure -------------------------------------------------------

    def key(self):
        """Hashable identity (conductor, numerators, denominator) for dict keys."""
        return (self.n, self.num, self.den)

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def lift(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m) for any multiple m of the conductor."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ConductorMismatch(f"cannot lift conductor {self.n} into {m}")
        step = m // self.n
        acc = [0] * m
        for k, a in enumerate(self.num):
            acc[k * step] = a
        return _new(m, _reduce(acc, m), self.den)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "CycNum | None":
        if isinstance(other, CycNum):
            if other.n != self.n:
                raise ConductorMismatch(
                    f"conductors differ: {self.n} vs {other.n}; lift explicitly"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(other, self.n)
        return None

    def __add__(self, other):
        if other.__class__ is not CycNum or other.n != self.n:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _combine(self, other, add)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.n, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        if other.__class__ is not CycNum or other.n != self.n:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _combine(self, other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if other.__class__ is not CycNum or other.n != self.n:
            if isinstance(other, (int, Fraction)):
                return _scale(self, other.numerator, other.denominator)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        if not any(b[1:]):
            return _scale(self, b[0], other.den)
        if not any(a[1:]):
            return _scale(other, a[0], self.den)
        acc = [0] * (2 * len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    acc[k] += x * y
        return _new(self.n, _reduce(acc, self.n), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            p, zeros = self.num[0], self.num[1:]
            if p < 0:
                return _new(self.n, (-self.den,) + zeros, -p)
            return _new(self.n, (self.den,) + zeros, p)
        # extended Euclid in Q[x] on the numerators:
        # u*num + v*Phi_n = gcd (a nonzero constant)
        phi = [Fraction(x) for x in cyclotomic_polynomial(self.n)]
        r0, r1 = phi, [Fraction(a) for a in self.num]
        u0, u1 = [_ZERO], [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                # (num/den)^-1 = den * u / g, written over one denominator
                inv = [x / r1[0] for x in u1]
                d = lcm(*(x.denominator for x in inv))
                acc = [x.numerator * (d // x.denominator) * self.den for x in inv]
                return _new(self.n, _reduce(acc, self.n), d)
            # r0 = q*r1 + r2
            r2 = list(r0)
            q: dict[int, Fraction] = {}
            lead = r1[-1]
            d1 = len(r1) - 1
            for i in range(len(r2) - 1, d1 - 1, -1):
                c = r2[i]
                if c:
                    qc = c / lead
                    q[i - d1] = qc
                    for j in range(d1 + 1):
                        r2[i - d1 + j] -= qc * r1[j]
            u2 = list(u0) + [_ZERO] * max(0, len(u1) + max(q, default=0) - len(u0) + 1)
            for k, qc in q.items():
                for j, x in enumerate(u1):
                    if x:
                        u2[k + j] -= qc * x
            r0, r1 = r1, r2
            u0, u1 = u1, u2

    def __truediv__(self, other):
        if other.__class__ is CycNum and other.n == self.n:
            if any(other.num[1:]):
                return self * other.inverse()
            p, q = other.num[0], other.den
        elif isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
        else:
            self._coerce(other)  # raises ConductorMismatch for another conductor
            return NotImplemented
        if not p:
            raise ZeroDivisionError("division by zero")
        return _scale(self, q, p) if p > 0 else _scale(self, -q, -p)

    def __rtruediv__(self, other):
        # the left operand is never a CycNum: its __truediv__ answers first
        if isinstance(other, (int, Fraction)):
            return _scale(self.inverse(), other.numerator, other.denominator)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return self.is_rational() and self.num[0] * q == p * self.den
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.n != other.n:
            m = lcm(self.n, other.n)
            return self.lift(m).key() == other.lift(m).key()
        return self.num == other.num and self.den == other.den

    def __bool__(self) -> bool:
        return any(self.num)

    def __repr__(self) -> str:
        return f"CycNum({self.n}, {self.c})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.as_fraction())
        parts = []
        for k, x in enumerate(self.c):
            if x == 0:
                continue
            if k == 0:
                parts.append(str(x))
            else:
                z = f"e[{Fraction(k, self.n)}]"
                parts.append(z if x == 1 else f"({x})*{z}")
        return " + ".join(parts)


def _power(k: int, n: int) -> CycNum:
    """z^k in Q(zeta_n)."""
    acc = [0] * n
    acc[k % n] = 1
    return _new(n, _reduce(acc, n), 1)


@lru_cache(maxsize=None)
def root_of_unity(alpha, n: int | None = None) -> CycNum:
    """e[alpha] = exp(2*pi*i*alpha) as an exact cyclotomic number.

    alpha is a rational phase; the result lives in Q(zeta_n), where n
    defaults to the denominator of alpha and must be a multiple of it.
    """
    a = Fraction(alpha) % 1
    if n is None:
        n = a.denominator
    elif n % a.denominator != 0:
        raise ConductorMismatch(
            f"phase {a} does not live in the field of conductor {n}"
        )
    return _power(int(a * n), n)


@lru_cache(maxsize=None)
def phase_unit(k: int, n: int) -> CycNum:
    """e[k/2n] in Q(zeta_n): k counts half-steps of 1/n, taken mod 2n.

    An odd k is written as -e[(k - n)/2n]; it lives in Q(zeta_n) only
    at odd n.
    """
    k %= 2 * n
    if k % 2:
        if n % 2 == 0:
            raise ConductorMismatch(
                f"phase {Fraction(k, 2 * n)} does not live in the field of conductor {n}"
            )
        return -phase_unit(k - n, n)
    return _power(k // 2, n)


@lru_cache(maxsize=None)
def unit_phases(n: int) -> dict:
    """{phase_unit(k, n).key(): k} over every k mod 2n that phase_unit writes.

    Reads a root-of-unity coordinate back to its phase; shared per
    conductor, so callers must not modify it.
    """
    step = 1 if n % 2 else 2
    return {phase_unit(k, n).key(): k for k in range(0, 2 * n, step)}
