"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum is a vector of rational coordinates in the power basis
1, z, ..., z^(D-1) of Q(zeta_n), where z = e[1/n] = exp(2*pi*i/n) and
D = deg Phi_n.  All arithmetic is exact; reduction uses the identities
z^n = 1 and Phi_n(z) = 0.

Binary operations accept ints and Fractions, which are coerced into the
field, but two CycNums are only combined when they live in the same
field; mixing conductors raises ConductorMismatch.  Embedding into a
larger field is always explicit via lift().
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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


def _reduce(vals: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a sparse exponent->coefficient map to the power basis."""
    deg = len(cyclotomic_polynomial(n)) - 1
    acc = [_ZERO] * max(deg, n)
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


class CycNum:
    """An element of Q(zeta_n), held as exact coordinates mod Phi_n."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coords) -> None:
        deg = len(cyclotomic_polynomial(n)) - 1
        c = tuple(x if type(x) is Fraction else Fraction(x) for x in coords)
        if len(c) != deg:
            raise ValueError(f"need {deg} coordinates for conductor {n}, got {len(c)}")
        self.n = n
        self.c = c

    # -- constructors ----------------------------------------------------

    @staticmethod
    def rational(value, n: int = 1) -> "CycNum":
        deg = len(cyclotomic_polynomial(n)) - 1
        return CycNum(n, (Fraction(value),) + (_ZERO,) * (deg - 1))

    @staticmethod
    def zero(n: int = 1) -> "CycNum":
        return CycNum.rational(0, n)

    @staticmethod
    def one(n: int = 1) -> "CycNum":
        return CycNum.rational(1, n)

    # -- structure -------------------------------------------------------

    def key(self):
        """Hashable identity (conductor, coordinates) for use in dict keys."""
        return (self.n, self.c)

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.c[0]

    def lift(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m) for any multiple m of the conductor."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ConductorMismatch(f"cannot lift conductor {self.n} into {m}")
        step = m // self.n
        vals = {k * step: x for k, x in enumerate(self.c) if x}
        return CycNum(m, _reduce(vals, m))

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.n, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.n, tuple(-a for a in self.c))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.n, tuple(a - b for a, b in zip(self.c, o.c)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycNum(self.n, tuple(a * q for a in self.c))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            q = o.c[0]
            return CycNum(self.n, tuple(a * q for a in self.c))
        if self.is_rational():
            q = self.c[0]
            return CycNum(self.n, tuple(q * b for b in o.c))
        vals: dict[int, Fraction] = {}
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    if b:
                        k = i + j
                        vals[k] = vals.get(k, _ZERO) + a * b
        return CycNum(self.n, _reduce(vals, self.n))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            return CycNum.rational(1 / self.c[0], self.n)
        # extended Euclid in Q[x]: u*self + v*Phi_n = gcd (a nonzero constant)
        phi = [Fraction(x) for x in cyclotomic_polynomial(self.n)]
        r0, r1 = phi, list(self.c)
        u0, u1 = [_ZERO], [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                g = r1[0]
                inv = {k: x / g for k, x in enumerate(u1) if x}
                return CycNum(self.n, _reduce(inv, self.n))
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
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return CycNum(self.n, tuple(a / q for a in self.c))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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
            return self.is_rational() and self.c[0] == other
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.n == other.n:
            return self.c == other.c
        from math import lcm

        m = lcm(self.n, other.n)
        return self.lift(m).c == other.lift(m).c

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"CycNum({self.n}, {self.c})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.c[0])
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
    k = int(a * n)
    return CycNum(n, _reduce({k: _ONE}, n))


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
    return CycNum(n, _reduce({k // 2: _ONE}, n))


@lru_cache(maxsize=None)
def unit_phases(n: int) -> dict:
    """{phase_unit(k, n).key(): k} over every k mod 2n that phase_unit writes.

    Reads a root-of-unity coordinate back to its phase; shared per
    conductor, so callers must not modify it.
    """
    step = 1 if n % 2 else 2
    return {phase_unit(k, n).key(): k for k in range(0, 2 * n, step)}
