"""Exact arithmetic in the imaginary quadratic field Q(sqrt(d)), d < 0 squarefree.

An element is an exact pair (a, b) of rationals standing for a + b*sqrt(d).
The complex embedding is fixed once: sqrt(d) is the square root on the
positive imaginary axis, so im(a + b*sqrt(d)) = b*sqrt(|d|) and the upper
half-plane is exactly {b > 0}.  All comparisons against circles and vertical
lines therefore reduce to exact rational arithmetic on a, b and d.

Elements serialize as ``(p + q*sqrt(d))/r`` with integers p, q, r > 0; the
round trip through :func:`KElem.from_string` is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

Mat2 = tuple[tuple[int, int], tuple[int, int]]

_KELEM_PATTERN = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(-?\d+)\s*\*\s*sqrt\(\s*(-?\d+)\s*\)\s*\)\s*/\s*(\d+)$"
)


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor of n carrying n's sign (n != 0)."""
    m = abs(n)
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e % 2:
                out *= p
        p += 1 if p == 2 else 2
    out *= m
    return -out if n < 0 else out


def is_squarefree(n: int) -> bool:
    return squarefree_part(n) == n


@dataclass(frozen=True)
class KElem:
    """The element a + b*sqrt(d) of Q(sqrt(d)), stored exactly.

    The constructor validates the radicand; it is where an element enters
    from outside.  Arithmetic results are built by :func:`_elem` without
    re-validation, since their operands were already checked.
    """

    d: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.d >= 0 or not is_squarefree(self.d):
            raise ValueError(f"d must be negative and squarefree, got {self.d}")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    # -- basic invariants ---------------------------------------------------

    @property
    def re(self) -> Fraction:
        return self.a

    @property
    def im_coeff(self) -> Fraction:
        """Coefficient of sqrt(d); the true imaginary part is b*sqrt(|d|)."""
        return self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def conj(self) -> "KElem":
        return _elem(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        """a^2 - d*b^2; nonnegative since d < 0, and zero only at zero."""
        return self.a * self.a - self.d * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def abs2(self) -> Fraction:
        """Squared complex absolute value under the fixed embedding."""
        return self.norm()

    # -- field arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, KElem):
            if other.d != self.d:
                raise ValueError(f"mixed fields: sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return _elem(self.d, Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _elem(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _elem(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _elem(self.d, o.a - self.a, o.b - self.b)

    def __neg__(self):
        return _elem(self.d, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _elem(
            self.d,
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inv(self) -> "KElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _elem(self.d, self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    # -- serialization ------------------------------------------------------

    def __str__(self) -> str:
        r = lcm(self.a.denominator, self.b.denominator)
        p = int(self.a * r)
        q = int(self.b * r)
        return f"({p} + {q}*sqrt({self.d}))/{r}"

    __repr__ = __str__

    @classmethod
    def from_string(cls, s: str) -> "KElem":
        m = _KELEM_PATTERN.match(s.strip())
        if m is None:
            raise ValueError(f"cannot parse field element {s!r}")
        p, sign, q, d, r = m.groups()
        q = int(q) if sign == "+" else -int(q)
        return cls(int(d), Fraction(int(p), int(r)), Fraction(q, int(r)))


def _elem(d: int, a: Fraction, b: Fraction) -> KElem:
    """KElem(d, a, b) for a validated d and Fraction a, b, without re-validation."""
    z = object.__new__(KElem)
    vars(z).update(d=d, a=a, b=b)
    return z


def mobius(m: Mat2, z: KElem) -> KElem:
    """Apply the fractional-linear map (az+b)/(cz+d) for an integer matrix."""
    (a, b), (c, d) = m
    if a * d - b * c not in (1, -1):
        raise ValueError("matrix must have determinant +-1")
    den = c * z + d
    if den.is_zero():
        raise ZeroDivisionError("Moebius map undefined: zero denominator")
    return (a * z + b) / den


@dataclass(frozen=True)
class Disc:
    """A negative quadratic discriminant: value < 0, value = 0 or 1 mod 4."""

    value: int

    def __post_init__(self):
        if self.value >= 0 or self.value % 4 not in (0, 1):
            raise ValueError(f"not a negative discriminant: {self.value}")

    @property
    def field_d(self) -> int:
        """Squarefree radicand of the field Q(sqrt(value))."""
        return squarefree_part(self.value)

    @property
    def fundamental(self) -> int:
        d0 = self.field_d
        return d0 if d0 % 4 == 1 else 4 * d0

    @property
    def conductor(self) -> int:
        f2, rem = divmod(self.value, self.fundamental)
        assert rem == 0
        f = isqrt(f2)
        assert f * f == f2
        return f

    @property
    def is_fundamental(self) -> bool:
        return self.conductor == 1

    def sqrt_elem(self) -> KElem:
        """sqrt(value) as an element of Q(sqrt(field_d)), upper half-plane."""
        d0 = self.field_d
        t = self.conductor * (1 if d0 % 4 == 1 else 2)
        assert t * t * d0 == self.value
        return KElem(d0, Fraction(0), Fraction(t))


def as_disc(delta) -> Disc:
    return delta if isinstance(delta, Disc) else Disc(int(delta))
