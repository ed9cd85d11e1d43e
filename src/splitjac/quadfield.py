"""Exact arithmetic in the imaginary quadratic field Q(sqrt(d)), d < 0 squarefree.

An element is the tuple (d, p, q, r) of the radicand and one canonical
integer triple standing for (p + q*sqrt(d))/r, with r > 0 and
gcd(p, q, r) = 1, so equal elements are equal tuples: equality, hashing and
immutability are the tuple's, and ordering is refused.  Every operation
runs on plain integers and ends with a single three-way gcd; no ``Fraction``
is built.  Where elements are put in order, their coefficients are read as
integers over a shared denominator (:func:`scaled`).

The complex embedding is fixed once: sqrt(d) is the square root on the
positive imaginary axis, so im((p + q*sqrt(d))/r) = (q/r)*sqrt(|d|) and the
upper half-plane is exactly {q > 0}.  All comparisons against circles and
vertical lines therefore reduce to integer comparisons in p, q, r and d.

Elements serialize as ``(p + q*sqrt(d))/r``, the canonical triple itself;
the round trip through :func:`KElem.from_string` is exact.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd

Mat2 = tuple[tuple[int, int], tuple[int, int]]

#: Largest |d| that ``KElem.from_string`` accepts.  Every field the proof
#: meets is Q(sqrt(d)) for the squarefree part d of a discriminant in the
#: lemma lists, where |delta| <= 4*35 = 140; the cap leaves a wide margin
#: while bounding the trial division (sqrt|d| steps) that validates d.
MAX_PARSED_RADICAND = 10**6

_KELEM_PATTERN = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(-?\d+)\s*\*\s*sqrt\(\s*(-?\d+)\s*\)\s*\)\s*/\s*(\d+)$"
)


def squarefree_part(n: int) -> int:
    """The squarefree part of n != 0, n over its largest square: -16 gives -1."""
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


class KElem(namedtuple("KElem", "d p q r")):
    """The element (p + q*sqrt(d))/r of Q(sqrt(d)): the tuple (d, p, q, r).

    ``KElem(d, p, q, r=1)`` takes the tuple's own fields, which must be ints
    with r != 0; it validates the radicand, makes r positive and divides out
    gcd(p, q, r).  It is where an element enters from outside, and
    ``_make`` (so ``_replace`` too) and unpickling go through it.  Arithmetic
    results, and :func:`from_triple`, skip the re-validation, since their
    radicand was already checked.  As the triple is canonical, equality,
    hashing and immutability are the tuple's; ordering is refused.
    """

    __slots__ = ()

    def __new__(cls, d: int, p: int, q: int, r: int = 1) -> "KElem":
        if any(type(x) is not int for x in (d, p, q, r)):
            raise TypeError(f"the fields of a field element must be ints, got {(d, p, q, r)!r}")
        if d >= 0 or not is_squarefree(d):
            raise ValueError(f"d must be negative and squarefree, got {d}")
        if r == 0:
            raise ValueError("the denominator r must not be 0")
        if r < 0:
            p, q, r = -p, -q, -r
        return from_triple(d, p, q, r)

    @classmethod
    def _make(cls, iterable) -> "KElem":
        """The element of a tuple (d, p, q, r), validated and made canonical."""
        d, p, q, r = iterable
        return cls(d, p, q, r)

    def __reduce__(self):
        return KElem, tuple(self)

    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented

    # -- field arithmetic ---------------------------------------------------

    def _operand(self, other):
        """(p, q, r) of other as an element of this field; None for other types."""
        if isinstance(other, KElem):
            if other.d != self.d:
                raise ValueError(f"mixed fields: sqrt({self.d}) vs sqrt({other.d})")
            return other.p, other.q, other.r
        if isinstance(other, int):
            return other, 0, 1
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(self.d, self.p, self.q, self.r, *o)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        return _sum(self.d, self.p, self.q, self.r, -p, -q, r)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        sp, sq = self.p, self.q
        return from_triple(self.d, sp * p + self.d * sq * q, sp * q + sq * p, self.r * r)

    __rmul__ = __mul__

    def inv(self) -> "KElem":
        return _quotient(self.d, 1, 0, 1, self.p, self.q, self.r)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _quotient(self.d, self.p, self.q, self.r, *o)

    # -- serialization ------------------------------------------------------

    def __str__(self) -> str:
        return f"({self.p} + {self.q}*sqrt({self.d}))/{self.r}"

    __repr__ = __str__

    @classmethod
    def from_string(cls, s: str) -> "KElem":
        m = _KELEM_PATTERN.match(s.strip())
        if m is None or int(m.group(5)) == 0:
            raise ValueError(f"cannot parse field element {s!r}")
        p, sign, q, d, r = m.groups()
        if abs(int(d)) > MAX_PARSED_RADICAND:
            raise ValueError(f"radicand {d} is outside |d| <= {MAX_PARSED_RADICAND}")
        q = int(q) if sign == "+" else -int(q)
        return cls(int(d), int(p), q, int(r))


def from_triple(d: int, p: int, q: int, r: int) -> KElem:
    """(p + q*sqrt(d))/r for integers with r > 0 and an already validated d.

    The triple is divided by gcd(p, q, r), which makes it canonical.
    """
    g = gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    return tuple.__new__(KElem, (d, p, q, r))


def scaled(z: KElem, den: int) -> tuple[int, int]:
    """The coefficients (p/r, q/r) of z times den, a multiple of z.r.

    Over one shared den, these integer pairs order as the rational
    coefficients do.
    """
    m = den // z.r
    return z.p * m, z.q * m


def _sum(d: int, p1: int, q1: int, r1: int, p2: int, q2: int, r2: int) -> KElem:
    """(p1 + q1*sqrt(d))/r1 + (p2 + q2*sqrt(d))/r2."""
    return from_triple(d, p1 * r2 + p2 * r1, q1 * r2 + q2 * r1, r1 * r2)


def _quotient(d: int, p1: int, q1: int, r1: int, p2: int, q2: int, r2: int) -> KElem:
    """(p1 + q1*sqrt(d))/r1 divided by (p2 + q2*sqrt(d))/r2.

    Multiplying through by the conjugate leaves the positive integer
    denominator r1*(p2^2 - d*q2^2).
    """
    n2 = p2 * p2 - d * q2 * q2
    if n2 == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt(d))")
    return from_triple(d, r2 * (p1 * p2 - d * q1 * q2), r2 * (q1 * p2 - p1 * q2), r1 * n2)


def mobius(m: Mat2, z: KElem) -> KElem:
    """Apply the fractional-linear map (az+b)/(cz+e) for an integer matrix.

    For z = (p + q*sqrt(d))/r put A = a*p + b*r and C = c*p + e*r; then the
    image is ((A*C - d*a*c*q^2) + (a*e - b*c)*q*r*sqrt(d)) / (C^2 - d*c^2*q^2).
    """
    (a, b), (c, e) = m
    det = a * e - b * c
    if det not in (1, -1):
        raise ValueError("matrix must have determinant +-1")
    d, p, q, r = z.d, z.p, z.q, z.r
    big_a, big_c, cq = a * p + b * r, c * p + e * r, c * q
    den = big_c * big_c - d * cq * cq
    if den == 0:
        raise ZeroDivisionError("Moebius map undefined: zero denominator")
    return from_triple(d, big_a * big_c - d * a * cq * q, det * q * r, den)


def check_disc(delta: int) -> None:
    """Raise ValueError unless delta is a negative discriminant, 0 or 1 mod 4."""
    if delta >= 0 or delta % 4 not in (0, 1):
        raise ValueError(f"not a negative discriminant: {delta}")

