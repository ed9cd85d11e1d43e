"""The rank-4 period lattice of a split abelian surface and its degree form.

For exact points tau, sigma in the upper half-plane of the same imaginary
quadratic field, the lattice is generated inside K^2 by

    b1 = (1, 0),  b2 = (0, 1),  b3 = (tau/2, 1/2),  b4 = (1/2, sigma/2),

and carries the alternating pairing

    <z, w> = Tr(z1*conj(w1)/(b*delta) + z2*conj(w2)/(d*delta)),

where delta = sqrt(d) (purely imaginary under the fixed embedding), b and d
are the delta-coefficients of tau and sigma, and Tr is twice the rational
part.  A vector of K^2 has the rational coordinates (x1, y1, x2, y2) with
z_k = x_k + y_k*delta, and in them the pairing is the closed formula

    <z, w> = 2*(y1*x1' - x1*y1')/b + 2*(y2*x2' - x2*y2')/d,

a fixed rational matrix P per lattice.  The module handles vectors only
through these coordinates: bases are matrices of coordinate columns.  On
b1..b4 the pairing matrix B^T P B is the standard symplectic matrix, which
is checked for every lattice processed.

Maps to the curve with period lattice <1, tau> that fix base points are the
elements x of M = Lambda intersect tau^-1 Lambda; the degree of the map at x
is q(x) = <tau*x, x>, a positive definite integer-valued quadratic form on
the rank-4 module M.  Its Gram matrix is one product C^T S C per lattice,
with C the coordinates of a basis of M and S the symmetric part of the
pairing composed with tau.  Such products run in integers over one common
denominator; everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intlinalg as la
from .invariants import check
from .qforms import short_vector_values
from .quadfield import KElem

SYMPLECTIC_GRAM: la.IntMat = (
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
)


@dataclass(frozen=True)
class PeriodLattice:
    tau: KElem
    sigma: KElem

    def __post_init__(self):
        if self.tau.d != self.sigma.d:
            raise ValueError("tau and sigma must lie in the same field")
        if self.tau.q <= 0 or self.sigma.q <= 0:
            raise ValueError("tau and sigma must be in the upper half-plane")

    @property
    def d(self) -> int:
        return self.tau.d

    def basis_cols(self) -> la.RatMat:
        """Coordinates of b1..b4 as columns, read off the definition."""
        half = Fraction(1, 2)
        t, s = self.tau, self.sigma
        return (
            (1, 0, Fraction(t.p, 2 * t.r), half),
            (0, 0, Fraction(t.q, 2 * t.r), 0),
            (0, 1, half, Fraction(s.p, 2 * s.r)),
            (0, 0, 0, Fraction(s.q, 2 * s.r)),
        )

    def pairing_matrix(self) -> la.RatMat:
        """P with <z, w> = coords(z)^T P coords(w) (see the module docstring).

        With b = q/r the delta-coefficient of tau, 2/b = 2r/q; likewise for sigma.
        """
        t, s = self.tau, self.sigma
        u, v = Fraction(2 * t.r, t.q), Fraction(2 * s.r, s.q)
        return ((0, -u, 0, 0), (u, 0, 0, 0), (0, 0, 0, -v), (0, 0, v, 0))


def _mul_matrix(x: KElem, y: KElem) -> la.RatMat:
    """Matrix of (z1, z2) -> (x*z1, y*z2) on coordinates."""
    d = x.d
    xa, xb = Fraction(x.p, x.r), Fraction(x.q, x.r)
    ya, yb = Fraction(y.p, y.r), Fraction(y.q, y.r)
    return ((xa, d * xb, 0, 0), (xb, xa, 0, 0), (0, 0, ya, d * yb), (0, 0, yb, ya))


def polarization_gram(lat: PeriodLattice) -> la.IntMat:
    """Matrix B^T P B of the pairing on b1..b4; the principal-polarization check."""
    gram = la.gram(lat.basis_cols(), lat.pairing_matrix())
    check(all(x.denominator == 1 for row in gram for x in row),
          "pairing is not integral on the basis of %s", lat)
    return tuple(tuple(int(x) for x in row) for row in gram)


def maps_module(lat: PeriodLattice) -> la.RatMat:
    """Z-basis of M = Lambda intersect tau^-1 Lambda, as coordinate columns.

    Each basis vector is checked to lie in Lambda and to stay in Lambda
    after multiplication by tau; the index [Lambda : M] annihilates the
    quotient, which is also checked.
    """
    cols = lat.basis_cols()
    tinv = lat.tau.inv()
    inter = la.lattice_intersect(cols, la.matmul(_mul_matrix(tinv, tinv), cols))
    images = la.matmul(_mul_matrix(lat.tau, lat.tau), inter)
    check(la.in_lattice(cols, *la.transpose(inter), *la.transpose(images)),
          "a map does not send the lattice into itself")
    index = la.lattice_index(inter, cols)
    check(la.in_lattice(inter, *(tuple(index * x for x in col) for col in la.transpose(cols))),
          "the index does not annihilate Lambda/M")
    return inter


@dataclass(frozen=True)
class DegreeForm:
    """Gram matrix of the degree form on the module of maps (basis columns m_cols)."""

    m_cols: la.RatMat
    gram: la.RatMat

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.gram for x in row)

    def int_gram(self) -> la.IntMat:
        check(self.is_integral, "degree form is not integral")
        return tuple(tuple(int(x) for x in row) for row in self.gram)


def degree_gram(lat: PeriodLattice) -> DegreeForm:
    """Gram matrix of q(x) = <tau*x, x> on the basis of the maps module.

    q is integer-valued on the module (diagonal integral, off-diagonal at
    worst half-integral); positive definiteness is asserted, as a failure
    would indicate an upstream bug.
    """
    cs = maps_module(lat)
    # <tau*x, y> = x^T T^T P y for T the matrix of tau on coordinates; the
    # symmetric part of T^T P is the degree form on coordinates.
    t = _mul_matrix(lat.tau, lat.tau)
    tp = la.matmul(la.transpose(t), lat.pairing_matrix())
    sym = tuple(tuple((tp[i][j] + tp[j][i]) / 2 for j in range(4)) for i in range(4))
    gram = la.gram(cs, sym)
    for i in range(4):
        check(gram[i][i].denominator == 1 and gram[i][i] > 0,
              "degree form has a non-integral or non-positive diagonal")
        for j in range(4):
            check(gram[i][j] == gram[j][i], "degree form is not symmetric")
            check((2 * gram[i][j]).denominator == 1, "degree form is not half-integral")
    for k in range(1, 5):
        minor = tuple(row[:k] for row in gram[:k])
        check(la.det(minor) > 0, "degree form is not positive definite")
    return DegreeForm(cs, gram)


def diag_isomorphic(l1: PeriodLattice, l2: PeriodLattice) -> bool:
    """Certified isomorphism test for two polarized period lattices.

    Searches for scalars (lam, mu) with lam*<1,tau1> = <1,tau2> and
    mu*<1,sigma1> = <1,sigma2> such that diag(lam, mu) maps the first
    lattice onto the second; the pairing transport is verified explicitly.
    A True result is therefore a certificate that the two lattices present
    the same polarized surface (with matching first-factor curve); False
    means no diagonal witness exists.
    """
    from .bqf import lattice_scalings

    if l1.d != l2.d:
        return False
    cols1, cols2 = l1.basis_cols(), l2.basis_cols()
    for lam in lattice_scalings(l1.tau, l2.tau):
        for mu in lattice_scalings(l1.sigma, l2.sigma):
            icols = la.matmul(_mul_matrix(lam, mu), cols1)
            if not la.in_lattice(cols2, *la.transpose(icols)):
                continue
            if la.lattice_index(icols, cols2) != 1:
                continue
            check(
                la.gram(icols, l2.pairing_matrix()) == la.gram(cols1, l1.pairing_matrix()),
                "diagonal isomorphism does not transport the pairing",
            )
            return True
    return False


def represented_small_values(form: DegreeForm, bound: int = 31) -> frozenset[int]:
    """Values of the degree form on nonzero integer vectors, up to bound."""
    values = short_vector_values(form.gram, bound)
    out = set()
    for v in values:
        check(Fraction(v).denominator == 1, "degree form value %s is not an integer", v)
        out.add(int(v))
    return frozenset(out)


def is_candidate(form: DegreeForm, bound: int = 31) -> bool:
    """True iff the degree form takes exactly the values 2..bound (and not 1)."""
    return represented_small_values(form, bound) == frozenset(range(2, bound + 1))
