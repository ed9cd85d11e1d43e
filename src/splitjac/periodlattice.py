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
through these coordinates, and every rational matrix (the basis B, P, the
multiplication matrices) as integer numerators over one denominator;
Lambda and its sublattices are ``intlinalg.Lattice`` values.  On b1..b4
B^T P B is the standard symplectic matrix, checked for every lattice.

Maps to the curve with period lattice <1, tau> that fix base points are the
elements x of M = Lambda intersect tau^-1 Lambda; the degree of the map at x
is q(x) = <tau*x, x>, a positive definite integer-valued quadratic form on
the rank-4 module M.  Its Gram matrix is G = C^T S C / D^2 for C/D the HNF
basis of M and S the symmetric part of the pairing composed with tau.  2G
is always an integer matrix with an even diagonal, and the module keeps it;
q is integral iff the off-diagonal entries of 2G are even.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from . import intlinalg as la
from .bqf import lattice_scalings
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

    def basis_cols(self) -> tuple[int, la.IntMat]:
        """Coordinates of b1..b4 as columns, read off the definition: (den, numerators)."""
        t, s = self.tau, self.sigma
        den = 2 * lcm(t.r, s.r)
        kt, ks, h = den // (2 * t.r), den // (2 * s.r), den // 2
        return den, (
            (den, 0, t.p * kt, h),
            (0, 0, t.q * kt, 0),
            (0, den, h, s.p * ks),
            (0, 0, 0, s.q * ks),
        )

    @cached_property
    def lattice(self) -> la.Lattice:
        """Lambda in HNF, built on the first use and kept with the object."""
        return la.lattice(*self.basis_cols())

    def pairing_matrix(self) -> tuple[int, la.IntMat]:
        """P with <z, w> = coords(z)^T P coords(w), as (den, numerators); 2/b = 2r/q."""
        t, s = self.tau, self.sigma
        den = lcm(t.q, s.q)
        u, v = 2 * t.r * (den // t.q), 2 * s.r * (den // s.q)
        return den, ((0, -u, 0, 0), (u, 0, 0, 0), (0, 0, 0, -v), (0, 0, v, 0))


def _mul_matrix(x: KElem, y: KElem) -> tuple[int, la.IntMat]:
    """Matrix of (z1, z2) -> (x*z1, y*z2) on coordinates, as (den, numerators)."""
    d = x.d
    den = lcm(x.r, y.r)
    kx, ky = den // x.r, den // y.r
    xa, xb, ya, yb = x.p * kx, x.q * kx, y.p * ky, y.q * ky
    return den, ((xa, d * xb, 0, 0), (xb, xa, 0, 0), (0, 0, ya, d * yb), (0, 0, yb, ya))


def _pairing_gram(lat: PeriodLattice, den: int, cols: la.IntMat) -> la.IntMat | None:
    """The pairing of lat on the columns cols/den, or None if it is not integral."""
    pden, p = lat.pairing_matrix()
    return la.divided(la.gram(cols, p), den * den * pden)


def polarization_gram(lat: PeriodLattice) -> la.IntMat:
    """Matrix B^T P B of the pairing on b1..b4; the principal-polarization check."""
    gram = _pairing_gram(lat, *lat.basis_cols())
    check(gram is not None, "pairing is not integral on the basis of %s", lat)
    return gram


def maps_module(lat: PeriodLattice) -> la.Lattice:
    """M = Lambda intersect tau^-1 Lambda, as a lattice of coordinates.

    Each basis vector is checked to stay in Lambda after multiplication by
    tau (M lies in Lambda by construction, which ``lattice_intersect`` and
    ``lattice_index`` check); the index [Lambda : M] annihilates the
    quotient, which is also checked.
    """
    lam = lat.lattice
    iden, tinv = _mul_matrix(lat.tau.inv(), lat.tau.inv())
    m = la.lattice_intersect(lam, la.lattice(iden * lam.den, la.matmul(tinv, lam.basis)))
    tden, t = _mul_matrix(lat.tau, lat.tau)
    images = la.transpose(la.matmul(t, m.basis))
    check(la.in_lattice(lam, tden * m.den, *images),
          "a map does not send the lattice into itself")
    index = la.lattice_index(m, lam)
    check(la.in_lattice(m, lam.den, *la.transpose(la.scaled(lam.basis, index))),
          "the index does not annihilate Lambda/M")
    return m


@dataclass(frozen=True)
class DegreeForm:
    """Twice the Gram matrix, 2G, of the degree form on the module of maps."""

    module: la.Lattice
    gram2: la.IntMat

    @property
    def is_integral(self) -> bool:
        return all(x % 2 == 0 for row in self.gram2 for x in row)

    def int_gram(self) -> la.IntMat:
        check(self.is_integral, "degree form is not integral")
        return tuple(tuple(x // 2 for x in row) for row in self.gram2)


def degree_gram(lat: PeriodLattice) -> DegreeForm:
    """2G for q(x) = <tau*x, x> on the basis of the maps module.

    q is integer-valued on the module (2G even on the diagonal, integral off
    it); positive definiteness is checked, as a failure would indicate an
    upstream bug.
    """
    m = maps_module(lat)
    # <tau*x, y> = x^T T^T P y for T the matrix of tau on coordinates; the
    # symmetric part of T^T P is the degree form on coordinates, and
    # T^T P + P^T T is twice it.
    tden, t = _mul_matrix(lat.tau, lat.tau)
    pden, p = lat.pairing_matrix()
    tp = la.matmul(la.transpose(t), p)
    sym2 = tuple(tuple(tp[i][j] + tp[j][i] for j in range(4)) for i in range(4))
    gram2 = la.divided(la.gram(m.basis, sym2), m.den * m.den * tden * pden)
    check(gram2 is not None, "degree form is not half-integral")
    for i in range(4):
        check(gram2[i][i] % 2 == 0 and gram2[i][i] > 0,
              "degree form has a non-integral or non-positive diagonal")
        for j in range(4):
            check(gram2[i][j] == gram2[j][i], "degree form is not symmetric")
    check(la.ldl(gram2) is not None, "degree form is not positive definite")
    return DegreeForm(m, gram2)


def diag_isomorphic(l1: PeriodLattice, l2: PeriodLattice) -> bool:
    """Certified isomorphism test for two polarized period lattices.

    Searches for scalars (lam, mu) with lam*<1,tau1> = <1,tau2> and
    mu*<1,sigma1> = <1,sigma2> such that diag(lam, mu) maps the first
    lattice onto the second; the pairing transport is verified explicitly.
    A True result is therefore a certificate that the two lattices present
    the same polarized surface (with matching first-factor curve); False
    means no diagonal witness exists.
    """
    if l1.d != l2.d:
        return False
    den1, cols1 = l1.basis_cols()
    lam2 = l2.lattice
    for lam in lattice_scalings(l1.tau, l2.tau):
        for mu in lattice_scalings(l1.sigma, l2.sigma):
            mden, mmat = _mul_matrix(lam, mu)
            den, icols = mden * den1, la.matmul(mmat, cols1)
            # onto: contained (a cheap test that usually fails), then equal HNFs
            if not la.in_lattice(lam2, den, *la.transpose(icols)) or la.lattice(den, icols) != lam2:
                continue
            check(_pairing_gram(l2, den, icols) == _pairing_gram(l1, den1, cols1),
                  "diagonal isomorphism does not transport the pairing")
            return True
    return False


def represented_small_values(form: DegreeForm, bound: int = 31) -> frozenset[int]:
    """Values of the degree form on nonzero integer vectors, up to bound (read off 2G)."""
    out = set()
    for v in short_vector_values(form.gram2, 2 * bound):
        check(v % 2 == 0, "degree form value %s/2 is not an integer", v)
        out.add(v // 2)
    return frozenset(out)
