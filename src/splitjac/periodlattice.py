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
through these coordinates, and every rational matrix (the basis B and its
inverse, P, the multiplication matrices) as integer numerators over one
denominator.  On b1..b4 B^T P B is the standard symplectic matrix, checked
for every lattice: b1..b4 is a Z-basis, so Lambda is Z^4 in its coordinates
and is never put in HNF.

Maps to the curve with period lattice <1, tau> that fix base points are the
elements x of M = Lambda intersect tau^-1 Lambda, built for the sweep's 20
survivors only (``cmhom.glue`` decides the rest); the degree of the map at x
is q(x) = <tau*x, x>, a positive definite integer-valued quadratic form on
the rank-4 module M.  As Tr(tau/delta) = 2b, it is the norm-form sum

    q(z) = 2*N(z1) + 2*beta*N(z2),  beta = Im tau / Im sigma = b/d,

so on coordinates its Gram matrix is S = diag(2, -2n, 2*beta, -2n*beta) for
n = delta^2 the radicand.  On M it is G = C^T S C / D^2 for C/D the HNF
basis of M.  2G is always an integer matrix with an even diagonal, and the
module keeps it; q is integral iff the off-diagonal entries of 2G are even.

Two lattices present the same polarized surface, with the same first-factor
curve, iff some diag(lam, mu) with lam*<1, tau1> = <1, tau2> and
mu*<1, sigma1> = <1, sigma2> maps the first onto the second, and this is a
condition mod 2.  Lambda is L_E + L_F, for L_E = <1, tau> and
L_F = <1, sigma>, glued along the graph of psi: E[2] -> F[2], which b3 and
b4 define by tau/2 -> 1/2 and 1/2 -> sigma/2; in the bases (tau/2, 1/2) of
E[2] and (sigma/2, 1/2) of F[2], psi is the swap J.  For
g = ((a, b), (c, d)) in SL2(Z) with g(tau1) = tau2 and lam = 1/(c*tau1 + d),
lam*tau1 = d*tau2 - b and lam = a - c*tau2, so lam maps L_E1 onto L_E2 and
acts on E[2] by J*g*J mod 2; likewise h and mu for sigma.  diag(lam, mu)
maps L_E1 + L_F1 onto L_E2 + L_F2, of index 4 in either Lambda, so it maps
Lambda1 onto Lambda2 iff it carries the graph of J onto itself:
(J*h*J)*J = J*(J*g*J), that is h = J*g*J mod 2.  The signs of g and h
play no role mod 2.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from . import intlinalg as la
from .bqf import mat2_mod2, modular_witnesses, scaling
from .invariants import check
from .qforms import short_vector_values
from .quadfield import KElem

SYMPLECTIC_GRAM: la.IntMat = (
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
)


class PeriodLattice(namedtuple("PeriodLattice", "tau sigma")):
    """The period lattice of (tau, sigma): the tuple (tau, sigma), two points of
    the upper half-plane in one field.  The constructor checks both, and
    ``_make`` (so ``_replace`` too) and unpickling go through it."""

    __slots__ = ()

    def __new__(cls, tau: KElem, sigma: KElem) -> "PeriodLattice":
        if tau.d != sigma.d:
            raise ValueError("tau and sigma must lie in the same field")
        if tau.q <= 0 or sigma.q <= 0:
            raise ValueError("tau and sigma must be in the upper half-plane")
        return tuple.__new__(cls, (tau, sigma))

    @classmethod
    def _make(cls, iterable) -> "PeriodLattice":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

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

    def inverse_basis(self) -> tuple[int, la.IntMat]:
        """B^-1 as (den, numerators) by back substitution in basis_cols, den = P*Q
        for P and Q the y1-entry of b3 and the y2-entry of b4, built and checked
        on each call: ``maps_module`` makes one call, and ``diag_isomorphic``
        one only on a hit, when it certifies the isomorphism."""
        den, cols = self.basis_cols()
        (_, _, a, h), (_, _, p, _), (_, _, _, c), (_, _, _, q) = cols
        inv = ((p * q, -a * q, 0, -h * p), (0, -h * q, p * q, -c * p),
               (0, den * q, 0, 0), (0, 0, 0, den * p))
        check(la.matmul(inv, cols) == la.scaled(la.identity(4), p * q * den),
              "B^-1 B is not the identity for %s", self)
        return p * q, inv

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
    """M = Lambda intersect tau^-1 Lambda, as a lattice of coordinates: B*K, put
    in HNF, for K a basis of {u in Z^4 : R*u integral}, R = B^-1 T B the matrix
    of tau on b1..b4.  Checked: R*K is integral (tau*M lies in Lambda), and so
    is |det K|*R (the index [Lambda : M] = |det K| annihilates Lambda/M)."""
    den, cols = lat.basis_cols()
    iden, inv = lat.inverse_basis()
    tden, t = _mul_matrix(lat.tau, lat.tau)
    r, rden = la.matmul(inv, la.matmul(t, cols)), iden * tden * den
    k = la.congruence_kernel(r, rden)
    check(la.divided(la.matmul(r, k), rden) is not None,
          "a map does not send the lattice into itself")
    check(la.divided(la.scaled(r, abs(la.det(k))), rden) is not None,
          "the index does not annihilate Lambda/M")
    return la.lattice(den, la.matmul(cols, k))


def degree_gram(lat: PeriodLattice) -> la.IntMat:
    """2G for q(x) = <tau*x, x> on the basis of the maps module.

    q is integer-valued on the module (2G even on the diagonal, integral off
    it); positive definiteness is checked, as a failure would indicate an
    upstream bug.
    """
    m = maps_module(lat)
    # 2S = diag(4u, -4du, 4v, -4dv)/u on coordinates, for beta = v/u and d
    # the radicand.
    t, s, d = lat.tau, lat.sigma, lat.d
    u, v = t.r * s.q, t.q * s.r
    sym2 = ((4 * u, 0, 0, 0), (0, -4 * d * u, 0, 0), (0, 0, 4 * v, 0), (0, 0, 0, -4 * d * v))
    gram2 = la.divided(la.gram(m.basis, sym2), m.den * m.den * u)
    check(gram2 is not None, "degree form is not half-integral")
    for i in range(4):
        check(gram2[i][i] % 2 == 0 and gram2[i][i] > 0,
              "degree form has a non-integral or non-positive diagonal")
        for j in range(4):
            check(gram2[i][j] == gram2[j][i], "degree form is not symmetric")
    check(la.ldl(gram2) is not None, "degree form is not positive definite")
    return gram2


def diag_isomorphic(l1: PeriodLattice, l2: PeriodLattice) -> bool:
    """Certified isomorphism test for two polarized period lattices.

    Whether some diag(lam, mu), lam*<1,tau1> = <1,tau2> and
    mu*<1,sigma1> = <1,sigma2>, maps the first lattice onto the second, that
    is (module docstring) whether witnesses g of tau1 -> tau2 and h of
    sigma1 -> sigma2 (``bqf.modular_witnesses``) have h = J*g*J mod 2.  The
    witnesses h are keyed by their residues mod 2 and looked up for each g.
    Only on a hit is the explicit certificate built for its (lam, mu): S =
    B2^-1 diag(lam, mu) B1 is an integer matrix of determinant +-1, and the
    pairing is transported.  A failed certificate raises InvariantViolation.
    True is therefore a certificate that the two lattices present the same
    polarized surface (with matching first-factor curve); False means no
    diagonal witness exists.
    """
    hs = {mat2_mod2(h): h for h in modular_witnesses(l1.sigma, l2.sigma)}
    for g in modular_witnesses(l1.tau, l2.tau):
        (a, b), (c, d) = mat2_mod2(g)
        h = hs.get(((d, c), (b, a)))
        if h is None:
            continue
        den1, cols1 = l1.basis_cols()
        iden2, inv2 = l2.inverse_basis()
        mden, mmat = _mul_matrix(scaling(g, l1.tau), scaling(h, l1.sigma))
        den, icols = mden * den1, la.matmul(mmat, cols1)
        s = la.divided(la.matmul(inv2, icols), iden2 * den)
        check(s is not None and abs(la.det(s)) == 1,
              "diag(lam, mu) does not map %s onto %s unimodularly", l1, l2)
        check(_pairing_gram(l2, den, icols) == _pairing_gram(l1, den1, cols1),
              "diagonal isomorphism does not transport the pairing")
        return True
    return False


def represented_small_values(gram2: la.IntMat, bound: int) -> frozenset[int]:
    """Values of the degree form on nonzero integer vectors, up to bound, read off 2G.
    No stage calls it: it stays for the benchmark's tracer and the tests (ROADMAP item 2)."""
    out = set()
    for v in short_vector_values(gram2, 2 * bound):
        check(v % 2 == 0, "degree form value %s/2 is not an integer", v)
        out.add(v // 2)
    return frozenset(out)
