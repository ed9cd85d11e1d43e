"""Binary quadratic forms, CM points, and strict fundamental domains.

Conventions, fixed once for the whole package:

* Strict fundamental domain F1 for the full modular group:
      {|z| > 1, -1/2 <= Re z < 1/2}  union  {|z| = 1, -1/2 <= Re z <= 0},
  i.e. left vertical edge and left half of the unit arc included, right
  versions excluded.  Roots of reduced forms (with the usual b >= 0 rule on
  the boundary) land exactly in this set.

* Strict fundamental domain F2 for the level-2 congruence subgroup: the
  region -1/2 <= Re z < 3/2 above the arcs |z+1| = 1 (excluded), |z-1/3| =
  1/3 (included), |z-2/3| = 1/3 (excluded) and |z-2| = 1 (included), with the
  corner (-1+sqrt(-3))/2 included and its translates (3+sqrt(-3))/6 and
  (3+sqrt(-3))/2 excluded.  The closure of F2 is tiled by the images of the
  closure of F1 under the six maps z, -1/z, -1/(z-1), z/(z+1), (z-1)/z, z+1,
  which represent the six cosets of the level-2 subgroup.

All boundary decisions are exact rational comparisons; nothing is ever
resolved numerically.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .invariants import check
from .quadfield import KElem, Mat2, check_disc, from_triple, mobius, squarefree_part

IDENTITY: Mat2 = ((1, 0), (0, 1))
S_MAT: Mat2 = ((0, -1), (1, 0))


def mat2_mul(m: Mat2, n: Mat2) -> Mat2:
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat2_inv(m: Mat2) -> Mat2:
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise ValueError("matrix is not in SL2(Z)")
    return ((d, -b), (-c, a))


def mat2_mod2(m: Mat2) -> Mat2:
    return ((m[0][0] % 2, m[0][1] % 2), (m[1][0] % 2, m[1][1] % 2))


# -- binary quadratic forms ------------------------------------------------


@lru_cache(maxsize=None)
def reduced_forms(delta) -> tuple[tuple[int, int, int], ...]:
    """The reduced primitive forms a*x^2 + b*x*y + c*y^2 of discriminant
    delta, as sorted (a, b, c) triples; their count is h(delta).

    Reduced means |b| <= a <= c (the loop ranges), and b >= 0 if |b| = a or
    a = c.
    """
    check_disc(delta)
    out = []
    bmax = isqrt(-delta // 3)
    for b in range(-bmax, bmax + 1):
        # b = delta (mod 2) makes b^2 - delta divisible by 4.
        if (b - delta) % 2:
            continue
        ac = (b * b - delta) // 4
        for a in range(max(abs(b), 1), isqrt(ac) + 1):
            if ac % a:
                continue
            c = ac // a
            if (b >= 0 or (-b != a and a != c)) and gcd(a, b, c) == 1:
                out.append((a, b, c))
    return tuple(sorted(out))


# -- strict fundamental domain F1 -------------------------------------------


def in_F1(z: KElem) -> bool:
    """Strict membership in F1, in integers.

    For z = (p + q*sqrt(d))/r, |z|^2 against 1 compares p^2 - d*q^2 with r^2,
    and Re z against -1/2, 0 and 1/2 compares 2p with -r, 0 and r.
    """
    d, p, q, r = z.d, z.p, z.q, z.r
    if q <= 0:
        return False
    n, rr = p * p - d * q * q, r * r
    if n > rr:
        return -r <= 2 * p < r
    if n == rr:
        return -r <= 2 * p <= 0
    return False


def reduce_to_F1(z: KElem) -> tuple[KElem, Mat2]:
    """Gauss-reduce z into strict F1; returns (z', m) with z' = m(z).

    Runs on the integer triple (p, q, r) of z = (p + q*sqrt(d))/r: the shift
    by t = floor(Re z + 1/2) = (2p + r) // (2r) maps p to p - t*r, and
    z -> -1/z maps the triple to (-r*p, r*q, p^2 - d*q^2) before the gcd.
    """
    d, p, q, r = z.d, z.p, z.q, z.r
    if q <= 0:
        raise ValueError("point is not in the upper half-plane")
    m = IDENTITY
    while True:
        t = (2 * p + r) // (2 * r)
        if t:
            p -= t * r
            m = mat2_mul(((1, -t), (0, 1)), m)
        n, rr = p * p - d * q * q, r * r
        if n < rr or (n == rr and p > 0):
            p, q, r = -r * p, r * q, n
            g = gcd(p, q, r)
            p, q, r = p // g, q // g, r // g
            m = mat2_mul(S_MAT, m)
        else:
            break
    z = from_triple(d, p, q, r)
    check(in_F1(z), "reduction of %s left strict F1", z)
    return z, m


def form_class_points(delta) -> tuple[KElem, ...]:
    """One strict-F1 point per ideal class: the roots (-b + t*sqrt(d0))/(2a)
    of the reduced forms (a, b, c), for sqrt(delta) = t*sqrt(d0) with d0 the
    squarefree part of delta and t > 0.

    Works for any class number; the roots land in strict F1 by construction.
    """
    d0 = squarefree_part(delta)
    t2, rem = divmod(delta, d0)
    t = isqrt(t2)
    check(rem == 0 and t * t == t2, "sqrt(%d) is not t*sqrt(%d)", delta, d0)
    points = []
    for a, b, c in reduced_forms(delta):
        z = from_triple(d0, -b, t, 2 * a)
        check(in_F1(z), "root of %s is not in strict F1", (a, b, c))
        points.append(z)
    return tuple(points)


def cm_points_F1(delta) -> tuple[KElem, ...]:
    """Class points for a discriminant of class number 1 or 2.

    The classification survivors all have class number at most 2; anything
    larger is out of scope here (use :func:`form_class_points` for sweeps
    over wider input data).
    """
    points = form_class_points(delta)
    check(1 <= len(points) <= 2, "class number %d out of scope for %d", len(points), delta)
    return points


# -- the six level-2 cosets and strict F2 ------------------------------------

TILES: tuple[tuple[str, Mat2], ...] = (
    ("z", IDENTITY),
    ("-1/z", S_MAT),
    ("-1/(z-1)", ((0, -1), (1, -1))),
    ("z/(z+1)", ((1, 0), (1, 1))),
    ("(z-1)/z", ((1, -1), (1, 0))),
    ("z+1", ((1, 1), (0, 1))),
)

_TILE_BY_MOD2 = {mat2_mod2(m): m for _, m in TILES}
check(len(_TILE_BY_MOD2) == 6, "the six tiles do not represent the six level-2 cosets")


def gamma2_tiles(tau: KElem) -> tuple[tuple[str, KElem], ...]:
    """Images of a strict-F1 point under the six coset maps.

    These are the candidate second periods attached to a fixed curve class;
    they cover every level-2 class in the full-modular-group orbit.
    """
    if not in_F1(tau):
        raise ValueError("tile expansion expects a strict-F1 representative")
    return tuple((label, mobius(m, tau)) for label, m in TILES)


_RHO = from_triple(-3, -1, 1, 2)
_I = from_triple(-1, 0, 1, 1)


def _circle_side(z: KElem, num: int, den: int, k: int = 1) -> int:
    """Sign of |z - num/den|^2 - 1/k^2, in integers.

    For z = (p + q*sqrt(d))/r this is the sign of
    ((p*den - num*r)*k)^2 - d*(q*den*k)^2 - (r*den)^2.
    """
    x = (z.p * den - num * z.r) * k
    y = z.q * den * k
    lhs = x * x - z.d * y * y
    rhs = (z.r * den) ** 2
    return (lhs > rhs) - (lhs < rhs)


def in_F2(z: KElem) -> bool:
    """Strict membership in F2, boundary rules as in the module docstring."""
    if z.q <= 0:
        return False
    if not -z.r <= 2 * z.p < 3 * z.r:
        return False
    left = _circle_side(z, -1, 1)
    if left < 0 or (left == 0 and z != _RHO):
        return False
    # The corner (3+sqrt(-3))/6 of this arc lies on |z-2/3| = 1/3 too, which rejects it.
    if _circle_side(z, 1, 3, 3) < 0:
        return False
    if _circle_side(z, 2, 3, 3) <= 0:
        return False
    if _circle_side(z, 2, 1) < 0:
        return False
    return True


def _stabilizer(z0: KElem) -> tuple[Mat2, ...]:
    """Projective stabilizer of a strict-F1 point; nontrivial only at i, rho."""
    if z0.d == -1 and z0 == _I:
        return (IDENTITY, S_MAT)
    if z0.d == -3 and z0 == _RHO:
        p = ((-1, -1), (1, 0))
        return (IDENTITY, p, mat2_mul(p, p))
    return (IDENTITY,)


def gamma1_equivalent(z: KElem, w: KElem) -> bool:
    """Equivalence under the full modular group."""
    return reduce_to_F1(z)[0] == reduce_to_F1(w)[0]


def modular_witnesses(z1: KElem, z2: KElem) -> tuple[Mat2, ...]:
    """All g in SL2(Z), up to sign, with g(z1) = z2.

    Nonempty iff the points are equivalent under the full modular group.
    With z1 = a^-1(z0) and z2 = b^-1(z0) for the reduced point z0, the
    witnesses are b^-1*s*a for s in the stabilizer of z0, so there is more
    than one only in the orbits of i and rho.
    """
    z0, a = reduce_to_F1(z1)
    w0, b = reduce_to_F1(z2)
    if z0 != w0:
        return ()
    binv = mat2_inv(b)
    out = []
    for s in _stabilizer(z0):
        g = mat2_mul(binv, mat2_mul(s, a))
        check(mobius(g, z1) == z2, "the witness %s does not move %s to %s", g, z1, z2)
        out.append(g)
    return tuple(out)


def scaling(g: Mat2, z: KElem) -> KElem:
    """lam = 1/(c*z + d) for g = ((a, b), (c, d)): lam*<1, z> = <1, g(z)>,
    with lam*z = d*g(z) - b and lam = a - c*g(z)."""
    return (g[1][0] * z + g[1][1]).inv()


def lattice_scalings(z1: KElem, z2: KElem) -> tuple[KElem, ...]:
    """All scalars lam (up to sign) with lam*<1, z1> = <1, z2>: the scalings
    of :func:`modular_witnesses`.

    Two witnesses differ by a stabilizer element s, so their scalars differ
    by the unit factor j(s, z0), i at i and rho or rho^2 at rho, and no
    scalar repeats.  No stage calls it, as ``periodlattice.diag_isomorphic``
    works on the witnesses themselves.  It stays for the test oracles and
    because the benchmark traces it, like ``cmhom.morphism_degree``.
    """
    return tuple(scaling(g, z1) for g in modular_witnesses(z1, z2))


def canon_gamma2(z: KElem) -> KElem:
    """The unique strict-F2 representative of the level-2 orbit of z."""
    z0, a = reduce_to_F1(z)
    ainv = mat2_inv(a)
    candidates = []
    for s in _stabilizer(z0):
        key = mat2_mod2(mat2_mul(ainv, mat2_inv(s)))
        w = mobius(_TILE_BY_MOD2[key], z0)
        if w not in candidates:
            candidates.append(w)
    chosen = [w for w in candidates if in_F2(w)]
    check(len(chosen) == 1, "strict domain violated at %s: %s", z, candidates)
    return chosen[0]
