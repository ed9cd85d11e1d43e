"""Hom-lattices between CM elliptic curves and the discriminant screen.

A CM elliptic curve is represented by its period lattice <1, omega> inside
an imaginary quadratic field; morphisms C/L1 -> C/L2 are the field elements
beta with beta*L1 contained in L2, and the degree of beta is
norm(beta) * covol(L1)/covol(L2), an integer.

The screen enumerates, for every admissible (discriminant, isogeny-degree)
input pair, the curves F reachable from E, packs the (degree,
kernel-2-torsion) pairs of End(E) and Hom(E, F) up to degree 2*NMAX into
polynomials at X = 2^16, and keeps (E, F) only if one product shows every
n from 2 to NMAX as (m1 + m2)/2 with matching kernel 2-torsion counts.
Survivors are reported as discriminant pairs together with an E = F flag.

Everything runs on integers.  Hom(L1, L2) is a congruence kernel: with N/den
the matrix of multiplication by omega1 in the basis (1, omega2) of L2,
beta = x + y*omega2 maps L1 into L2 iff N(x, y) = 0 mod den, and one
extended gcd solves that.  The Hom basis is returned as two integer 2x2
matrices M1, M2, maps from the basis (1, omega1) of L1 to (1, omega2) of
L2, and the morphism x*b1 + y*b2 has the matrix x*M1 + y*M2.  Its
determinant is the degree, the integer binary form det(x*M1 + y*M2), which
:func:`hom_cosets` checks once per pair, as an identity of polynomials, to
be the norm-form degree read off the matrices' first columns.  It packs the
degrees to 2*NMAX by coset (x mod 2, y mod 2) without enumerating the form
itself: a Gauss reduction gives the reduced form f' and U with f(v) =
f'(U*v), checked once per pair, and coset k is coset U*k mod 2 of f'.  Each
reduced form is enumerated once per run (:func:`coset_thetas`) into a store
that :func:`screen_all` empties where each run starts, so a run meets 98
reduced forms for its 632 Hom lattices.  A coset's matrix mod 2 is its
action on the 2-torsion, so its rank r gives the kernel 2-torsion,
2^(2 - r): the screen's profile ORs the cosets by rank.  The sweep glues
the cosets of End(E) and Hom(F, E) along the 2-torsion (:func:`glue`), one
product per candidate.  A CM lattice <1, omega> is passed as its generator omega, a
KElem with positive sqrt(d)-coefficient: one closed form, ``coords``, gives
an element's coordinates in the basis (1, omega), and another,
``order_disc``, reads the lattice's order discriminant off omega.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm

from . import intlinalg as la
from .bqf import form_class_points, gamma1_equivalent
from .invariants import check
from .quadfield import KElem, check_disc, from_triple, scaled

#: The proof's degree bound: the screen and the sweep check the degrees 2..NMAX,
#: and the four reference forms' universality covers every degree beyond.
NMAX = 31

#: Profiles are polynomials at X = 2^SLOT_BITS; the screen and the sweep test the top
#: bit of each slot 2n, 2 <= n <= NMAX, after adding _TESTED_FILL (:func:`takes_every_degree`).
SLOT_BITS = 16
_TESTED_TOPS = sum(1 << SLOT_BITS * (2 * n + 1) - 1 for n in range(2, NMAX + 1))
_TESTED_FILL = _TESTED_TOPS - (_TESTED_TOPS >> SLOT_BITS - 1)
_ODD_SLOTS = sum((1 << SLOT_BITS) - 1 << SLOT_BITS * s for s in range(1, 2 * NMAX, 2))


def coords(omega: KElem, x: KElem) -> tuple[int, int] | None:
    """(u, v) with x = u + v*omega if both are integers, else None.

    With x = (p + q*sqrt(d))/r and omega = (p' + q'*sqrt(d))/r',
    v = q*r'/(r*q') and u = (p*q' - q*p')/(r*q'), both exact.  A rational
    omega (q' = 0) spans no lattice with 1 and raises ValueError.
    """
    if omega.q == 0:
        raise ValueError(f"omega = {omega} is rational: <1, omega> is no lattice")
    den = x.r * omega.q
    u, ru = divmod(x.p * omega.q - x.q * omega.p, den)
    v, rv = divmod(x.q * omega.r, den)
    return None if ru or rv else (u, v)


def _times_omega1(w1: KElem, w2: KElem) -> tuple[int, la.IntMat]:
    """(den, N): N/den is multiplication by omega1 in the basis (1, omega2) of L2.

    With omegak = (pk + qk*sqrt(d))/rk, (u + v*sqrt(d))/t has the
    L2-coordinates (u*q2 - v*p2, v*r2)/(t*q2); N's columns are those of
    omega1 and omega1*omega2 over den = r1*r2*q2.
    """
    (p1, q1, r1), (p2, q2, r2) = (w1.p, w1.q, w1.r), (w2.p, w2.q, w2.r)
    return r1 * r2 * q2, ((r2 * (p1 * q2 - q1 * p2), q1 * (w1.d * q2 * q2 - p2 * p2)),
                          (q1 * r2 * r2, r2 * (p1 * q2 + q1 * p2)))


def hom_lattice(w1: KElem, w2: KElem) -> tuple[la.IntMat, la.IntMat]:
    """Matrices M1, M2 of the Z-basis x0, x1 + y1*omega2 of {beta : beta*L1 in L2}.

    Lk = <1, omegak>, each omegak in the upper half-plane.

    beta = x + y*omega2 maps L1 into L2 iff N(x, y) = 0 mod den, with (den, N)
    from :func:`_times_omega1`.  One extended gcd on N's first column (a, c)
    gives a unimodular U with U*N = ((g, h), (0, f)): y runs over the
    multiples of y1, the least y > 0 with f*y = 0 and g*x = -h*y solvable
    mod den, and x at y = 0 over those of x0 = den/gcd(g, den).  Each matrix
    maps the basis (1, omega1) of L1 to (1, omega2) of L2: its columns are
    beta's L2-coordinates (x, y) and those of beta*omega1, N(x, y)/den, each
    division checked to be exact.
    """
    if w1.d != w2.d:
        raise ValueError("lattices live in different fields")
    if w1.q <= 0 or w2.q <= 0:
        raise ValueError("lattice generator must have positive imaginary part")
    den, ((a, b), (c, e)) = _times_omega1(w1, w2)
    g = gcd(a, c)  # c = q1*r2^2 > 0
    s = pow(a // g, -1, c // g)
    h, f = s * b + (g - s * a) // c * e, (a * e - b * c) // g
    g_den = gcd(g, den)
    y0 = den // gcd(f, den)
    y1 = y0 * g_den // gcd(g_den, h * y0)
    x0 = den // g_den
    x1 = -(h * y1 // g_den) * pow(g // g_den, -1, x0) % x0
    (u0, ru0), (v0, rv0) = divmod(a * x0, den), divmod(c * x0, den)
    (u1, ru1), (v1, rv1) = divmod(a * x1 + b * y1, den), divmod(c * x1 + e * y1, den)
    check(ru0 == rv0 == ru1 == rv1 == 0, "Hom basis does not map L1 into L2: non-integral matrix")
    return ((x0, u0), (0, v0)), ((x1, u1), (y1, v1))


def morphism_degree(beta: KElem, w1: KElem, w2: KElem) -> int:
    """Degree N(beta)*im(omega1)/im(omega2) of the map C/L1 -> C/L2 given by beta.

    No stage calls it: the screen reads degrees off :func:`degree_profile`.
    It stays only because the benchmark traces it, and moves to the test
    oracles once the benchmark no longer does (ROADMAP items 1 and 2).
    """
    if w1.q <= 0 or w2.q <= 0:
        raise ValueError("lattice generator must have positive imaginary part")
    if coords(w2, beta) is None or coords(w2, beta * w1) is None:
        raise ValueError(f"{beta} does not map L1 into L2")
    deg, rem = divmod((beta.p * beta.p - beta.d * beta.q * beta.q) * w1.q * w2.r,
                      beta.r * beta.r * w1.r * w2.q)
    check(rem == 0, "degree of %s is not an integer", beta)
    return deg


#: The coset theta series of each reduced form met in the current run, keyed
#: by the form (:func:`hom_cosets`).  :func:`screen_all` empties it where each
#: run starts, so no run reads another's enumerations.  It is module state,
#: not an argument, because ``degree_profile``'s cache keys on (w1, w2) alone.
_RUN_THETAS: dict[tuple[int, int, int], list[int]] = {}


def gauss_reduce(a: int, b: int, c: int) -> tuple[tuple[int, int, int], tuple[int, int, int, int]]:
    """The reduced form (a', b', c') of a positive definite (a, b, c), and U.

    U = ((u, v), (w, z)) in SL2(Z) with a*x^2 + b*x*y + c*y^2 =
    f'(u*x + v*y, w*x + z*y), f' = (a', b', c') reduced: |b'| <= a' <= c', and
    b' >= 0 if |b'| = a' or a' = c' (Gauss; Cox, Primes of the form
    x^2 + ny^2, Sec. 2), one form per SL2(Z) class.
    Each translation (x, y) -> (x + k*y, y) brings b into (-a, a], and the
    swap (x, y) -> (-y, x), which takes (a, b, c) to (c, -b, a), runs while
    a > c and once more if a = c and b < 0; U is their product, inverted.
    """
    u, v, w, z = 1, 0, 0, 1
    while True:
        k = (a - b) // (2 * a)
        b, c = b + 2 * a * k, (a * k + b) * k + c
        u, v = u - k * w, v - k * z
        if a <= c:
            break
        a, b, c = c, -b, a
        u, v, w, z = w, z, -u, -v
    if a == c and b < 0:
        b, u, v, w, z = -b, w, z, -u, -v
    return (a, b, c), (u, v, w, z)


def coset_thetas(a: int, b: int, c: int) -> list[int]:
    """The form (a, b, c) to 2*NMAX by coset mod 2, packed at X = 2^SLOT_BITS.

    Entry 2*(x % 2) + y % 2 sums 2^(SLOT_BITS*m) over the values m <= 2*NMAX
    of the nonzero (x, y) of that coset, each once, and the zero vector adds
    the 2^0 term of coset (0, 0).  With D = 4*a*c - b^2 and B = 2*NMAX,
    (x, y) runs inside the exact bound: y^2 <= 4*a*B/D, and x between the
    roots (-b*y +- sqrt(4*a*B - D*y^2))/(2*a), widened by one each way.
    """
    disc4, bound, width = 4 * a * c - b * b, 2 * NMAX, SLOT_BITS
    packed = [1, 0, 0, 0]
    for y in range(isqrt(4 * a * bound // disc4) + 1):
        s = isqrt(4 * a * bound - disc4 * y * y)
        for x in range((-b * y - s) // (2 * a) - 1, (-b * y + s) // (2 * a) + 2):
            if y == 0 and x <= 0:
                continue
            m = a * x * x + b * x * y + c * y * y
            if m <= bound:
                packed[(x & 1) << 1 | y & 1] |= 1 << width * m
    return packed


def hom_cosets(w1: KElem, w2: KElem) -> tuple[list[int], list[tuple], tuple[int, int, int]]:
    """Hom(L1, L2) to degree 2*NMAX by coset mod 2: (packed, matrices, form).

    beta = x*b1 + y*b2 has the matrix x*M1 + y*M2 (:func:`hom_lattice`), whose
    determinant, the index of beta*L1 in L2, is the form (a, b, c) by the
    definition of a, b and c.  packed[2*(x % 2) + y % 2] sums
    2^(SLOT_BITS*m) over the degrees m <= 2*NMAX of the coset (x mod 2,
    y mod 2), the zero morphism the 2^0 term of coset (0, 0); matrices holds
    each coset's matrix ((p, q), (r, t)) mod 2 as (p, q, r, t), its action on
    2-torsion.

    Once per pair the form is checked to be the degree ratio*N(beta),
    ratio = im(omega1)/im(omega2), read off the first column (X, Y) of
    x*M1 + y*M2, beta = X + Y*omega2.  With omegak = (ek + fk*sqrt(d))/gk,

        g1*f2*g2 * det(x*M1 + y*M2) = f1 * (g2^2*X^2 + 2*e2*g2*X*Y + (e2^2 - d*f2^2)*Y^2)

    coefficient by coefficient, an identity of polynomials in x and y, so
    the determinant is the norm-form degree on every element of the lattice.

    The packed cosets depend only on the form's reduced form f' and the
    reducing U of :func:`gauss_reduce`: v -> U*v is a bijection of Z^2 with
    f(v) = f'(U*v), so coset k of f is coset U*k mod 2 of f', and the zero
    vector stays in coset (0, 0).  Once per pair f = f'(U*v) is checked
    coefficient by coefficient with |det U| = 1.  f' is enumerated
    (:func:`coset_thetas`) once per run: its series are kept in _RUN_THETAS,
    which :func:`screen_all` empties where each run starts.
    """
    ((p1, q1), (r1, s1)), ((p2, q2), (r2, s2)) = hom_lattice(w1, w2)
    a, c = p1 * s1 - q1 * r1, p2 * s2 - q2 * r2
    b = p1 * s2 + p2 * s1 - q1 * r2 - q2 * r1
    (_, f1, g1), (e2, f2, g2) = (w1.p, w1.q, w1.r), (w2.p, w2.q, w2.r)
    n0, n1, n2 = g2 * g2, 2 * e2 * g2, e2 * e2 - w1.d * f2 * f2
    norm = (n0 * p1 * p1 + n1 * p1 * r1 + n2 * r1 * r1,
            2 * (n0 * p1 * p2 + n2 * r1 * r2) + n1 * (p1 * r2 + p2 * r1),
            n0 * p2 * p2 + n1 * p2 * r2 + n2 * r2 * r2)
    check(all(g1 * f2 * g2 * u == f1 * v for u, v in zip((a, b, c), norm)),
          "determinant form of the Hom matrices differs from the norm-form degree")
    check(a > 0 and 4 * a * c - b * b > 0, "norm form is not positive definite")
    reduced, (u, v, w, z) = gauss_reduce(a, b, c)
    ra, rb, rc = reduced
    check(abs(u * z - v * w) == 1
          and (a, b, c) == (ra * u * u + rb * u * w + rc * w * w,
                            2 * (ra * u * v + rc * w * z) + rb * (u * z + v * w),
                            ra * v * v + rb * v * z + rc * z * z),
          "the reduced form composed with U differs from the determinant form")
    thetas = _RUN_THETAS[reduced] = _RUN_THETAS.get(reduced) or coset_thetas(ra, rb, rc)
    k10, k01 = (u & 1) << 1 | w & 1, (v & 1) << 1 | z & 1  # U*(1, 0) and U*(0, 1) mod 2
    packed = [thetas[0], thetas[k01], thetas[k10], thetas[k01 ^ k10]]
    m1, m2 = (p1 & 1, q1 & 1, r1 & 1, s1 & 1), (p2 & 1, q2 & 1, r2 & 1, s2 & 1)
    matrices = [(0, 0, 0, 0), m2, m1, ((p1 + p2) & 1, (q1 + q2) & 1, (r1 + r2) & 1, (s1 + s2) & 1)]
    return packed, matrices, (a, b, c)


@lru_cache(maxsize=None)
def degree_profile(w1: KElem, w2: KElem) -> tuple[int, int, int]:
    """The (m, d) pairs with m <= 2*NMAX realized by the Hom-lattice, packed.

    m is a degree and d = 2^(2 - rank) the kernel 2-torsion of a coset whose
    matrix mod 2 has that rank (:func:`hom_cosets`): P1, P2 and P4 OR the
    cosets of rank 2, 1 and 0, and the zero morphism is the 2^0 term of P4.
    The cosets are the relabelled series of the pair's reduced form, which
    the run's store holds, so a cache miss enumerates no form that the run
    has met before; the cache itself keeps each pair's three integers.
    """
    cosets, matrices, _ = hom_cosets(w1, w2)
    packed = [0, 0, 0]
    for poly, (p, q, r, t) in zip(cosets, matrices):
        packed[0 if (p * t - q * r) & 1 else 1 if p | q | r | t else 2] |= poly
    return packed[0], packed[1], packed[2]


def glue(end: tuple, hom: tuple) -> tuple[int, la.IntMat]:
    """The maps of (E x F)/Gamma_psi to E: their packed degrees and their 2G.

    end = hom_cosets(tau, tau), hom = hom_cosets(sigma, tau), and psi is the
    swap J in the bases (1, tau)/2 and (1, sigma)/2 (``periodlattice``).  The
    maps are the (alpha, beta) in End(E) x Hom(F, E) with alpha = beta*J mod 2,
    of degree (deg alpha + deg beta)/2 (Kani, J. reine angew. Math. 485, 1997;
    Conway-Sloane, SPLAG ch. 4).  The product sums e*h over the coset pairs
    with E_i = H_j*J mod 2, so its slot 2n counts the maps of degree n: at most
    16 pairs x 63 < 2^15, no slot carries, and the odd slots to 2*NMAX are
    checked empty.  2G = K^T*diag(2M_E, 2M_H)*K/2, 2M = ((2a, b), (b, 2c)) for
    each form, K a basis of the congruence kernel; q is integral iff 2G/2 is.
    """
    (pe, me, (a1, b1, c1)), (ph, mh, (a2, b2, c2)) = end, hom
    hj = [(q, p, t, r) for p, q, r, t in mh]  # beta*J mod 2, coset by coset
    theta = sum(e * h for e, ma in zip(pe, me) for h, mb in zip(ph, hj) if ma == mb)
    check(theta & _ODD_SLOTS == 0, "a glued map has a half-integral degree")
    # b1 and b2 of each lattice are the cosets (1, 0) and (0, 1): indices 2 and 1.
    k = la.congruence_kernel(tuple(zip(me[2], me[1], hj[2], hj[1])), 2)
    form = ((2 * a1, b1, 0, 0), (b1, 2 * c1, 0, 0), (0, 0, 2 * a2, b2), (0, 0, b2, 2 * c2))
    gram2 = la.divided(la.gram(k, form), 2)
    check(gram2 is not None, "glued degree form is not half-integral")
    return theta, gram2


def degree_two_maps(end: tuple, hom: tuple) -> int:
    """The number of maps of degree 2 of (E x F)/Gamma_psi to E, for :func:`glue`'s inputs.

    glue's product marks which degrees each coset pair reaches, not how
    often, so its slot 4 is no count.  These maps are the (alpha, beta) with
    deg alpha + deg beta = 4 and alpha = beta*J mod 2, each counted here:
    a*x^2 + b*x*y + c*y^2 <= 4 needs x^2 <= 16*c/D and y^2 <= 16*a/D,
    D = 4*a*c - b^2, and the zero morphism is the one element of degree 0.
    """
    def by_matrix(form, matrices):
        a, b, c = form
        disc4 = 4 * a * c - b * b
        rx, ry = isqrt(16 * c // disc4), isqrt(16 * a // disc4)
        counts: dict[tuple, int] = {}
        for x in range(-rx, rx + 1):
            for y in range(-ry, ry + 1):
                m = a * x * x + b * x * y + c * y * y
                if m <= 4:
                    key = matrices[(x & 1) << 1 | y & 1], m
                    counts[key] = counts.get(key, 0) + 1
        return counts

    (_, me, form_e), (_, mh, form_h) = end, hom
    e = by_matrix(form_e, me)
    h = by_matrix(form_h, [(q, p, t, r) for p, q, r, t in mh])
    return sum(k * h.get((mat, 4 - m), 0) for (mat, m), k in e.items())


def slot(poly: int, s: int) -> int:
    """The coefficient of X^s in a packed polynomial."""
    return poly >> SLOT_BITS * s & (1 << SLOT_BITS) - 1


def takes_every_degree(poly: int) -> bool:
    """True iff the slot 2n of a packed product is nonzero for every n in [2, NMAX]."""
    return (poly + _TESTED_FILL) & _TESTED_TOPS == _TESTED_TOPS


# -- norm-form enumeration --------------------------------------------------


def norm_solutions(delta: int, n: int) -> list[tuple[int, int]]:
    """All integer (x, y) with norm x^2 + delta*x*y + (delta^2-delta)/4*y^2 = n.

    These are the coordinates of elements x + y*(delta + sqrt(delta))/2 of the
    order of discriminant delta.
    """
    check_disc(delta)
    sols = []
    y = 0
    while True:
        t = 4 * n + delta * y * y
        if t < 0:
            break
        s = isqrt(t)
        if s * s == t and (s - delta * y) % 2 == 0:
            xs = {(s - delta * y) // 2, (-s - delta * y) // 2}
            for x in xs:
                sols += [(x, y), (-x, -y)]
        y += 1
    return sorted(set(sols))


def primitive_norm_discriminants(n: int) -> frozenset[int]:
    """Discriminants of orders containing a primitive element of norm n.

    A primitive element (coprime coordinates) of norm n is a cyclic isogeny
    of degree n, so this enumerates the possible endomorphism discriminants
    of a curve with a cyclic n-isogeny.  Only -4n <= delta < 0 can occur.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    out = set()
    for delta in range(-3, -4 * n - 1, -1):
        if delta % 4 not in (0, 1):
            continue
        if any(gcd(x, y) == 1 for x, y in norm_solutions(delta, n)):
            out.add(delta)
    return frozenset(out)


# -- isogeny neighbors and order identification ------------------------------


def p_neighbors(w: KElem, p: int) -> tuple[KElem, ...]:
    """Targets of the cyclic degree-p isogenies from C/<1, w>, p in {1, 2, 3, 5}.

    For prime p these are the p+1 overlattices of index p, rescaled to the
    form <1, omega'>, each given by its omega'.
    """
    if p == 1:
        return (w,)
    if p not in (2, 3, 5):
        raise ValueError(f"unsupported isogeny degree {p}")
    return (p * w, *((w + j) / p for j in range(p)))


def order_disc(w: KElem) -> int:
    """Discriminant of the multiplier ring {beta : beta*L in L} of L = <1, w>.

    w = (p + q*sqrt(d))/r is a root of r^2*X^2 - 2*p*r*X + (p^2 - d*q^2).
    With (A, B, C) that triple over its gcd g, the ring is the order of
    discriminant B^2 - 4*A*C (Cox, Primes of the form x^2 + ny^2, Lemma 7.5).
    A rational w (q = 0) spans no lattice with 1 and raises ValueError, as
    in :func:`coords`.
    """
    if w.q == 0:
        raise ValueError(f"omega = {w} is rational: <1, omega> is no lattice")
    a, b, c = w.r * w.r, -2 * w.p * w.r, w.p * w.p - w.d * w.q * w.q
    g = gcd(a, b, c)
    return (b * b - 4 * a * c) // (g * g)


# -- the screen ---------------------------------------------------------------

#: The screen's input rule: E's discriminant for a cyclic p-isogeny E -> F
#: (p = 1: F = E) lies on the lemma lists of the degrees n named for p.  It
#: was read off the hand-typed table it replaced, which these unions less -59
#: reproduce exactly; a reader with the paper's body can check it there.
SCREEN_LEMMA_DEGREES = {1: (5, 7), 2: (2, 4, 6, 10), 3: (3, 5), 5: (2, 3, 4, 35)}


def screen_pair(le: KElem, lf: KElem) -> bool:
    """Degree-matching screen for the pair (E, F) = (C/<1, le>, C/<1, lf>).

    True iff for every n in [2, NMAX] there are (m1, d1) in the End(E)
    profile and (m2, d2) in the Hom(E, F) profile, both to 2*NMAX, with
    d1 = d2 and m1 + m2 = 2n.  The coefficient of X^s in e1*f1 + e2*f2 +
    e4*f4 counts such pairs with m1 + m2 = s: at most 2*NMAX + 1 = 63 per d,
    189 < 2^15 in all.  So no slot carries, and adding 2^15 - 1 to each slot
    2n sets its top bit exactly when the slot is nonzero.
    """
    e1, e2, e4 = degree_profile(le, le)
    f1, f2, f4 = degree_profile(le, lf)
    return takes_every_degree(e1 * f1 + e2 * f2 + e4 * f4)


def screen_all(table: dict[int, tuple[int, ...]]) -> tuple[tuple[int, int, bool], ...]:
    """Run the screen over an input table {p: discriminants of E}.

    Returns the surviving (delta_E, delta_F, isomorphic) triples, one per
    discriminant pair, sorted by absolute discriminants.  All ideal classes
    of delta_E are tried (the outcome per class is conjugation-invariant, so
    this only adds redundancy), each pair (E, F) by one packed product;
    survivors are deduplicated by discriminant pair, and the isomorphy flag
    must be unambiguous for each pair.
    """
    _RUN_THETAS.clear()
    flags: dict[tuple[int, int], set[bool]] = {}
    for p, discs in table.items():
        for delta in discs:
            for le in form_class_points(delta):
                for lf in p_neighbors(le, p):
                    if not screen_pair(le, lf):
                        continue
                    flags.setdefault((delta, order_disc(lf)), set()).add(gamma1_equivalent(le, lf))
    out = []
    for (de, df), iso in sorted(flags.items(), key=lambda kv: (-kv[0][0], -kv[0][1])):
        check(len(iso) == 1, "ambiguous isomorphy flag for %s", (de, df))
        out.append((de, df, iso.pop()))
    return tuple(out)


# -- the excluded discriminant -59 -------------------------------------------


def disc59_check() -> dict:
    """Certify the arithmetic that rules the discriminant -59 out.

    Enumerates the elements of norm 35 in the order of discriminant -59,
    checks that they are exactly (+-9 +- sqrt(-59))/2, and that none of them
    is congruent to 1 modulo twice the order (i.e. (gamma-1)/2 never lies in
    the order).
    """
    delta = -59
    omega = from_triple(delta, 1, 1, 2)  # the order is <1, (1+sqrt(-59))/2>
    # x + y*(delta + sqrt(delta))/2 for each solution (x, y)
    found = {from_triple(delta, 2 * x + delta * y, y, 2) for x, y in norm_solutions(delta, 35)}
    norms = {}
    for gamma in found:
        norms[gamma], rest = divmod(gamma.p ** 2 - gamma.d * gamma.q ** 2, gamma.r ** 2)
        check(rest == 0 and norms[gamma] == 35, "%s does not have norm 35", gamma)
    expected = {from_triple(delta, sa * 9, sb, 2) for sa in (1, -1) for sb in (1, -1)}
    check(found == expected, "norm-35 elements %s differ from expected", found)
    den = lcm(*(gamma.r for gamma in found))
    residues = [
        {"element": str(gamma), "norm": norms[gamma],
         "congruent_to_1_mod_2": coords(omega, (gamma - 1) / 2) is not None}
        for gamma in sorted(found, key=lambda g: scaled(g, den))
    ]
    check(not any(r["congruent_to_1_mod_2"] for r in residues),
          "a norm-35 element is congruent to 1 mod 2")
    return {
        "discriminant": delta,
        "norm": 35,
        "element_count": len(found),
        "elements": [r["element"] for r in residues],
        "residues": residues,
        "excluded": True,
    }
