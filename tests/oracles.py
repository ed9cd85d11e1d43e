"""Plain ``Fraction`` reference implementations, kept as test oracles.

These are the straightforward rational-arithmetic versions of routines the
package runs on integers (Bareiss elimination and the HNF lattice format
in ``intlinalg``, the integer short-vector descent in ``qforms``, field
arithmetic on the integer triple in ``quadfield`` and the fundamental-domain
tests in ``bqf``, with the level-2 equivalence that ``bqf.canon_gamma2``
is checked against), the plain ascending ternary scans, whose first
solutions ``universal`` finds by residue-filtered scans (c descending in
the diagonal kinds) or reads from least-b tables, the same first solutions
for a whole range of values at once by sorting every triple, and the
first-match automorphism search that the residue tables of its
construction rows replace.  They share no code with the package; the
ternary scans import only its kind labels, and the automorphism search
reads only a row's data.  The box enumeration that
``universal`` prunes and marks in a bitmap is kept here in its plain form:
every w for every (x, y, z), its radii from the ``Fraction`` inverse of the
Gram matrix.  The value counts of a form, which the package no longer
uses, are read off the ``Fraction`` descent here.

The period-lattice pairing is its trace formula on ``Fraction`` pairs,
reading only the radicand and the coefficients a, b of its inputs
(``periodlattice`` uses a closed coordinate matrix instead).  One oracle
uses ``KElem`` arithmetic: the kernel 2-torsion of a CM morphism, by
counting cosets with :func:`solve`, and the same count for every morphism
of a Hom lattice by the elementary divisors of its integer matrix
(``cmhom.degree_profile`` reads it off the rank of the matrix mod 2
instead).  Each Hom lattice's packed cosets are also kept as one
enumeration of its own determinant form, every value checked against its
matrix's determinant (``cmhom.hom_cosets`` enumerates each reduced form once
per run and relabels its cosets instead).  The screen's rule is kept on
profiles as sets of (degree, 2-torsion) pairs, which :func:`profile_pairs`
reads off the packed polynomials of ``cmhom.degree_profile`` bit by bit;
``cmhom.screen_pair`` decides it by one product of the polynomials.
Three oracles run on the package's
generic lattice code, the HNF intersection from ``intlinalg`` and the sublattice
index kept here: the Hom lattice of two CM lattices as L2 & omega1^-1 L2,
which ``cmhom.hom_lattice`` replaces by the kernel of a 2x2 integer
congruence; the maps module of a period lattice as Lambda & tau^-1 Lambda,
and the diagonal isomorphism test of two period lattices as an equality of
HNFs over every pair of scalings, which ``periodlattice`` replaces by a
rank-4 congruence kernel in the basis b1..b4, where Lambda is Z^4, and by
a test mod 2 of the SL2(Z) witnesses behind the scalings.  These two take
the multiplication and pairing matrices from ``periodlattice``, and the
second takes the scalings from ``bqf.lattice_scalings``.
Four helpers are no oracles.  :func:`hom_basis` reads the Hom basis as
field elements off the first columns of ``cmhom.hom_lattice``'s matrices,
for the tests that work with elements.  :func:`kelem`, :func:`pair` and
:func:`norm` carry an element between ``KElem``, which takes only its
integer fields (d, p, q, r), and rational coefficients, for the tests that
state or read an element as a + b*sqrt(d).
"""

from fractions import Fraction
from itertools import permutations, product
from math import floor, gcd, isqrt, lcm, prod

from splitjac import intlinalg as la
from splitjac.bqf import lattice_scalings
from splitjac.cmhom import hom_lattice
from splitjac.invariants import check
from splitjac.periodlattice import _mul_matrix, _pairing_gram
from splitjac.quadfield import KElem, from_triple
from splitjac.universal import TernaryKind


# -- Q(sqrt(d)) as Fraction pairs --------------------------------------------
#
# An element is (a, b) standing for a + b*sqrt(d); d travels separately.


def f_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def f_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def f_mul(d, x, y):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def f_norm(d, x):
    return x[0] * x[0] - d * x[1] * x[1]


def f_trace(x):
    return 2 * x[0]


def f_conj(x):
    return (x[0], -x[1])


def f_inv(d, x):
    n = f_norm(d, x)
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return (x[0] / n, -x[1] / n)


def f_div(d, x, y):
    return f_mul(d, x, f_inv(d, y))


# -- KElem to and from Fraction pairs -----------------------------------------


def kelem(d, a, b):
    """The ``KElem`` a + b*sqrt(d) for rationals a and b."""
    a, b = Fraction(a), Fraction(b)
    r = lcm(a.denominator, b.denominator)
    return KElem(d, a.numerator * (r // a.denominator), b.numerator * (r // b.denominator), r)


def pair(z):
    """The Fraction pair (a, b) of a ``KElem`` z = a + b*sqrt(d)."""
    return Fraction(z.p, z.r), Fraction(z.q, z.r)


def norm(z):
    """The norm a^2 - d*b^2 of a ``KElem``, a Fraction."""
    return f_norm(z.d, pair(z))


# -- strict fundamental domains on Fraction pairs -----------------------------


def f_in_F1(d, z):
    a, b = z
    if b <= 0:
        return False
    half = Fraction(1, 2)
    n = f_norm(d, z)
    if n > 1:
        return -half <= a < half
    if n == 1:
        return -half <= a <= 0
    return False


def f_reduce_to_F1(d, z):
    """Gauss reduction on Fraction pairs; returns (z', m) with z' = m(z)."""
    m = ((1, 0), (0, 1))
    while True:
        t = floor(z[0] + Fraction(1, 2))
        if t:
            z = (z[0] - t, z[1])
            m = ((m[0][0] - t * m[1][0], m[0][1] - t * m[1][1]), m[1])
        if f_norm(d, z) < 1 or (f_norm(d, z) == 1 and z[0] > 0):
            a, b = f_inv(d, z)
            z = (-a, -b)
            m = ((-m[1][0], -m[1][1]), m[0])
        else:
            return z, m


def gamma2_equivalent(z, w):
    """Equivalence of two field elements under the level-2 congruence subgroup.

    With a(z) = b(w) = z0 the reductions into strict F1 on Fraction pairs,
    w = g(z) exactly for g = b^-1 s a, s in the stabilizer of z0; g lies in
    the level-2 subgroup iff s a = b mod 2 (all three have determinant 1).
    """
    if z.d != w.d:
        return False
    d = z.d
    z0, a = f_reduce_to_F1(d, pair(z))
    w0, b = f_reduce_to_F1(d, pair(w))
    if z0 != w0:
        return False
    stabilizer = [((1, 0), (0, 1))]
    if d == -1 and z0 == (0, 1):
        stabilizer.append(((0, -1), (1, 0)))
    if d == -3 and z0 == (Fraction(-1, 2), Fraction(1, 2)):
        stabilizer += [((-1, -1), (1, 0)), ((0, 1), (-1, -1))]

    def mod2(m):
        return [x % 2 for row in m for x in row]

    return any(
        mod2([[s[i][0] * a[0][j] + s[i][1] * a[1][j] for j in (0, 1)] for i in (0, 1)])
        == mod2(b)
        for s in stabilizer
    )


def _abs2_shift(d, z, c):
    re = z[0] - c
    return re * re - d * z[1] * z[1]


def f_in_F2(d, z):
    a, b = z
    if b <= 0:
        return False
    half, ninth = Fraction(1, 2), Fraction(1, 9)
    if not -half <= a < 3 * half:
        return False
    rho = (Fraction(-1, 2), Fraction(1, 2))
    rho_small = (Fraction(1, 2), Fraction(1, 6))
    left = _abs2_shift(d, z, -1)
    if left < 1 or (left == 1 and not (d == -3 and z == rho)):
        return False
    small = _abs2_shift(d, z, Fraction(1, 3))
    if small < ninth or (small == ninth and d == -3 and z == rho_small):
        return False
    if _abs2_shift(d, z, Fraction(2, 3)) <= ninth:
        return False
    return _abs2_shift(d, z, 2) >= 1


def solve(a, v):
    """Gauss-Jordan solution of the square system a@x = v over Fraction."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(v[i])] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ValueError("singular system")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(aug[i][n] for i in range(n))


def det(a):
    """Determinant of a square matrix by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in a]
    n = len(rows)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def _cholesky(gram):
    """q(v) = sum_i D[i] * (v_i + sum_{j>i} R[i][j] v_j)^2, over Fraction."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            r[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / d[i]
                a[k][j] = a[j][k]
    return d, r


def _int_range(center, cap):
    """All integers t with (t + center)^2 <= cap, exactly."""
    if cap < 0:
        return range(0)
    p, q = center.numerator, center.denominator
    s, u = cap.numerator, cap.denominator
    amax = isqrt(s * q * q // u)
    lo = -((amax + p) // q)
    hi = (amax - p) // q
    return range(lo, hi + 1)


def short_vectors(gram, bound):
    """Nonzero v with q(v) <= bound, one per +-v pair (trailing nonzero
    coordinate positive), with their exact values, by a Fraction descent."""
    n = len(gram)
    d, r = _cholesky(gram)
    vec = [0] * n
    out = []

    def descend(i, rem, leading_zero):
        center = sum(r[i][j] * vec[j] for j in range(i + 1, n))
        for t in _int_range(center, rem / d[i]):
            if leading_zero and t < 0:
                continue
            vec[i] = t
            used = d[i] * (t + center) ** 2
            still_zero = leading_zero and t == 0
            if i == 0:
                if not still_zero:
                    out.append((tuple(vec), bound - (rem - used)))
            else:
                descend(i - 1, rem - used, still_zero)
        vec[i] = 0

    descend(n - 1, Fraction(bound), True)
    return out


def value_counts(gram, bound):
    """Number of vectors (counting +-v separately) per value <= bound, for an
    integer gram, by the Fraction descent above."""
    counts = {}
    for _, val in short_vectors(gram, bound):
        counts[int(val)] = counts.get(int(val), 0) + 2
    return counts


# -- ternary forms by unfiltered scan -----------------------------------------


#: (wb, wc) of the diagonal kinds a^2 + wb*b^2 + wc*c^2.
_WEIGHTS = {TernaryKind.SUM3SQUARES: (1, 1), TernaryKind.D122: (2, 2), TernaryKind.D115: (1, 5)}


def solve_ternary(kind: TernaryKind, n: int):
    """First solution of the ternary form in deterministic search order.

    Returns a nonnegative triple for the diagonal kinds.  For the hexagonal
    kind b and c may be negative; candidates are ordered by (|a|, |b|, |c|)
    with nonnegative entries preferred.  None certifies no solution exists.
    """
    if n < 0:
        raise ValueError("ternary solver expects n >= 0")
    if kind is TernaryKind.D1HEX:
        return _solve_hex(n)
    wb, wc = _WEIGHTS[kind]
    for a in range(isqrt(n) + 1):
        rem_a = n - a * a
        for b in range(isqrt(rem_a // wb) + 1):
            rem = rem_a - wb * b * b
            if rem % wc:
                continue
            c2, r = divmod(rem, wc)
            assert r == 0
            c = isqrt(c2)
            if c * c == c2:
                return (a, b, c)
    return None


def _solve_hex(n: int):
    for a in range(isqrt(n) + 1):
        rem = n - a * a
        if rem % 2:
            continue
        m = rem // 2  # b^2 + bc + c^2 = m
        for babs in range(isqrt(4 * m // 3) + 1):
            for b in ((0,) if babs == 0 else (babs, -babs)):
                disc = 4 * m - 3 * b * b
                if disc < 0:
                    continue
                s = isqrt(disc)
                if s * s != disc or (s - b) % 2:
                    continue
                roots = sorted({(-b + s) // 2, (-b - s) // 2}, key=lambda c: (abs(c), c < 0))
                for c in roots:
                    assert b * b + b * c + c * c == m
                    return (a, b, c)
    return None


def first_solutions(kind: TernaryKind, top: int):
    """What solve_ternary(kind, m) returns, for every m in [0, top] at once.

    Every (b, c) whose b, c part v is at most top is ranked in the scan's
    order: v, then |b| and b < 0, then |c| and c < 0 (b, c >= 0 for the
    diagonal kinds).  The first pair of each v is kept, and a runs upward,
    each m = a^2 + v taking the first a that reaches it.  Entry m is the
    triple, or None where no triple has the value m.
    """
    import numpy as np

    root = isqrt(top)
    if kind is TernaryKind.D1HEX:
        axis = np.arange(-root, root + 1, dtype=np.int64)
        b, c = (x.ravel() for x in np.meshgrid(axis, axis, indexing="ij"))
        v = 2 * (b * b + b * c + c * c)
    else:
        wb, wc = _WEIGHTS[kind]
        axis = np.arange(root + 1, dtype=np.int64)
        b, c = (x.ravel() for x in np.meshgrid(axis, axis, indexing="ij"))
        v = wb * b * b + wc * c * c
    keep = v <= top
    b, c, v = b[keep], c[keep], v[keep]
    order = np.lexsort((c < 0, np.abs(c), b < 0, np.abs(b), v))  # the last key sorts first
    b, c, v = b[order], c[order], v[order]
    first = np.concatenate(([True], v[1:] != v[:-1]))
    b, c, v = b[first], c[first], v[first]
    found = np.zeros(top + 1, dtype=bool)
    triples = np.zeros((top + 1, 3), dtype=np.int64)
    for a in range(root + 1):
        m = a * a + v
        new = (m <= top)
        new[new] = ~found[m[new]]
        found[m[new]] = True
        triples[m[new]] = np.stack((np.full(int(new.sum()), a), b[new], c[new]), axis=1)
    return [tuple(t) if hit else None for t, hit in zip(triples.tolist(), found.tolist())]


def signed_permutations(triple):
    """Every signed permutation of triple, in the order of the search that
    the q4 rows of ``universal.CASES`` list as their automorphisms."""
    for perm in permutations(triple):
        for signs in product((1, -1), repeat=3):
            yield tuple(p * s for p, s in zip(perm, signs))


def first_automorphism(case, triple, d):
    """(A, labels) of the first automorphism in the row's list whose image of
    triple makes U*(A*triple, d) divisible by D and meets the row's
    normalisation, or None: the plain search that the row's table replaces."""
    for matrix, labels in case.automorphisms:
        image = [sum(x * t for x, t in zip(row, triple)) for row in matrix]
        vector = [sum(u * x for u, x in zip(row, (*image, d))) for row in case.U]
        if all(x % case.D == 0 for x in vector) and (case.normal is None or case.normal(*image)):
            return matrix, labels
    return None


# -- quaternary values by plain box enumeration --------------------------------


def represented_by_enumeration(gram, bound):
    """All values in [1, bound] of the quaternary form, over the whole box.

    The box is |v_i| <= sqrt(bound * (G^-1)_ii), which holds every vector of
    value at most bound; each w-slice of it is evaluated in full.
    """
    import numpy as np

    radii = [isqrt(floor(bound * solve(gram, e)[i]))
             for i, e in enumerate(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))]
    assert max(gram[i][i] for i in range(4)) * (4 * (max(radii) + 1)) ** 2 < 2**62
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in radii]
    x, y, z = np.meshgrid(axes[1], axes[2], axes[3], indexing="ij")
    x, y, z = x.ravel(), y.ravel(), z.ravel()
    g = gram
    quad = (g[1][1] * x * x + g[2][2] * y * y + g[3][3] * z * z
            + 2 * (g[1][2] * x * y + g[1][3] * x * z + g[2][3] * y * z))
    lin = 2 * (g[0][1] * x + g[0][2] * y + g[0][3] * z)
    values: set[int] = set()
    for w in range(-radii[0], radii[0] + 1):
        vals = g[0][0] * w * w + w * lin + quad
        vals = vals[(vals <= bound) & (vals > 0)]
        values.update(np.unique(vals).tolist())
    return frozenset(values)


# -- CM morphisms and period lattices ------------------------------------------


def kernel_two_torsion(beta, l1, l2):
    """Number of 2-torsion points of ker(beta) = beta^-1 L2 / L1.

    Counts the four cosets x of (1/2)L1 / L1 with beta*x in L2, testing
    membership by a Fraction solve in the basis <1, omega2>.
    """
    if beta.p == beta.q == 0:
        raise ValueError("zero morphism has no finite kernel")
    a2, b2 = pair(l2)
    basis = ((1, a2), (0, b2))

    def inside(x):
        return all(c.denominator == 1 for c in solve(basis, pair(x)))

    if not (inside(beta) and inside(beta * l1)):
        raise ValueError(f"{beta} does not map L1 into L2")
    return sum(inside(beta * (j * l1 + i) / 2) for i in (0, 1) for j in (0, 1))


#: The width in bits of one degree slot of a packed profile, X = 2^16.
PROFILE_SLOT_BITS = 16


def profile_pairs(packed):
    """The frozenset of (m, d) pairs that a packed profile (P1, P2, P4)
    encodes: (m, d) for each set bit 16*m of P_d, read bit by bit."""
    pairs = set()
    for d, poly in zip((1, 2, 4), packed):
        bits = bin(poly)[:1:-1]  # least significant bit first
        for i, bit in enumerate(bits):
            if bit == "1":
                m, off = divmod(i, PROFILE_SLOT_BITS)
                if off:
                    raise ValueError(f"bit {i} of P{d} lies off a slot's low bit")
                pairs.add((m, d))
    return frozenset(pairs)


def screen_by_sets(s_e, s_f, nmax):
    """The screen's rule on profiles as sets of (m, d): for every n in
    [2, nmax] some (m1, d) of End(E) and (m2, d) of Hom(E, F) have
    m1 + m2 = 2n."""
    return all(any((2 * n - m, d) in s_f for m, d in s_e if m <= 2 * n)
               for n in range(2, nmax + 1))


def profile_pairs_by_gcd(l1, l2, bound):
    """The (m, d) pairs up to degree bound of the Hom lattice by elementary
    divisors: beta = x*b1 + y*b2 has the matrix x*M1 + y*M2 of
    ``cmhom.hom_lattice``, of determinant m; with h1 the gcd of its entries
    and h2 = m/h1, d doubles for each even one of h1 and h2.  (0, 4) is the
    zero morphism.  A plain box holds every (x, y) of degree up to bound."""
    ((p1, q1), (r1, s1)), ((p2, q2), (r2, s2)) = hom_lattice(l1, l2)
    a, c = p1 * s1 - q1 * r1, p2 * s2 - q2 * r2
    b = p1 * s2 + p2 * s1 - q1 * r2 - q2 * r1
    disc4 = 4 * a * c - b * b
    rx, ry = isqrt(4 * c * bound // disc4) + 1, isqrt(4 * a * bound // disc4) + 1
    pairs = {(0, 4)}
    for x, y in product(range(-rx, rx + 1), range(-ry, ry + 1)):
        p, q, r, t = x * p1 + y * p2, x * q1 + y * q2, x * r1 + y * r2, x * s1 + y * s2
        m = p * t - q * r
        if (x or y) and m <= bound:
            h1 = gcd(p, q, r, t)
            check(m % h1 == 0 and (m // h1) % h1 == 0, "elementary divisors of %s", (x, y))
            pairs.add((m, 2 ** ((h1 % 2 == 0) + (m // h1 % 2 == 0))))
    return frozenset(pairs)


def hom_cosets_by_enumeration(l1, l2, bound):
    """(packed, matrices, form) of ``cmhom.hom_cosets`` by enumerating each
    pair's own form, with no reduction: beta = x*b1 + y*b2 has the matrix
    x*M1 + y*M2 of ``cmhom.hom_lattice`` and the degree
    m = a*x^2 + b*x*y + c*y^2, which each enumerated (x, y) checks against
    the matrix's own p*t - q*r.  The degrees m <= bound of coset
    (x mod 2, y mod 2) are packed at X = 2^16 into entry 2*(x % 2) + y % 2,
    the zero morphism the 2^0 term of entry 0, and each coset's matrix mod 2
    is given as (p, q, r, t)."""
    ((p1, q1), (r1, s1)), ((p2, q2), (r2, s2)) = hom_lattice(l1, l2)
    a, c = p1 * s1 - q1 * r1, p2 * s2 - q2 * r2
    b = p1 * s2 + p2 * s1 - q1 * r2 - q2 * r1
    disc4 = 4 * a * c - b * b
    check(a > 0 and disc4 > 0, "norm form is not positive definite")
    packed = [1, 0, 0, 0]
    for y in range(isqrt(4 * a * bound // disc4) + 1):
        s = isqrt(4 * a * bound - disc4 * y * y)
        for x in range((-b * y - s) // (2 * a) - 1, (-b * y + s) // (2 * a) + 2):
            if y == 0 and x <= 0:
                continue
            m = a * x * x + b * x * y + c * y * y
            if m > bound:
                continue
            p, q, r, t = x * p1 + y * p2, x * q1 + y * q2, x * r1 + y * r2, x * s1 + y * s2
            check(p * t - q * r == m,
                  "index of beta*L1 in L2 differs from the determinant form at %s", (x, y))
            packed[(x & 1) << 1 | y & 1] |= 1 << PROFILE_SLOT_BITS * m
    m1, m2 = (p1 & 1, q1 & 1, r1 & 1, s1 & 1), (p2 & 1, q2 & 1, r2 & 1, s2 & 1)
    matrices = [(0, 0, 0, 0), m2, m1, ((p1 + p2) & 1, (q1 + q2) & 1, (r1 + r2) & 1, (s1 + s2) & 1)]
    return packed, matrices, (a, b, c)


#: The degrees that a candidate's degree form must take up to 31, the
#: proof's degree bound: 1 is not one of them, every other n is.
TARGET_VALUES = frozenset(range(2, 32))


def glued_values(theta, bound):
    """The degrees n <= bound whose slot 2n of a packed glued product is
    nonzero, read slot by slot."""
    mask = (1 << PROFILE_SLOT_BITS) - 1
    return frozenset(n for n in range(1, bound + 1) if theta >> PROFILE_SLOT_BITS * 2 * n & mask)


def cm_lattice_hnf(w):
    """The lattice <1, omega>, given by omega = w, as an ``intlinalg.Lattice``
    on (rational part, sqrt(d)-part) coordinates: with w = (p + q*sqrt(d))/r,
    the HNF of the columns (r, 0), (p, q) over r."""
    return la.lattice(w.r, ((w.r, w.p), (0, w.q)))


def hom_basis(l1, l2):
    """The Hom basis of ``cmhom.hom_lattice`` as field elements: the first
    column (x, y) of each matrix, the image of 1, is x + y*omega2."""
    return tuple(y * l2 + x for (x, _), (y, _) in hom_lattice(l1, l2))


def hom_lattice_by_intersection(l1, l2):
    """Z-basis of {beta : beta*L1 in L2} = L2 & omega1^-1 L2, by HNF.

    Multiplication by w = omega1^-1 = (p + q*sqrt(d))/r is the integer
    matrix ((p, d*q), (q, p)) over r on (rational part, sqrt(d)-part)
    coordinates; it pulls the HNF basis of L2 back, and the intersection is
    an integer kernel in HNF.
    """
    d = l1.d
    lam2 = cm_lattice_hnf(l2)
    w = l1.inv()
    pulled = la.matmul(((w.p, d * w.q), (w.q, w.p)), lam2.basis)
    den, h = la.lattice_intersect(lam2, la.lattice(w.r * lam2.den, pulled))
    return tuple(from_triple(d, x, y, den) for x, y in la.transpose(h))


def kernel_basis(m):
    """Basis of the integer kernel {x : m@x = 0}: the column HNF of m stacked
    on an identity block; its columns whose top block vanished hold the basis."""
    h = la.hnf(tuple(m) + la.identity(len(m[0])))
    return tuple(col[len(m):] for col in la.transpose(h) if not any(col[:len(m)]))


def lattice_index(sub, sup):
    """Index [sup : sub] of a sublattice, the ratio of the covolumes (pivot
    product over den^n); ValueError unless sub is contained in sup."""
    if not la.in_lattice(sup, sub.den, *la.transpose(sub.basis)):
        raise ValueError("first lattice is not contained in the second")
    n = len(sub.basis)
    index, r = divmod(prod(sub.basis[i][i] for i in range(n)) * sup.den ** n,
                      prod(sup.basis[i][i] for i in range(n)) * sub.den ** n)
    check(r == 0, "index of a sublattice is not an integer")
    return index


def period_lattice_hnf(lat):
    """Lambda of a PeriodLattice as an ``intlinalg.Lattice``: the HNF of b1..b4."""
    return la.lattice(*lat.basis_cols())


def maps_module_by_intersection(lat):
    """M = Lambda & tau^-1 Lambda as the HNF intersection, with the checks
    that tau*M lies in Lambda and that the index [Lambda : M] annihilates
    Lambda/M."""
    lam = period_lattice_hnf(lat)
    iden, tinv = _mul_matrix(lat.tau.inv(), lat.tau.inv())
    m = la.lattice_intersect(lam, la.lattice(iden * lam.den, la.matmul(tinv, lam.basis)))
    tden, t = _mul_matrix(lat.tau, lat.tau)
    images = la.transpose(la.matmul(t, m.basis))
    check(la.in_lattice(lam, tden * m.den, *images),
          "a map does not send the lattice into itself")
    index = lattice_index(m, lam)
    check(la.in_lattice(m, lam.den, *la.transpose(la.scaled(lam.basis, index))),
          "the index does not annihilate Lambda/M")
    return m


def diag_isomorphic_by_hnf(l1, l2):
    """Whether some diag(lam, mu), lam*<1,tau1> = <1,tau2> and
    mu*<1,sigma1> = <1,sigma2>, maps the first period lattice onto the
    second: contained, then equal HNFs; the pairing transport is checked."""
    if l1.d != l2.d:
        return False
    den1, cols1 = l1.basis_cols()
    lam2 = period_lattice_hnf(l2)
    for lam in lattice_scalings(l1.tau, l2.tau):
        for mu in lattice_scalings(l1.sigma, l2.sigma):
            mden, mmat = _mul_matrix(lam, mu)
            den, icols = mden * den1, la.matmul(mmat, cols1)
            if not la.in_lattice(lam2, den, *la.transpose(icols)) or la.lattice(den, icols) != lam2:
                continue
            check(_pairing_gram(l2, den, icols) == _pairing_gram(l1, den1, cols1),
                  "diagonal isomorphism does not transport the pairing")
            return True
    return False


def period_basis(tau, sigma):
    """b1..b4 = (1, 0), (0, 1), (tau/2, 1/2), (1/2, sigma/2) as pairs in K^2."""
    one, zero = KElem(tau.d, 1, 0), KElem(tau.d, 0, 0)
    return ((one, zero), (zero, one), (tau / 2, one / 2), (one / 2, sigma / 2))


def pairing(tau, sigma, z, w):
    """<z, w> = Tr(z1*conj(w1)/(b*delta) + z2*conj(w2)/(d*delta)) for z, w in K^2.

    delta = sqrt(d) and b, d are the delta-coefficients of tau and sigma.
    It runs on Fraction pairs, so it shares no arithmetic with ``KElem``.
    """
    rad = tau.d

    def term(x, y, coefficient):
        return f_div(rad, f_mul(rad, pair(x), f_conj(pair(y))), (0, coefficient))

    return f_trace(f_add(term(z[0], w[0], pair(tau)[1]), term(z[1], w[1], pair(sigma)[1])))


def coords(v):
    """The rational coordinates (x1, y1, x2, y2) of v = (x1 + y1*delta, x2 + y2*delta)."""
    return (*pair(v[0]), *pair(v[1]))
