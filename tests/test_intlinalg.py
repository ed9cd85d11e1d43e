import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

import oracles
from splitjac import intlinalg as la


def brute_lattice_points(cols, box):
    """All lattice points with coefficients in [-box, box], for small oracles."""
    n = len(cols)
    pts = set()
    for coeffs in product(range(-box, box + 1), repeat=len(cols[0])):
        v = tuple(
            sum(Fraction(c) * cols[i][j] for j, c in enumerate(coeffs))
            for i in range(n)
        )
        pts.add(v)
    return pts


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n + rng.randrange(4)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return la.freeze(m)


def over_den(rows):
    """A rational matrix (or vector, as one row) as (den, integer numerators)."""
    den = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return den, la.freeze([[int(Fraction(x) * den) for x in row] for row in rows])


def lat(rows):
    """The lattice generated by the columns of a rational matrix."""
    return la.lattice(*over_den(rows))


def rational(lattice):
    """The basis of a lattice as a rational matrix (columns generate it)."""
    return la.freeze([[Fraction(x, lattice.den) for x in row] for row in lattice.basis])


def member(lattice, v):
    """in_lattice for one rational vector."""
    den, (w,) = over_den([v])
    return la.in_lattice(lattice, den, w)


def test_hnf_identity():
    assert la.hnf(la.identity(2)) == la.identity(2)


def test_hnf_already_reduced():
    m = ((2, 0), (0, 2))
    assert la.hnf(m) == m


def test_hnf_two_generator_lattice():
    # Columns of both matrices generate sublattices of Z^2; their union's HNF
    # has determinant dividing both generators' determinants, and spans the
    # same points (checked by brute-force box enumeration).
    g = ((1, 1, 2, 0), (0, 2, 0, 1))
    h = la.hnf(g)
    nonzero = [col for col in la.transpose(h) if any(col)]
    assert len(nonzero) == 2
    d = abs(la.det(la.transpose(la.freeze(nonzero))))
    assert 2 % d == 0 and 2 % d == 0
    region_h = {p for p in brute_lattice_points(h, 6) if max(map(abs, p)) <= 2}
    region_g = {p for p in brute_lattice_points(g, 3) if max(map(abs, p)) <= 2}
    assert region_h == region_g


def test_hnf_zero_matrix():
    z = ((0, 0), (0, 0))
    assert la.hnf(z) == z


def test_hnf_unimodular_invariance():
    # Acceptance property: 10^3 random small matrices.
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.choice((2, 3))
        m = la.freeze(
            [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        )
        u = random_unimodular(rng, n)
        assert la.hnf(m) == la.hnf(la.matmul(m, u))


def test_kernel_basis():
    m = ((1, 2, 3),)
    kern = oracles.kernel_basis(m)
    assert len(kern) == 2
    for v in kern:
        assert sum(a * b for a, b in zip(m[0], v)) == 0


def test_intersect_trivial():
    z2 = lat([[1, 0], [0, 1]])
    assert la.lattice_intersect(z2, z2) == z2


def test_intersect_containment():
    z2 = lat([[1, 0], [0, 1]])
    two = lat([[2, 0], [0, 2]])
    assert la.lattice_intersect(z2, two) == two


def test_intersect_half_integer():
    z2 = lat([[1, 0], [0, 1]])
    halves = lat([[Fraction(1, 2), 0], [Fraction(1, 2), 1]])
    inter = la.lattice_intersect(z2, halves)
    # Oracle: brute-force intersection over denominator-2 coordinates.
    pts1 = brute_lattice_points(rational(z2), 4)
    pts2 = brute_lattice_points(rational(halves), 6)
    common = {p for p in pts1 & pts2 if max(abs(x) for x in p) <= 2}
    got = {p for p in brute_lattice_points(rational(inter), 4) if max(abs(x) for x in p) <= 2}
    assert got == common
    assert abs(Fraction(la.det(inter.basis), inter.den ** 2)) == 1


def test_intersect_commutative():
    rng = random.Random(7)
    for _ in range(25):
        try:
            a = lat([[rng.randrange(-3, 4) or 1, rng.randrange(-3, 4)],
                     [rng.randrange(-3, 4), rng.randrange(-3, 4) or 2]])
            b = lat([[Fraction(rng.randrange(-6, 7) or 1, rng.choice((1, 2, 3))),
                      Fraction(rng.randrange(-6, 7), rng.choice((1, 2)))],
                     [Fraction(rng.randrange(-6, 7), rng.choice((1, 2))),
                      Fraction(rng.randrange(-6, 7) or 3, rng.choice((1, 2, 3)))]])
        except ValueError:  # rank-deficient
            continue
        assert la.lattice_intersect(a, b) == la.lattice_intersect(b, a)


def test_intersect_rejects_rank_deficient():
    good = lat([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        la.lattice_intersect(lat([[1, 2], [2, 4]]), good)


def test_index_trivial():
    z2 = lat([[1, 0], [0, 1]])
    assert oracles.lattice_index(z2, z2) == 1
    assert oracles.lattice_index(lat([[2, 0], [0, 2]]), z2) == 4


def test_index_coset_exhaustion():
    sub = lat([[2, 1], [0, 1]])
    z2 = lat([[1, 0], [0, 1]])
    assert oracles.lattice_index(sub, z2) == 2
    # Oracle: count residue classes of Z^2 modulo the sublattice by exhaustion.
    pts = brute_lattice_points(rational(sub), 6)
    reps = set()
    for x, y in product(range(4), repeat=2):
        cls = min(
            (x - p[0], y - p[1])
            for p in pts
            if abs(x - p[0]) <= 3 and abs(y - p[1]) <= 3
        )
        reps.add(cls)
    assert len(reps) == 2


def test_index_multiplicative_chain():
    rng = random.Random(99)
    for _ in range(50):
        c = random_unimodular(rng, 3)
        m1 = la.freeze([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        m2 = la.freeze([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        if la.det(m1) == 0 or la.det(m2) == 0:
            continue
        b = la.matmul(c, m1)
        a = la.matmul(b, m2)
        la_, lb, lc = la.lattice(1, a), la.lattice(1, b), la.lattice(1, c)
        assert oracles.lattice_index(la_, lc) == oracles.lattice_index(la_, lb) * oracles.lattice_index(lb, lc)


def test_index_rejects_non_containment():
    with pytest.raises(ValueError):
        oracles.lattice_index(lat([[1, 0], [0, Fraction(1, 2)]]), lat([[1, 0], [0, 1]]))


def random_rational_system(rng, n):
    """A random n x n rational matrix, singular about a third of the time."""
    def entry():
        return Fraction(rng.randrange(-6, 7), rng.choice((1, 1, 2, 3, 4)))

    a = [[entry() for _ in range(n)] for _ in range(n)]
    if rng.random() < 1 / 3:
        # the last row becomes a rational combination of the others
        coeffs = [entry() for _ in range(n - 1)]
        a[-1] = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(n)]
    return la.freeze(a), tuple(entry() for _ in range(n))


def integer_rows(a, v):
    """The rows of the system a@x = v, each scaled to integers: same solutions."""
    rows = [over_den([row + (v[i],)])[1][0] for i, row in enumerate(a)]
    return la.freeze(row[:-1] for row in rows), tuple(row[-1] for row in rows)


def test_solve_and_det_against_fraction_oracle():
    # Bareiss solve and det against Gauss-Jordan over Fraction, on 2x2 to 4x4
    # systems: the same solution, the same singular cases, and det tied to the
    # oracle by Cramer's rule.
    rng = random.Random(20261018)
    singular = 0
    for _ in range(600):
        n = rng.choice((2, 3, 4))
        a, v = integer_rows(*random_rational_system(rng, n))
        try:
            expected = oracles.solve(a, v)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError):
                la.solve(a, v)
            assert la.det(a) == 0
            continue
        den, y = la.solve(a, v)
        assert den > 0
        assert tuple(Fraction(x, den) for x in y) == expected
        d = la.det(a)
        assert d != 0
        for i in range(n):
            a_i = la.freeze([row[:i] + (v[k],) + row[i + 1:] for k, row in enumerate(a)])
            assert Fraction(la.det(a_i), d) == expected[i]
    assert 100 < singular < 400


def test_in_lattice_against_fraction_oracle():
    rng = random.Random(20261019)
    hits = 0
    for _ in range(400):
        n = rng.choice((2, 3, 4))
        basis, _ = random_rational_system(rng, n)
        try:
            lattice = lat(basis)
        except ValueError:  # rank-deficient
            assert oracles.det(basis) == 0
            continue
        # lattice points and their perturbations by a small rational vector
        vs = []
        for _ in range(3):
            coeffs = [rng.randrange(-3, 4) for _ in range(n)]
            point = [sum(c * row[j] for j, c in enumerate(coeffs)) for row in basis]
            shift = [Fraction(rng.randrange(0, 3), rng.choice((1, 2, 3))) for _ in range(n)]
            vs.append(tuple(x + (s if rng.random() < 0.5 else 0) for x, s in zip(point, shift)))
        expected = [all(x.denominator == 1 for x in oracles.solve(basis, v)) for v in vs]
        hits += sum(expected)
        assert [member(lattice, v) for v in vs] == expected
        den, ws = over_den(vs)
        assert la.in_lattice(lattice, den, *ws) == all(expected)
    assert hits > 100


def test_det_multiplicative_and_integral():
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        a = la.freeze([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        b = la.freeze([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        assert la.det(la.matmul(a, b)) == la.det(a) * la.det(b)
        d = la.det(a)
        assert type(d) is int
        assert d == oracles.det(a)
        assert la.det(la.transpose(a)) == d


def test_ldl_against_oracle_minors():
    # Random symmetric grams, about half of them positive definite (some as
    # A^T A, singular when A is): ldl is None exactly when a leading minor is
    # not positive, else its rows are upper triangular with the minors on the
    # diagonal and give v^T G v as sum_k (U[k] . v)^2 / (D_k * D_{k+1}).
    rng = random.Random(20261105)
    definite = indefinite = 0
    for _ in range(400):
        n = rng.choice((2, 3, 4))
        if rng.random() < 0.5:
            a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
            g = la.gram(la.freeze(a), la.identity(n))
        else:
            upper = {(i, j): rng.randrange(-4, 5) for i in range(n) for j in range(i, n)}
            for i in range(n):
                upper[i, i] = rng.randrange(-2, 9)
            g = la.freeze([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
        minors = [1] + [oracles.det([row[:k] for row in g[:k]]) for k in range(1, n + 1)]
        u = la.ldl(g)
        if any(m <= 0 for m in minors):
            assert u is None, g
            indefinite += 1
            continue
        definite += 1
        assert [u[k][k] for k in range(n)] == minors[1:]
        assert all(u[i][j] == 0 for i in range(n) for j in range(i))
        for _ in range(5):
            v = [rng.randrange(-9, 10) for _ in range(n)]
            value = sum(g[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
            assert value == sum(Fraction(sum(x * y for x, y in zip(u[k], v)) ** 2,
                                         minors[k] * minors[k + 1]) for k in range(n))
    assert definite > 100 and indefinite > 100


def test_ldl_rejects_without_pivoting():
    # A zero pivot fails rather than exchanging rows: with a row swap
    # ((0, 1), (1, 0)) would eliminate to the diagonal (1, 1).
    assert la.ldl(((0, 1), (1, 0))) is None
    assert la.ldl(((1, 1), (1, 1))) is None
    assert la.ldl(((1, 0, 0), (0, -2, 0), (0, 0, 3))) is None
    assert la.ldl(((-1,),)) is None
    assert la.ldl(((2, 1), (1, 1))) == ((2, 1), (0, 1))


# -- the (den, HNF) lattice format against the Fraction oracles ----------------


def random_lattice_rows(rng, n):
    """A random n x n rational generator matrix, singular about a sixth of the time."""
    den = rng.choice((1, 2, 3, 4, 6))
    rows = [[Fraction(rng.randrange(-4, 5), den) for _ in range(n)] for _ in range(n)]
    if rng.random() < 1 / 6:
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    return rows


def in_span(rows, v):
    """Oracle membership: v is an integer combination of the columns of rows."""
    return all(x.denominator == 1 for x in oracles.solve(rows, v))


def test_lattice_format_is_canonical():
    # Rank-deficient generators are rejected exactly when the oracle
    # determinant vanishes; otherwise the HNF over its denominator is lower
    # triangular with reduced rows, shares no factor with the denominator,
    # and does not depend on the generators chosen.
    rng = random.Random(20261101)
    deficient = 0
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        rows = random_lattice_rows(rng, n)
        if oracles.det(rows) == 0:
            deficient += 1
            with pytest.raises(ValueError):
                lat(rows)
            continue
        lattice = lat(rows)
        den, h = lattice
        assert den > 0
        for i in range(n):
            assert h[i][i] > 0
            assert all(h[i][j] == 0 for j in range(i + 1, n))
            assert all(0 <= h[i][j] < h[i][i] for j in range(i))
        assert gcd(den, *(x for row in h for x in row)) == 1
        u = random_unimodular(rng, n)
        mixed = la.freeze([[sum(row[k] * u[k][j] for k in range(n)) for j in range(n)]
                           for row in rows])
        assert lat(mixed) == lattice
        assert abs(oracles.det(rational(lattice))) == abs(oracles.det(rows))
    assert 20 < deficient < 100


def test_membership_against_oracle_and_box_points():
    rng = random.Random(20261102)
    outside = 0
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        rows = random_lattice_rows(rng, n)
        if oracles.det(rows) == 0:
            continue
        lattice = lat(rows)
        for _ in range(6):
            v = [Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 4, 6, 12)))
                 for _ in range(n)]
            expected = in_span(rows, v)
            outside += not expected
            assert member(lattice, v) == expected
        if n <= 3:
            for p in brute_lattice_points(rows, 1):
                assert member(lattice, p)
    assert outside > 300


def test_intersection_against_oracle_and_box_points():
    rng = random.Random(20261103)
    tested = 0
    while tested < 60:
        n = rng.choice((2, 3))
        r1, r2 = random_lattice_rows(rng, n), random_lattice_rows(rng, n)
        if oracles.det(r1) == 0 or oracles.det(r2) == 0:
            continue
        tested += 1
        inter = la.lattice_intersect(lat(r1), lat(r2))
        cols = rational(inter)
        for col in la.transpose(cols):
            assert in_span(r1, col) and in_span(r2, col)
        # every point of the first lattice in a box that also lies in the
        # second is in the intersection
        for p in brute_lattice_points(r1, 2 if n == 3 else 4):
            assert member(inter, p) == in_span(r2, p)


def test_index_against_oracle_including_non_containment():
    rng = random.Random(20261104)
    rejected = 0
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        rows = random_lattice_rows(rng, n)
        if oracles.det(rows) == 0:
            continue
        sup = lat(rows)
        m = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        if oracles.det(m) == 0:
            continue
        sub_rows = [[sum(row[k] * m[k][j] for k in range(n)) for j in range(n)] for row in rows]
        sub = lat(sub_rows)
        assert oracles.lattice_index(sub, sup) == abs(oracles.det(m))
        # a sublattice shifted by a half of one generator usually escapes sup
        shifted = [row[:] for row in sub_rows]
        shifted[0][0] += Fraction(1, 2 * rows[0][0].denominator)
        if oracles.det(shifted) == 0:
            continue
        contained = all(in_span(rows, col) for col in la.transpose(la.freeze(shifted)))
        if contained:
            assert oracles.lattice_index(lat(shifted), sup) == abs(oracles.det(shifted) / oracles.det(rows))
        else:
            rejected += 1
            with pytest.raises(ValueError):
                oracles.lattice_index(lat(shifted), sup)
    assert rejected > 50
