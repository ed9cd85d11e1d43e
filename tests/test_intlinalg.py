import random
from fractions import Fraction
from itertools import product

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
    d = abs(int(la.det(la.transpose(la.freeze(nonzero)))))
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
    kern = la.kernel_basis(m)
    assert len(kern) == 2
    for v in kern:
        assert sum(a * b for a, b in zip(m[0], v)) == 0


def rat(rows):
    return la.freeze([[Fraction(x) for x in row] for row in rows])


def test_intersect_trivial():
    z2 = rat([[1, 0], [0, 1]])
    assert la.lattice_intersect(z2, z2) == z2


def test_intersect_containment():
    z2 = rat([[1, 0], [0, 1]])
    two = rat([[2, 0], [0, 2]])
    assert la.lattice_intersect(z2, two) == two


def test_intersect_half_integer():
    z2 = rat([[1, 0], [0, 1]])
    halves = rat([[Fraction(1, 2), 0], [Fraction(1, 2), 1]])
    inter = la.lattice_intersect(z2, halves)
    # Oracle: brute-force intersection over denominator-2 coordinates.
    pts1 = brute_lattice_points(z2, 4)
    pts2 = brute_lattice_points(halves, 6)
    common = {p for p in pts1 & pts2 if max(abs(x) for x in p) <= 2}
    got = {p for p in brute_lattice_points(inter, 4) if max(abs(x) for x in p) <= 2}
    assert got == common
    assert abs(la.det(inter)) == 1


def test_intersect_commutative():
    rng = random.Random(7)
    for _ in range(25):
        a = rat([[rng.randrange(-3, 4) or 1, rng.randrange(-3, 4)],
                 [rng.randrange(-3, 4), rng.randrange(-3, 4) or 2]])
        b = rat([[Fraction(rng.randrange(-6, 7) or 1, rng.choice((1, 2, 3))),
                  Fraction(rng.randrange(-6, 7), rng.choice((1, 2)))],
                 [Fraction(rng.randrange(-6, 7), rng.choice((1, 2))),
                  Fraction(rng.randrange(-6, 7) or 3, rng.choice((1, 2, 3)))]])
        if la.rank(a) < 2 or la.rank(b) < 2:
            continue
        assert la.lattice_intersect(a, b) == la.lattice_intersect(b, a)


def test_intersect_rejects_rank_deficient():
    bad = rat([[1, 2], [2, 4]])
    good = rat([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        la.lattice_intersect(bad, good)


def test_index_trivial():
    z2 = rat([[1, 0], [0, 1]])
    assert la.lattice_index(z2, z2) == 1
    assert la.lattice_index(rat([[2, 0], [0, 2]]), z2) == 4


def test_index_coset_exhaustion():
    sub = rat([[2, 1], [0, 1]])
    z2 = rat([[1, 0], [0, 1]])
    assert la.lattice_index(sub, z2) == 2
    # Oracle: count residue classes of Z^2 modulo the sublattice by exhaustion.
    pts = brute_lattice_points(sub, 6)
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
        c = rat(random_unimodular(rng, 3))
        m1 = la.freeze([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        m2 = la.freeze([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        if la.det(m1) == 0 or la.det(m2) == 0:
            continue
        b = la.matmul(c, m1)
        a = la.matmul(b, m2)
        assert la.lattice_index(a, c) == la.lattice_index(a, b) * la.lattice_index(b, c)


def test_index_rejects_non_containment():
    with pytest.raises(ValueError):
        la.lattice_index(rat([[1, 0], [0, Fraction(1, 2)]]), rat([[1, 0], [0, 1]]))


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


def test_solve_and_det_against_fraction_oracle():
    # Bareiss solve and det against Gauss-Jordan over Fraction, on 2x2 to 4x4
    # systems: the same solution, the same singular cases, and det tied to the
    # oracle by Cramer's rule.
    rng = random.Random(20261018)
    singular = 0
    for _ in range(600):
        n = rng.choice((2, 3, 4))
        a, v = random_rational_system(rng, n)
        try:
            expected = oracles.solve(a, v)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError):
                la.solve(a, v)
            assert la.det(a) == 0
            continue
        assert la.solve(a, v) == expected
        d = la.det(a)
        assert d != 0
        for i in range(n):
            a_i = la.freeze([row[:i] + (v[k],) + row[i + 1:] for k, row in enumerate(a)])
            assert la.det(a_i) / d == expected[i]
    assert 100 < singular < 400


def test_in_lattice_against_fraction_oracle():
    rng = random.Random(20261019)
    hits = 0
    for _ in range(400):
        n = rng.choice((2, 3, 4))
        basis, _ = random_rational_system(rng, n)
        if la.det(basis) == 0:
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
        assert [la.in_lattice(basis, v) for v in vs] == expected
        assert la.in_lattice(basis, *vs) == all(expected)
    assert hits > 100


def test_det_multiplicative_and_integral():
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        a, _ = random_rational_system(rng, n)
        b, _ = random_rational_system(rng, n)
        assert la.det(la.matmul(a, b)) == la.det(a) * la.det(b)
        m = la.freeze([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        d = la.det(m)
        assert d.denominator == 1
        assert la.det(la.transpose(m)) == d

