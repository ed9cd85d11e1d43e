import random
from fractions import Fraction
from math import gcd

import pytest

import oracles
from oracles import kelem, norm, pair
from splitjac import intlinalg as la
from splitjac.bqf import (
    IDENTITY,
    TILES,
    canon_gamma2,
    cm_points_F1,
    form_class_points,
    gamma1_equivalent,
    gamma2_tiles,
    in_F1,
    in_F2,
    lattice_scalings,
    mat2_inv,
    mat2_mul,
    reduce_to_F1,
    reduced_forms,
)
from splitjac.invariants import InvariantViolation
from splitjac.quadfield import KElem, mobius

RHO = kelem(-3, Fraction(-1, 2), Fraction(1, 2))
I = KElem(-1, 0, 1)

# Discriminants appearing in the screen's surviving pairs.
SURVIVOR_DISCS = (-3, -4, -7, -8, -11, -12, -16, -19, -20, -24, -36,
                  -32, -48, -64, -72, -100)


def class_number_oracle(disc):
    """Count proper classes by exhaustive orbit merging on a bounded set.

    Primitive forms (a, b, c) with a <= |disc| and |b| <= 3|disc| are linked
    by the elementary moves b -> b +- 2a and (a, b, c) -> (c, -b, a); each
    connected component must contain exactly one reduced form (|b| <= a <= c,
    and b >= 0 if |b| = a or a = c), which is asserted.
    """
    bound_a = abs(disc)
    bound_b = 3 * abs(disc)
    nodes = set()
    for a in range(1, bound_a + 1):
        for b in range(-bound_b, bound_b + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if gcd(gcd(a, b), c) == 1:
                nodes.add((a, b, c))

    def neighbors(node):
        a, b, c = node
        out = [(a, b + 2 * a, a + b + c), (a, b - 2 * a, a - b + c), (c, -b, a)]
        return [n for n in out if n in nodes]

    seen = set()
    components = 0
    for start in sorted(nodes):
        if start in seen:
            continue
        components += 1
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(neighbors(node))
        seen |= comp
        reduced = [(a, b, c) for a, b, c in comp if abs(b) <= a <= c
                   and (b >= 0 or (abs(b) != a and a != c))]
        assert len(reduced) == 1, f"component of {start} has {len(reduced)} reduced forms"
    return components


def test_reduced_forms_examples():
    assert reduced_forms(-4) == ((1, 0, 1),)
    assert reduced_forms(-20) == ((1, 0, 5), (2, 2, 3))
    assert reduced_forms(-3) == ((1, 1, 1),)


def test_class_numbers_against_orbit_oracle():
    for disc in SURVIVOR_DISCS:
        assert len(reduced_forms(disc)) == class_number_oracle(disc), disc


def test_cm_points_examples():
    assert cm_points_F1(-4) == (I,)
    assert cm_points_F1(-16) == (KElem(-1, 0, 2),)
    pts = cm_points_F1(-20)
    assert len(pts) == 2
    targets = [KElem(-5, 0, 1), kelem(-5, Fraction(1, 2), Fraction(1, 2))]
    for t in targets:
        assert any(gamma1_equivalent(t, p) for p in pts)


def test_cm_points_class_number_guard():
    with pytest.raises(InvariantViolation, match="class number 3 out of scope for -23"):
        cm_points_F1(-23)
    assert len(form_class_points(-23)) == 3


def test_reduce_to_F1_examples():
    z, m = reduce_to_F1(I)
    assert z == I and m == ((1, 0), (0, 1))
    z, m = reduce_to_F1(kelem(-3, Fraction(1, 2), Fraction(1, 2)))
    assert z == RHO
    z, m = reduce_to_F1(KElem(-1, 7, 5))
    assert z == KElem(-1, 0, 5)


def test_reduce_to_F1_matrix_witness_and_idempotence():
    rng = random.Random(31)
    pts = [z for d in SURVIVOR_DISCS for z in form_class_points(d)]
    for z in pts:
        z1, m = reduce_to_F1(z)
        assert mobius(m, z) == z1
        z2, m2 = reduce_to_F1(z1)
        assert z2 == z1 and m2 == ((1, 0), (0, 1))
    for _ in range(200):
        z = kelem(
            rng.choice((-1, -2, -3, -5, -6)),
            Fraction(rng.randrange(-20, 21), rng.choice((1, 2, 3))),
            Fraction(rng.randrange(1, 15), rng.choice((1, 2, 3))),
        )
        z1, m = reduce_to_F1(z)
        assert in_F1(z1) and mobius(m, z) == z1
        assert abs(la.det(m)) == 1


def test_boundary_twins():
    # Left edge in, right edge out; left unit arc in, right out.
    left = kelem(-3, Fraction(-1, 2), 2)
    assert in_F1(left) and not in_F1(left + 1)
    arc = kelem(-3, Fraction(-1, 2), Fraction(1, 2))
    twin = arc.inv() * -1  # mirror point on the unit circle
    assert pair(twin)[0] == -pair(arc)[0] and norm(twin) == 1
    assert in_F1(arc) and not in_F1(twin)


def test_gamma2_tiles_at_i():
    images = [z for _, z in gamma2_tiles(I)]
    half = Fraction(1, 2)
    assert images[0] == I and images[1] == I
    assert images[2] == kelem(-1, half, half)
    assert images[3] == kelem(-1, half, half)
    assert images[4] == KElem(-1, 1, 1)
    assert images[5] == KElem(-1, 1, 1)


def test_gamma2_tiles_translation_and_inversion():
    rt5 = KElem(-5, 0, 1)
    tiles = dict(gamma2_tiles(rt5))
    assert tiles["z+1"] == rt5 + 1
    z = KElem(-1, 0, 3)
    w = dict(gamma2_tiles(z))["(z-1)/z"]
    assert w * z == z - 1
    assert w == kelem(-1, 1, Fraction(1, 3))


def test_in_F2_examples():
    assert in_F2(RHO)
    assert not in_F2(kelem(-3, Fraction(3, 2), Fraction(1, 2)))
    assert not in_F2(kelem(-3, Fraction(1, 2), Fraction(1, 6)))
    assert in_F2(kelem(-2, Fraction(1, 2), Fraction(1, 2)))
    # A point on each of three arcs, away from the corners: the arcs
    # |z - 1/3| = 1/3 and |z - 2| = 1 belong to F2, and |z + 1| = 1 does not.
    assert in_F2(kelem(-1, Fraction(1, 3), Fraction(1, 3)))
    assert in_F2(kelem(-7, Fraction(5, 4), Fraction(1, 4)))
    assert not in_F2(kelem(-7, Fraction(-1, 4), Fraction(1, 4)))


def test_in_F2_all_golden_sigmas(golden):
    for row in golden["classification"]:
        assert in_F2(KElem.from_string(row["sigma"])), row


def test_gamma2_equivalence_of_corner_orbit():
    small = kelem(-3, Fraction(1, 2), Fraction(1, 6))
    big = kelem(-3, Fraction(3, 2), Fraction(1, 2))
    assert oracles.gamma2_equivalent(RHO, small)
    assert oracles.gamma2_equivalent(RHO, big)
    assert canon_gamma2(small) == RHO
    assert canon_gamma2(big) == RHO
    assert not oracles.gamma2_equivalent(I, KElem(-1, 1, 1))
    assert gamma1_equivalent(I, KElem(-1, 1, 1))


def test_canon_gamma2_is_canonical():
    rng = random.Random(32)
    mats = [m for _, m in TILES] + [((1, 2), (0, 1)), ((1, 0), (2, 1))]
    for d in (-1, -2, -3, -5, -6):
        for z in form_class_points(d if d % 4 == 1 else 4 * d):
            for m in mats:
                w = mobius(m, z)
                c = canon_gamma2(w)
                assert in_F2(c)
                assert oracles.gamma2_equivalent(c, w)
                if all(x % 2 == y for row, row2 in zip(m, ((1, 0), (0, 1)))
                       for x, y in zip(row, row2)):
                    assert c == canon_gamma2(z)


def test_tiles_cover_all_cosets():
    mods = {tuple(tuple(x % 2 for x in row) for row in m) for _, m in TILES}
    assert len(mods) == 6


def test_lattice_scalings():
    # lam * <1, z> = <1, z'> witnesses; <1, 5i> and <1, i/5> are homothetic.
    z1 = KElem(-1, 0, 5)
    z2 = kelem(-1, 0, Fraction(1, 5))
    (lam,) = lattice_scalings(z1, z2)
    assert norm(lam) * pair(z1)[1] == pair(z2)[1]  # covolume transport
    def in_lat(x, om):
        (a, b), (oa, ob) = pair(x), pair(om)
        y = b / ob
        return y.denominator == 1 and (a - y * oa).denominator == 1
    assert in_lat(lam, z2) and in_lat(lam * z1, z2)
    assert lattice_scalings(z1, KElem(-1, 0, 3)) == ()
    # Points of two fields: sqrt(-1) and sqrt(-2) share the triple (0, 1, 1).
    assert lattice_scalings(I, KElem(-2, 0, 1)) == ()
    # One scalar per element of the stabilizer: the extra units at i and rho.
    for z, units in ((I, 2), (RHO, 3), (z1, 1)):
        scalings = lattice_scalings(z, z)
        assert len(set(scalings)) == len(scalings) == units, z


def test_mat2_inv():
    m = ((2, 1), (7, 4))
    assert mat2_mul(m, mat2_inv(m)) == mat2_mul(mat2_inv(m), m) == IDENTITY
    for bad in (((0, 1), (1, 0)), ((2, 0), (0, 1))):  # det -1 and det 2
        with pytest.raises(ValueError, match="not in SL2"):
            mat2_inv(bad)


# -- the integer F1/F2 routines against the Fraction-pair formulas ------------

PROPERTY_DS = (-1, -2, -3, -5, -15, -35, -59)


def on_circle(rng, d, center, radius):
    """An exact point of |z - center| = radius in the upper half-plane.

    ((1 - D*t^2) + 2t*sqrt(d))/(1 + D*t^2), D = -d, lies on the unit circle
    for every rational t > 0.
    """
    big_d = -d
    t = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
    s = 1 + big_d * t * t
    return kelem(d, center + radius * (1 - big_d * t * t) / s, radius * 2 * t / s)


def boundary_and_random_points(rng, d):
    """Upper half-plane points on every boundary piece of F1 and F2, plus random ones."""
    third = Fraction(1, 3)
    points = [
        on_circle(rng, d, 0, 1),
        on_circle(rng, d, -1, 1),
        on_circle(rng, d, third, third),
        on_circle(rng, d, 2 * third, third),
        on_circle(rng, d, 2, 1),
    ]
    height = Fraction(rng.randrange(1, 40), rng.randrange(1, 40))
    for re in (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(0)):
        points.append(kelem(d, re, height))
    points.append(kelem(d, Fraction(rng.randrange(-80, 81), rng.randrange(1, 25)),
                        Fraction(rng.randrange(1, 60), rng.randrange(1, 25))))
    return points


def test_domain_routines_match_fraction_formulas():
    rng = random.Random(41)
    hits = {"F1": 0, "F2": 0, "F1 arc": 0}
    for _ in range(400):
        d = rng.choice(PROPERTY_DS)
        for z in boundary_and_random_points(rng, d):
            pz = pair(z)
            assert in_F1(z) == oracles.f_in_F1(d, pz), z
            assert in_F2(z) == oracles.f_in_F2(d, pz), z
            z1, m = reduce_to_F1(z)
            w1, wm = oracles.f_reduce_to_F1(d, pz)
            assert pair(z1) == w1 and m == wm, z
            hits["F1"] += in_F1(z)
            hits["F2"] += in_F2(z)
            hits["F1 arc"] += norm(z1) == 1
    # The boundary pieces are actually reached, on both sides of each rule.
    assert all(count > 20 for count in hits.values()), hits


def test_domain_corners_match_fraction_formulas():
    corners = [
        kelem(-3, Fraction(-1, 2), Fraction(1, 2)),
        kelem(-3, Fraction(1, 2), Fraction(1, 2)),
        kelem(-3, Fraction(1, 2), Fraction(1, 6)),
        kelem(-3, Fraction(3, 2), Fraction(1, 2)),
        KElem(-1, 0, 1),
        kelem(-1, Fraction(1, 2), Fraction(1, 2)),
        KElem(-1, 1, 1),
    ]
    for z in corners:
        pz = pair(z)
        assert in_F1(z) == oracles.f_in_F1(z.d, pz)
        assert in_F2(z) == oracles.f_in_F2(z.d, pz)
        z1, m = reduce_to_F1(z)
        assert (pair(z1), m) == oracles.f_reduce_to_F1(z.d, pz)
