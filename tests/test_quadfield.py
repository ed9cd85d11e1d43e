import copy
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import oracles
from splitjac.bqf import form_class_points
from splitjac.quadfield import (
    MAX_PARSED_RADICAND,
    KElem,
    check_disc,
    mobius,
    squarefree_part,
)

DS = (-1, -2, -3, -5, -6, -7, -11, -59)


def random_elem(rng, d=None, nonzero=False):
    d = d or rng.choice(DS)
    while True:
        z = KElem(
            d,
            Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 3, 4))),
            Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 3))),
        )
        if not (nonzero and z.is_zero()):
            return z


def test_norm_expansion():
    x = KElem(-5, 1, 1)
    y = KElem(-5, 1, -1)
    assert x * y == KElem(-5, 6, 0)


def test_additive_identity():
    x = KElem(-2, Fraction(3, 4), Fraction(-1, 2))
    assert x + 0 == x


def test_inverse_of_one_plus_i():
    x = KElem(-1, 1, 1)
    inv = x.inv()
    assert inv == KElem(-1, Fraction(1, 2), Fraction(-1, 2))
    assert x * inv == KElem(-1, 1, 0)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        KElem(-1, 1, 1) / KElem(-1, 0, 0)


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        KElem(-1, 1, 1) + KElem(-2, 1, 1)


def test_norm_35_element():
    gamma = KElem(-59, Fraction(9, 2), Fraction(1, 2))
    assert gamma.norm() == 35


def test_trace_and_norm_examples():
    assert KElem(-2, 0, 1).trace() == 0
    assert KElem(-6, 2, 1).norm() == 10


def test_norm_multiplicative_random():
    # Acceptance property: 10^3 random exact elements.
    rng = random.Random(11)
    for _ in range(1000):
        d = rng.choice(DS)
        x, y = random_elem(rng, d), random_elem(rng, d)
        assert (x * y).norm() == x.norm() * y.norm()


def test_norm_positive_definite():
    rng = random.Random(12)
    for _ in range(200):
        z = random_elem(rng)
        assert z.norm() >= 0
        assert (z.norm() == 0) == z.is_zero()


def test_mobius_identity_and_fixed_point():
    i = KElem(-1, 0, 1)
    rt2 = KElem(-2, 0, 1)
    assert mobius(((1, 0), (0, 1)), rt2) == rt2
    assert mobius(((0, -1), (1, 0)), i) == i


def test_mobius_cross_multiplied():
    z = KElem(-3, 0, 1)
    w = mobius(((1, 0), (1, 1)), z)  # z/(z+1)
    assert w * (z + 1) == z
    assert w == KElem(-3, Fraction(3, 4), Fraction(1, 4))


def test_mobius_composition():
    rng = random.Random(13)
    mats = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1)), ((2, 1), (1, 1))]
    for _ in range(100):
        z = random_elem(rng, nonzero=True)
        if z.b == 0:
            continue
        m1, m2 = rng.choice(mats), rng.choice(mats)
        m12 = (
            (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
             m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
            (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
             m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
        )
        assert mobius(m12, z) == mobius(m1, mobius(m2, z))


def test_mobius_imaginary_part_transform():
    rng = random.Random(14)
    mats = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1)), ((2, 1), (1, 1))]
    for _ in range(100):
        z = random_elem(rng, nonzero=True)
        m = rng.choice(mats)
        den = m[1][0] * z + m[1][1]
        if den.is_zero():
            continue
        assert mobius(m, z).b == z.b / den.norm()


def test_mobius_rejects_non_unimodular():
    with pytest.raises(ValueError):
        mobius(((2, 0), (0, 1)), KElem(-1, 0, 1))


def test_serialization_round_trip():
    rng = random.Random(15)
    for _ in range(300):
        z = random_elem(rng)
        assert KElem.from_string(str(z)) == z
    assert str(KElem(-59, Fraction(9, 2), Fraction(1, 2))) == "(9 + 1*sqrt(-59))/2"
    assert KElem.from_string("(-1 + 1*sqrt(-3))/2") == KElem(-3, Fraction(-1, 2), Fraction(1, 2))


def test_invalid_serializations():
    # A radicand above the cap is rejected before its trial division.
    for bad in ("", "1 + sqrt(-1)", "(1 + 1*sqrt(2))/1",
                f"(0 + 1*sqrt({-(MAX_PARSED_RADICAND + 1)}))/1",
                "(0 + 1*sqrt(-1000000000000000003))/1"):
        with pytest.raises(ValueError):
            KElem.from_string(bad)


def test_squarefree_part():
    assert squarefree_part(-36) == -1
    assert squarefree_part(-100) == -1
    assert squarefree_part(-24) == -6
    assert squarefree_part(-59) == -59


def test_disc_structure():
    # sqrt(delta) = t*sqrt(d0) in Q(sqrt(d0)), d0 the squarefree part of
    # delta: the principal class point, the root of (1, b, c) with b = delta
    # mod 2, is (-b + t*sqrt(d0))/2, so sqrt(delta) = 2z + b.
    for delta, point in ((-36, KElem(-1, 0, 3)), (-20, KElem(-5, 0, 1)),
                         (-59, KElem(-59, Fraction(-1, 2), Fraction(1, 2)))):
        z = form_class_points(delta)[0]
        assert z == point
        s = 2 * z + delta % 2
        assert s * s == KElem(z.d, delta, 0)


def test_disc_rejects_invalid():
    for bad in (-2, -6, 5, 0):
        with pytest.raises(ValueError, match="not a negative discriminant"):
            check_disc(bad)
    check_disc(-36)


def test_kelem_rejects_non_squarefree_radicand():
    with pytest.raises(ValueError):
        KElem(-4, 0, 1)
    with pytest.raises(ValueError):
        KElem(3, 0, 1)


# -- the integer triple against the Fraction-pair formulas -------------------

PROPERTY_DS = (-1, -2, -3, -5, -15, -35, -59)


def wide_elem(rng, d):
    """A random element with numerators up to 60 and denominators up to 12."""
    return KElem(
        d,
        Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)),
        Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)),
    )


def pair(z):
    return (z.a, z.b)


def assert_canonical(z):
    assert z.r > 0 and gcd(z.p, z.q, z.r) == 1
    assert (Fraction(z.p, z.r), Fraction(z.q, z.r)) == pair(z)


def test_arithmetic_matches_fraction_pairs():
    rng = random.Random(21)
    for _ in range(3000):
        d = rng.choice(PROPERTY_DS)
        x, y = wide_elem(rng, d), wide_elem(rng, d)
        px, py = pair(x), pair(y)
        results = [
            (x + y, oracles.f_add(px, py)),
            (x - y, oracles.f_sub(px, py)),
            (x * y, oracles.f_mul(d, px, py)),
            (x.conj(), oracles.f_conj(px)),
            (-x, (-px[0], -px[1])),
        ]
        if not y.is_zero():
            results += [(x / y, oracles.f_div(d, px, py)), (y.inv(), oracles.f_inv(d, py))]
        for got, want in results:
            assert pair(got) == want
            assert_canonical(got)
        assert x.norm() == oracles.f_norm(d, px)
        assert x.trace() == oracles.f_trace(px)


def test_rational_operands_match_fraction_pairs():
    rng = random.Random(22)
    for _ in range(1000):
        d = rng.choice(PROPERTY_DS)
        x = wide_elem(rng, d)
        px = pair(x)
        c = rng.choice((rng.randrange(-9, 10), Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))))
        pc = (Fraction(c), Fraction(0))
        assert pair(x + c) == pair(c + x) == oracles.f_add(px, pc)
        assert pair(x - c) == oracles.f_sub(px, pc)
        assert pair(c - x) == oracles.f_sub(pc, px)
        assert pair(x * c) == pair(c * x) == oracles.f_mul(d, px, pc)
        if c:
            assert pair(x / c) == oracles.f_div(d, px, pc)
        if not x.is_zero():
            assert pair(c / x) == oracles.f_div(d, pc, px)


def test_equal_values_built_by_different_routes_hash_equal():
    half = KElem(-3, Fraction(1, 2), Fraction(1, 2))
    routes = [
        (1 + KElem(-3, 0, 1)) / 2,
        KElem(-3, 0, 1) / 2 + Fraction(1, 2),
        KElem.from_string("(2 + 2*sqrt(-3))/4"),
        KElem(-3, Fraction(3, 6), Fraction(-4, -8)),
        (KElem(-3, 1, 1) * KElem(-3, 5, 7)) / KElem(-3, 10, 14),
    ]
    for z in routes:
        assert z == half and hash(z) == hash(half)
        assert (z.p, z.q, z.r) == (1, 1, 2)
    assert len({half, *routes}) == 1
    rng = random.Random(23)
    for _ in range(500):
        d = rng.choice(PROPERTY_DS)
        x, y = wide_elem(rng, d), wide_elem(rng, d)
        for z in ((x + y) - y, x.conj().conj(), -(-x)):
            assert z == x and hash(z) == hash(x)
        if not y.is_zero():
            z = (x * y) / y
            assert z == x and hash(z) == hash(x)
        if not x.is_zero():
            assert x.inv().inv() == x and hash(x.inv().inv()) == hash(x)
    assert KElem(-1, 1, 0) != 1 and KElem(-1, 0, 1) != KElem(-2, 0, 1)


def test_string_round_trip_is_canonical():
    rng = random.Random(24)
    for _ in range(500):
        z = wide_elem(rng, rng.choice(PROPERTY_DS))
        r = lcm(z.a.denominator, z.b.denominator)
        assert str(z) == f"({int(z.a * r)} + {int(z.b * r)}*sqrt({z.d}))/{r}"
        back = KElem.from_string(str(z))
        assert back == z and str(back) == str(z)
    with pytest.raises(ValueError):
        KElem.from_string("(1 + 1*sqrt(-1))/0")


def test_pickle_round_trip():
    rng = random.Random(25)
    for _ in range(200):
        z = wide_elem(rng, rng.choice(PROPERTY_DS))
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(z, proto))
            assert type(back) is KElem
            assert back == z and hash(back) == hash(z)
            assert (back.d, back.p, back.q, back.r) == (z.d, z.p, z.q, z.r)
        assert copy.deepcopy(z) == z


def test_kelem_is_immutable():
    z = KElem(-3, Fraction(1, 2), Fraction(1, 2))
    for name in ("d", "p", "q", "r", "a", "b", "extra"):
        with pytest.raises(AttributeError):
            setattr(z, name, 5)
    with pytest.raises(AttributeError):
        del z.p
    with pytest.raises(TypeError):
        vars(z)
    assert (z.d, z.p, z.q, z.r) == (-3, 1, 1, 2)
