import copy
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import oracles
from oracles import kelem, norm, pair
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
        z = kelem(
            d,
            Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 3, 4))),
            Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 3))),
        )
        if not (nonzero and z.p == z.q == 0):
            return z


def test_norm_expansion():
    x = KElem(-5, 1, 1)
    y = KElem(-5, 1, -1)
    assert x * y == KElem(-5, 6, 0)


def test_additive_identity():
    x = kelem(-2, Fraction(3, 4), Fraction(-1, 2))
    assert x + 0 == x


def test_inverse_of_one_plus_i():
    x = KElem(-1, 1, 1)
    inv = x.inv()
    assert inv == kelem(-1, Fraction(1, 2), Fraction(-1, 2))
    assert x * inv == KElem(-1, 1, 0)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        KElem(-1, 1, 1) / KElem(-1, 0, 0)


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        KElem(-1, 1, 1) + KElem(-2, 1, 1)


def test_norm_35_element():
    gamma = kelem(-59, Fraction(9, 2), Fraction(1, 2))
    assert norm(gamma) == 35


def test_trace_and_norm_examples():
    # z + conj(z) is the trace and z * conj(z) the norm, both in Q.
    assert KElem(-2, 0, 1) + KElem(-2, 0, -1) == KElem(-2, 0, 0)
    assert KElem(-6, 2, 1) * KElem(-6, 2, -1) == KElem(-6, 10, 0)
    assert norm(KElem(-6, 2, 1)) == 10


def test_norm_multiplicative_random():
    # Acceptance property: 10^3 random exact elements.
    rng = random.Random(11)
    for _ in range(1000):
        d = rng.choice(DS)
        x, y = random_elem(rng, d), random_elem(rng, d)
        assert norm(x * y) == norm(x) * norm(y)


def test_norm_positive_definite():
    # The quotient's denominator is r times the norm of the divisor, so a
    # nonzero divisor must have a positive norm for the result to be canonical.
    rng = random.Random(12)
    for _ in range(200):
        z = random_elem(rng)
        if z.p == z.q == 0:
            with pytest.raises(ZeroDivisionError):
                z.inv()
            continue
        assert norm(z) > 0
        w = z.inv()
        assert w.r > 0 and z * w == KElem(z.d, 1, 0)


def test_mobius_identity_and_fixed_point():
    i = KElem(-1, 0, 1)
    rt2 = KElem(-2, 0, 1)
    assert mobius(((1, 0), (0, 1)), rt2) == rt2
    assert mobius(((0, -1), (1, 0)), i) == i


def test_mobius_cross_multiplied():
    z = KElem(-3, 0, 1)
    w = mobius(((1, 0), (1, 1)), z)  # z/(z+1)
    assert w * (z + 1) == z
    assert w == kelem(-3, Fraction(3, 4), Fraction(1, 4))


def test_mobius_composition():
    rng = random.Random(13)
    mats = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1)), ((2, 1), (1, 1))]
    for _ in range(100):
        z = random_elem(rng, nonzero=True)
        if z.q == 0:
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
        if den.p == den.q == 0:
            continue
        assert pair(mobius(m, z))[1] == pair(z)[1] / norm(den)


def test_mobius_rejects_non_unimodular():
    with pytest.raises(ValueError):
        mobius(((2, 0), (0, 1)), KElem(-1, 0, 1))


def test_serialization_round_trip():
    rng = random.Random(15)
    for _ in range(300):
        z = random_elem(rng)
        assert KElem.from_string(str(z)) == z
    assert str(kelem(-59, Fraction(9, 2), Fraction(1, 2))) == "(9 + 1*sqrt(-59))/2"
    assert KElem.from_string("(-1 + 1*sqrt(-3))/2") == kelem(-3, Fraction(-1, 2), Fraction(1, 2))


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
                         (-59, kelem(-59, Fraction(-1, 2), Fraction(1, 2)))):
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
    return kelem(
        d,
        Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)),
        Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)),
    )


def assert_canonical(z):
    assert z.r > 0 and gcd(z.p, z.q, z.r) == 1


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
        ]
        if y.p or y.q:
            results += [(x / y, oracles.f_div(d, px, py)), (y.inv(), oracles.f_inv(d, py))]
        for got, want in results:
            assert pair(got) == want
            assert_canonical(got)


def test_rational_operands_match_fraction_pairs():
    # An int operand is the element (c + 0*sqrt(d))/1; a Fraction is no operand.
    rng = random.Random(22)
    for _ in range(1000):
        d = rng.choice(PROPERTY_DS)
        x = wide_elem(rng, d)
        px = pair(x)
        c = rng.randrange(-9, 10)
        pc = (Fraction(c), Fraction(0))
        assert pair(x + c) == oracles.f_add(px, pc)
        assert pair(x - c) == oracles.f_sub(px, pc)
        assert pair(x * c) == pair(c * x) == oracles.f_mul(d, px, pc)
        if c:
            assert pair(x / c) == oracles.f_div(d, px, pc)
    for op in (lambda x, c: x + c, lambda x, c: x - c, lambda x, c: x * c,
               lambda x, c: c * x, lambda x, c: x / c):
        with pytest.raises(TypeError):
            op(KElem(-1, 1, 1), Fraction(1, 2))


def test_equal_values_built_by_different_routes_hash_equal():
    half = kelem(-3, Fraction(1, 2), Fraction(1, 2))
    routes = [
        (KElem(-3, 0, 1) + 1) / 2,
        KElem(-3, 0, 1) / 2 + KElem(-3, 1, 0, 2),
        KElem(-3, 2, 2, 4),
        KElem(-3, -1, -1, -2),
        KElem.from_string("(2 + 2*sqrt(-3))/4"),
        kelem(-3, Fraction(3, 6), Fraction(-4, -8)),
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
        for z in ((x + y) - y, KElem._make(x)):
            assert z == x and hash(z) == hash(x)
        if y.p or y.q:
            z = (x * y) / y
            assert z == x and hash(z) == hash(x)
        if x.p or x.q:
            assert x.inv().inv() == x and hash(x.inv().inv()) == hash(x)
    assert KElem(-1, 1, 0) != 1 and KElem(-1, 0, 1) != KElem(-2, 0, 1)


def test_string_round_trip_is_canonical():
    rng = random.Random(24)
    for _ in range(500):
        z = wide_elem(rng, rng.choice(PROPERTY_DS))
        a, b = pair(z)
        r = lcm(a.denominator, b.denominator)
        assert str(z) == f"({int(a * r)} + {int(b * r)}*sqrt({z.d}))/{r}"
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
    z = kelem(-3, Fraction(1, 2), Fraction(1, 2))
    for name in ("d", "p", "q", "r", "a", "b", "extra"):
        with pytest.raises(AttributeError):
            setattr(z, name, 5)
    with pytest.raises(AttributeError):
        del z.p
    with pytest.raises(TypeError):
        vars(z)
    assert (z.d, z.p, z.q, z.r) == (-3, 1, 1, 2)
    # The element is the tuple (d, p, q, r): it hashes as that tuple, so set
    # and dict orders are those of the triples, but two elements do not order.
    assert hash(z) == hash((z.d, z.p, z.q, z.r))
    w = KElem(-3, 0, 1)
    for compare in (lambda x, y: x < y, lambda x, y: x <= y,
                    lambda x, y: x > y, lambda x, y: x >= y):
        with pytest.raises(TypeError):
            compare(z, w)
    with pytest.raises(TypeError):
        sorted([z, w])
    # _replace rebuilds through the validating constructor.
    assert z._replace(p=2, r=4) == kelem(-3, Fraction(1, 2), Fraction(1, 4))
    assert KElem._make((-3, 2, 2, 4)) == z
    with pytest.raises(ValueError):
        z._replace(d=-4)


def test_constructor_takes_canonical_int_fields():
    # KElem(d, p, q, r) makes r positive and divides out gcd(p, q, r).
    assert KElem(-3, 2, 2, 4) == KElem(-3, 1, 1, 2) == (-3, 1, 1, 2)
    z = KElem(-3, 1, -1, -2)
    assert (z.d, z.p, z.q, z.r) == (-3, -1, 1, 2)
    assert KElem(-3, 0, 0, -5) == (-3, 0, 0, 1)
    assert KElem(-5, 7, 3) == (-5, 7, 3, 1)
    with pytest.raises(ValueError):
        KElem(-3, 1, 1, 0)
    for bad in (1.0, True, Fraction(1, 2), Fraction(1)):
        for i in (1, 2, 3):
            fields = [-3, 1, 1, 2]
            fields[i] = bad
            with pytest.raises(TypeError):
                KElem(*fields)


def test_make_replace_pickle_and_deepcopy_go_through_the_constructor():
    # A raw tuple skips the constructor; each way of rebuilding it does not.
    raw = tuple.__new__(KElem, (-3, 2, -2, -4))
    assert tuple(KElem._make(raw)) == (-3, -1, 1, 2)
    assert tuple(raw._replace(q=2)) == (-3, -1, -1, 2)
    assert tuple(copy.deepcopy(raw)) == (-3, -1, 1, 2)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(raw, proto))
        assert type(back) is KElem and tuple(back) == (-3, -1, 1, 2), proto
    bad = tuple.__new__(KElem, (-4, 1, 1, 1))
    for rebuild in (KElem._make, copy.deepcopy, lambda z: z._replace(p=2),
                    *(lambda z, proto=proto: pickle.loads(pickle.dumps(z, proto))
                      for proto in range(pickle.HIGHEST_PROTOCOL + 1))):
        with pytest.raises(ValueError):
            rebuild(bad)
    with pytest.raises(TypeError):
        KElem(-3, 1, 1, 2)._replace(r=2.0)
