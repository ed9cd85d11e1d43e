import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import oracles
from oracles import (TARGET_VALUES, coords, hom_basis, kelem, norm, pair, pairing, period_basis,
                     value_counts)
from splitjac import intlinalg as la
from splitjac import periodlattice, pipeline
from splitjac.bqf import IDENTITY, S_MAT, mat2_mul
from splitjac.invariants import InvariantViolation
from splitjac.periodlattice import (
    SYMPLECTIC_GRAM,
    PeriodLattice,
    degree_gram,
    diag_isomorphic,
    maps_module,
    polarization_gram,
    represented_small_values,
)
from splitjac.qforms import REFERENCE_FORMS, QForm4, equivalent
from splitjac.quadfield import KElem, mobius

I = KElem(-1, 0, 1)
TARGET = frozenset(range(2, 32))


def matrix_pairing(lat, z, w):
    """coords(z)^T P coords(w) with P the lattice's pairing matrix."""
    (den, p), cz, cw = lat.pairing_matrix(), coords(z), coords(w)
    return sum(cz[i] * p[i][j] * cw[j] for i in range(4) for j in range(4)) / den


def columns(den, m):
    """The columns of the integer matrix m over den, as rational vectors."""
    return tuple(tuple(Fraction(x, den) for x in col) for col in la.transpose(m))


def test_pairing_values():
    lat = PeriodLattice(I, 5 * I)
    b = period_basis(lat.tau, lat.sigma)
    for pair, value in (((0, 2), -1), ((2, 0), 1), ((0, 0), 0), ((1, 3), -1)):
        z, w = b[pair[0]], b[pair[1]]
        assert pairing(lat.tau, lat.sigma, z, w) == value
        assert matrix_pairing(lat, z, w) == value


def test_basis_cols_are_the_coordinates_of_the_basis():
    rng = random.Random(50)
    for _ in range(20):
        d = rng.choice((-1, -2, -3, -5, -7))
        tau = kelem(d, Fraction(rng.randrange(-4, 5), 3), Fraction(rng.randrange(1, 6), 2))
        sigma = kelem(d, Fraction(rng.randrange(-4, 5), 2), Fraction(rng.randrange(1, 6), 5))
        cols = columns(*PeriodLattice(tau, sigma).basis_cols())
        assert cols == tuple(coords(v) for v in period_basis(tau, sigma))


def test_pairing_alternating():
    rng = random.Random(51)
    lat = PeriodLattice(KElem(-2, 0, 1), kelem(-2, Fraction(1, 2), Fraction(3, 2)))
    b = period_basis(lat.tau, lat.sigma)

    def combination():
        u = [rng.randrange(-2, 3) for _ in b]
        return tuple(sum((c * v[k] for c, v in zip(u, b)), KElem(lat.d, 0, 0)) for k in (0, 1))

    for _ in range(30):
        x, y = combination(), combination()
        assert matrix_pairing(lat, x, y) == -matrix_pairing(lat, y, x)
        assert matrix_pairing(lat, x, y) == pairing(lat.tau, lat.sigma, x, y)
        assert Fraction(matrix_pairing(lat, x, y)).denominator == 1


def test_pairing_matrix_matches_trace_formula():
    # P against the trace formula of the module docstring, evaluated in
    # field arithmetic, on random vectors of K^2 (not only lattice vectors).
    rng = random.Random(54)

    def vector(d):
        return tuple(kelem(d, Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
                           Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
                     for _ in range(2))

    for d in (-1, -2, -3, -5, -6, -7, -15):
        tau = kelem(d, Fraction(rng.randrange(-4, 5), 2), Fraction(rng.randrange(1, 6), 2))
        sigma = kelem(d, Fraction(rng.randrange(-4, 5), 3), Fraction(rng.randrange(1, 6), 3))
        lat = PeriodLattice(tau, sigma)
        for _ in range(10):
            x, y = vector(d), vector(d)
            value = pairing(tau, sigma, x, y)
            assert matrix_pairing(lat, x, y) == value
            assert pairing(tau, sigma, y, x) == -value


def test_polarization_gram_examples():
    assert polarization_gram(PeriodLattice(I, 5 * I)) == SYMPLECTIC_GRAM
    assert polarization_gram(
        PeriodLattice(KElem(-2, 0, 1), kelem(-2, Fraction(1, 2), Fraction(1, 2)))
    ) == SYMPLECTIC_GRAM
    rng = random.Random(52)
    for _ in range(25):
        d = rng.choice((-1, -2, -3, -5, -6, -7))
        tau = kelem(d, Fraction(rng.randrange(-4, 5), 2), Fraction(rng.randrange(1, 6), 2))
        sigma = kelem(d, Fraction(rng.randrange(-4, 5), 3), Fraction(rng.randrange(1, 6), 3))
        assert polarization_gram(PeriodLattice(tau, sigma)) == SYMPLECTIC_GRAM


def test_period_lattice_rejects_bad_input():
    with pytest.raises(ValueError):
        PeriodLattice(I, KElem(-2, 0, 1))
    with pytest.raises(ValueError):
        PeriodLattice(I, KElem(-1, 0, -1))


def test_period_lattice_is_a_validated_tuple_that_pickles(monkeypatch):
    # _make and _replace check as the constructor does, and every pickle
    # protocol and copy.deepcopy rebuild a lattice through the constructor.
    lat = PeriodLattice(I, 5 * I)
    for bad in (KElem(-1, 0, -1), KElem(-2, 0, 1)):  # lower half-plane, another field
        with pytest.raises(ValueError):
            lat._replace(sigma=bad)
        with pytest.raises(ValueError):
            PeriodLattice._make((I, bad))
    assert lat._replace(sigma=I) == PeriodLattice._make((I, I)) == PeriodLattice(I, I)
    built = []
    new = PeriodLattice.__new__
    monkeypatch.setattr(PeriodLattice, "__new__",
                        lambda cls, *args: built.append(args) or new(cls, *args))
    copies = [pickle.loads(pickle.dumps(lat, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.deepcopy(lat)]
    for back in copies:
        assert type(back) is PeriodLattice and back == lat
    assert built == [(I, 5 * I)] * len(copies)


def test_maps_module_verified():
    lat = PeriodLattice(I, I)
    index = oracles.lattice_index(maps_module(lat), oracles.period_lattice_hnf(lat))
    assert index in (1, 2, 4, 8, 16)
    lat2 = PeriodLattice(2 * I, I)
    m2 = maps_module(lat2)
    assert len(m2.basis) == 4 and all(len(row) == 4 for row in m2.basis)
    # index * Lambda always lands back in M
    k2 = oracles.lattice_index(m2, oracles.period_lattice_hnf(lat2))
    for v in period_basis(lat2.tau, lat2.sigma):
        c = coords((k2 * v[0], k2 * v[1]))
        den = lcm(*(x.denominator for x in c))
        assert la.in_lattice(m2, den, tuple(int(x * den) for x in c))


def test_degree_gram_row_examples():
    g = degree_gram(PeriodLattice(2 * I, I))
    assert equivalent(QForm4(la.divided(g, 2)), REFERENCE_FORMS[1]) is not None
    g2 = degree_gram(PeriodLattice(I, 5 * I))
    assert equivalent(QForm4(la.divided(g2, 2)), REFERENCE_FORMS[2]) is not None


def test_degree_gram_negative_control():
    # (i, i): the twisted identification comes from an isomorphism, so the
    # form represents 1 and no curve exists.
    f = degree_gram(PeriodLattice(I, I))
    values = represented_small_values(f, 31)
    assert 1 in values
    assert values != TARGET_VALUES


def test_is_candidate_examples():
    assert represented_small_values(degree_gram(PeriodLattice(2 * I, I)), 31) == TARGET_VALUES
    assert represented_small_values(degree_gram(PeriodLattice(I, 2 * I)), 31) != TARGET_VALUES


def test_represented_small_values():
    f = degree_gram(PeriodLattice(2 * I, I))
    assert represented_small_values(f, 31) == TARGET
    assert represented_small_values(la.scaled(la.identity(4), 4), 10) == frozenset({2, 4, 6, 8, 10})


def test_degree_form_scaling_and_positivity():
    g = degree_gram(PeriodLattice(I, 5 * I))

    def q(v):
        return Fraction(sum(g[i][j] * v[i] * v[j] for i in range(4) for j in range(4)), 2)

    rng = random.Random(53)
    for _ in range(50):
        v = tuple(rng.randrange(-4, 5) for _ in range(4))
        assert q(v) >= 0
        assert (q(v) == 0) == (v == (0, 0, 0, 0))
        assert q(tuple(2 * x for x in v)) == 4 * q(v)
        assert Fraction(q(v)).denominator == 1


def test_gram_determinant_self_consistency():
    # det(q on M) must equal det(q on Lambda) times the squared index; the
    # Lambda-side Gram is an independent derivation bypassing the
    # intersection machinery.
    cases = [
        (I, 5 * I),
        (KElem(-3, 0, 1), kelem(-3, Fraction(-1, 2), Fraction(1, 2))),
        (KElem(-2, 0, 1), KElem(-2, 0, 3)),
        (2 * I, I),
    ]
    for tau, sigma in cases:
        lat = PeriodLattice(tau, sigma)
        basis = period_basis(tau, sigma)

        def q(x):
            return pairing(tau, sigma, (tau * x[0], tau * x[1]), x)

        lam_gram = [[None] * 4 for _ in range(4)]
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                s = (bi[0] + bj[0], bi[1] + bj[1])
                lam_gram[i][j] = (q(s) - q(bi) - q(bj)) / 2
        index = oracles.lattice_index(maps_module(lat), oracles.period_lattice_hnf(lat))
        det_gram = Fraction(la.det(degree_gram(lat)), 2 ** 4)
        assert det_gram == oracles.det(lam_gram) * index ** 2
        assert det_gram > 0


def theta_from_hom_pairs(tau, sigma, nmax):
    """Independent theta oracle: count compatible (alpha, beta) pairs.

    A degree-n map corresponds to an endomorphism alpha of the first curve
    and a morphism beta to the second with deg(alpha) + deg(beta) = 2n that
    agree through the 2-torsion identification (1/2 -> sigma/2,
    tau/2 -> 1/2).  This path never touches the rank-4 lattice machinery.
    """
    one = KElem(tau.d, 1, 0)

    def elements(l1, l2):
        b1, b2 = hom_basis(l1, l2)
        ratio = pair(l1)[1] / pair(l2)[1]
        out = [(KElem(tau.d, 0, 0), 0)]
        for x in range(-40, 41):
            for y in range(-40, 41):
                beta = x * b1 + y * b2
                if beta.p == beta.q == 0:
                    continue
                deg = norm(beta) * ratio
                if deg <= 2 * nmax:
                    out.append((beta, int(deg)))
        return out

    def coords_in(x, om):
        (a, b), (oa, ob) = pair(x), pair(om)
        y = b / ob
        return a - y * oa, y

    def in_lat(x, om):
        r, y = coords_in(x, om)
        return r.denominator == 1 and y.denominator == 1

    counts = {}
    ends = elements(tau, tau)
    homs = elements(tau, sigma)
    for alpha, da in ends:
        for beta, db in homs:
            if (da + db) % 2 or da + db == 0:
                continue
            n = (da + db) // 2
            if n > nmax:
                continue
            ok = True
            for point in (one / 2, tau / 2):
                u, v = coords_in(2 * (alpha * point), tau)
                psi = (int(u) % 2) * sigma / 2 + KElem(sigma.d, int(v) % 2, 0, 2)
                if not in_lat(beta * point - psi, sigma):
                    ok = False
                    break
            if ok:
                counts[n] = counts.get(n, 0) + 1
    return counts


def test_theta_series_against_hom_pair_oracle():
    cases = [
        (I, 5 * I),
        (KElem(-3, 0, 1), kelem(-3, Fraction(-1, 2), Fraction(1, 2))),
        (KElem(-3, 0, 1), kelem(-3, Fraction(1, 2), Fraction(1, 2))),
        (KElem(-2, 0, 1), kelem(-2, 0, Fraction(1, 4))),
        (2 * I, I),
        (KElem(-5, 0, 1), KElem(-5, 0, 1)),
    ]
    for tau, sigma in cases:
        gram2 = degree_gram(PeriodLattice(tau, sigma))
        got = {v // 2: c for v, c in value_counts(gram2, 12).items()}
        expected = theta_from_hom_pairs(tau, sigma, 6)
        assert got == expected, (tau, sigma)


def test_rows_9_10_form_is_pinned_by_determinant():
    # For tau = sqrt(-3) and either sigma = (+-1+sqrt(-3))/2, the degree form
    # on the full lattice has Gram determinant 9, so every finite-index
    # module carries determinant 9*k^2.  A determinant-25 form can therefore
    # never arise here; the computed form has determinant 36 and is
    # equivalent to the third reference form, not the second.
    tau = KElem(-3, 0, 1)
    for re in (Fraction(-1, 2), Fraction(1, 2)):
        sigma = kelem(-3, re, Fraction(1, 2))
        gram2 = degree_gram(PeriodLattice(tau, sigma))
        assert la.det(gram2) == 36 * 2 ** 4
        qf = QForm4(la.divided(gram2, 2))
        assert equivalent(qf, REFERENCE_FORMS[3]) is not None
        assert equivalent(qf, REFERENCE_FORMS[2]) is None
        assert represented_small_values(gram2, 31) == TARGET_VALUES


def test_diag_isomorphism_certificates():
    # Twisting the 2-torsion identification by the extra unit at i merges
    # (i, 5i) with (i, i/5); markings differing without such a unit stay
    # distinct.
    l1 = PeriodLattice(I, 5 * I)
    l2 = PeriodLattice(I, kelem(-1, 0, Fraction(1, 5)))
    assert diag_isomorphic(l1, l2)
    assert diag_isomorphic(l2, l1)
    assert diag_isomorphic(l1, l1)
    l3 = PeriodLattice(2 * I, I)
    l4 = PeriodLattice(2 * I, KElem(-1, 1, 1))
    assert not diag_isomorphic(l3, l4)
    assert not diag_isomorphic(l1, l3)
    # The same triples in Q(sqrt(-2)): two fields, so no isomorphism.
    assert not diag_isomorphic(l1, PeriodLattice(KElem(-2, 0, 1), KElem(-2, 0, 5)))


def random_lattices(seed, count):
    """count seeded period lattices (tau, sigma) over a few fields."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.choice((-1, -2, -3, -5, -6, -7, -15))
        tau = kelem(d, Fraction(rng.randrange(-6, 7), rng.randrange(1, 7)),
                    Fraction(rng.randrange(1, 9), rng.randrange(1, 7)))
        sigma = kelem(d, Fraction(rng.randrange(-6, 7), rng.randrange(1, 7)),
                      Fraction(rng.randrange(1, 9), rng.randrange(1, 7)))
        out.append(PeriodLattice(tau, sigma))
    return out


def test_inverse_basis_inverts_the_basis():
    # B^-1 B = I = B B^-1 in Fraction arithmetic, apart from the integer
    # check inverse_basis makes itself.
    for lat in [PeriodLattice(I, 5 * I)] + random_lattices(55, 60):
        (den, cols), (iden, inv) = lat.basis_cols(), lat.inverse_basis()
        b = [[Fraction(x, den) for x in row] for row in cols]
        binv = [[Fraction(x, iden) for x in row] for row in inv]
        identity = [[int(i == j) for j in range(4)] for i in range(4)]
        for x, y in ((binv, b), (b, binv)):
            assert [[sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)]
                    for i in range(4)] == identity, lat


def test_inverse_basis_is_built_only_where_it_is_used(golden, monkeypatch):
    # A run_search() and check_classification build B^-1 (and check it) once
    # per diag_isomorphic hit, to certify it; a test that mod 2 finds no
    # witness builds none.  They make no maps_module call, as every survivor
    # is classified on its glued form, and 326 + 30 isomorphism tests, 7 + 20
    # of them hits.
    built, calls = [], []
    inverse_basis = PeriodLattice.inverse_basis

    def counting(lat):
        built.append(lat)
        return inverse_basis(lat)

    def recording(name):
        real = getattr(periodlattice, name)

        def wrapped(*lats):
            before = len(built)
            out = real(*lats)
            calls.append((name, out is True, len(built) - before))
            return out

        monkeypatch.setattr(periodlattice, name, wrapped)

    monkeypatch.setattr(PeriodLattice, "inverse_basis", counting)
    recording("maps_module")
    recording("diag_isomorphic")
    rows, _ = pipeline.run_search()
    pipeline.check_classification(rows, golden)
    assert Counter(calls) == {("diag_isomorphic", True, 1): 27, ("diag_isomorphic", False, 0): 329}
    assert len(built) == 27
    # Distinct (tau, sigma): the lattices of rows 1 and 2 are the heads of
    # sweep merges and fixture lattices too.
    assert len(set(built)) == 25


def test_maps_module_matches_the_hnf_intersection():
    for lat in random_lattices(56, 60):
        assert maps_module(lat) == oracles.maps_module_by_intersection(lat), lat


def test_maps_module_of_every_candidate_matches_the_hnf_intersection(screen_pairs):
    candidates = pipeline.generate_candidates(screen_pairs)
    assert len(candidates) == 135
    for cand in candidates:
        lat = cand.lattice
        assert maps_module(lat) == oracles.maps_module_by_intersection(lat), lat


def test_degree_form_is_the_norm_form_sum(screen_pairs):
    # 2S = <tau*e_i, e_j> + <tau*e_j, e_i> for the coordinate unit vectors
    # e_i of K^2, from the trace formula of the pairing, is the closed form
    # diag(4, -4d, 4*beta, -4d*beta), beta = Im tau / Im sigma, that
    # degree_gram builds on; and 2G is C^T (2S) C / D^2 on the maps module.
    lats = [cand.lattice for cand in pipeline.generate_candidates(screen_pairs)]
    assert len(lats) == 135
    for lat in lats + random_lattices(58, 60):
        tau, sigma, d = lat.tau, lat.sigma, lat.d
        zero, one, delta = KElem(d, 0, 0), KElem(d, 1, 0), KElem(d, 0, 1)
        units = ((one, zero), (delta, zero), (zero, one), (zero, delta))

        def twisted(x, y):
            return pairing(tau, sigma, (tau * x[0], tau * x[1]), y)

        s2 = tuple(tuple(twisted(ei, ej) + twisted(ej, ei) for ej in units) for ei in units)
        beta = pair(tau)[1] / pair(sigma)[1]
        diag = (4, -4 * d, 4 * beta, -4 * d * beta)
        assert s2 == tuple(tuple(diag[i] if i == j else 0 for j in range(4))
                           for i in range(4)), lat
        m = maps_module(lat)
        c = columns(m.den, m.basis)
        assert degree_gram(lat) == tuple(
            tuple(sum(ci[k] * s2[k][l] * cj[l] for k in range(4) for l in range(4)) for cj in c)
        for ci in c), lat


def test_diag_isomorphic_matches_the_hnf_test_on_random_pairs():
    lats = random_lattices(57, 60)
    verdicts = [diag_isomorphic(l1, l2) for l1 in lats[:20] for l2 in lats]
    assert verdicts == [oracles.diag_isomorphic_by_hnf(l1, l2) for l1 in lats[:20] for l2 in lats]
    assert sum(verdicts) >= 20  # each lattice with itself


def recorded_diag_calls(monkeypatch):
    """The (l1, l2) of every diag_isomorphic call the pipeline makes from now on."""
    pairs = []

    def recording(l1, l2):
        pairs.append((l1, l2))
        return diag_isomorphic(l1, l2)

    monkeypatch.setattr(periodlattice, "diag_isomorphic", recording)
    return pairs


def test_diag_isomorphic_matches_the_hnf_test_on_every_merge(screen_pairs, monkeypatch):
    pairs = recorded_diag_calls(monkeypatch)
    pipeline.generate_candidates(screen_pairs)
    verdicts = [diag_isomorphic(l1, l2) for l1, l2 in pairs]
    assert verdicts == [oracles.diag_isomorphic_by_hnf(l1, l2) for l1, l2 in pairs]
    assert (len(pairs), sum(verdicts)) == (326, 7)


def test_diag_isomorphic_matches_the_hnf_test_on_every_row_check(classification, golden,
                                                               monkeypatch):
    pairs = recorded_diag_calls(monkeypatch)
    pipeline.check_classification(classification[0], golden)
    verdicts = [diag_isomorphic(l1, l2) for l1, l2 in pairs]
    assert verdicts == [oracles.diag_isomorphic_by_hnf(l1, l2) for l1, l2 in pairs]
    assert (len(pairs), sum(verdicts)) == (30, 20)


def test_diag_isomorphic_rejects_a_map_into_a_proper_sublattice(monkeypatch):
    # Twice a lattice isomorphism maps Lambda into 2*Lambda: S = 2*S0 is
    # integral, and only the unimodularity test of the certificate turns it
    # down.  The witnesses still agree mod 2, so the doubled scalar is
    # reached on a hit, where a failed certificate is an internal error.
    scaling = periodlattice.scaling
    lat = PeriodLattice(I, 5 * I)
    assert diag_isomorphic(lat, lat)
    monkeypatch.setattr(periodlattice, "scaling", lambda g, z: 2 * scaling(g, z))
    with pytest.raises(InvariantViolation, match="unimodularly"):
        diag_isomorphic(lat, lat)


def random_word(rng, letters, length):
    """A seeded product of length matrices drawn from letters."""
    g = IDENTITY
    for _ in range(length):
        g = mat2_mul(rng.choice(letters), g)
    return g


# Generators of SL2(Z) (S^2 = -I), and of its level-2 subgroup up to sign.
SL2_LETTERS = (S_MAT, ((1, 1), (0, 1)), ((1, -1), (0, 1)))
GAMMA2_LETTERS = (((1, 2), (0, 1)), ((1, -2), (0, 1)), ((1, 0), (2, 1)), ((1, 0), (-2, 1)))


def test_diag_isomorphic_matches_the_hnf_test_on_modular_images():
    # (tau, sigma) against (g(tau), h(sigma)): half the h are J*g*J times an
    # element of the level-2 subgroup, so the witnesses agree mod 2 with the
    # swap J between them, and the rest are independent of g.  The points i
    # and rho, and points of their orbits, have more than one witness.
    rng = random.Random(59)
    points = {d: [KElem(d, 0, 1), kelem(d, Fraction(1, 2), Fraction(1, 2)),
                  kelem(d, Fraction(-1, 3), Fraction(2, 3)), KElem(d, 1, 2)]
              for d in (-1, -2, -3, -7)}
    points[-1] += [I, KElem(-1, 1, 1)]
    points[-3] += [kelem(-3, Fraction(-1, 2), Fraction(1, 2)),
                   kelem(-3, Fraction(1, 2), Fraction(1, 2))]
    verdicts = {True: [], False: []}  # keyed by whether h was built from J*g*J
    for _ in range(600):
        d = rng.choice(sorted(points))
        tau, sigma = rng.choice(points[d]), rng.choice(points[d])
        g = random_word(rng, SL2_LETTERS, 6)
        (p, q), (r, t) = g
        compatible = rng.random() < 0.5
        if compatible:
            h = mat2_mul(((t, r), (q, p)), random_word(rng, GAMMA2_LETTERS, 3))
        else:
            h = random_word(rng, SL2_LETTERS, 6)
        l1, l2 = PeriodLattice(tau, sigma), PeriodLattice(mobius(g, tau), mobius(h, sigma))
        verdict = diag_isomorphic(l1, l2)
        assert verdict == oracles.diag_isomorphic_by_hnf(l1, l2), (l1, l2)
        verdicts[compatible].append(verdict)
    assert all(verdicts[True])
    assert 0 < sum(verdicts[False]) < len(verdicts[False]) // 2
