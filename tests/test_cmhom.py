import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

import oracles
from oracles import (hom_basis, hom_lattice_by_intersection, kelem, kernel_two_torsion, norm, pair,
                     PROFILE_SLOT_BITS, profile_pairs, screen_by_sets)
from splitjac import bqf, cli, cmhom, pipeline
from splitjac import intlinalg as la
from splitjac.cmhom import (
    coords,
    degree_profile,
    disc59_check,
    hom_lattice,
    morphism_degree,
    norm_solutions,
    order_disc,
    p_neighbors,
    primitive_norm_discriminants,
    screen_pair,
)
from splitjac.bqf import form_class_points, gamma1_equivalent
from splitjac.quadfield import KElem

I = KElem(-1, 0, 1)
ZI = I  # the lattice <1, i> = Z[i], given by its generator
SMALL_LATTICES = [ZI, KElem(-1, 0, 2), KElem(-5, 0, 1),
                  kelem(-3, Fraction(-1, 2), Fraction(1, 2))]


def spans_same_lattice(basis, targets):
    """Whether two pairs of field elements generate the same Z-module."""
    def in_span(x, span):
        (a1, b1), (a2, b2), (a, b) = pair(span[0]), pair(span[1]), pair(x)
        det = a1 * b2 - a2 * b1
        u = (a * b2 - a2 * b) / det
        v = (a1 * b - a * b1) / det
        return u.denominator == 1 and v.denominator == 1
    return all(in_span(t, basis) for t in targets) and all(
        in_span(b, targets) for b in basis
    )


def test_hom_lattice_endomorphisms():
    basis = hom_basis(ZI, ZI)
    assert spans_same_lattice(basis, (KElem(-1, 1, 0), I))
    l2 = 2 * I
    basis2 = hom_basis(l2, l2)
    assert spans_same_lattice(basis2, (KElem(-1, 1, 0), 2 * I))
    # i itself does not stabilize <1, 2i>.
    with pytest.raises(ValueError):
        morphism_degree(I, l2, l2)


def test_hom_lattice_rejects_generators_off_the_upper_half_plane():
    # <1, omega> is given by omega with positive sqrt(d)-coefficient: the
    # closed form of the Hom lattice divides by it, and the degree is
    # N(beta)*im(omega1)/im(omega2), which a generator off the upper
    # half-plane would make negative or undefined.
    lower = KElem(-1, 0, -1)
    for l1, l2 in ((lower, I), (I, lower), (lower, lower), (KElem(-1, 1, 0), I)):
        with pytest.raises(ValueError, match="positive imaginary part"):
            hom_lattice(l1, l2)
        with pytest.raises(ValueError, match="positive imaginary part"):
            morphism_degree(KElem(-1, 1, 0), l1, l2)


def beta_matrix_by_products(beta, l1, l2):
    """Matrix of beta: L1 -> L2 from the images beta and beta*omega1 (a field
    product), each written in the basis (1, omega2) of L2; None if not integral."""
    cols = []
    a2, b2 = pair(l2)
    for img in (beta, beta * l1):
        a, b = pair(img)
        y = b / b2
        x = a - y * a2
        if x.denominator != 1 or y.denominator != 1:
            return None
        cols.append((int(x), int(y)))
    return tuple(zip(*cols))


def seeded_isogeny_pairs():
    """(L1, L2) pairs from seeded walks of p-neighbors, 1 to 3 steps, over
    d = -1 and -3 (discriminants -3, -4) and the non-maximal orders of
    discriminants -12, -16, -27 and -36, from shifted and inverted class points."""
    rng = random.Random(18)
    pairs = []
    for delta in (-3, -4, -12, -16, -27, -36):
        for _ in range(6):
            omega = rng.choice(form_class_points(delta))
            start = rng.choice((omega + rng.randrange(-3, 4), omega.inv() * -1))
            lat = start
            for _ in range(rng.randrange(1, 4)):
                lat = rng.choice(p_neighbors(lat, rng.choice((2, 3, 5))))
            pairs += [(start, lat), (lat, start), (lat, lat)]
    return pairs


def test_hom_lattice_matches_hnf_intersection(monkeypatch):
    # The congruence kernel against the HNF intersection on every (L1, L2)
    # that the screen visits (its 483 degree profiles from cold caches;
    # order_disc reads omega and builds no Hom lattice) and on seeded
    # isogeny walks; each Hom matrix against the one solved from the field
    # products of the element its first column names.
    visited = screen_visited_pairs(monkeypatch)
    assert len(visited) == 483
    seeded = seeded_isogeny_pairs()
    assert {l1.d for l1, _ in seeded} == {-1, -3}
    assert {order_disc(l2) for _, l2 in seeded} > {-3, -4, -12, -16, -27, -36}
    for l1, l2 in visited + seeded:
        basis = hom_basis(l1, l2)
        assert spans_same_lattice(basis, hom_lattice_by_intersection(l1, l2)), (l1, l2)
        for m, beta in zip(hom_lattice(l1, l2), basis):
            assert m == beta_matrix_by_products(beta, l1, l2), (l1, l2)


def screen_visited_pairs(monkeypatch):
    """The (L1, L2) of every hom_lattice call of a screen from cold caches."""
    visited = []
    real = cmhom.hom_lattice

    def recording(l1, l2):
        visited.append((l1, l2))
        return real(l1, l2)

    monkeypatch.setattr(cmhom, "hom_lattice", recording)
    cmhom.degree_profile.cache_clear()
    try:
        pipeline.run_screen()
    finally:
        cmhom.degree_profile.cache_clear()
        monkeypatch.undo()
    return visited


def test_cold_screen_cache_pattern():
    # A cold screen makes 483 degree_profile misses and 377 hits, the
    # (misses, hits) that the benchmark's cold-state gate requires of a cold
    # classify, and finds the golden 18 discriminant pairs.
    cmhom.degree_profile.cache_clear()
    bqf.reduced_forms.cache_clear()
    try:
        pairs = pipeline.run_screen()
        info = cmhom.degree_profile.cache_info()
    finally:
        cmhom.degree_profile.cache_clear()
    pipeline.check_screen(pairs, pipeline.load_golden())
    assert len(pairs) == 18
    assert (info.misses, info.hits) == (483, 377)


def test_rank_rule_matches_the_gcd_rule_on_a_cold_screen(monkeypatch):
    # On every lattice pair of a cold screen, the kernel 2-torsion read off
    # the rank of each coset's matrix mod 2 gives the (m, d) pairs that the
    # elementary divisors of each morphism's matrix give, each with the same
    # number of morphisms, and the cache pattern is the one the benchmark's
    # cold-state gate requires.
    visited = screen_visited_pairs(monkeypatch)
    assert len(set(visited)) == len(visited) == 483
    cmhom.degree_profile.cache_clear()
    bqf.reduced_forms.cache_clear()
    try:
        pipeline.run_screen()
        info = cmhom.degree_profile.cache_info()
    finally:
        cmhom.degree_profile.cache_clear()
    assert (info.misses, info.hits) == (483, 377)
    bound = 2 * cmhom.NMAX
    for l1, l2 in visited:
        got = profile_pairs(degree_profile(l1, l2))
        assert got == oracles.profile_pairs_by_gcd(l1, l2, bound), (l1, l2)


def test_packed_screen_matches_the_set_rule(monkeypatch):
    # Every lattice pair (E, F) of a cold screen: the packed verdict against
    # the set rule on the decoded profiles, and each 16-bit slot s of
    # e1*f1 + e2*f2 + e4*f4 against the number of pairs of morphisms with
    # profile pairs (m1, d), (m2, d) and m1 + m2 = s, the product of their
    # multiplicities summed, which stays below 2^15, so no slot carries into
    # the next.
    tried = []
    real = cmhom.screen_pair

    def recording(le, lf):
        verdict = real(le, lf)
        tried.append((le, lf, verdict))
        return verdict

    monkeypatch.setattr(cmhom, "screen_pair", recording)
    cmhom.degree_profile.cache_clear()
    bqf.reduced_forms.cache_clear()
    try:
        cmhom.screen_all(pipeline.screen_input())
        info = cmhom.degree_profile.cache_info()
        checked = []
        for le, lf, verdict in tried:
            (e1, e2, e4), (f1, f2, f4) = degree_profile(le, le), degree_profile(le, lf)
            s_e, s_f = profile_pairs((e1, e2, e4)), profile_pairs((f1, f2, f4))
            assert verdict == screen_by_sets(s_e, s_f, cmhom.NMAX), (le, lf)
            counts = Counter()
            for (m1, d1), k1 in s_e.items():
                for (m2, d2), k2 in s_f.items():
                    if d1 == d2:
                        counts[m1 + m2] += k1 * k2
            product, top = e1 * f1 + e2 * f2 + e4 * f4, 4 * cmhom.NMAX + 1
            mask = (1 << PROFILE_SLOT_BITS) - 1
            slots = {s: product >> PROFILE_SLOT_BITS * s & mask for s in range(top)}
            assert product >> PROFILE_SLOT_BITS * top == 0, (le, lf)
            assert slots == {s: counts[s] for s in slots}, (le, lf)
            assert max(slots.values()) < 2 ** 15
            checked.append(verdict)
    finally:
        cmhom.degree_profile.cache_clear()
    assert (info.misses, info.hits) == (483, 377)
    assert len(checked) == 430
    assert checked.count(True) == 45


def record_cold_search(monkeypatch):
    """A cold run_search, recorded stage by stage ("screen", then "sweep"):
    each hom_cosets call as (w1, w2, result), each coset_thetas call as its
    reduced form, and the number of hom_lattice calls; with degree_profile's
    (misses, hits).  The caches are cleared first, as the benchmark does."""
    stage = ["sweep"]
    calls = {name: {"screen": [], "sweep": []} for name in ("cosets", "thetas", "lattice")}
    real_cosets, real_thetas, real_lattice = cmhom.hom_cosets, cmhom.coset_thetas, cmhom.hom_lattice
    real_screen = pipeline.run_screen

    def cosets(w1, w2):
        out = real_cosets(w1, w2)
        calls["cosets"][stage[0]].append((w1, w2, out))
        return out

    def thetas(*form):
        calls["thetas"][stage[0]].append(form)
        return real_thetas(*form)

    def lattice(w1, w2):
        calls["lattice"][stage[0]].append((w1, w2))
        return real_lattice(w1, w2)

    def screen():
        stage[0] = "screen"
        try:
            return real_screen()
        finally:
            stage[0] = "sweep"

    monkeypatch.setattr(cmhom, "hom_cosets", cosets)
    monkeypatch.setattr(cmhom, "coset_thetas", thetas)
    monkeypatch.setattr(cmhom, "hom_lattice", lattice)
    monkeypatch.setattr(pipeline, "run_screen", screen)
    cmhom.degree_profile.cache_clear()
    bqf.reduced_forms.cache_clear()
    try:
        rows, report = pipeline.run_search()
        info = cmhom.degree_profile.cache_info()
    finally:
        cmhom.degree_profile.cache_clear()
        monkeypatch.undo()
    assert (report.candidates, report.survivors, len(rows)) == (135, 20, 20)
    return calls, (info.misses, info.hits)


def test_hom_cosets_match_the_per_pair_enumeration_on_a_cold_search(monkeypatch):
    # Every Hom lattice of a cold run_search, 483 in the screen, then 135
    # Hom(F, E) and 14 End(E) in the sweep: the cosets relabelled from its
    # reduced form's series are exactly those of its own form, enumerated
    # with each value checked against its matrix's determinant, and its
    # matrices mod 2 and form are unchanged.
    calls, _ = record_cold_search(monkeypatch)
    screen, sweep = calls["cosets"]["screen"], calls["cosets"]["sweep"]
    assert len(screen) == 483
    assert len(sweep) == 135 + 14 and len({tau for _, tau, _ in sweep}) == 14
    bound = 2 * cmhom.NMAX
    for w1, w2, got in screen + sweep:
        assert got == oracles.hom_cosets_by_enumeration(w1, w2, bound), (w1, w2)


def test_a_cold_search_enumerates_each_reduced_form_once_per_run(monkeypatch):
    # A cold run_search meets 89 reduced forms up to the sign of b, each
    # enumerated once as (a, |b|, c), all in the screen: the sweep's 20 are
    # among them, so it enumerates none.  The store starts empty with each
    # run, so after the benchmark's two cache clears a second run enumerates
    # the 89 again.  Each Hom lattice is still built once (632 hom_lattice
    # calls), and degree_profile keeps its (483, 377).
    for _ in range(2):
        calls, cache = record_cold_search(monkeypatch)
        forms = calls["thetas"]["screen"]
        assert len(forms) == len(set(forms)) == 89
        assert all(b >= 0 for _, b, _ in forms)
        assert calls["thetas"]["sweep"] == []
        swept = {(a, abs(b), c) for (a, b, c), _ in
                 (cmhom.gauss_reduce(*form) for _, _, (_, _, form) in calls["cosets"]["sweep"])}
        assert len(swept) == 20 and swept <= set(forms)
        lattices = calls["lattice"]
        assert (len(lattices["screen"]), len(lattices["sweep"])) == (483, 149)
        assert cache == (483, 377)


def apply(form, g):
    """The coefficients of form(g*v), g = (u, v, w, z) = ((u, v), (w, z))."""
    (a, b, c), (u, v, w, z) = form, g
    return (a * u * u + b * u * w + c * w * w,
            2 * (a * u * v + c * w * z) + b * (u * z + v * w),
            a * v * v + b * v * z + c * z * z)


def test_gauss_reduce_gives_the_one_reduced_form_of_each_class():
    # Random positive forms moved by random SL2(Z) matrices: the reduction is
    # reduced (|b| <= a <= c, b >= 0 if |b| = a or a = c), U is in SL2(Z)
    # with f(v) = f'(U*v) on a box of vectors, and a form and its image
    # reduce to the same form, which the form itself is when reduced.
    rng = random.Random(20261021)
    steps = ((1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0))
    for _ in range(300):
        a, c = rng.randint(1, 60), rng.randint(1, 60)
        b = rng.randint(-isqrt(4 * a * c - 1), isqrt(4 * a * c - 1))
        g = (1, 0, 0, 1)
        for _ in range(rng.randint(0, 12)):
            (u, v, w, z), (p, q, r, t) = g, rng.choice(steps)
            g = (u * p + v * r, u * q + v * t, w * p + z * r, w * q + z * t)
        reduced = cmhom.gauss_reduce(a, b, c)[0]
        for form in ((a, b, c), apply((a, b, c), g)):
            (ra, rb, rc), (u, v, w, z) = cmhom.gauss_reduce(*form)
            assert (ra, rb, rc) == reduced, form
            assert abs(rb) <= ra <= rc and (rb >= 0 or (-rb != ra and ra != rc)), form
            assert u * z - v * w == 1, form
            for x in range(-3, 4):
                for y in range(-3, 4):
                    f = form[0] * x * x + form[1] * x * y + form[2] * y * y
                    x2, y2 = u * x + v * y, w * x + z * y
                    assert f == ra * x2 * x2 + rb * x2 * y2 + rc * y2 * y2, (form, x, y)
        if abs(b) <= a <= c and (b >= 0 or (-b != a and a != c)):
            assert reduced == (a, b, c)


def test_a_reduction_that_is_no_equivalence_stops_the_screen(monkeypatch, capsys):
    # The per-pair check that f = f'(U*v) coefficient by coefficient: a
    # reduced form with c' one too large fails it on every pair, and the
    # screen exits 3 with one line, as for any broken invariant.
    real = cmhom.gauss_reduce

    def shifted(a, b, c):
        (ra, rb, rc), u = real(a, b, c)
        return (ra, rb, rc + 1), u

    monkeypatch.setattr(cmhom, "gauss_reduce", shifted)
    cmhom.degree_profile.cache_clear()
    try:
        code = cli.main(["screen"])
    finally:
        cmhom.degree_profile.cache_clear()
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == ("internal invariant violated: "
                   "the reduced form composed with U differs from the determinant form\n")


def test_order_disc_is_the_discriminant_of_the_hnf_ring(monkeypatch):
    # tr(M2)^2 - 4*det(M2) against (beta - conj(beta))^2 for the ring
    # Z + Z*beta, read off the HNF intersection's basis b1, b2 as
    # (b1*conj(b2) - conj(b1)*b2)^2, which no change of basis alters; on every
    # lattice that a cold screen visits and on the seeded isogeny walks.
    lattices = {lat for pair in screen_visited_pairs(monkeypatch) + seeded_isogeny_pairs()
                for lat in pair}
    assert len(lattices) > 200
    discs = set()
    for lat in lattices:
        b1, b2 = hom_lattice_by_intersection(lat, lat)
        delta = b1 * conj(b2) - conj(b1) * b2
        assert KElem(lat.d, order_disc(lat), 0) == delta * delta, lat
        discs.add(order_disc(lat))
    assert discs > {-3, -4, -12, -16, -27, -36, -72}


def conj(z):
    return KElem(z.d, z.p, -z.q, z.r)


def test_hom_lattice_cross_containments():
    l1 = KElem(-6, 0, 1)
    l2 = kelem(-6, 1, Fraction(1, 2))  # (2+sqrt(-6))/2
    b1, b2 = hom_basis(l1, l2)
    for beta in (b1, b2):
        assert coords(l2, beta) is not None and coords(l2, beta * l1) is not None
    assert coords(l2, b1 / 2) is None or coords(l2, b1 * l1 / 2) is None


def test_morphism_degrees():
    assert morphism_degree(KElem(-1, 1, 0), ZI, ZI) == 1
    assert morphism_degree(KElem(-1, 1, 1), ZI, ZI) == 2
    assert morphism_degree(KElem(-1, 2, 0), ZI, ZI) == 4
    for lat in (ZI, KElem(-5, 0, 1)):
        two = KElem(lat.d, 2, 0)
        assert morphism_degree(two, lat, lat) == 4


def test_kernel_two_torsion():
    assert kernel_two_torsion(KElem(-1, 1, 0), ZI, ZI) == 1
    assert kernel_two_torsion(KElem(-1, 2, 0), ZI, ZI) == 4
    assert kernel_two_torsion(KElem(-1, 1, 1), ZI, ZI) == 2
    with pytest.raises(ValueError):
        kernel_two_torsion(KElem(-1, 0, 0), ZI, ZI)


def test_two_torsion_membership_characterization():
    # d = 4 iff beta/2 still maps L1 into L2; d = 1 iff beta is injective on
    # the half-lattice modulo L1.
    rng = random.Random(41)
    for l1 in SMALL_LATTICES:
        for l2 in SMALL_LATTICES:
            if l1.d != l2.d:
                continue
            b1, b2 = hom_basis(l1, l2)
            for _ in range(12):
                beta = rng.randrange(-3, 4) * b1 + rng.randrange(-3, 4) * b2
                if beta.p == beta.q == 0:
                    continue
                d = kernel_two_torsion(beta, l1, l2)
                assert d in (1, 2, 4)
                half = beta / 2
                half_in = coords(l2, half) is not None and coords(l2, half * l1) is not None
                assert (d == 4) == half_in


def test_degree_profile_agrees_with_per_morphism_oracles(monkeypatch):
    # The integer profile's pairs of degree at most 20 (|det| of the beta
    # matrix, rank of its coset's matrix mod 2), each with its number of
    # morphisms, against morphism_degree and kernel_two_torsion of each
    # beta = x*b1 + y*b2 up to degree 20, found by box enumeration.  The
    # small lattices all have Hom bases with x1 = 0 (M2's top-left entry), so
    # the 18 pairs of a cold screen whose basis has x1 != 0 are checked as
    # well.
    bound, lim = 20, 12
    pairs = [(l1, l2) for l1 in SMALL_LATTICES for l2 in SMALL_LATTICES if l1.d == l2.d]
    x1_pairs = [(l1, l2) for l1, l2 in screen_visited_pairs(monkeypatch)
                if hom_lattice(l1, l2)[1][0][0] != 0]
    assert len(x1_pairs) == 18
    for l1, l2 in pairs + x1_pairs:
        b1, b2 = hom_basis(l1, l2)
        ratio = pair(l1)[1] / pair(l2)[1]
        expected = Counter({(0, 4): 1})
        for x in range(-lim, lim + 1):
            for y in range(-lim, lim + 1):
                beta = x * b1 + y * b2
                if beta.p == beta.q == 0 or norm(beta) * ratio > bound:
                    continue
                assert max(abs(x), abs(y)) < lim, "box too small for the bound"
                expected[morphism_degree(beta, l1, l2), kernel_two_torsion(beta, l1, l2)] += 1
        got = {(m, d): k for (m, d), k in profile_pairs(degree_profile(l1, l2)).items()
               if m <= bound}
        assert got == expected, (l1, l2)
        assert len(got) > 5


def test_degree_profile_gaussian():
    packed = degree_profile(ZI, ZI)
    assert len(packed) == 3 and all(type(p) is int and p >= 0 for p in packed)
    prof = profile_pairs(packed)
    for expected in ((0, 4), (1, 1), (2, 2), (4, 4), (5, 1)):
        assert expected in prof
    assert all(d in (1, 2, 4) for _, d in prof)
    assert all(m <= 62 for m, _ in prof)


def test_degree_profile_disc59():
    e = kelem(-59, Fraction(1, 2), Fraction(1, 2))
    small = {m for m, _ in profile_pairs(degree_profile(e, e)) if m <= 8}
    assert small == {0, 1, 4}
    f = form_class_points(-59)[1]
    small_hom = {m for m, _ in profile_pairs(degree_profile(e, f)) if m <= 8}
    assert small_hom == {0, 3, 5, 7}


def test_degree_profile_duality():
    # The multiset of degrees <= 62 agrees in both directions.
    def degree_multiset(l1, l2, bound=62):
        b1, b2 = hom_basis(l1, l2)
        ratio = pair(l1)[1] / pair(l2)[1]
        out = []
        lim = isqrt(4 * bound * 10) + 2
        for x in range(-lim, lim + 1):
            for y in range(-lim, lim + 1):
                if x == 0 and y == 0:
                    continue
                beta = x * b1 + y * b2
                deg = norm(beta) * ratio
                if deg <= bound:
                    out.append(int(deg))
        return sorted(out)

    cases = [
        (ZI, KElem(-1, 0, 5)),
        (KElem(-2, 0, 1), KElem(-2, 0, 3)),
        (KElem(-3, 0, 1),
         kelem(-3, Fraction(-1, 2), Fraction(1, 2))),
    ]
    for l1, l2 in cases:
        assert degree_multiset(l1, l2) == degree_multiset(l2, l1)


def test_norm_solutions_and_lemma_lists():
    assert set(norm_solutions(-4, 2)) == {(1, 1), (-1, -1), (3, 1), (-3, -1)}
    assert primitive_norm_discriminants(2) == frozenset({-4, -7, -8})
    assert primitive_norm_discriminants(5) == frozenset({-4, -11, -16, -19, -20})
    assert primitive_norm_discriminants(35) == frozenset(
        {-19, -31, -35, -40, -59, -76, -91, -104, -115, -124, -131, -136, -139, -140}
    )


def test_norm_solutions_are_norms():
    rng = random.Random(42)
    for _ in range(50):
        delta = rng.choice((-3, -4, -7, -8, -11, -12, -15, -16, -19, -20, -59))
        n = rng.randrange(1, 40)
        for x, y in norm_solutions(delta, n):
            assert x * x + delta * x * y + (delta * delta - delta) // 4 * y * y == n


def test_norm_solutions_match_a_box_enumeration():
    # Every discriminant in [-60, -3] and every n in [0, 60], squares and 0
    # included, so the solutions with y = 0 are compared too.  From
    # 4n = (2x + delta*y)^2 - delta*y^2 the box |y| <= sqrt(4n/|delta|),
    # |x| <= sqrt(n) + |delta|*|y|/2 holds every solution.
    for delta in range(-60, -2):
        if delta % 4 not in (0, 1):
            continue
        c = (delta * delta - delta) // 4
        for n in range(61):
            ymax = isqrt(4 * n // -delta)
            xmax = isqrt(n) + -delta * ymax // 2 + 1
            box = [(x, y) for x in range(-xmax, xmax + 1) for y in range(-ymax, ymax + 1)
                   if x * x + delta * x * y + c * y * y == n]
            assert norm_solutions(delta, n) == box, (delta, n)


def test_p_neighbors():
    assert p_neighbors(ZI, 1) == (ZI,)
    nbrs = p_neighbors(ZI, 2)
    assert len(nbrs) == 3
    omegas = {str(n) for n in nbrs}
    assert omegas == {
        "(0 + 2*sqrt(-1))/1",
        "(0 + 1*sqrt(-1))/2",
        "(1 + 1*sqrt(-1))/2",
    }
    rt2 = KElem(-2, 0, 1)
    assert -32 in {order_disc(n) for n in p_neighbors(rt2, 2)}
    with pytest.raises(ValueError):
        p_neighbors(ZI, 4)


def test_order_disc():
    assert order_disc(ZI) == -4
    assert order_disc(2 * I) == -16
    assert order_disc(kelem(-59, Fraction(1, 2), Fraction(1, 2))) == -59
    assert order_disc(kelem(-5, Fraction(-1, 2), Fraction(1, 2))) == -20
    # A rational omega spans no lattice with 1, as in coords.
    for omega in (KElem(-1, 0, 0), KElem(-1, 1, 0), kelem(-3, Fraction(-1, 2), 0)):
        with pytest.raises(ValueError, match="rational"):
            order_disc(omega)


def test_homothety():
    # The screen's isomorphy flag: <1, w1> and <1, w2> are homothetic iff
    # w1 and w2 are SL2(Z)-equivalent.
    assert gamma1_equivalent(I, I)
    assert gamma1_equivalent(KElem(-1, 0, 5), kelem(-1, 0, Fraction(1, 5)))
    assert not gamma1_equivalent(I, 2 * I)
    # sqrt(-1) and sqrt(-2) share the triple (0, 1, 1) but lie in two fields.
    assert not gamma1_equivalent(I, KElem(-2, 0, 1))


def test_contains_agrees_with_in_lattice_on_the_hnf():
    # The closed-form coordinates against intlinalg's membership test on the
    # lattice's own HNF, on seeded elements near the lattice: maximal orders
    # of d = -1, -3, -5, the non-maximal orders of discriminant -16 and -27,
    # and a lattice whose omega has a denominator.
    rng = random.Random(29)
    lattices = [KElem(-1, 0, 1), kelem(-3, Fraction(1, 2), Fraction(1, 2)),
                KElem(-5, 0, 1), KElem(-1, 0, 2),
                kelem(-3, Fraction(1, 2), Fraction(3, 2)),
                kelem(-6, 1, Fraction(1, 2))]
    for lat in lattices:
        hnf, w, outcomes = oracles.cm_lattice_hnf(lat), lat, set()
        for _ in range(300):
            x = (rng.randint(-9, 9) * w + rng.randint(-9, 9)) / rng.choice((1, 1, 2, 3, 4, 6))
            inside = coords(lat, x) is not None
            assert inside == la.in_lattice(hnf, x.r, (x.p, x.q)), (lat, x)
            if inside:
                u, v = coords(lat, x)
                assert v * w + u == x, (lat, x)
            outcomes.add(inside)
        assert outcomes == {True, False}, lat
        assert coords(lat, w) is not None and coords(lat, w / 2) is None


def test_coords_rejects_a_rational_omega():
    # <1, omega> is a lattice only for omega off the real line.
    for omega in (KElem(-1, 1, 0), kelem(-3, Fraction(-1, 2), 0), KElem(-5, 0, 0)):
        with pytest.raises(ValueError, match="rational"):
            coords(omega, I)


def test_screen_pair_examples():
    assert screen_pair(ZI, ZI)  # the (-4, -4) pair is on the surviving list
    rt2 = KElem(-2, 0, 1)
    f72 = KElem(-2, 0, 3)
    assert order_disc(f72) == -72
    assert screen_pair(rt2, f72)  # the (-8, -72) pair survives


def test_screen_pair_disc59_passes_weak_screen(monkeypatch):
    # The degree-matching screen alone does not eliminate the -59 pair; the
    # exclusion rests on the norm-35 residue argument (disc59_check) and, as
    # a belt-and-braces check, on the period-lattice stage (see the pipeline
    # tests).  -59 is on the degree-35 lemma list, which feeds the degree-5
    # screen input, and only the certificate takes it out of the sweep.
    e = kelem(-59, Fraction(1, 2), Fraction(1, 2))
    f = form_class_points(-59)[1]
    assert screen_pair(e, f)
    assert -59 in pipeline.run_lemma_lists()[35]
    assert disc59_check()["discriminant"] == -59
    table = pipeline.screen_input()
    assert all(-59 not in discs for discs in table.values())
    assert -140 in table[5]  # the rest of the degree-35 list stays
    monkeypatch.setattr(cmhom, "disc59_check", lambda: {"discriminant": 0})
    assert -59 in pipeline.screen_input()[5]


def test_disc59_check():
    report = disc59_check()
    assert report["element_count"] == 4
    assert set(report["elements"]) == {
        "(9 + 1*sqrt(-59))/2",
        "(9 + -1*sqrt(-59))/2",
        "(-9 + 1*sqrt(-59))/2",
        "(-9 + -1*sqrt(-59))/2",
    }
    assert report["excluded"] is True
    assert all(not r["congruent_to_1_mod_2"] for r in report["residues"])
    gamma = kelem(-59, Fraction(9, 2), Fraction(1, 2))
    assert norm(gamma) == 35
    half = (gamma - 1) / 2
    assert half == kelem(-59, Fraction(7, 4), Fraction(1, 4))


def test_p_neighbors_realize_cyclic_isogenies():
    # Every neighbor target admits a degree-p map induced by 1 or p, with a
    # cyclic kernel (at most 2 points of order dividing 2).
    table = pipeline.screen_input()
    for p in (2, 3, 5):
        for delta in table[p][:4]:
            lat = form_class_points(delta)[0]
            for nbr in p_neighbors(lat, p):
                found = False
                for beta in (KElem(lat.d, 1, 0), KElem(lat.d, p, 0)):
                    if coords(nbr, beta) is not None and coords(nbr, beta * lat) is not None:
                        if morphism_degree(beta, lat, nbr) == p:
                            assert kernel_two_torsion(beta, lat, nbr) in (1, 2)
                            found = True
                            break
                assert found, (p, delta, nbr)
