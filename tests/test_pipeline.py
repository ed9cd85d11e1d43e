import hashlib
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from oracles import TARGET_VALUES, glued_values, kelem, pair, value_counts
from splitjac import cli, cmhom, periodlattice, pipeline, qforms, universal
from splitjac import intlinalg as la
from splitjac.bqf import (canon_gamma2, form_class_points, gamma1_equivalent, gamma2_tiles, in_F1,
                          in_F2, reduced_forms)
from splitjac.cmhom import screen_pair
from splitjac.invariants import InvariantViolation
from splitjac.periodlattice import (
    SYMPLECTIC_GRAM,
    PeriodLattice,
    degree_gram,
    diag_isomorphic,
    polarization_gram,
    represented_small_values,
)
from splitjac.quadfield import KElem, mobius, squarefree_part


def test_lemma_lists_match_golden(golden):
    lists = pipeline.run_lemma_lists()
    pipeline.check_lemma_lists(lists, golden)
    assert lists[6] == (-8, -15, -20, -23, -24)
    assert lists[10] == (-4, -15, -24, -31, -36, -39, -40)
    assert lists[7] == (-3, -7, -12, -19, -24, -27, -28)


def test_screen_matches_golden(golden, screen_pairs):
    pipeline.check_screen(screen_pairs, golden)
    assert len(screen_pairs) == 18
    as_set = {(a, b) for a, b, _ in screen_pairs}
    for pair in ((-4, -100), (-12, -48), (-16, -64), (-8, -72)):
        assert pair in as_set
    flags = {(a, b): iso for a, b, iso in screen_pairs}
    assert flags[(-24, -24)] is False
    assert flags[(-36, -36)] is False
    assert flags[(-3, -3)] is True
    assert (-59, -59) not in flags


def test_screen_iso_flags(screen_pairs):
    for de, df, iso in screen_pairs:
        if de != df:
            assert iso is False
        elif -de in (3, 4, 7, 8, 11, 12, 16, 19, 20):
            assert iso is True
        else:
            assert -de in (24, 36) and iso is False


def test_classification_matches_golden(golden, classification):
    rows, report = classification
    assert len(rows) == 20
    assert pipeline.check_classification(rows, golden) is None
    # Every row is certified: the diagonal lattice isomorphisms between the
    # computed and the fixture rows form a bijection, whatever the keys.
    fixture = [PeriodLattice(KElem.from_string(exp["tau"]), KElem.from_string(exp["sigma"]))
               for exp in golden["classification"]]
    certified = [
        [j for j, lat in enumerate(fixture)
         if diag_isomorphic(PeriodLattice(row.tau, row.sigma), lat)]
        for row in rows
    ]
    assert all(len(hits) == 1 for hits in certified), certified
    assert sorted(hits[0] for hits in certified) == list(range(20))


def test_classification_rows_in_domains(classification):
    rows, _ = classification
    for row in rows:
        assert in_F1(row.tau)
        assert in_F2(row.sigma)


def test_classification_row_counts(classification, screen_pairs):
    rows, report = classification
    by_form = {}
    screen_set = {(a, b) for a, b, _ in screen_pairs}
    for row in rows:
        by_form[row.form_id] = by_form.get(row.form_id, 0) + 1
        assert (row.delta_e, row.delta_f) in screen_set
    assert by_form == {1: 6, 2: 4, 3: 6, 4: 4}
    report.check_monotone()
    assert report.survivors == 20
    assert report.candidates >= 100


def test_each_row_has_its_degree_two_maps_and_one_swapped_twin(classification):
    # The "exactly" half of the theorem.  The vectors of value 2 of a row's
    # degree form are its degree-2 maps C -> E; there are |O_E^x| of them,
    # twice that when tau ~ sigma, where E = F and the maps to F count too.  A
    # row with delta_E = delta_F presents, with E and F swapped, exactly one
    # row of its form.
    rows, _ = classification
    maps = {}
    for row in rows:
        units = {-3: 6, -4: 4}.get(row.delta_e, 2)
        pairs = sum(1 for _, value in qforms.short_vectors(row.gram, 2) if value == 2)
        assert 2 * pairs == units * (1 + gamma1_equivalent(row.tau, row.sigma)), row.index
        theta, _ = cmhom.glue(cmhom.hom_cosets(row.tau, row.tau),
                              cmhom.hom_cosets(row.sigma, row.tau))
        assert cmhom.slot(theta, 4) == 2 * pairs, row.index
        maps[row.index] = 2 * pairs
    assert maps == {i: 4 if i in (1, 2, 13, 14) else 2 for i in range(1, 21)}
    twins = {}
    for row in rows:
        if row.delta_e == row.delta_f:
            swapped = PeriodLattice(row.sigma, row.tau)
            twins[row.index] = [other.index for other in rows if other.form_id == row.form_id
                                and diag_isomorphic(swapped, PeriodLattice(other.tau, other.sigma))]
    assert twins == {13: [13], 14: [14], 15: [16], 16: [15], 17: [20], 18: [19], 19: [18], 20: [17]}


def test_specific_rows(classification):
    rows, _ = classification
    row7 = [
        r for r in rows
        if (r.delta_e, r.delta_f) == (-8, -72)
        and str(r.sigma) == "(6 + 1*sqrt(-2))/6"
    ]
    assert len(row7) == 1 and row7[0].form_id == 3
    rows_9_10 = [r for r in rows if (r.delta_e, r.delta_f) == (-12, -3)]
    assert len(rows_9_10) == 2
    assert {str(r.sigma) for r in rows_9_10} == {
        "(-1 + 1*sqrt(-3))/2",
        "(1 + 1*sqrt(-3))/2",
    }


def test_witnesses_transport_grams(classification):
    from splitjac import intlinalg as la
    from splitjac.qforms import REFERENCE_FORMS

    rows, _ = classification
    for row in rows:
        u = row.witness
        target = REFERENCE_FORMS[row.form_id].gram
        assert la.matmul(la.transpose(u), la.matmul(row.gram, u)) == la.freeze(target)
        assert abs(la.det(u)) == 1


def test_polarization_for_all_candidates(screen_pairs):
    cands = pipeline.generate_candidates(screen_pairs)
    for cand in cands:
        lat = PeriodLattice(cand.tau, cand.sigma)
        assert polarization_gram(lat) == SYMPLECTIC_GRAM


def test_row_order_and_merge_representatives_follow_the_rational_order(
        classification, screen_pairs, monkeypatch):
    # Both orders read the coefficients as integers over a shared
    # denominator; here they are checked against a sort on Fractions.
    rows, _ = classification
    assert rows == sorted(rows, key=lambda row: (abs(row.delta_e), abs(row.delta_f),
                                                 *pair(row.tau), *pair(row.sigma)))
    groups = {}  # each merged group by its representative, the lattice certified onto

    def recording(lat, representative):
        merged = diag_isomorphic(lat, representative)
        groups.setdefault(representative, [representative]).append(lat)
        return merged

    monkeypatch.setattr(periodlattice, "diag_isomorphic", recording)
    kept = {cand.lattice for cand in pipeline.generate_candidates(screen_pairs)}
    assert len(groups) == 7
    for group in groups.values():
        best = max(group, key=lambda lat: (pair(lat.sigma)[1], -pair(lat.sigma)[0]))
        assert [lat for lat in group if lat in kept] == [best], group


def same_field_triples():
    """The (delta_E, delta_F, flag) triples of two lemma-list discriminants of
    one field, each of class number at most 2, where the flag is delta_E =
    delta_F, or either flag for equal discriminants of class number 2."""
    discs = sorted({delta for deltas in pipeline.run_lemma_lists().values() for delta in deltas
                    if len(form_class_points(delta)) <= 2}, key=abs)
    out = []
    for de in discs:
        for df in discs:
            if squarefree_part(de) == squarefree_part(df):
                both = de == df and len(form_class_points(de)) == 2
                out += [(de, df, flag) for flag in ((True, False) if both else (de == df,))]
    return tuple(out)


def test_candidates_are_the_pairwise_merge_read_off_the_stabilizer(screen_pairs):
    # The orbits of tau's stabilizer are the groups of the pairwise search,
    # with the same representatives in the same order: on the screen's
    # pairs, and on the wider same-field triples, which reach tau = i and
    # tau = rho against every second curve of their fields.
    wide = same_field_triples()
    assert len(wide) == 40
    for pairs, count in ((screen_pairs, 135), (wide, 318)):
        cands = pipeline.generate_candidates(pairs)
        assert len(cands) == count
        assert cands == oracles.candidates_by_pairwise_merge(pairs)


def test_a_cold_search_certifies_each_merge_once(monkeypatch):
    # The sweep tests no pair of classes for an isomorphism: it certifies
    # each of the 7 merges, a class of an orbit onto the orbit's
    # representative, which share tau.
    calls = []

    def recording(l1, l2):
        out = diag_isomorphic(l1, l2)
        calls.append((l1, l2, out))
        return out

    monkeypatch.setattr(periodlattice, "diag_isomorphic", recording)
    cmhom.degree_profile.cache_clear()
    reduced_forms.cache_clear()
    pipeline.run_search()
    assert len(calls) == 7
    assert all(out and l1.tau == l2.tau and l1 != l2 for l1, l2, out in calls), calls


def test_determinism(classification):
    rows1, _ = classification
    rows2, _ = pipeline.run_search()
    assert [r.to_dict() for r in rows1] == [r.to_dict() for r in rows2]


def test_fixture_rows_transport_under_the_modular_group(golden, classification):
    # Moving tau by g in SL2(Z) and sigma by the transpose of g presents the
    # same polarized surface, so every fixture row moved by a random word in
    # T, T^-1 and S must still be certified against its computed row.
    rows, _ = classification
    words = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0)))
    rng = random.Random(14)
    for _ in range(5):
        moved = json.loads(json.dumps(golden))
        for row in moved["classification"]:
            tau, sigma = KElem.from_string(row["tau"]), KElem.from_string(row["sigma"])
            for _ in range(rng.randrange(1, 9)):
                g = rng.choice(words)
                (a, b), (c, d) = g
                tau, sigma = mobius(g, tau), mobius(((a, c), (b, d)), sigma)
            row["tau"], row["sigma"] = str(tau), str(sigma)
        assert moved != golden
        pipeline.check_classification(rows, moved)


def test_cold_search_builds_no_maps_module_and_puts_no_lattice_in_hnf(golden, monkeypatch):
    # Lambda is Z^4 in its basis b1..b4, and every survivor is classified on
    # its glued form, so a cold search and its fixture check build no maps
    # module and no period-lattice degree form and put no lattice in HNF:
    # their congruence kernels are glued_gram's, one per survivor, and each
    # survivor makes one isometry search.
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("lattice", "hnf", "congruence_kernel"):
        counting(la, name)
    for name in ("maps_module", "degree_gram"):
        counting(periodlattice, name)
    counting(qforms, "equivalent")
    cmhom.degree_profile.cache_clear()
    reduced_forms.cache_clear()
    rows, report = pipeline.run_search()
    pipeline.check_classification(rows, golden)
    assert calls == {"congruence_kernel": 20, "equivalent": 20}
    assert (report.candidates, report.survivors, len(rows)) == (135, 20, 20)


def test_small_value_test_enumerates_no_form_outside_the_isometry_search(monkeypatch):
    # The small-value test reads the glued products and each survivor is
    # classified on its glued form, so no period-lattice degree form is built
    # and every short-vector enumeration of the sweep is inside the 20
    # survivors' isometry searches, one each, against the reference form
    # that the determinant names.  The verdicts are those of one enumeration to 31 of the
    # period-lattice degree form, on all 135 candidates.
    one_pass, gram, short = (periodlattice.represented_small_values, periodlattice.degree_gram,
                             qforms.short_vectors)
    equivalent, calls, inside = qforms.equivalent, Counter(), [False]

    def counting(name, fn):
        def wrapper(*args):
            calls[name, inside[0]] += 1
            return fn(*args)
        return wrapper

    def searching(f1, f2):
        calls["equivalent", inside[0]] += 1
        inside[0] = True
        try:
            return equivalent(f1, f2)
        finally:
            inside[0] = False

    monkeypatch.setattr(periodlattice, "represented_small_values",
                        counting("represented_small_values", one_pass))
    monkeypatch.setattr(periodlattice, "degree_gram", counting("degree_gram", gram))
    monkeypatch.setattr(qforms, "short_vectors", counting("short_vectors", short))
    monkeypatch.setattr(qforms, "equivalent", searching)
    results = [pipeline.evaluate_candidate(cand)
               for cand in pipeline.generate_candidates(pipeline.run_screen())]
    assert len(results) == 135
    assert calls == {("equivalent", False): 20, ("short_vectors", True): 20}
    monkeypatch.undo()
    for r in results:
        values = one_pass(gram(r["candidate"].lattice), 31)
        assert r["survived"] == (values == TARGET_VALUES)
        assert r["represents_one"] == (1 in values)
    assert sum(r["survived"] for r in results) == 20
    assert sum(r["represents_one"] for r in results) == 10


#: (index, delta_E, delta_F, tau, sigma, form id) of each row.  None of them
#: depends on which of two isometric degree forms the sweep classifies.
PINNED_ROWS = (
    (1, -4, -100, "(0 + 1*sqrt(-1))/1", "(0 + 5*sqrt(-1))/1", 2),
    (2, -4, -100, "(0 + 1*sqrt(-1))/1", "(12 + 5*sqrt(-1))/13", 2),
    (3, -8, -32, "(0 + 1*sqrt(-2))/1", "(0 + 1*sqrt(-2))/4", 1),
    (4, -8, -32, "(0 + 1*sqrt(-2))/1", "(2 + 1*sqrt(-2))/4", 1),
    (5, -8, -32, "(0 + 1*sqrt(-2))/1", "(1 + 1*sqrt(-2))/2", 1),
    (6, -8, -32, "(0 + 1*sqrt(-2))/1", "(4 + 1*sqrt(-2))/4", 1),
    (7, -8, -72, "(0 + 1*sqrt(-2))/1", "(6 + 1*sqrt(-2))/6", 3),
    (8, -8, -72, "(0 + 1*sqrt(-2))/1", "(2 + 3*sqrt(-2))/2", 3),
    (9, -12, -3, "(0 + 1*sqrt(-3))/1", "(-1 + 1*sqrt(-3))/2", 3),
    (10, -12, -3, "(0 + 1*sqrt(-3))/1", "(1 + 1*sqrt(-3))/2", 3),
    (11, -16, -4, "(0 + 2*sqrt(-1))/1", "(0 + 1*sqrt(-1))/1", 1),
    (12, -16, -4, "(0 + 2*sqrt(-1))/1", "(1 + 1*sqrt(-1))/1", 1),
    (13, -20, -20, "(-1 + 1*sqrt(-5))/2", "(3 + 1*sqrt(-5))/7", 2),
    (14, -20, -20, "(0 + 1*sqrt(-5))/1", "(0 + 1*sqrt(-5))/1", 2),
    (15, -24, -24, "(0 + 1*sqrt(-6))/2", "(6 + 1*sqrt(-6))/7", 3),
    (16, -24, -24, "(0 + 1*sqrt(-6))/1", "(2 + 1*sqrt(-6))/2", 3),
    (17, -36, -36, "(-1 + 3*sqrt(-1))/2", "(3 + 1*sqrt(-1))/3", 4),
    (18, -36, -36, "(-1 + 3*sqrt(-1))/2", "(1 + 3*sqrt(-1))/1", 4),
    (19, -36, -36, "(0 + 3*sqrt(-1))/1", "(4 + 3*sqrt(-1))/5", 4),
    (20, -36, -36, "(0 + 3*sqrt(-1))/1", "(6 + 3*sqrt(-1))/5", 4),
)


def test_printed_grams_are_the_glued_forms_of_the_same_rows(classification):
    # Each row prints glued_gram's 2G/2 for its (tau, sigma), isometric to the
    # period-lattice degree form it replaced, with a witness W that carries
    # it onto its reference form; the rows themselves are unchanged.
    rows, _ = classification
    assert tuple((row.index, row.delta_e, row.delta_f, str(row.tau), str(row.sigma),
                  row.form_id) for row in rows) == PINNED_ROWS
    for row in rows:
        glued2 = cmhom.glued_gram(cmhom.hom_cosets(row.tau, row.tau),
                                  cmhom.hom_cosets(row.sigma, row.tau))
        assert row.gram == la.divided(glued2, 2), row.index
        plain = qforms.QForm4(la.divided(degree_gram(PeriodLattice(row.tau, row.sigma)), 2))
        assert qforms.equivalent(qforms.QForm4(row.gram), plain) is not None, row.index
        w = row.witness
        image = la.matmul(la.transpose(w), la.matmul(row.gram, w))
        assert image == qforms.REFERENCE_FORMS[row.form_id].gram, row.index


@pytest.fixture(scope="module")
def glued_and_plain():
    """Per candidate of a cold sweep: its evaluation, its glued product and 2G
    (``cmhom.glue``), and its period-lattice 2G with values up to 31."""
    cmhom.degree_profile.cache_clear()
    reduced_forms.cache_clear()
    out = []
    for cand in pipeline.generate_candidates(pipeline.run_screen()):
        tau, sigma = cand.lattice
        end, hom = cmhom.hom_cosets(tau, tau), cmhom.hom_cosets(sigma, tau)
        theta, _ = cmhom.glue(end, hom)
        glued2 = cmhom.glued_gram(end, hom)
        plain2 = degree_gram(cand.lattice)
        out.append((pipeline.evaluate_candidate(cand), theta, glued2, plain2,
                    represented_small_values(plain2, 31)))
    return out


def test_glued_verdicts_match_the_period_lattice_degree_forms(glued_and_plain):
    # On every candidate the glued form, built from End(E) and Hom(F, E)
    # alone, takes the period-lattice form's values up to 31, is integral
    # exactly when it is, and has the same |det 2G|; the sweep's verdicts
    # are read off it.
    assert len(glued_and_plain) == 135
    for r, theta, glued2, plain2, values in glued_and_plain:
        cand = r["candidate"]
        assert glued_values(theta, 31) == values, cand
        assert r["represents_one"] == (1 in values), cand
        assert r["survived"] == (values == TARGET_VALUES), cand
        integral = la.divided(plain2, 2) is not None
        assert r["integral"] == (la.divided(glued2, 2) is not None) == integral, cand
        assert abs(la.det(glued2)) == abs(la.det(plain2)), cand
    assert sum(r["integral"] for r, *_ in glued_and_plain) == 125


def test_rejections_split_by_reason_in_order_of_precedence(glued_and_plain):
    # Each of the 115 rejected candidates by its first reason: a non-integral
    # degree form, then the value 1, then its least missing value n >= 2,
    # read off the glued product (its least empty even slot) and, alike, off
    # the period-lattice form.
    def reason(integral, values):
        if not integral:
            return "non-integral"
        if 1 in values:
            return "represents 1"
        return min(TARGET_VALUES - values)

    glued, plain = Counter(), Counter()
    for r, theta, glued2, plain2, values in glued_and_plain:
        if not r["survived"]:
            glued[reason(la.divided(glued2, 2) is not None, glued_values(theta, 31))] += 1
            plain[reason(la.divided(plain2, 2) is not None, values)] += 1
    assert glued == plain == {"non-integral": 10, "represents 1": 6, 3: 98, 5: 1}


def test_the_mod_4_rule_is_the_integrality_of_the_glued_form(screen_pairs):
    # glue decides integrality on the matched cosets alone; on every
    # candidate of the screen's pairs and of the wider same-field triples it
    # agrees with 2G/2 of the glued form that only survivors build.
    for pairs, count, nonintegral in ((screen_pairs, 135, 10), (same_field_triples(), 318, 67)):
        verdicts = Counter()
        for cand in pipeline.generate_candidates(pairs):
            tau, sigma = cand.lattice
            end, hom = cmhom.hom_cosets(tau, tau), cmhom.hom_cosets(sigma, tau)
            _, integral = cmhom.glue(end, hom)
            verdicts[integral, la.divided(cmhom.glued_gram(end, hom), 2) is not None] += 1
        assert verdicts == {(True, True): count - nonintegral, (False, False): nonintegral}


def test_a_survivor_whose_determinant_names_no_form_stops_the_sweep(classification, monkeypatch):
    # A survivor's glued form is matched only against the reference form that
    # its determinant names; a determinant that names none (here 16, of
    # 2*I_4) stops the sweep.
    row = classification[0][0]
    cand = pipeline.Candidate(row.delta_e, row.delta_f, PeriodLattice(row.tau, row.sigma))
    assert pipeline.evaluate_candidate(cand)["form_id"] == row.form_id
    monkeypatch.setattr(cmhom, "glued_gram", lambda end, hom: la.scaled(la.identity(4), 4))
    with pytest.raises(InvariantViolation, match=r"\(det 16\) matches no reference form"):
        pipeline.evaluate_candidate(cand)


def test_glue_rejects_a_congruence_that_is_not_psi():
    # Relabel End(E)'s cosets (0, 0) and (0, 1): the odd degrees of Z[i]'s
    # coset (0, 1) then meet the zero morphism of Hom(F, E)'s coset (0, 0),
    # and the glued product has odd slots, which glue refuses.  Z[i] has the
    # units +-1 in coset (1, 0) and +-i in coset (0, 1).
    zi = KElem(-1, 0, 1)
    end, hom = cmhom.hom_cosets(zi, zi), cmhom.hom_cosets(2 * zi, zi)
    packed, matrices, form = end
    assert [cmhom.slot(poly, 1) for poly in packed] == [0, 2, 2, 0]
    theta, _ = cmhom.glue(end, hom)
    assert cmhom.slot(theta, 4) > 0
    with pytest.raises(InvariantViolation, match="half-integral degree"):
        cmhom.glue((packed, [matrices[1], matrices[0], *matrices[2:]], form), hom)


def test_degree_two_maps_are_the_value_two_vectors_of_every_candidate(glued_and_plain):
    # On all 135 candidates, the maps of degree 2 that the sweep counts for
    # its survivors, slot 4 of the glued product, are the vectors of value 4
    # of the glued 2G, counted by the Fraction descent.  The survivors' rule
    # |O_E^x|*(1 + [tau ~ sigma]) holds on all 20 survivors and fails on 14
    # rejected candidates, so the sweep's check of it is no tautology.
    holds = Counter()
    for r, theta, glued2, _, _ in glued_and_plain:
        cand = r["candidate"]
        maps = cmhom.slot(theta, 4)
        assert maps == value_counts(glued2, 4).get(4, 0), cand
        units = {-3: 6, -4: 4}.get(cand.delta_e, 2)
        holds[r["survived"], maps == units * (1 + gamma1_equivalent(cand.tau, cand.sigma))] += 1
    assert holds == {(True, True): 20, (False, True): 101, (False, False): 14}


def test_glued_product_is_the_theta_series_of_the_glued_form(glued_and_plain):
    # On all 135 candidates, slot s of glue's product counts the vectors of
    # value s of the glued 2G, both signs, for every s <= 2*NMAX: slot 2n
    # counts the maps of degree n, and the odd slots are empty.  The zero
    # vector is slot 0.
    top = 2 * cmhom.NMAX
    assert len(glued_and_plain) == 135
    for r, theta, glued2, _, _ in glued_and_plain:
        counts = value_counts(glued2, top)
        assert cmhom.slot(theta, 0) == 1, r["candidate"]
        assert [cmhom.slot(theta, s) for s in range(1, top + 1)] == [
            counts.get(s, 0) for s in range(1, top + 1)], r["candidate"]


def test_no_slot_of_a_series_or_product_nears_a_carry(monkeypatch):
    # Over the 430 lattice pairs (E, F) that a cold screen tries, every slot
    # of each coset series of End(E) and Hom(E, F), of the screen's product,
    # and of the product that glue forms from End(E) and Hom(F, E) stays
    # below 2^15, so adding the screen's fill to a slot never carries.
    tried = []
    real = cmhom.screen_pair

    def recording(le, lf):
        tried.append((le, lf))
        return real(le, lf)

    monkeypatch.setattr(cmhom, "screen_pair", recording)
    cmhom.degree_profile.cache_clear()
    reduced_forms.cache_clear()
    try:
        cmhom.screen_all(pipeline.screen_input())
        top = 4 * cmhom.NMAX
        largest = Counter()
        for le, lf in tried:
            end, hom = cmhom.hom_cosets(le, le), cmhom.hom_cosets(le, lf)
            (e1, e2, e4), (f1, f2, f4) = cmhom.degree_profile(le, le), cmhom.degree_profile(le, lf)
            theta, _ = cmhom.glue(end, cmhom.hom_cosets(lf, le))
            for name, polys in (("series", end[0] + hom[0]),
                                ("screen", [e1 * f1 + e2 * f2 + e4 * f4]), ("glued", [theta])):
                for poly in polys:
                    assert poly >> cmhom.SLOT_BITS * (top + 1) == 0, (le, lf)
                    largest[name] = max(largest[name],
                                        *(cmhom.slot(poly, s) for s in range(top + 1)))
    finally:
        cmhom.degree_profile.cache_clear()
    assert len(tried) == 430
    assert max(largest.values()) < 2 ** 15, largest


def test_candidates_above_the_escalation_bound_fail_the_small_value_test(screen_pairs):
    # A degree form that misses 1 and takes every n >= 2 contains a rank-4
    # escalator of Bhargava's escalation, and an escalation run outside the
    # package bounds their det(2G) by 14,884 = 122^2.  The 16 candidates of
    # the sweep above that bound must therefore all fail the small-value
    # test, and they do.
    above = Counter()
    for cand in pipeline.generate_candidates(screen_pairs):
        det = la.det(degree_gram(cand.lattice))
        if det > 122 ** 2:
            assert not pipeline.evaluate_candidate(cand)["survived"], cand
            above[cand.delta_e, cand.delta_f, det] += 1
    assert above == {(-36, -36, 20736): 8, (-16, -64, 16384): 8}


def test_parallel_matches_serial(classification):
    rows1, _ = classification
    rows2, _ = pipeline.run_search(jobs=2)
    assert [r.to_dict() for r in rows1] == [r.to_dict() for r in rows2]


def test_disc59_eliminated_by_period_stage():
    # The -59 pair passes the weak degree screen, so the exclusion must come
    # from the later stages: the residue certificate (disc59_check) and,
    # independently, the period-lattice sweep, where every candidate for the
    # pair fails the all-degrees test.
    tau = kelem(-59, Fraction(1, 2), Fraction(1, 2))
    others = form_class_points(-59)[1:]
    assert any(screen_pair(tau, f) for f in others)
    for f in others:
        for _, image in gamma2_tiles(f):
            sigma = canon_gamma2(image)
            form = degree_gram(PeriodLattice(tau, sigma))
            assert represented_small_values(form, 31) != TARGET_VALUES, (tau, sigma)


def test_run_universal_report(capsys):
    # Stage 4 as the CLI runs it: verify_universal, then check_enumeration.
    reports = {}
    for form in (1, 2, 3, 4):
        code, out, _ = run_cli(capsys, "verify-universal", "--form", str(form),
                               "--max", "200", "--oracle-max", "100")
        assert code == 0
        reports[form] = json.loads(out)
    assert set(reports) == {1, 2, 3, 4}
    for form_report in reports.values():
        assert form_report["count"] == 199
    agrees = {f: r["oracle_agrees"] for f, r in reports.items()}
    assert agrees == {1: True, 2: True, 3: True, 4: True}


def test_jsonable_encoding():
    # Integers in the signed 64-bit range [-2^63, 2^63 - 1] stay numbers, and
    # the ones just outside it become strings; a field element, a set and a
    # float are not serializable (the CLI passes tau and sigma as strings).
    big = 2**70
    edges = [-2**63 - 1, -2**63, 2**63 - 1, 2**63]
    out = pipeline.jsonable({"x": [big, -big, 7, True], "edges": edges})
    assert out["x"] == [str(big), str(-big), 7, True]
    assert out["x"][3] is True
    assert out["edges"] == [str(-2**63 - 1), -2**63, 2**63 - 1, str(2**63)]
    for bad in (1.5, KElem(-1, 0, 1), {1, 2}):
        with pytest.raises(TypeError):
            pipeline.jsonable(bad)


# -- CLI ---------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_lemma_lists(capsys):
    code, out, _ = run_cli(capsys, "lemma-lists")
    assert code == 0
    data = json.loads(out)
    assert data["35"][-1] == -140
    assert len(data) == 8


def test_cli_screen(capsys):
    code, out, _ = run_cli(capsys, "screen")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 18
    assert data[0] == {"delta_e": -3, "delta_f": -3, "isomorphic": True}


def test_cli_classify_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "classify")
    code2, out2, _ = run_cli(capsys, "classify")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert len(data) == 20
    assert {row["form_id"] for row in data} == {1, 2, 3, 4}


def test_cli_classify_json_is_pinned(capsys):
    # Every byte of the twenty rows, grams and witnesses included; the
    # golden check compares rows up to isomorphism only.
    code, out, _ = run_cli(capsys, "classify")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bc9269a9eb494dd63a606c0e4dbd4db33a98ff50de8688801d5eba9b07a08136")


def test_cli_classify_out_of_scope_class_number_exits_3(capsys, monkeypatch):
    # -23 has class number 3: the sweep's class-point guard stops classify
    # as an internal invariant, with one line on stderr.
    monkeypatch.setattr(pipeline, "run_screen", lambda: ((-23, -23, True),))
    code, out, err = run_cli(capsys, "classify")
    assert (code, out) == (3, "")
    assert err == "internal invariant violated: class number 3 out of scope for -23\n"


def test_cli_classify_csv_and_table(capsys, monkeypatch, classification):
    # Output formatting only: the search is the session fixture's.
    monkeypatch.setattr(pipeline, "run_search", lambda: classification)
    code, out, _ = run_cli(capsys, "classify", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index,delta_e,delta_f,tau,sigma,form_id")
    assert len(lines) == 21
    code, out, _ = run_cli(capsys, "classify", "--format", "table")
    assert code == 0
    assert len(out.strip().splitlines()) == 22


def test_cli_represent(capsys):
    code, out, _ = run_cli(capsys, "represent", "--form", "2", "--n", "1999")
    assert code == 0
    data = json.loads(out)
    from splitjac.qforms import REFERENCE_FORMS, evaluate

    assert evaluate(REFERENCE_FORMS[2].gram, data["vector"]) == 1999


def test_cli_verify_universal(capsys):
    code, out, _ = run_cli(
        capsys, "verify-universal", "--form", "3", "--max", "150",
        "--oracle-max", "120",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 149
    assert data["oracle_agrees"] is True


def test_cli_check_59(capsys):
    code, out, _ = run_cli(capsys, "check-59")
    assert code == 0
    data = json.loads(out)
    assert data["excluded"] is True and data["element_count"] == 4


def test_cli_golden_override_mismatch(capsys, monkeypatch, golden):
    tampered = json.loads(json.dumps(golden))
    tampered["lemma_lists"]["2"] = [-4, -7]
    monkeypatch.setattr(pipeline, "load_golden", lambda: tampered)
    code, out, err = run_cli(capsys, "lemma-lists")
    assert code == 2
    assert out == ""
    assert "mismatch" in err and len(err.splitlines()) == 1


def test_cli_rejects_an_uncertified_row_14(capsys, monkeypatch, golden):
    # The row 14 recorded before, tau = sigma = (1 + sqrt(-5))/2, has a
    # degree form taking only even values up to 31, so it is none of the
    # twenty; a wrong sigma on the row must not pass either.
    recorded = "(1 + 1*sqrt(-5))/2"
    z = KElem.from_string(recorded)
    values = represented_small_values(degree_gram(PeriodLattice(z, z)), 31)
    assert values and all(v % 2 == 0 for v in values)
    row14 = golden["classification"][13]
    assert row14["index"] == 14
    for tau, sigma in ((recorded, recorded), (row14["tau"], "(5 + 3*sqrt(-5))/11")):
        broken = json.loads(json.dumps(golden))
        row = broken["classification"][13]
        row["tau"], row["sigma"] = tau, sigma
        monkeypatch.setattr(pipeline, "load_golden", lambda: broken)
        code, out, err = run_cli(capsys, "classify")
        assert code == 2, row
        assert out == ""
        assert "has no fixture match" in err and len(err.splitlines()) == 1


def test_cli_golden_missing_file(tmp_path, capsys, monkeypatch):
    # A fixture path on the command line is a usage error: exit 2, nothing on
    # stdout, and neither the path nor the embedded fixture is read.
    def not_called():
        raise RuntimeError("the golden fixture was read for a usage error")

    monkeypatch.setattr(pipeline, "load_golden", not_called)
    absent = tmp_path / "absent.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--golden", str(absent), "lemma-lists"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: splitjac" in captured.err and "invalid choice" in captured.err
    assert not absent.exists()


def test_cli_golden_schema_error(golden):
    # The embedded fixture is the only one, so its shape is checked here:
    # every field the checks read, canonical decimal degree keys (int() would
    # fold "07" into "7"), and each row's tau and sigma parsed, in the upper
    # half-plane, and in one field.
    assert set(golden) >= {"lemma_lists", "screen_pairs", "classification"}
    for key, values in golden["lemma_lists"].items():
        assert key.isascii() and key.isdigit() and key == str(int(key)), key
        assert values and all(type(x) is int for x in values), key
    assert len(golden["classification"]) == 20
    for i, row in enumerate(golden["classification"]):
        assert type(row["delta_e"]) is int and type(row["delta_f"]) is int, i
        tau, sigma = KElem.from_string(row["tau"]), KElem.from_string(row["sigma"])
        assert tau.q > 0 and sigma.q > 0, i
        assert sigma.d == tau.d, i


def test_cli_golden_radicand_is_bounded(golden, classification):
    # A huge prime radicand in the fixture check_classification reads is
    # rejected before the trial division that validates it, which would
    # otherwise run for about 5*10^8 steps.
    broken = json.loads(json.dumps(golden))
    broken["classification"][0]["tau"] = "(0 + 1*sqrt(-1000000000000000003))/1"
    rows, _ = classification
    start = time.perf_counter()
    with pytest.raises(ValueError, match="radicand"):
        pipeline.check_classification(rows, broken)
    assert time.perf_counter() - start < 1.0


def test_cli_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    # The CLI takes no worker count at all: --jobs, however large, is a usage
    # error before any search, so no pool can be started from the command line.
    requested = []

    def fake_run_search(*args, **kwargs):
        requested.append((args, kwargs))
        raise RuntimeError("search started for a usage error")

    monkeypatch.setattr(pipeline, "run_search", fake_run_search)
    for jobs in ("100000", "2"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--jobs", jobs, "classify"])
        assert exc.value.code == 2, jobs
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: splitjac" in captured.err
    assert requested == []


def test_cli_invariant_violation_exit_code(capsys, monkeypatch):
    def boom():
        raise AssertionError("forced")

    monkeypatch.setattr(pipeline, "run_lemma_lists", boom)
    code, _, err = run_cli(capsys, "lemma-lists")
    assert code == 3
    assert "invariant" in err
    # A failed case step of the construction (n = 2 for q1 takes d = 1, so
    # m = -2), and a base vector that does not re-evaluate to 4.
    monkeypatch.setitem(universal.CASES[1, 2].d, 2, 1)
    monkeypatch.setitem(universal.BASE4_VECTORS, 1, (1, 0, 0, 0))
    for argv in (("represent", "--form", "1", "--n", "2"),
                 ("represent", "--form", "1", "--n", "4"),
                 ("verify-universal", "--form", "1", "--max", "10")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.count("\n") == 1 and "invariant" in err, argv


def test_cli_screen_follows_the_lemma_lists(capsys, monkeypatch):
    # The screen's input is derived from stage 1: dropping -20 from the
    # degree-5 list loses the (-20, -20) pair, and the golden check fails.
    real = pipeline.run_lemma_lists

    def mutated():
        lists = real()
        lists[5] = tuple(delta for delta in lists[5] if delta != -20)
        return lists

    monkeypatch.setattr(pipeline, "run_lemma_lists", mutated)
    assert (-20, -20, True) not in pipeline.run_screen()
    code, out, err = run_cli(capsys, "screen")
    assert code == 2
    assert out == ""
    assert "reproduction mismatch" in err


def run_python(script, *flags):
    """Run python with flags on script, with this checkout's splitjac importable."""
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env,
    )


def test_cli_is_the_same_under_python_O():
    # Every certificate check runs under -O, so stdout, stderr and the exit
    # status do not change with it.
    commands = [["lemma-lists"], ["screen"], ["classify"], ["check-59"]]
    commands += [["represent", "--form", str(f), "--n", "1234567891"] for f in (1, 2, 3, 4)]
    for args in commands:
        script = f"import sys\nfrom splitjac import cli\nsys.exit(cli.main({args!r}))\n"
        plain, optimized = run_python(script), run_python(script, "-O")
        assert plain.returncode == 0, plain.stderr
        assert plain.stdout
        assert ((plain.returncode, plain.stdout, plain.stderr)
                == (optimized.returncode, optimized.stdout, optimized.stderr)), args


def test_invariant_checks_survive_python_O():
    # Under -O every assert is gone; the integer cross-check of the screen
    # (the determinant form of the Hom matrices against the norm-form
    # degree) must still catch a corrupted entry of M1, and the CLI must
    # still exit 3.
    script = (
        "import sys\n"
        "assert False, 'asserts are not stripped'\n"
        "from splitjac import cli, cmhom\n"
        "real = cmhom.hom_lattice\n"
        "def corrupted(l1, l2):\n"
        "    ((p, q), (r, s)), m2 = real(l1, l2)\n"
        "    return ((p + 1, q), (r, s)), m2\n"
        "cmhom.hom_lattice = corrupted\n"
        "sys.exit(cli.main(['screen']))\n"
    )
    proc = run_python(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "internal invariant violated" in proc.stderr
    assert "norm-form degree" in proc.stderr


def test_screen_stops_on_a_failing_disc59_certificate_under_python_O():
    # The screen's input drops -59 only through disc59_check; a certificate
    # that fails (one norm-35 element of the -59 order lost) must stop the
    # screen under -O too: exit 3, nothing on stdout.
    script = (
        "import sys\n"
        "assert False, 'asserts are not stripped'\n"
        "from splitjac import cli, cmhom\n"
        "real = cmhom.norm_solutions\n"
        "def lossy(delta, n):\n"
        "    sols = real(delta, n)\n"
        "    return sols[1:] if (delta, n) == (-59, 35) else sols\n"
        "cmhom.norm_solutions = lossy\n"
        "sys.exit(cli.main(['screen']))\n"
    )
    proc = run_python(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "internal invariant violated" in proc.stderr
    assert "norm-35 elements" in proc.stderr


def test_classification_checks_survive_python_O():
    # With one survivor dropped, the "exactly 20 rows" certificate check must
    # stop the run under -O too (exit 3, nothing on stdout), before the
    # golden comparison could report a mismatch instead.
    script = (
        "import sys\n"
        "assert False, 'asserts are not stripped'\n"
        "from splitjac import cli, pipeline\n"
        "real = pipeline.evaluate_candidate\n"
        "dropped = []\n"
        "def failing(cand, *ends):\n"
        "    result = real(cand, *ends)\n"
        "    if result['survived'] and not dropped:\n"
        "        dropped.append(cand)\n"
        "        result['survived'] = False\n"
        "    return result\n"
        "pipeline.evaluate_candidate = failing\n"
        "sys.exit(cli.main(['classify']))\n"
    )
    proc = run_python(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "expected 20 classification rows, got 19" in proc.stderr


def test_a_wrong_count_of_degree_two_maps_stops_classify_under_python_O():
    # One survivor's count of degree-2 maps, slot 4 of its glued product,
    # off by one: the sweep's check against |O_E^x|*(1 + [tau ~ sigma]) must
    # stop the run under -O too (exit 3, nothing on stdout).
    script = (
        "import sys\n"
        "assert False, 'asserts are not stripped'\n"
        "from splitjac import cli, cmhom\n"
        "real = cmhom.slot\n"
        "miscounted = []\n"
        "def counting(poly, s):\n"
        "    value = real(poly, s)\n"
        "    if s == 4 and not miscounted:\n"
        "        miscounted.append(value)\n"
        "        value += 1\n"
        "    return value\n"
        "cmhom.slot = counting\n"
        "sys.exit(cli.main(['classify']))\n"
    )
    proc = run_python(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "maps of degree 2" in proc.stderr, proc.stderr


def test_a_mod_4_rule_that_disagrees_on_a_survivor_stops_classify_under_python_O():
    # Each survivor checks glue's integrality verdict against its glued form;
    # a verdict flipped on one survivor must stop the run under -O too
    # (exit 3, nothing on stdout).
    script = (
        "import sys\n"
        "assert False, 'asserts are not stripped'\n"
        "from splitjac import cli, cmhom\n"
        "real = cmhom.glue\n"
        "flipped = []\n"
        "def glue(end, hom):\n"
        "    theta, integral = real(end, hom)\n"
        "    if cmhom.slot(theta, 2) == 0 and cmhom.takes_every_degree(theta) and not flipped:\n"
        "        flipped.append(theta)\n"
        "        integral = not integral\n"
        "    return theta, integral\n"
        "cmhom.glue = glue\n"
        "sys.exit(cli.main(['classify']))\n"
    )
    proc = run_python(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "fails the mod-4 rule" in proc.stderr, proc.stderr


def test_a_failed_merge_certificate_stops_classify_under_python_O():
    # The sweep merges two classes of a stabilizer orbit only on a diagonal
    # lattice isomorphism; with none found the run must stop under -O too
    # (exit 3, nothing on stdout).
    script = (
        "import sys\n"
        "assert False, 'asserts are not stripped'\n"
        "from splitjac import cli, periodlattice\n"
        "periodlattice.diag_isomorphic = lambda l1, l2: False\n"
        "sys.exit(cli.main(['classify']))\n"
    )
    proc = run_python(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "no diagonal isomorphism" in proc.stderr, proc.stderr


def test_cli_rejects_out_of_range_values(capsys, monkeypatch):
    # Each value is rejected before any work starts: exit 3, one line.
    def not_called(*args):
        raise RuntimeError("computation started for a rejected value")

    monkeypatch.setattr(cli.universal, "represent", not_called)
    monkeypatch.setattr(cli.universal, "verify_universal", not_called)
    cases = [
        (("represent", "--form", "1", "--n", "1"), "--n must be at least 2"),
        (("represent", "--form", "1", "--n", "-5"), "--n must be at least 2"),
        (("verify-universal", "--form", "1", "--max", "1"), "--max must be at least 2"),
        (("verify-universal", "--form", "1", "--max", "1000001"),
         "--max 1000001 is above the cap of 1000000"),
        (("verify-universal", "--form", "4", "--max", str(10**30), "--oracle-max", "100"),
         f"--max {10**30} is above the cap of 1000000"),
        (("verify-universal", "--form", "1", "--max", "10", "--oracle-max", "0"),
         "--oracle-max must be at least 2"),
        (("verify-universal", "--form", "1", "--max", "10", "--oracle-max", "100001"),
         "--oracle-max 100001 is above the cap of 100000"),
        (("verify-universal", "--form", "3", "--max", "10", "--oracle-max", str(10**30)),
         f"--oracle-max {10**30} is above the cap of 100000"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err == message + "\n"


def test_cli_usage_errors_exit_2(capsys):
    # argparse rejects these before any work: exit 2, usage on stderr only.
    # There is no global option: --jobs and --golden are unknown options.
    for argv in ((), ("represent", "--form", "1", "--n", "abc"),
                 ("represent", "--form", "5", "--n", "7"),
                 ("--jobs", "2", "classify"), ("--golden", "g.json", "lemma-lists")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: splitjac" in captured.err


def test_cli_oracle_max_above_cap(capsys, monkeypatch):
    # The cap is checked before the enumeration box or any mask: no work runs.
    def not_called(*args, **kwargs):
        raise RuntimeError("work started for a rejected --oracle-max")

    monkeypatch.setattr(cli.universal, "verify_universal", not_called)
    monkeypatch.setattr(cli.universal, "_oracle_radii", not_called)
    monkeypatch.setattr(cli.universal, "_oracle_mask", not_called)
    for fid in ("1", "2", "3", "4"):
        code, out, err = run_cli(
            capsys, "verify-universal", "--form", fid, "--max", "10",
            "--oracle-max", str(cli.universal.ORACLE_MAX + 1),
        )
        assert code == 3
        assert out == ""
        assert err == (f"--oracle-max {cli.universal.ORACLE_MAX + 1} is above the cap "
                       f"of {cli.universal.ORACLE_MAX}\n")


def test_cli_represent_n_above_cap(capsys, monkeypatch):
    # Each ternary scan takes Theta(sqrt(n)) steps, so --n is capped: above
    # the cap, represent is never called; at the cap, it runs.
    represent, calls = cli.universal.represent, []

    def recording(form_id, n):
        calls.append(n)
        return represent(form_id, n)

    monkeypatch.setattr(cli.universal, "represent", recording)
    cap = cli.universal.REPRESENT_MAX
    for fid, n in (("1", cap + 1), ("2", cap + 1), ("3", cap + 1), ("4", 10**30)):
        code, out, err = run_cli(capsys, "represent", "--form", fid, "--n", str(n))
        assert code == 3
        assert out == ""
        assert err == f"--n {n} is above the cap of {cap}\n"
    assert calls == []
    code, out, _ = run_cli(capsys, "represent", "--form", "1", "--n", str(cap))
    assert code == 0
    assert json.loads(out)["n"] == cap and calls == [cap]


def test_cli_runs_without_numpy():
    # numpy is a test-only tool: with its import blocked, every command runs.
    script = (
        "import contextlib, io, sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            raise ImportError('numpy is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "from splitjac import cli\n"
        "for argv in (['lemma-lists'], ['screen'], ['classify'],\n"
        "             ['represent', '--form', '2', '--n', '1000003'],\n"
        "             ['verify-universal', '--form', '3', '--max', '100', '--oracle-max', '2000'],\n"
        "             ['check-59']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "lemma-lists 0", "screen 0", "classify 0", "represent 0", "verify-universal 0",
        "check-59 0", "False", "",
    ]


def test_cli_entry_point_subprocess():
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "splitjac", "represent", "--form", "1", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vector"] == [1, 0, 0, 0]


def test_cli_exits_3_when_stdout_cannot_be_written():
    # A pipe whose read end is closed (EPIPE), and /dev/full (ENOSPC) where
    # it exists, as stdout: exit 3 with one line on stderr, and no traceback
    # from the command or from the flush at exit.
    import os

    opens = ["r, w = os.pipe()\nos.close(r)"]
    if os.path.exists("/dev/full"):
        opens.append("w = os.open('/dev/full', os.O_WRONLY)")
    for argv in (["lemma-lists"], ["check-59"]):
        for opened in opens:
            proc = run_python(f"import os, sys\n{opened}\nos.dup2(w, 1)\n"
                              f"from splitjac import cli\nsys.exit(cli.main({argv!r}))\n")
            lines = proc.stderr.splitlines()
            assert proc.returncode == 3, (argv, opened, proc.stderr)
            assert len(lines) == 1 and lines[0].startswith("cannot write output: "), proc.stderr
            assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
