"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every tolerance is exact; the runtime ceilings are the stated ones.
"""

import random
import time
from fractions import Fraction

import oracles
from oracles import kelem, norm
from splitjac import intlinalg as la
from splitjac import pipeline
from splitjac.bqf import form_class_points, in_F1, reduce_to_F1
from splitjac.cmhom import disc59_check
from splitjac.periodlattice import (
    SYMPLECTIC_GRAM,
    PeriodLattice,
    degree_gram,
    diag_isomorphic,
    polarization_gram,
    represented_small_values,
)
from splitjac.qforms import REFERENCE_FORMS, QForm4, equivalent
from splitjac.quadfield import KElem, mobius
from splitjac.universal import represented_by_enumeration, verify_universal

I = KElem(-1, 0, 1)


def _report(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_lemma_lists(golden):
    start = time.perf_counter()
    lists = pipeline.run_lemma_lists()
    pipeline.check_lemma_lists(lists, golden)
    elapsed = time.perf_counter() - start
    assert lists[35] == (-19, -31, -35, -40, -59, -76, -91, -104, -115, -124,
                         -131, -136, -139, -140)
    assert elapsed < 1.0, f"lemma lists took {elapsed:.2f}s"
    _report(1, "eight norm-form discriminant lists, exact")


def test_criterion_2_screen(golden):
    start = time.perf_counter()
    pairs = pipeline.run_screen()
    pipeline.check_screen(pairs, golden)
    elapsed = time.perf_counter() - start
    assert len(pairs) == 18
    assert elapsed < 30.0, f"screen took {elapsed:.2f}s"
    _report(2, "18 discriminant pairs with isomorphy flags, exact")


def test_criterion_3_classification(golden):
    start = time.perf_counter()
    rows, report = pipeline.run_search(jobs=1)
    pipeline.check_classification(rows, golden)
    elapsed = time.perf_counter() - start
    assert len(rows) == 20
    fixture = [PeriodLattice(KElem.from_string(exp["tau"]), KElem.from_string(exp["sigma"]))
               for exp in golden["classification"]]
    for row in rows:
        lattice = PeriodLattice(row.tau, row.sigma)
        assert sum(diag_isomorphic(lattice, lat) for lat in fixture) == 1, row
    assert elapsed < 300.0, f"search took {elapsed:.2f}s"
    _report(3, "20 rows; discriminants/forms exact, every period pair certified")


def test_criterion_4_polarization(screen_pairs):
    candidates = pipeline.generate_candidates(screen_pairs)
    for cand in candidates:
        gram = polarization_gram(PeriodLattice(cand.tau, cand.sigma))
        assert gram == SYMPLECTIC_GRAM, cand
    assert len(candidates) >= 100
    _report(4, f"standard symplectic pairing matrix on all {len(candidates)} candidates")


def test_criterion_5_universality():
    start = time.perf_counter()
    for form_id in (1, 2, 3, 4):
        report = verify_universal(form_id, 10000)
        assert report["count"] == 9999
    for form_id in (1, 2, 3, 4):
        enum = represented_by_enumeration(form_id, 10000)
        assert 1 not in enum
        assert set(range(2, 10001)) <= enum
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"universality took {elapsed:.2f}s"
    _report(5, "constructive representation to 10000, oracle agreement to 10000")


def test_criterion_6_disc59():
    report = disc59_check()
    assert set(report["elements"]) == {
        "(9 + 1*sqrt(-59))/2",
        "(9 + -1*sqrt(-59))/2",
        "(-9 + 1*sqrt(-59))/2",
        "(-9 + -1*sqrt(-59))/2",
    }
    assert all(not r["congruent_to_1_mod_2"] for r in report["residues"])
    _report(6, "norm-35 elements of the -59 order and their residues mod 2")


def test_criterion_7_form_classification(classification):
    rows, _ = classification
    for row in rows:
        matches = [
            fid
            for fid, ref in REFERENCE_FORMS.items()
            if equivalent(QForm4(row.gram), ref) is not None
        ]
        assert matches == [row.form_id]
        u = row.witness
        target = REFERENCE_FORMS[row.form_id].gram
        assert la.matmul(la.transpose(u), la.matmul(row.gram, u)) == la.freeze(target)
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                assert equivalent(REFERENCE_FORMS[i], REFERENCE_FORMS[j]) is None
    _report(7, "each survivor equivalent to exactly one reference form, witnessed")


def test_criterion_8_negative_control():
    form = degree_gram(PeriodLattice(I, I))
    values = represented_small_values(form, 31)
    assert 1 in values
    assert values != oracles.TARGET_VALUES
    _report(8, "twisted identity pair represents 1 and is excluded")


def test_criterion_9_property_suites():
    rng = random.Random(20260810)
    # norm multiplicativity on 10^3 random exact field elements
    for _ in range(1000):
        d = rng.choice((-1, -2, -3, -5, -6, -7, -11, -59))
        x = kelem(d, Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))),
                  Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))))
        y = kelem(d, Fraction(rng.randrange(-9, 10), rng.choice((1, 2))),
                  Fraction(rng.randrange(-9, 10), rng.choice((1, 2))))
        assert norm(x * y) == norm(x) * norm(y)
    # HNF invariance under right multiplication by unimodular matrices
    for _ in range(1000):
        n = rng.choice((2, 3))
        m = la.freeze([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            for k in range(n):
                u[i][k] += c * u[j][k]
        assert la.hnf(m) == la.hnf(la.matmul(m, la.freeze(u)))
    # index multiplicativity on nested random triples
    for _ in range(100):
        c = la.identity(3)
        m1 = la.freeze([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        m2 = la.freeze([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        if la.det(m1) == 0 or la.det(m2) == 0:
            continue
        b = la.matmul(c, m1)
        a = la.matmul(b, m2)
        la_, lb, lc = la.lattice(1, a), la.lattice(1, b), la.lattice(1, c)
        assert oracles.lattice_index(la_, lc) == oracles.lattice_index(la_, lb) * oracles.lattice_index(lb, lc)
    # idempotence of the domain reduction on all CM points used
    discs = set()
    for row in pipeline.load_golden()["screen_pairs"]:
        discs.add(row["delta_e"])
        discs.add(row["delta_f"])
    for disc in sorted(discs):
        for point in form_class_points(disc):
            reduced, matrix = reduce_to_F1(point)
            assert reduced == point
            assert matrix == ((1, 0), (0, 1))
            assert in_F1(reduced)
            assert mobius(matrix, point) == reduced
    _report(9, "norm multiplicativity, HNF invariance, index chains, reduction idempotence")
