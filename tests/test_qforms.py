import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from splitjac import intlinalg as la
from splitjac import pipeline, qforms
from splitjac.periodlattice import PeriodLattice, degree_gram
from splitjac.qforms import (
    Q1,
    Q2,
    Q3,
    Q4,
    REFERENCE_FORMS,
    QForm4,
    equivalent,
    evaluate,
    short_vector_values,
    short_vectors,
)


def test_evaluate_examples():
    assert evaluate(Q1, (0, 0, 0, 1)) == 4
    assert evaluate(Q2, (1, 0, 0, 0)) == 2
    assert evaluate(Q4, (1, 1, 0, 0)) == 3


def test_evaluate_matches_polynomials():
    # Spot-check each Gram matrix against its polynomial.
    rng = random.Random(61)
    polys = {
        1: lambda w, x, y, z: 2 * w**2 + 3 * x**2 + 3 * y**2 + 4 * z**2 + 2 * x * y,
        2: lambda w, x, y, z: 2 * w**2 + 2 * x**2 + 3 * y**2 + 3 * z**2
        + 2 * w * z + 2 * x * y,
        3: lambda w, x, y, z: 2 * w**2 + 3 * x**2 + 3 * y**2 + 4 * z**2
        + 2 * w * x + 2 * w * y + 2 * x * z + 2 * y * z,
        4: lambda w, x, y, z: 2 * w**2 + 3 * x**2 + 4 * y**2 + 6 * z**2
        - 2 * w * x + 2 * w * z + 2 * x * y + 4 * y * z,
    }
    for fid, poly in polys.items():
        gram = REFERENCE_FORMS[fid].gram
        for _ in range(200):
            v = tuple(rng.randrange(-6, 7) for _ in range(4))
            assert evaluate(gram, v) == poly(*v)


def test_evaluate_matches_full_double_sum():
    # The ten-product upper-triangle expression against sum_ij G_ij v_i v_j
    # on random symmetric grams, integral and rational.
    rng = random.Random(62)
    for trial in range(300):
        upper = {(i, j): rng.randrange(-50, 51) for i in range(4) for j in range(i, 4)}
        if trial % 3 == 0:
            upper = {k: Fraction(x, rng.randrange(1, 7)) for k, x in upper.items()}
        gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(4)) for i in range(4))
        v = tuple(rng.randrange(-10**6, 10**6) for _ in range(4))
        full = sum(gram[i][j] * v[i] * v[j] for i in range(4) for j in range(4))
        assert evaluate(gram, v) == full


def test_reference_determinants():
    dets = [int(la.det(g)) for g in (Q1, Q2, Q3, Q4)]
    assert dets == [64, 25, 36, 81]


def test_represented_examples():
    assert short_vector_values(REFERENCE_FORMS[1].gram, 31) == set(range(2, 32))
    two_id = la.freeze([[2 * (i == j) for j in range(4)] for i in range(4)])
    assert short_vector_values(two_id, 10) == {2, 4, 6, 8, 10}
    small = short_vector_values(REFERENCE_FORMS[3].gram, 5)
    assert {2, 3, 4, 5} <= small


def test_short_vectors_are_canonical_and_complete():
    # One representative per +-v pair, trailing nonzero coordinate positive,
    # and complete against a brute-force box enumeration.
    bound = 12
    for fid in (1, 2, 3, 4):
        gram = REFERENCE_FORMS[fid].gram
        vecs = short_vectors(gram, bound)
        seen = set()
        for v, val in vecs:
            assert evaluate(gram, v) == val <= bound
            trailing = next(x for x in reversed(v) if x)
            assert trailing > 0
            assert v not in seen
            seen.add(v)
        brute = set()
        for w in range(-4, 5):
            for x in range(-4, 5):
                for y in range(-4, 5):
                    for z in range(-4, 5):
                        v = (w, x, y, z)
                        if v != (0, 0, 0, 0) and evaluate(gram, v) <= bound:
                            brute.add(v)
        assert {v for v, _ in vecs} | {tuple(-x for x in v) for v, _ in vecs} == brute


def test_equivalent_reflexive():
    u = equivalent(REFERENCE_FORMS[1], REFERENCE_FORMS[1])
    assert u is not None
    assert la.matmul(la.transpose(u), la.matmul(Q1, u)) == la.freeze(Q1)


def test_pairwise_inequivalent():
    for i in range(1, 5):
        for j in range(1, 5):
            witness = equivalent(REFERENCE_FORMS[i], REFERENCE_FORMS[j])
            if i == j:
                assert witness is not None
            else:
                assert witness is None


def test_equivalence_symmetry_and_transport():
    rng = random.Random(62)
    for fid in (1, 2, 3, 4):
        gram = REFERENCE_FORMS[fid].gram
        # mild random unimodular change of basis (the backtracking search is
        # scoped to forms with small diagonal, like everything in the sweep)
        u = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        for _ in range(2):
            i, j = rng.sample(range(4), 2)
            c = rng.choice((-1, 1))
            for k in range(4):
                u[i][k] += c * u[j][k]
        u = la.freeze(u)
        twisted = la.matmul(la.transpose(u), la.matmul(gram, u))
        f2 = QForm4(twisted)
        w = equivalent(f2, REFERENCE_FORMS[fid])
        assert w is not None
        assert abs(la.det(w)) == 1
        back = equivalent(REFERENCE_FORMS[fid], f2)
        assert back is not None
        assert (short_vector_values(f2.gram, 20)
                == short_vector_values(REFERENCE_FORMS[fid].gram, 20))


def test_value_counts_prefilter_consistency():
    # Equivalent forms share value counts; the four reference forms are
    # already separated by counts up to 12 (equivalent itself needs no count
    # prefilter, since their determinants differ too).
    counts = [oracles.value_counts(g, 12) for g in (Q1, Q2, Q3, Q4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert counts[i] != counts[j]


def test_qform_validation():
    with pytest.raises(AssertionError):
        QForm4(((0, 0, 0, 0),) * 4)
    with pytest.raises(AssertionError):
        QForm4(((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_short_vectors_against_fraction_oracle_on_reference_forms():
    for gram in (Q1, Q2, Q3, Q4):
        for bound in (0, 1, 7, 31):
            assert short_vectors(gram, bound) == oracles.short_vectors(gram, bound)


def test_short_vectors_against_fraction_oracle_on_degree_forms(screen_pairs):
    # The real inputs: 2G of each of the 135 candidate degree forms of the
    # sweep, to 62 (q up to 31), vector for vector and in the same order.
    cands = pipeline.generate_candidates(screen_pairs)
    assert len(cands) == 135
    for cand in cands:
        gram2 = degree_gram(PeriodLattice(cand.tau, cand.sigma))
        assert short_vectors(gram2, 62) == oracles.short_vectors(gram2, 62), cand


def test_short_vectors_rejects_other_ranks():
    for gram in (((2, 1), (1, 2)), ((2, 1, 0), (1, 2, 0), (0, 0, 3)), Q1[:3]):
        with pytest.raises(ValueError):
            short_vectors(gram, 10)


def test_short_vector_leaf_check_survives_python_O():
    # A corrupted LDL^T row (one off-diagonal entry moved by 1) still yields
    # a loop over valid-looking ranges; the per-leaf comparison with the
    # direct value of v^T G v must catch it with the asserts stripped.
    script = (
        "assert False, 'asserts are not stripped'\n"
        "from splitjac import intlinalg, qforms\n"
        "from splitjac.invariants import InvariantViolation\n"
        "real = intlinalg.ldl\n"
        "def perturbed(g):\n"
        "    u = [list(row) for row in real(g)]\n"
        "    u[1][2] += 1\n"
        "    return tuple(tuple(row) for row in u)\n"
        "qforms.la.ldl = perturbed\n"
        "try:\n"
        "    qforms.short_vectors(qforms.Q1, 31)\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(qforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "short-vector value differs from v^T G v\n"


def test_short_vectors_against_fraction_oracle_on_random_grams():
    # Positive definite 4 x 4 grams G with integral diagonal and
    # off-diagonal entries mostly in (1/2)Z, as the degree forms of the sweep
    # are, sometimes in (1/3)Z so that values can be fractions.  The integer
    # loop on k*G, k the denominator, to k*14 yields the same vectors, in
    # the same order, as the Fraction oracle on G to 14, with the values
    # scaled by k; a value of k*G not divisible by k is a fractional one of G.
    rng = random.Random(20261021)
    tested = fractional = 0
    while tested < 150:
        n = 4
        den = rng.choice((2, 2, 3))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = Fraction(rng.randrange(1, 7))
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = Fraction(rng.randrange(-3, 4), den)
        g = la.freeze(g)
        kg = la.freeze([[int(den * x) for x in row] for row in g])
        try:
            expected = oracles.short_vectors(g, 14)
        except ValueError:
            with pytest.raises(ValueError):
                short_vectors(kg, den * 14)
            continue
        got = short_vectors(kg, den * 14)
        assert got == [(v, den * val) for v, val in expected]
        assert all(type(val) is int for _, val in got)
        fractional += any(val % den for _, val in got)
        tested += 1
    assert fractional > 10
