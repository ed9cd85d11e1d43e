import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import oracles
from splitjac import cli, universal
from splitjac.invariants import InvariantViolation
from splitjac.qforms import REFERENCE_FORMS, QForm4, evaluate
from splitjac.universal import (
    BASE4_VECTORS,
    ORACLE_MAX,
    Representation,
    RepresentationError,
    TernaryKind,
    case_key,
    check_enumeration,
    represent,
    represented_by_enumeration,
    solve_ternary,
    ternary_value,
    verify_universal,
)


def test_solve_ternary_examples():
    assert solve_ternary(TernaryKind.SUM3SQUARES, 35) == (1, 3, 5)
    assert solve_ternary(TernaryKind.SUM3SQUARES, 7) is None
    sol = solve_ternary(TernaryKind.D122, 2)
    assert sol in ((0, 1, 0), (0, 0, 1))
    assert ternary_value(TernaryKind.D122, *sol) == 2


def test_solve_ternary_values():
    rng = random.Random(71)
    for kind in TernaryKind:
        for _ in range(60):
            n = rng.randrange(0, 500)
            sol = solve_ternary(kind, n)
            if sol is not None:
                assert ternary_value(kind, *sol) == n


def test_solve_ternary_matches_unfiltered_scan_small():
    # Same first solution, or the same None, on a full range for every kind.
    for kind in TernaryKind:
        for m in range(5001):
            assert solve_ternary(kind, m) == oracles.solve_ternary(kind, m), (kind, m)


def test_solve_ternary_matches_unfiltered_scan_large():
    rng = random.Random(73)
    for kind in TernaryKind:
        for _ in range(40):
            m = rng.randrange(10**5, 10**6)
            assert solve_ternary(kind, m) == oracles.solve_ternary(kind, m), (kind, m)


def test_solve_ternary_matches_unfiltered_scan_on_long_rows():
    # m in [10^8, 10^9), drawn from the classes mod 8 that the constructions
    # hand each diagonal solver, where a solution exists: the plain scan
    # stops at its first row, and each row is long.
    rng = random.Random(75)
    classes = {TernaryKind.SUM3SQUARES: (2, 3, 6), TernaryKind.D122: (2, 3, 5),
               TernaryKind.D115: (1, 2, 5, 6, 7)}
    for kind, residues in classes.items():
        ms = []
        while len(ms) < 10:
            m = rng.randrange(10**8, 10**9)
            if m % 8 in residues:
                ms.append(m)
        for m in ms:
            assert solve_ternary(kind, m) == oracles.solve_ternary(kind, m), (kind, m)


def test_solve_ternary_edge_rows():
    s3, d122, d115 = TernaryKind.SUM3SQUARES, TernaryKind.D122, TernaryKind.D115
    hx = TernaryKind.D1HEX
    cases = {
        # b = c: with wb = wc the solution sits exactly on the stop
        # 2*wc*c^2 = n - a^2 of the descending c scan.
        (s3, 18): (0, 3, 3), (s3, 2 * 3**10): (0, 243, 243),
        (d122, 36): (0, 3, 3), (d122, 4 * 3**10): (0, 243, 243),
        # b = 0: the first c of the row, isqrt((n - a^2)/wc), is the solution.
        (d115, 245): (0, 0, 7), (d115, 5 * 1001**2): (0, 0, 1001),
        (s3, 9): (0, 0, 3), (d122, 18): (0, 0, 3),
        # The row's only solution has c = 0: the scan runs down to c = 0.
        (d115, 2): (1, 1, 0), (d115, 17): (1, 4, 0), (d115, 10**6 + 64): (8, 1000, 0),
        (d122, 1): (1, 0, 0), (s3, 0): (0, 0, 0),
        # The hexagonal kind runs s = 2c + b downward.  Its least b sits on
        # the stop s = 3b, that is 6b^2 = n - a^2; b = 0 at the first s,
        # isqrt(2(n - a^2)); and the empty row r = 0.
        (hx, 54): (0, 3, 3), (hx, 6 * 3**10): (0, 243, 243),
        (hx, 98): (0, 0, 7), (hx, 2 * 1001**2): (0, 0, 1001),
        (hx, 1): (1, 0, 0), (hx, 0): (0, 0, 0),
    }
    for (kind, m), sol in cases.items():
        assert solve_ternary(kind, m) == sol == oracles.solve_ternary(kind, m), (kind, m)


def test_least_b_tables_match_the_plain_scan():
    # The table path of verify_universal gives the plain scan's answer for
    # every m <= 20000 of each kind, None included.  Plain scans of all of
    # them would take tens of seconds, so a sorted enumeration of every triple
    # gives the answers in bulk, and it is itself matched with the plain
    # scans on every m <= 2000.  Each form's table is sized by _table_solver
    # for nmax, and the inclusive top m = s*nmax of each row is asked too.
    for fid, nmax in ((1, 20000), (2, 6667), (3, 20000), (4, 5000)):
        solvers = universal._table_solver(fid, nmax)
        rows = [case for case in case_rows() if case.form_id == fid]
        kind, top = rows[0].kind, max(case.s * nmax for case in rows)
        assert {case.kind for case in rows} == {kind} and top >= 20000
        expected = oracles.first_solutions(kind, top)
        assert expected[:2001] == [oracles.solve_ternary(kind, m) for m in range(2001)], kind
        wrong = [m for m in range(top + 1) if solvers[kind](m) != expected[m]]
        assert not wrong, (kind, wrong[:5])
        for case in rows:
            m = case.s * nmax
            assert solvers[kind](m) == oracles.solve_ternary(kind, m), (case.name, m)


def test_residue_tables_are_exactly_the_values_of_w_s2():
    mod = universal._FILTER_MOD
    for kind in TernaryKind:
        w, table = kind.row[0], kind.residues
        values = {w * s * s % mod for s in range(mod)}
        assert [r for r in range(mod) if table[r]] == sorted(values), w


def test_row_tables_are_exactly_the_values_of_the_b_c_part():
    # Built directly modulo 2880, not prime power by prime power.
    import numpy as np

    mod = universal._FILTER_MOD
    tables = {kind: kind.row_residues for kind in TernaryKind}
    assert set(tables) == set(TernaryKind)
    weights = {TernaryKind.SUM3SQUARES: (1, 1), TernaryKind.D122: (2, 2), TernaryKind.D115: (1, 5)}
    for kind, (wb, wc) in weights.items():
        bs = {wb * s * s % mod for s in range(mod)}
        cs = {wc * s * s % mod for s in range(mod)}
        values = {(x + y) % mod for x in bs for y in cs}
        assert [r for r in range(mod) if tables[kind][r]] == sorted(values), kind
    seen = np.zeros(mod, dtype=bool)
    c = np.arange(mod, dtype=np.int64)
    for b in range(mod):
        seen[2 * (b * b + b * c + c * c) % mod] = True
    hex_table = tables[TernaryKind.D1HEX]
    assert [r for r in range(mod) if hex_table[r]] == np.flatnonzero(seen).tolist()
    # The row tables subsume the parity skips: no odd remainder passes for
    # D122 or the hexagonal kind.
    for table in (tables[TernaryKind.D122], hex_table):
        assert not any(table[r] for r in range(1, mod, 2))


def test_solve_ternary_rejects_negative_input():
    for kind in TernaryKind:
        with pytest.raises(ValueError):
            solve_ternary(kind, -1)


def test_solve_ternary_checks_its_result(monkeypatch):
    # Each least-b source of the driver claims b = 0 for r = 7, a row it does
    # not reach: 7 has no solution with a = b = 0 in any kind, so the c
    # recovered from r and b gives a wrong triple, which must be rejected.
    # First the row scans of represent, then the least-b tables of
    # verify_universal, built through _table_solver.
    for kind in TernaryKind:
        monkeypatch.setattr(kind, "scan", lambda r: 0)
        with pytest.raises(InvariantViolation, match="wrong solution"):
            solve_ternary(kind, 7)
    real = universal._least_b_table

    def wrong(kind, top):
        table = real(kind, top)
        table[7] = 0
        return table

    monkeypatch.setattr(universal, "_least_b_table", wrong)
    for case in case_rows():
        solvers = universal._table_solver(case.form_id, 100)
        with pytest.raises(InvariantViolation, match="wrong solution"):
            solvers[case.kind](7)


def test_three_square_absence_criterion():
    # n is a sum of three squares iff n != 4^a (8b + 7); the brute solver
    # must certify absence exactly on that set, checked to 10^4.
    def excluded(n):
        while n and n % 4 == 0:
            n //= 4
        return n % 8 == 7

    assert solve_ternary(TernaryKind.SUM3SQUARES, 0) == (0, 0, 0)
    for n in range(1, 10001):
        absent = solve_ternary(TernaryKind.SUM3SQUARES, n) is None
        assert absent == excluded(n), n


def test_represent_examples():
    r = represent(1, 2)
    assert r.vector == (1, 0, 0, 0)
    r = represent(4, 3)
    assert r.vector == (1, 1, 0, 0)
    r8 = represent(2, 8)
    r2 = represent(2, 2)
    assert r8.vector == tuple(2 * v for v in r2.vector)
    assert r8.trace[-1] == "doubled"


#: (form, n) -> (vector, trace) as produced by the unfiltered ternary scans:
#: each case branch of q1..q4, the base case, doubling and n near 10^6.
PINNED_REPRESENTATIONS = {
    (1, 2): ((1, 0, 0, 0), ("d=0", "ternary 2=a^2+2b^2+2c^2 -> (0, 0, 1)")),
    (1, 6): ((1, 0, 0, 1), ("d=1", "ternary 2=a^2+2b^2+2c^2 -> (0, 0, 1)")),
    (1, 7): ((0, 1, 0, 1), ("d=1", "ternary 3=a^2+2b^2+2c^2 -> (1, 0, 1)", "swap b,c")),
    (1, 1000003): ((276, 329, 322, 0),
                   ("d=0", "ternary 1000003=a^2+2b^2+2c^2 -> (7, 276, 651)", "swap b,c")),
    (2, 2): ((1, 0, 0, 0), ("d=0", "ternary 6=a^2+b^2+5c^2 -> (0, 1, 1)", "swap a,b")),
    (2, 9): ((-2, 1, 0, 1), ("d=1", "ternary 22=a^2+b^2+5c^2 -> (1, 1, 2)")),
    (2, 65): ((6, 1, 0, -1), ("d=1", "ternary 190=a^2+b^2+5c^2 -> (1, 3, 6)", "swap a,b")),
    (2, 1000037): ((-95, 0, 573, 30), ("d=0", "ternary 3000111=a^2+b^2+5c^2 -> (5, 1719, 95)")),
    (3, 3): ((1, -1, 0, 0), ("d=0", "ternary 3=a^2+2(b^2+bc+c^2) -> (1, 0, 1)")),
    (3, 6): ((0, -1, 1, 0), ("d=0", "ternary 6=a^2+2(b^2+bc+c^2) -> (0, 1, 1)",
                             "(b,c) -> (b+c,-c)", "swap b,c")),
    (3, 17): ((3, -1, 0, 1), ("d=1", "ternary 14=a^2+2(b^2+bc+c^2) -> (0, 1, 2)", "swap b,c")),
    (3, 36): ((4, 0, -2, 2), ("d=1", "ternary 6=a^2+2(b^2+bc+c^2) -> (0, 1, 1)",
                              "(b,c) -> (b+c,-c)", "doubled")),
    (3, 1234567): ((638, 264, -271, 0), ("d=0", "ternary 1234567=a^2+2(b^2+bc+c^2) -> (7, 367, 535)",
                                         "(b,c) -> (b+c,-c)")),
    (4, 4): ((0, 0, 1, 0), ("base n=4",)),
    (4, 12): ((2, 2, 0, 0), ("d=3", "three squares 3 -> (1, 1, 1)", "arranged (a,b,c)=(1,1,1)",
                             "doubled")),
    (4, 999999): ((-45, 1, 518, -46), ("d=3", "three squares 3999987 -> (1, 275, 1981)",
                                       "arranged (a,b,c)=(1,-275,1981)")),
    (4, 3999998): ((-179, 0, 1053, -180), ("three squares 3999998 -> (1, 539, 1926)",
                                           "arranged (a,b,c)=(1,-539,1926)")),
}


def test_represent_pinned_vectors_and_traces():
    for (fid, n), (vector, trace) in PINNED_REPRESENTATIONS.items():
        r = represent(fid, n)
        assert (r.vector, r.trace) == (vector, trace), (fid, n)


#: (form, n) -> (vector, trace) where the automorphism a row picks depends on
#: its order or its normalisation: all odd (a, b, c) for q1, where the swap of
#: b and c is also accepted; an entry 2 mod 3 (q2) or b = c mod 2 (q3), where
#: a normalisation rejects an automorphism the congruence alone accepts.
ORDER_PINS = {
    (1, 5): ((1, 1, 0, 0), ("d=0", "ternary 5=a^2+2b^2+2c^2 -> (1, 1, 1)")),
    (2, 3): ((1, 0, 0, -1), ("d=0", "ternary 9=a^2+b^2+5c^2 -> (0, 2, 1)", "swap a,b")),
    (2, 6): ((1, 0, 1, -1), ("d=0", "ternary 18=a^2+b^2+5c^2 -> (2, 3, 1)")),
    (3, 7): ((2, 0, -1, 0), ("d=0", "ternary 7=a^2+2(b^2+bc+c^2) -> (1, 1, 1)",
                             "(b,c) -> (b+c,-c)")),
    (3, 9): ((2, 0, -1, 1), ("d=1", "ternary 6=a^2+2(b^2+bc+c^2) -> (0, 1, 1)",
                             "(b,c) -> (b+c,-c)")),
}


def test_row_orders_and_normalisations_are_pinned():
    for (fid, n), (vector, trace) in ORDER_PINS.items():
        r = represent(fid, n)
        assert (r.vector, r.trace) == (vector, trace), (fid, n)


def test_represent_matches_construction_on_unfiltered_scans(monkeypatch):
    # The whole construction, not just the solver: the same vectors and
    # traces when every ternary problem is solved by the plain scans.
    rng = random.Random(74)
    cases = [(fid, n) for fid in (1, 2, 3, 4)
             for n in [*range(2, 3001), *(rng.randrange(10**6, 4 * 10**6) for _ in range(40))]]
    fast = [represent(fid, n) for fid, n in cases]
    monkeypatch.setattr(universal, "solve_ternary", oracles.solve_ternary)
    for rep, (fid, n) in zip(fast, cases):
        assert rep == represent(fid, n), (fid, n)


def case_rows():
    """The rows of universal.CASES, each once, in table order."""
    return list({id(case): case for case in universal.CASES.values()}.values())


def apply(matrix, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in matrix)


def test_case_rows_are_identities():
    # Each row's algebra, apart from its table: s*q(U*v) = D^2*(T(a, b, c) +
    # k*d^2) on random integer quadruples v = (a, b, c, d), and every listed
    # automorphism has det +-1 and preserves T.  The rows cover n = 1, 2, 3,
    # 5, 6, 7 mod 8 for each form, and each d rule gives an m = s*n - k*d^2
    # in the residues mod 8 that the row accepts.
    rng = random.Random(77)
    rows = case_rows()
    assert [case.name for case in rows] == ["q1", "q2", "q3", "q4 even", "q4 odd"]
    for fid in (1, 2, 3, 4):
        assert sorted(r for f, r in universal.CASES if f == fid) == [1, 2, 3, 5, 6, 7]
    for case in rows:
        gram = REFERENCE_FORMS[case.form_id].gram
        for _ in range(200):
            a, b, c, d = v = [rng.randrange(-10**6, 10**6) for _ in range(4)]
            assert case.s * evaluate(gram, apply(case.U, v)) == \
                case.D**2 * (ternary_value(case.kind, a, b, c) + case.k * d * d), (case.name, v)
        for r, d in case.d.items():
            assert (case.s * r - case.k * d * d) % 8 in case.m_mod_8, (case.name, r)
        for matrix, _ in case.automorphisms:
            assert oracles.det(matrix) in (1, -1), (case.name, matrix)
            for _ in range(10):
                t = [rng.randrange(-1000, 1000) for _ in range(3)]
                assert ternary_value(case.kind, *apply(matrix, t)) == \
                    ternary_value(case.kind, *t), (case.name, matrix)


def test_case_tables_give_the_first_automorphism():
    # Every residue key of every row, through a triple with those residues:
    # the table holds what a plain first-match search over the row's
    # automorphisms finds, with the congruence mod D and the normalisation,
    # and holds nothing where the search finds nothing.  The q4 rows list the
    # signed permutations in the order of the plain search.
    rng = random.Random(76)
    for case in case_rows():
        D, found = case.D, 0
        for d in set(case.d.values()):
            for r in product(range(D), repeat=3):
                triple = [x + D * rng.randrange(-50, 50) for x in r]
                expected = oracles.first_automorphism(case, triple, d)
                got = case.table.get((*r, d))
                if expected is None:
                    assert got is None, (case.name, r, d)
                    continue
                found += 1
                assert got == expected, (case.name, r, d)
        assert found == len(case.table), case.name
    t = (2, 3, 5)
    for key in ((4, 2), (4, 3)):
        images = [apply(matrix, t) for matrix, _ in universal.CASES[key].automorphisms]
        assert images == list(oracles.signed_permutations(t)), key


def with_empty_table(form_id, n):
    """(key, row) of CASES: the row for q_form_id(n), its table emptied."""
    key = (form_id, n % 8)
    return key, universal.CASES[key]._replace(table={})


def test_q4_without_an_arrangement_raises(monkeypatch):
    for n, step in ((6, "q4 even: no automorphism meets the congruence mod 6"),
                    (3, "q4 odd: no automorphism meets the congruence mod 12")):
        monkeypatch.setitem(universal.CASES, *with_empty_table(4, n))
        with pytest.raises(RepresentationError) as failure:
            represent(4, n)
        assert str(failure.value) == step


def test_each_failed_construction_step_is_named(monkeypatch, capsys):
    # Every step text of the construction, from represent and from the CLI,
    # which exits 3 with the step on one stderr line and nothing on stdout.
    q1 = universal.CASES[1, 7]
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    steps = [
        # n = 2 for q1 with d = 1: m = 2 - 4 = -2.  With d = 2, m = -14 is 2
        # mod 8, a residue of the row, and only its sign fails; at n = 13 with
        # d = 1, m = 9 > 0 is 1 mod 8, not one.
        (lambda mp: mp.setitem(universal.CASES[1, 2].d, 2, 1), 1, 2, "q1: residue of -2 mod 8"),
        (lambda mp: mp.setitem(universal.CASES[1, 2].d, 2, 2), 1, 2, "q1: residue of -14 mod 8"),
        (lambda mp: mp.setitem(universal.CASES[1, 5].d, 5, 1), 1, 13, "q1: residue of 9 mod 8"),
        (lambda mp: mp.setattr(universal, "solve_ternary", lambda kind, m: None),
         2, 9, "q2: no ternary solution for 22"),
        (lambda mp: mp.setitem(universal.CASES, *with_empty_table(3, 17)),
         3, 17, "q3: no automorphism meets the congruence mod 2"),
        # n = 7 for q1 solves 3 = a^2 + 2b^2 + 2c^2 by (1, 0, 1), which needs
        # b and c swapped: without the swap, x = (a + b)/2 is not an integer.
        (lambda mp: mp.setitem(q1.table, (1, 0, 1, 1), (identity, ())),
         1, 7, "q1: divisibility by 2"),
    ]
    for patch, fid, n, step in steps:
        with monkeypatch.context() as mp:
            patch(mp)
            with pytest.raises(RepresentationError) as failure:
                represent(fid, n)
            assert str(failure.value) == step
            code = cli.main(["represent", "--form", str(fid), "--n", str(n)])
            assert (code, *capsys.readouterr()) == (3, "", f"internal invariant violated: {step}\n")


def run_python(flags, *args):
    """python with flags and args, with this checkout's splitjac importable."""
    src = str(Path(universal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *flags, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_q4_without_an_arrangement_raises_under_python_O():
    # The CLI exits 3 with the step named on one line, also with asserts stripped.
    script = (
        "import sys\n"
        "assert False, 'asserts are not stripped'\n"
        "from splitjac import cli, universal\n"
        "key = (4, int(sys.argv[1]) % 8)\n"
        "universal.CASES[key] = universal.CASES[key]._replace(table={})\n"
        "sys.exit(cli.main(['represent', '--form', '4', '--n', sys.argv[1]]))\n"
    )
    for n, step in ((6, "q4 even: no automorphism"), (3, "q4 odd: no automorphism")):
        proc = run_python(("-O",), "-c", script, str(n))
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and step in proc.stderr


def test_represent_rejects_bad_input():
    with pytest.raises(ValueError):
        represent(1, 1)
    with pytest.raises(ValueError):
        represent(5, 10)


def test_representation_verifies_itself():
    with pytest.raises(RepresentationError):
        Representation(1, 3, (1, 0, 0, 0), ())
    rep = represent(1, 2)
    assert rep == Representation(*rep) and hash(rep) == hash(Representation(*rep))
    with pytest.raises(RepresentationError):
        rep._replace(n=3)


def test_base4_vectors_regenerate():
    # The n = 4 base vectors are the first value-4 vectors in lexicographic
    # nonnegative search order.
    for fid, ref in REFERENCE_FORMS.items():
        found = next(
            v
            for v in product(range(0, 3), repeat=4)
            if evaluate(ref.gram, v) == 4
        )
        assert BASE4_VECTORS[fid] == found
        assert evaluate(ref.gram, BASE4_VECTORS[fid]) == 4


def test_doubling_identity():
    rng = random.Random(72)
    for _ in range(50):
        fid = rng.randrange(1, 5)
        n = rng.randrange(2, 500)
        r = represent(fid, 4 * n)
        inner = represent(fid, n)
        assert r.vector == tuple(2 * v for v in inner.vector)


def test_case_side_conditions_via_traces():
    # The congruence side conditions are enforced inside the construction;
    # spot-check the visible ones through the recorded traces.
    for n in range(2, 200):
        if n % 4 == 0:
            continue
        r1 = represent(1, n)
        d = int(r1.trace[0].split("=")[1])
        assert d == (0 if n % 8 in (2, 3, 5) else 1)
        r3 = represent(3, n)
        d3 = int(r3.trace[0].split("=")[1])
        assert d3 == (0 if n % 8 in (2, 3, 6, 7) else 1)
        r2 = represent(2, n)
        d2 = int(r2.trace[0].split("=")[1])
        assert d2 == (1 if (3 * n) % 8 == 3 else 0)


def test_verify_universal_small():
    for fid in (1, 2, 3, 4):
        report = verify_universal(fid, 100)
        assert report["count"] == 99
        assert sum(report["cases"].values()) == 99


def test_verify_universal_counts_and_evaluates_every_n_once(monkeypatch):
    # represent runs once per m that is 4 or not divisible by 4, and the rest
    # are doubled; the cases must still count represent's own keys, and each
    # n in [2, nmax] is evaluated exactly once.
    values = []
    real = universal.evaluate
    monkeypatch.setattr(universal, "evaluate",
                        lambda gram, v: values.append(real(gram, v)) or values[-1])
    for fid in (1, 2, 3, 4):
        for nmax in (2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 1000):
            expected = Counter(case_key(represent(fid, n)) for n in range(2, nmax + 1))
            values.clear()
            report = verify_universal(fid, nmax)
            assert report["cases"] == expected, (fid, nmax)
            assert report["count"] == len(values) == nmax - 1, (fid, nmax)
            assert sorted(values) == list(range(2, nmax + 1)), (fid, nmax)


def test_verify_universal_builds_what_represent_returns(monkeypatch):
    # The doubled representations carry the vector and trace of represent(n).
    built = []

    class Recorded(Representation):
        def __new__(cls, *args):
            self = super().__new__(cls, *args)
            built.append((self.n, self.vector, self.trace))
            return self

    monkeypatch.setattr(universal, "Representation", Recorded)
    for fid in (1, 2, 3, 4):
        built.clear()
        verify_universal(fid, 1000)
        got = sorted(built)
        built.clear()
        expected = [(n, r.vector, r.trace) for n in range(2, 1001) for r in [represent(fid, n)]]
        assert got == expected, fid


def test_cli_verify_universal_is_the_same_under_python_O():
    for fid in ("1", "2", "3", "4"):
        args = ("-m", "splitjac", "verify-universal", "--form", fid, "--max", "3000")
        plain, optimized = run_python((), *args), run_python(("-O",), *args)
        assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
        assert plain.stdout == optimized.stdout
        assert json.loads(plain.stdout)["count"] == 2999


def test_verify_universal_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_universal(1, 1)
    with pytest.raises(ValueError, match="nmax <= 1000000"):
        verify_universal(1, universal.VERIFY_MAX + 1)
    with pytest.raises(ValueError, match="unknown form id 5"):
        verify_universal(5, 10)


def test_constructive_agrees_with_enumeration_oracle():
    bound = 2000
    for fid in (1, 2, 3, 4):
        enum = represented_by_enumeration(fid, bound)
        assert 1 not in enum
        missing = set(range(2, bound + 1)) - enum
        assert not missing
        # constructive side: every value in [2, bound] is produced and
        # verified by Representation itself
        for n in range(2, 200):
            represent(fid, n)


def test_check_enumeration_flags_disagreement(monkeypatch):
    check_enumeration(3, 50)
    with pytest.raises(ValueError):
        check_enumeration(3, 1)
    monkeypatch.setattr(universal, "represented_by_enumeration",
                        lambda fid, bound: frozenset(range(2, bound + 1)) - {37})
    with pytest.raises(InvariantViolation, match=r"misses \[37\]"):
        check_enumeration(3, 50)
    monkeypatch.setattr(universal, "represented_by_enumeration",
                        lambda fid, bound: frozenset(range(1, bound + 1)))
    with pytest.raises(InvariantViolation, match="represents 1"):
        check_enumeration(3, 50)


def test_enumeration_oracle_small_values():
    enum = represented_by_enumeration(1, 10)
    assert enum == frozenset(range(2, 11))
    assert represented_by_enumeration(4, 1) == frozenset()


def test_enumeration_oracle_matches_plain_box_enumeration():
    # The theta masks against every w of the whole box.
    for fid in (1, 2, 3, 4):
        gram = REFERENCE_FORMS[fid].gram
        for bound in (0, 1, 2, 3, 10, 31, 200, 2000):
            assert represented_by_enumeration(fid, bound) == \
                oracles.represented_by_enumeration(gram, bound), (fid, bound)


def test_check_enumeration_on_forms_that_fail(monkeypatch):
    # Real enumerations, not a stubbed oracle: the pruning must keep value 1
    # and must not fill in the values a form misses.
    identity = QForm4(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    gap_form = QForm4(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 8)))
    monkeypatch.setitem(universal.REFERENCE_FORMS, 5, identity)
    monkeypatch.setitem(universal.REFERENCE_FORMS, 6, gap_form)
    assert 1 in represented_by_enumeration(5, 20)
    with pytest.raises(InvariantViolation, match="represents 1"):
        check_enumeration(5, 20)
    assert set(range(1, 21)) - represented_by_enumeration(6, 20) == {7, 15}
    with pytest.raises(InvariantViolation, match=r"misses \[7, 15\]"):
        check_enumeration(6, 20)


def test_enumeration_oracle_matches_plain_box_on_random_grams(monkeypatch):
    # The reference forms have det G2 in {4, 5, 6} only.  The first two grams
    # have det G2 = 1, one with g01 != 0; in the third, value 1 lies only on
    # slices whose least real value is exactly 1, so the Schur test must keep
    # equality.  The random ones have g01 != 0 and entries of both signs.
    # Every bound from 0 to 300 is checked against the plain box.
    rng = random.Random(20261018)
    grams = [((1, 0, 1, 0), (0, 1, 0, -1), (1, 0, 3, 1), (0, -1, 1, 4)),
             ((2, 1, -1, 0), (1, 1, 0, 1), (-1, 0, 3, -1), (0, 1, -1, 5)),
             ((3, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))]
    while len(grams) < 9:
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            g[i][i] = rng.randint(1, 24)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        if g[0][1] and all(oracles.det([row[:k] for row in g[:k]]) > 0 for k in (1, 2, 3, 4)):
            grams.append(tuple(map(tuple, g)))
    assert {g[0][0] * g[1][1] - g[0][1] ** 2 for g in grams[:2]} == {1}
    for fid, gram in enumerate(grams, start=5):
        monkeypatch.setitem(universal.REFERENCE_FORMS, fid, QForm4(gram))
        expected = oracles.represented_by_enumeration(gram, 300)
        for bound in range(301):
            assert represented_by_enumeration(fid, bound) == \
                {v for v in expected if v <= bound}, (gram, bound)


def test_enumeration_oracle_builds_one_mask_per_class(monkeypatch):
    # m is reduced modulo G2 Z^2 into G2 [0, 1)^2, which holds det G2 = 6, 4,
    # 5, 5 integer points, and each class's mask is built once.  For q1,
    # G2 = diag(2, 3) and m = (0, y) meets only three of its six classes.
    calls = []
    real = universal._oracle_mask
    monkeypatch.setattr(universal, "_oracle_mask", lambda *args: calls.append(args) or real(*args))
    for fid in (1, 2, 3, 4):
        calls.clear()
        assert represented_by_enumeration(fid, 2000) == frozenset(range(2, 2001))
        assert len(calls) == len(set(calls)) == {1: 3, 2: 4, 3: 5, 4: 5}[fid]


def test_enumeration_oracle_rejects_negative_bound():
    with pytest.raises(ValueError, match="bound >= 0, got -1"):
        represented_by_enumeration(2, -1)
    assert represented_by_enumeration(2, 0) == frozenset()


def test_enumeration_oracle_rejects_bound_above_cap(monkeypatch):
    # The cap is checked before the box radii or any mask is computed.
    def not_called(*args, **kwargs):
        raise RuntimeError("work started for a rejected bound")

    monkeypatch.setattr(universal, "_oracle_radii", not_called)
    monkeypatch.setattr(universal, "_oracle_mask", not_called)
    for fid in (1, 2, 3, 4):
        with pytest.raises(ValueError, match=f"{ORACLE_MAX + 1} is above the cap of {ORACLE_MAX}"):
            represented_by_enumeration(fid, ORACLE_MAX + 1)


def test_check_enumeration_at_the_cap():
    # The oracle at its cap, in pure Python: one form within 2 s.
    start = time.perf_counter()
    check_enumeration(4, ORACLE_MAX)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"check_enumeration(4, {ORACLE_MAX}) took {elapsed:.2f}s"
