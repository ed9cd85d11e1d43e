"""Mutation runner: each listed mutant of the package must fail its target tests.

Run from the repository root with ``python3 tests/mutants.py``.  For each
entry it copies ``src/`` to a temporary directory, replaces the entry's old
snippet (which must occur exactly once in the file) by its new one, and runs
``pytest -x -q`` on the entry's target tests against the copy.  A mutant is
killed when the tests fail and survives when they pass; any other pytest
outcome (no tests collected, a usage error) is an error.  The target tests
are first run once on the unmutated copy, which must pass.  The exit status
is 1 if any mutant survives or errs, else 0.

Only the standard library is used, and pytest does not collect this file.
``tests/test_lint.py`` checks that each old snippet occurs exactly once in
``src/``, so an entry cannot go stale silently.  Every listed mutant can be
detected; a mutant that no test could detect (one that keeps every output)
would be named here with the reason instead of being listed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    targets: tuple[str, ...]  # pytest node ids, relative to the repository root


CMHOM = "splitjac/cmhom.py"
HOM = ("tests/test_cmhom.py::test_hom_lattice_matches_hnf_intersection",)
COORDS = ("tests/test_cmhom.py::test_contains_agrees_with_in_lattice_on_the_hnf",)
PROFILE = ("tests/test_cmhom.py::test_degree_profile_gaussian",
           "tests/test_cmhom.py::test_degree_profile_agrees_with_per_morphism_oracles")
SCREEN_SETS = ("tests/test_cmhom.py::test_packed_screen_matches_the_set_rule",)
RANK = ("tests/test_cmhom.py::test_rank_rule_matches_the_gcd_rule_on_a_cold_screen",)
COSETS = ("tests/test_cmhom.py::test_hom_cosets_match_the_per_pair_enumeration_on_a_cold_search",)
GLUED = ("tests/test_pipeline.py::test_glued_verdicts_match_the_period_lattice_degree_forms",)
ODD_SLOTS = ("tests/test_pipeline.py::test_glue_rejects_a_congruence_that_is_not_psi",)
PRINTED = ("tests/test_pipeline.py::test_printed_grams_are_the_glued_forms_of_the_same_rows",)
MOD4 = ("tests/test_pipeline.py::test_the_mod_4_rule_is_the_integrality_of_the_glued_form",)
CLASSIFY = ("tests/test_pipeline.py::test_cli_classify_json_is_pinned",)
ORDER = ("tests/test_cmhom.py::test_order_disc",
         "tests/test_cmhom.py::test_order_disc_is_the_discriminant_of_the_hnf_ring")
UNIVERSAL = "splitjac/universal.py"
ROWS = ("tests/test_universal.py::test_case_rows_are_identities",
        "tests/test_universal.py::test_represent_pinned_vectors_and_traces",
        "tests/test_universal.py::test_row_orders_and_normalisations_are_pinned")
SCANS = ("tests/test_universal.py::test_solve_ternary_edge_rows",
         "tests/test_universal.py::test_solve_ternary_matches_unfiltered_scan_small")
TABLES = ("tests/test_universal.py::test_least_b_tables_match_the_plain_scan",
          "tests/test_universal.py::test_verify_universal_builds_what_represent_returns")
VERIFY = ("tests/test_universal.py::test_verify_universal_counts_and_evaluates_every_n_once",
          "tests/test_universal.py::test_verify_universal_builds_what_represent_returns")
STEPS = ("tests/test_universal.py::test_each_failed_construction_step_is_named",
         "tests/test_universal.py::test_q4_without_an_arrangement_raises")
PERIOD = "splitjac/periodlattice.py"
INTLINALG = "splitjac/intlinalg.py"
MAPS = ("tests/test_periodlattice.py::test_maps_module_matches_the_hnf_intersection",
        "tests/test_periodlattice.py::test_maps_module_of_every_candidate_matches_the_hnf_intersection")
DIAG = ("tests/test_periodlattice.py::test_diag_isomorphic_rejects_a_map_into_a_proper_sublattice",
        "tests/test_periodlattice.py::test_diag_isomorphic_matches_the_hnf_test_on_every_merge")
# Every merge of the sweep has tau1 = tau2, and each stabilizer is closed
# under conjugation by J mod 2, so only modular images (g(tau), h(sigma))
# with g != h mod 2 tell h = J*g*J from h = g.
DIAG_J = ("tests/test_periodlattice.py::"
          "test_diag_isomorphic_matches_the_hnf_test_on_modular_images",)
LATTICE_TUPLE = ("tests/test_periodlattice.py::"
                 "test_period_lattice_is_a_validated_tuple_that_pickles",)
PIPELINE = "splitjac/pipeline.py"
ORBITS = ("tests/test_pipeline.py::"
          "test_candidates_are_the_pairwise_merge_read_off_the_stabilizer",)
SWEEP = ("tests/test_pipeline.py::test_classification_row_counts",
         "tests/test_periodlattice.py::test_maps_module_of_every_candidate_matches_the_hnf_intersection")
SMALL_VALUES = ("tests/test_pipeline.py::"
                "test_small_value_test_enumerates_no_form_outside_the_isometry_search",)
NMAX = ("tests/test_pipeline.py::test_screen_matches_golden",) + SMALL_VALUES
NORM_FORM = ("tests/test_periodlattice.py::test_degree_form_is_the_norm_form_sum",)
BQF = "splitjac/bqf.py"
F1 = ("tests/test_bqf.py::test_boundary_twins",
      "tests/test_bqf.py::test_domain_corners_match_fraction_formulas",
      "tests/test_bqf.py::test_domain_routines_match_fraction_formulas")
F2 = ("tests/test_bqf.py::test_in_F2_examples",
      "tests/test_bqf.py::test_domain_corners_match_fraction_formulas")
QFORMS = "splitjac/qforms.py"
QUADFIELD = "splitjac/quadfield.py"
IMMUTABLE = ("tests/test_quadfield.py::test_kelem_is_immutable",)
KELEM_NEW = ("tests/test_quadfield.py::test_constructor_takes_canonical_int_fields",)
KELEM_REBUILD = ("tests/test_quadfield.py::"
                 "test_make_replace_pickle_and_deepcopy_go_through_the_constructor",)
RATIONAL_ORDER = ("tests/test_pipeline.py::"
                  "test_row_order_and_merge_representatives_follow_the_rational_order",)

MUTANTS = (
    # One wrong entry of U per row of the construction.
    Mutant("q1: U entry", UNIVERSAL, "((0, 0, 2, 0), (1, 1, 0, 0), (-1, 1, 0, 0), (0, 0, 0, 2))",
           "((0, 0, 2, 0), (1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 2))", ROWS),
    Mutant("q2: U entry", UNIVERSAL, "((0, 0, 3, 0), (0, 0, 0, 3), (0, 1, 0, -1), (1, 0, -1, 0))",
           "((0, 0, 3, 0), (0, 0, 0, 3), (0, 1, 0, 1), (1, 0, -1, 0))", ROWS),
    Mutant("q3: U entry", UNIVERSAL, "((1, 2, 1, 1), (-1, 0, -1, -1), (-1, 0, 1, -1), (0, 0, 0, 2))",
           "((1, 2, 1, 1), (-1, 0, -1, -1), (-1, 0, 1, 1), (0, 0, 0, 2))", ROWS),
    Mutant("q4 even: U entry", UNIVERSAL, "((4, 2, 0, 0), (0, 0, 0, 0), (1, -1, 3, 0), (-2, 2, 0, 0))",
           "((4, 2, 0, 0), (0, 0, 0, 0), (1, -1, -3, 0), (-2, 2, 0, 0))", ROWS),
    Mutant("q4 odd: U entry", UNIVERSAL, "((4, 2, 0, 2), (0, 0, 0, 4), (1, -1, 3, -1), (-2, 2, 0, 0))",
           "((4, 2, 0, 2), (0, 0, 0, 2), (1, -1, 3, -1), (-2, 2, 0, 0))", ROWS),
    # q1's d rule with d = 1 for n = 5 (mod 8): m = n - 4 is 1 mod 8.
    Mutant("q1: d rule at 5 mod 8", UNIVERSAL, "{1: 1, 2: 0, 3: 0, 5: 0, 6: 1, 7: 1}",
           "{1: 1, 2: 0, 3: 0, 5: 1, 6: 1, 7: 1}", ROWS),
    # The normalisations dropped: the congruence alone accepts other vectors.
    Mutant("q2: no normalisation", UNIVERSAL, "lambda a, b, c: 2 not in (a % 3, b % 3, c % 3)),",
           "None),", ROWS),
    Mutant("q3: no normalisation", UNIVERSAL, "lambda a, b, c: (b - c) % 2 == 1),",
           "None),", ROWS),
    # q1 prefers the swap of b and c to the identity.
    Mutant("q1: automorphism order swapped", UNIVERSAL,
           '((_signed((0, 1, 2)), ()), (_signed((0, 2, 1)), ("swap b,c",)))',
           '((_signed((0, 2, 1)), ("swap b,c",)), (_signed((0, 1, 2)), ()))', ROWS),
    # The descending c scan that all four kinds share: its stop one step early
    # (with equal weights the row's solution with b = c sits on the stop),
    # and no step at c = 0.
    Mutant("scan: stop off by one", UNIVERSAL, "for c in range(top, low - 1, -1):",
           "for c in range(top, low, -1):", SCANS),
    Mutant("scan: no c = 0 step", UNIVERSAL, "low = isqrt(c2 - 1) + 1 if c2 else 0",
           "low = isqrt(c2 - 1) + 1 if c2 else 1", SCANS),
    # The kinds' rows: the hexagonal stop moved to 6b^2 <= r/2 (den 8),
    # and the stop of three squares to b^2 <= r/3, each passing over a least
    # b; the hexagonal den 2, which keeps the scan right but starts the
    # table's c at isqrt(3b^2), of either parity, instead of 3b.
    Mutant("kinds: hexagonal den 8", UNIVERSAL, "(2, 2, 2), (3, 1, 2, 4)\n",
           "(2, 2, 2), (3, 1, 2, 8)\n", SCANS + TABLES),
    Mutant("kinds: hexagonal den 2", UNIVERSAL, "(2, 2, 2), (3, 1, 2, 4)\n",
           "(2, 2, 2), (3, 1, 2, 2)\n", SCANS + TABLES),
    Mutant("kinds: three squares den 3", UNIVERSAL, "(1, 0, 1), (1, 1, 1, 2)\n",
           "(1, 0, 1), (1, 1, 1, 3)\n", SCANS + TABLES),
    # The driver that both least-b sources share: a row whose least b is 0
    # taken for a row without one, c recovered with the weights swapped
    # (D115 and the hexagonal kind have unequal ones) or from r instead of
    # scale*r, and the other root (-s - b)/2 taken for the hexagonal c.
    Mutant("driver: b = 0 passed over", UNIVERSAL, "if b >= 0:", "if b > 0:", SCANS + TABLES),
    Mutant("driver: diagonal weights swapped", UNIVERSAL,
           "c = isqrt((scale * r - wb * b * b) // wc)", "c = isqrt((scale * r - wc * b * b) // wb)",
           SCANS + TABLES),
    Mutant("driver: r not scaled", UNIVERSAL, "c = isqrt((scale * r - wb * b * b) // wc)",
           "c = isqrt((r - wb * b * b) // wc)", SCANS + TABLES),
    Mutant("driver: hexagonal c from the other root", UNIVERSAL, "c = (c - b) // 2",
           "c = (-c - b) // 2", SCANS + TABLES),
    # The least-b tables of verify_universal: the last write to an entry
    # kept instead of the first, c stepped by 1 instead of scale (for the
    # hexagonal kind s of the wrong parity), and one entry short of the
    # largest m = s*nmax.
    Mutant("table: last b kept", UNIVERSAL,
           "            if table[r] < 0:\n                table[r] = b\n            r += step",
           "            table[r] = b\n            r += step", TABLES),
    Mutant("table: step 1", UNIVERSAL, "isqrt((top - base) // wc) + 1, scale):",
           "isqrt((top - base) // wc) + 1, 1):", TABLES),
    Mutant("table: bound one short", UNIVERSAL,
           "tops[case.kind] = max(tops.get(case.kind, 0), case.s * nmax)",
           "tops[case.kind] = max(tops.get(case.kind, 0), case.s * nmax - 1)", TABLES),
    # Each step check of _construct dropped: either half of the residue test
    # (m <= 0, m mod 8 outside the row's set), or the raise on a missing
    # solution, a missing automorphism or a vector not divisible by D.  The
    # run then fails later, with another error or another message.
    Mutant("construct: sign of m not tested", UNIVERSAL,
           "if m <= 0 or m % 8 not in case.m_mod_8:", "if m % 8 not in case.m_mod_8:", STEPS),
    Mutant("construct: residue of m not tested", UNIVERSAL,
           "if m <= 0 or m % 8 not in case.m_mod_8:", "if m <= 0:", STEPS),
    Mutant("construct: missing solution not raised", UNIVERSAL,
           'raise RepresentationError(f"{name}: no ternary solution for {m}")', "pass", STEPS),
    Mutant("construct: missing automorphism not raised", UNIVERSAL,
           'raise RepresentationError(f"{name}: no automorphism meets the congruence mod {D}")',
           "pass", STEPS),
    Mutant("construct: divisibility not raised", UNIVERSAL,
           'raise RepresentationError(f"{name}: divisibility by {D}")', "pass", STEPS),
    # The self-check of a Representation made trivial, and verify_universal
    # building no Representation for a doubled vector, or doubling one
    # coordinate wrongly: the counts, the recorded representations or the
    # check itself fail.
    Mutant("representation: value not compared", UNIVERSAL, "        if value != n:\n", "        if False:\n",
           ("tests/test_universal.py::test_representation_verifies_itself",)),
    Mutant("verify: doubled vector not built", UNIVERSAL,
           "            Representation(form_id, n, (w, x, y, z), trace)\n", "\n", VERIFY),
    Mutant("verify: one coordinate doubled wrongly", UNIVERSAL,
           "4 * n, 2 * w, 2 * x, 2 * y, 2 * z, k + 1", "4 * n, 2 * w, 2 * x, 2 * y, z, k + 1",
           VERIFY),
    # The enumeration oracle without its form-id guard: ids 0 and 5 raise
    # KeyError in place of represent's ValueError.
    Mutant("oracle: no form-id guard", UNIVERSAL,
           'bits 1..bound.\n    """\n    if form_id not in REFERENCE_FORMS:',
           'bits 1..bound.\n    """\n    if False:',
           ("tests/test_universal.py::test_every_entry_point_rejects_an_unknown_form_id",)),
    # The closed form of the Hom congruence kernel: the least y without the
    # factor that g*x = -h*y (mod den) needs, the x-step den instead of
    # den/gcd(g, den), and x1 solving g*x = +h*y1.
    Mutant("hom: gcd(G, h*y0) dropped", CMHOM, "y1 = y0 * g_den // gcd(g_den, h * y0)",
           "y1 = y0 * g_den", HOM),
    Mutant("hom: x0 = den", CMHOM, "x0 = den // g_den", "x0 = den", HOM),
    Mutant("hom: sign of h in x1", CMHOM, "x1 = -(h * y1 // g_den)", "x1 = (h * y1 // g_den)", HOM),
    # The closed form needs omega1 and omega2 in the upper half-plane.
    Mutant("hom: half-plane guard dropped", CMHOM,
           "fields\")\n    if w1.q <= 0 or w2.q <= 0:", "fields\")\n    if False:",
           ("tests/test_cmhom.py::test_hom_lattice_rejects_generators_off_the_upper_half_plane",)),
    # The coordinates of x in the basis (1, omega): the sign of omega's p
    # term in u, and r' read as q' in v.
    Mutant("coords: sign of the p term", CMHOM, "x.p * omega.q - x.q * omega.p",
           "x.p * omega.q + x.q * omega.p", COORDS),
    Mutant("coords: q' for r' in v", CMHOM, "v, rv = divmod(x.q * omega.r, den)",
           "v, rv = divmod(x.q * omega.q, den)", COORDS),
    # The Hom matrices read as forms: either product term of the determinant
    # form's cross coefficient dropped (p2*s1 is nonzero only on pairs whose
    # basis has x1 != 0), and the sign of d flipped in the norm form it is
    # checked against.  The order discriminant without the gcd of omega's
    # minimal polynomial: rho's triple (4, 4, 4) is not primitive.
    Mutant("profile: a term of b dropped", CMHOM, "b = p1 * s2 + p2 * s1 - q1 * r2 - q2 * r1",
           "b = p2 * s1 - q1 * r2 - q2 * r1", PROFILE),
    Mutant("profile: the other term of b dropped", CMHOM,
           "b = p1 * s2 + p2 * s1 - q1 * r2 - q2 * r1", "b = p1 * s2 - q1 * r2 - q2 * r1",
           ("tests/test_cmhom.py::test_degree_profile_agrees_with_per_morphism_oracles",)),
    Mutant("profile: sign of d in the norm form", CMHOM, "e2 * e2 - w1.d * f2 * f2",
           "e2 * e2 + w1.d * f2 * f2", PROFILE),
    Mutant("order_disc: no gcd", CMHOM, "g = gcd(a, b, c)", "g = 1", ORDER),
    # A rational omega let through order_disc (it then returns 0), and the
    # norm-form loop started past y = 0, which loses (+-sqrt(n), 0) and (0, 0).
    Mutant("order_disc: no rational guard", CMHOM, "    if w.q == 0:\n", "    if False:\n", ORDER),
    Mutant("norm_solutions: loop from y = 1", CMHOM, "    y = 0\n    while True:\n",
           "    y = 1\n    while True:\n",
           ("tests/test_cmhom.py::test_norm_solutions_match_a_box_enumeration",)),
    # The period lattice in its own basis: the maps module's congruence kernel
    # without the den/gcd(g, den) scaling of its first column, or without the
    # last row of R; one sign of B^-1 flipped.  The merge test keying the
    # witnesses of sigma by g instead of J*g*J mod 2, and its certificate on a
    # hit taking every integral S, unimodular or not, or skipped altogether.
    Mutant("maps: kernel scaling dropped", INTLINALG, "k[0] = [den // gcd(c[0], den) * x for x in k[0]]",
           "k[0] = [x for x in k[0]]", MAPS),
    Mutant("maps: last row of R skipped", INTLINALG, "for row in n:", "for row in n[:-1]:", MAPS),
    Mutant("inverse basis: sign of one entry", PERIOD, "(p * q, -a * q, 0, -h * p)",
           "(p * q, -a * q, 0, h * p)", MAPS + DIAG),
    Mutant("diag: J dropped", PERIOD, "h = hs.get(((d, c), (b, a)))",
           "h = hs.get(((a, b), (c, d)))", DIAG_J),
    Mutant("diag: unimodularity not tested", PERIOD,
           "check(s is not None and abs(la.det(s)) == 1,", "check(s is not None,", DIAG),
    Mutant("diag: certificate skipped on a hit", PERIOD,
           "        check(s is not None and abs(la.det(s)) == 1,\n"
           "              \"diag(lam, mu) does not map %s onto %s unimodularly\", l1, l2)\n"
           "        check(_pairing_gram(l2, den, icols) == _pairing_gram(l1, den1, cols1),\n"
           "              \"diagonal isomorphism does not transport the pairing\")\n",
           "", DIAG),
    # The degree bound one lower, which moves the screen and the sweep
    # together (-31 then passes the screen), and the tested degrees 2..30
    # with the bound kept.  The sweep and its fixture check: tau's
    # stabilizer cut to the identity, so no orbit merges two classes (142
    # candidates, and twisted duplicates survive); the merge certificate
    # dropped (only a diag_isomorphic that finds no isomorphism can tell);
    # each orbit represented by its least class instead of its largest; and
    # a fixture row matched on its discriminants and form alone, with no
    # certified diagonal isomorphism.
    Mutant("NMAX = 30", CMHOM, "NMAX = 31", "NMAX = 30", NMAX),
    Mutant("tested degrees 2..30", CMHOM, "for n in range(2, NMAX + 1))",
           "for n in range(2, NMAX))", NMAX),
    Mutant("orbit: stabilizer replaced by the identity", PIPELINE,
           "units = modular_witnesses(tau, tau)", "units = modular_witnesses(tau, tau)[:1]",
           ORBITS + SWEEP),
    Mutant("merge certificate dropped", PIPELINE, "check(certified,", "check(True,",
           ("tests/test_pipeline.py::"
            "test_a_failed_merge_certificate_stops_classify_under_python_O",)),
    Mutant("orbit: representative by min", PIPELINE, "best = max(orbit,", "best = min(orbit,",
           ORBITS + RATIONAL_ORDER),
    Mutant("fixture check: no diagonal isomorphism", PIPELINE,
           "and periodlattice.diag_isomorphic(lattice, fixture[j])):", "):",
           ("tests/test_pipeline.py::test_cli_rejects_an_uncertified_row_14",)),
    # The glued small-value test: psi the identity instead of the swap J
    # (the congruence then pairs other cosets), Hom(F, E)'s block of 2G built
    # from End(E)'s form, and the check that no glued map has an odd degree
    # dropped (only a congruence that is not psi's can trip it).
    Mutant("glue: psi = identity", CMHOM, "return [(q, p, t, r) for p, q, r, t in matrices]",
           "return matrices", GLUED),
    Mutant("glue: End(E)'s form in the Hom block", CMHOM,
           "(0, 0, 2 * a2, b2), (0, 0, b2, 2 * c2)", "(0, 0, 2 * a1, b1), (0, 0, b1, 2 * c1)", GLUED),
    Mutant("glue: odd-slot check dropped", CMHOM,
           'check(theta & _ODD_SLOTS == 0, "a glued map has a half-integral degree")', "pass",
           ODD_SLOTS),
    # The mod-4 rule of glue's integrality: mod 2 in place of mod 4, and
    # without the generators 2e_1..2e_4 of 2Z^4 (2 of the 10 non-integral
    # candidates fail only on them).
    Mutant("mod-4 rule: % 4 -> % 2", CMHOM, "t * s) % 4 == 0", "t * s) % 2 == 0", MOD4),
    Mutant("mod-4 rule: 2e_i generators dropped", CMHOM,
           "    gens += [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]\n", "", MOD4),
    # The sweep's one degree form: a survivor classified on glued_gram's 2G
    # instead of 2G/2 (its determinant then names no reference form), every
    # form taken for integral, the survivors' check of the rule against 2G/2
    # dropped, the determinant map with forms 2 and 3 swapped, and its check
    # that the determinant names a form dropped.
    Mutant("sweep: survivor classified on 2G", PIPELINE,
           "gram = la.divided(cmhom.glued_gram(end, hom), 2)",
           "gram = la.divided(cmhom.glued_gram(end, hom), 1)", PRINTED),
    Mutant("sweep: every form integral", PIPELINE, '"integral": integral,',
           '"integral": True,', GLUED),
    Mutant("sweep: rule not checked on survivors", PIPELINE,
           "check(integral and gram is not None,", "check(gram is not None,",
           ("tests/test_pipeline.py::"
            "test_a_mod_4_rule_that_disagrees_on_a_survivor_stops_classify_under_python_O",)),
    Mutant("det lookup: forms 2 and 3 swapped", QFORMS, "FORM_BY_DET = {64: 1, 25: 2, 36: 3, 81: 4}",
           "FORM_BY_DET = {64: 1, 25: 3, 36: 2, 81: 4}",
           ("tests/test_qforms.py::test_each_determinant_names_one_reference_form",
            "tests/test_pipeline.py::test_classification_row_counts")),
    Mutant("det lookup: no-form check dropped", PIPELINE, "check(witness is not None,",
           "check(True,", ("tests/test_pipeline.py::"
                           "test_a_survivor_whose_determinant_names_no_form_stops_the_sweep",)),
    # The degree form's closed-form diagonal: beta = v/u inverted (2G is then
    # not half-integral), and the sign of d flipped in the first norm form.
    Mutant("degree form: beta inverted", PERIOD, "u, v = t.r * s.q, t.q * s.r",
           "u, v = t.q * s.r, t.r * s.q", NORM_FORM),
    Mutant("degree form: sign of d", PERIOD, "(0, -4 * d * u, 0, 0)", "(0, 4 * d * u, 0, 0)",
           NORM_FORM),
    # The class points: the root of (a, -b, c) taken for (a, b, c), and the
    # class-number guard of the sweep made trivial.
    Mutant("class point: sign of b", BQF, "z = from_triple(d0, -b, t, 2 * a)",
           "z = from_triple(d0, b, t, 2 * a)", ("tests/test_quadfield.py::test_disc_structure",)),
    Mutant("cm_points_F1: no class-number guard", BQF, "check(1 <= len(points) <= 2,",
           "check(1 <= len(points),",
           ("tests/test_bqf.py::test_cm_points_class_number_guard",
            "tests/test_pipeline.py::test_cli_classify_out_of_scope_class_number_exits_3")),
    # The kernel 2-torsion of a coset, with rank 1 taken for rank 2.
    Mutant("rank rule: rank 1 read as rank 2", CMHOM, "1 if p | q | r | t else 2",
           "0 if p | q | r | t else 2", PROFILE + RANK),
    # The counted profiles and the screen's product: slots of 5 bits, which
    # the counts of a product overflow into the next slot; the zero
    # morphism's 2^0 term of coset (0, 0) dropped from each reduced form's
    # enumeration, which the relabelling keeps in coset (0, 0); each pair +-v
    # of the half-plane walk counted once (the verdicts cannot tell, but a
    # survivor's degree-2 count halves and classify exits 3); the cosets of
    # one rank ORed instead of summed (the profile's counts tell); P2 and P4
    # exchanged (the screen's verdicts cannot tell, the profile's pairs can);
    # and the tested slots moved from 2n to 2n + 2.
    Mutant("packed profile: 5-bit slots", CMHOM, "SLOT_BITS = 16", "SLOT_BITS = 5",
           PROFILE + SCREEN_SETS),
    Mutant("cosets: zero morphism dropped", CMHOM, "packed = [1, 0, 0, 0]",
           "packed = [0, 0, 0, 0]", PROFILE + SCREEN_SETS + GLUED + COSETS),
    Mutant("cosets: +- pair counted once", CMHOM, "] += 2 << width * m", "] += 1 << width * m",
           CLASSIFY),
    Mutant("profile: rank groups ORed", CMHOM, "else 2] += poly", "else 2] |= poly",
           PROFILE + RANK),
    Mutant("packed profile: d = 2 and d = 4 exchanged", CMHOM,
           "return packed[0], packed[1], packed[2]", "return packed[0], packed[2], packed[1]",
           PROFILE),
    Mutant("packed screen: slots 2n + 2 tested", CMHOM, "SLOT_BITS * (2 * n + 1) - 1",
           "SLOT_BITS * (2 * n + 3) - 1", SCREEN_SETS),
    # Each Hom lattice's cosets read off its reduced form: the reduction's
    # swap keeping b where (x, y) -> (-y, x) takes (a, b, c) to (c, -b, a)
    # (the per-pair check that f = f'(U*v) then fails, exit 3), the cosets
    # relabelled by the identity instead of U mod 2, and that per-pair check
    # made trivial.
    Mutant("reduce: swap keeps b", CMHOM, "a, b, c = c, -b, a", "a, b, c = c, b, a", COSETS),
    Mutant("cosets: relabelled by the identity", CMHOM,
           "packed = [thetas[0], thetas[k01], thetas[k10], thetas[k01 ^ k10]]",
           "packed = [thetas[0], thetas[1], thetas[2], thetas[3]]", COSETS),
    Mutant("reduce: equivalence not checked", CMHOM, "check(abs(u * z - v * w) == 1",
           "check(True or abs(u * z - v * w) == 1",
           ("tests/test_cmhom.py::test_a_reduction_that_is_no_equivalence_stops_the_screen",)),
    # A survivor's count of degree-2 maps, slot 4 of its glued product,
    # against |O_E^x|*(1 + [tau ~ sigma]): the check made trivial, and the
    # count read off slot 2, which is empty on every survivor.
    Mutant("sweep: degree-2 count not checked", PIPELINE,
           "check(maps == units * (1 + gamma1_equivalent(tau, sigma)),", "check(True,",
           ("tests/test_pipeline.py::"
            "test_a_wrong_count_of_degree_two_maps_stops_classify_under_python_O",)),
    Mutant("sweep: degree-2 count read off slot 2", PIPELINE, "cmhom.slot(theta, 4)",
           "cmhom.slot(theta, 2)", CLASSIFY),
    # The strict domains: F1's vertical edges and unit arc taken on the right
    # instead of the left, and F2's corner rho excluded with its translates.
    Mutant("in_F1: right edge", BQF, "return -r <= 2 * p < r", "return -r < 2 * p <= r", F1),
    Mutant("in_F1: right arc", BQF, "return -r <= 2 * p <= 0", "return 0 <= 2 * p <= r", F1),
    Mutant("in_F2: rho excluded", BQF, "if left < 0 or (left == 0 and z != _RHO):",
           "if left <= 0:", F2),
    # F2's other boundary rules, each flipped: the left edge open, the right
    # edge closed, and each arc taken on the wrong side.  The F2 examples hold
    # a point on each edge and arc.
    Mutant("in_F2: left edge open", BQF, "if not -z.r <= 2 * z.p < 3 * z.r:",
           "if not -z.r < 2 * z.p < 3 * z.r:", F2),
    Mutant("in_F2: right edge closed", BQF, "if not -z.r <= 2 * z.p < 3 * z.r:",
           "if not -z.r <= 2 * z.p <= 3 * z.r:", F2),
    Mutant("in_F2: arc |z - 1/3| = 1/3 excluded", BQF, "if _circle_side(z, 1, 3, 3) < 0:",
           "if _circle_side(z, 1, 3, 3) <= 0:", F2),
    Mutant("in_F2: arc |z - 2/3| = 1/3 included", BQF, "if _circle_side(z, 2, 3, 3) <= 0:",
           "if _circle_side(z, 2, 3, 3) < 0:", F2),
    Mutant("in_F2: arc |z - 2| = 1 excluded", BQF, "if _circle_side(z, 2, 1) < 0:",
           "if _circle_side(z, 2, 1) <= 0:", F2),
    Mutant("in_F2: arc |z + 1| = 1 included", BQF, "if left < 0 or (left == 0 and z != _RHO):",
           "if left < 0:", F2),
    # Fincke-Pohst with the per-leaf comparison against v^T G v dropped: a
    # corrupted LDL^T row then yields wrong values silently.
    Mutant("short_vectors: no leaf check", QFORMS,
           'check(False, "short-vector value differs from v^T G v")', "pass",
           ("tests/test_qforms.py::test_short_vector_leaf_check_survives_python_O",)),
    # The value types are tuples; what a tuple allows beyond the old classes
    # (ordering, building from raw fields, a tuple passing as a list) stays
    # refused, and a form still unpickles through its validating constructor.
    Mutant("KElem ordering allowed", QUADFIELD,
           "    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented\n", "",
           IMMUTABLE),
    Mutant("KElem _make unvalidated", QUADFIELD, "return cls(d, p, q, r)",
           "return tuple.__new__(cls, (d, p, q, r))", IMMUTABLE + KELEM_REBUILD),
    Mutant("KElem without __reduce__", QUADFIELD,
           "    def __reduce__(self):\n        return KElem, tuple(self)\n", "", KELEM_REBUILD),
    # The constructor is where an element enters from outside: it keeps r
    # positive and the fields ints (a bool is an int to isinstance).
    Mutant("KElem: sign of r not normalised", QUADFIELD,
           "        if r < 0:\n            p, q, r = -p, -q, -r\n", "", KELEM_NEW),
    Mutant("KElem: non-int field accepted", QUADFIELD,
           "if any(type(x) is not int for x in (d, p, q, r)):",
           "if any(not isinstance(x, int) for x in (d, p, q, r)):", KELEM_NEW),
    # Two orders read (p, q) over a shared denominator; the raw triples order
    # differently.  disc59_check's order has no such mutant: its four
    # elements all have r = 2, so the raw triples order as the rationals do.
    Mutant("row order on raw (p, q)", PIPELINE,
           "*scaled(cand.tau, den), *scaled(cand.sigma, den))",
           "cand.tau.p, cand.tau.q, cand.sigma.p, cand.sigma.q)", RATIONAL_ORDER),
    Mutant("merge representative on raw (p, q)", PIPELINE,
           "(sigma.q * den // sigma.r,\n"
           "                                                         -sigma.p * den // sigma.r)",
           "(sigma.q, -sigma.p)",
           RATIONAL_ORDER),
    Mutant("QForm4 without __getnewargs__", QFORMS,
           "    def __getnewargs__(self):\n        return (self.gram,)\n", "",
           ("tests/test_qforms.py::test_qform_is_an_immutable_value_that_pickles",)),
    Mutant("jsonable takes tuple subclasses", PIPELINE, "if type(x) in (list, tuple):",
           "if isinstance(x, (list, tuple)):", ("tests/test_pipeline.py::test_jsonable_encoding",)),
    # A period lattice is a tuple too: built from raw fields it would skip the
    # half-plane and field checks, and without __reduce__ pickle protocols 0
    # and 1 rebuild it with tuple.__new__.  B^-1 is built only where it is
    # used, not for a test that mod 2 finds no witness.
    Mutant("PeriodLattice _make unvalidated", PERIOD,
           '"PeriodLattice":\n        return cls(*iterable)',
           '"PeriodLattice":\n        return tuple.__new__(cls, iterable)', LATTICE_TUPLE),
    Mutant("PeriodLattice without __reduce__", PERIOD,
           "    def __reduce__(self):\n        return type(self), tuple(self)\n", "",
           LATTICE_TUPLE),
    Mutant("diag: B^-1 built on every test", PERIOD,
           "    hs = {mat2_mod2(h): h for h in modular_witnesses(l1.sigma, l2.sigma)}\n",
           "    l2.inverse_basis()\n"
           "    hs = {mat2_mod2(h): h for h in modular_witnesses(l1.sigma, l2.sigma)}\n",
           ("tests/test_periodlattice.py::test_inverse_basis_is_built_only_where_it_is_used",)),
)

def run_targets(src: Path, targets) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode between mutants
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *targets], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        targets = sorted({t for m in MUTANTS for t in m.targets})
        if run_targets(src, targets) != 0:
            print("the target tests fail on the unmutated source")
            return 1
        for mutant in MUTANTS:
            path = src / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"ERROR     {mutant.name}: the old snippet does not occur exactly once")
                failed.append(mutant.name)
                continue
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code = run_targets(src, mutant.targets)
            finally:
                path.write_text(text, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:<9} {mutant.name}")
            if code != 1:
                failed.append(mutant.name)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
