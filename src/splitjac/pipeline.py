"""Orchestration of the full proof pipeline.

Stages, each independently invokable and recomputed from scratch:

1. ``run_lemma_lists``: discriminants admitting a primitive element of norm
   n, for the eight relevant degrees.
2. ``run_screen``: the degree-matching screen over the cyclic-isogeny input
   table, yielding 18 discriminant pairs with isomorphy flags.  The table
   (``screen_input``) is built from stage 1 and ``cmhom.disc59_check``.
3. ``run_search``: for each surviving pair, sweep the exact candidate
   periods (tau, sigma), check the polarization, keep the candidates whose
   maps glued from End(E) and Hom(F, E) (``cmhom.glue``) have exactly the
   degrees 2..NMAX (``cmhom.NMAX`` = 31), check each survivor's count of
   degree-2 maps, and classify its glued form against the four reference
   forms.  Exactly 20 rows survive.

The fourth stage, the constructive representation check of each form with
its optional brute-force enumeration cross-check, is
``universal.verify_universal`` and ``universal.check_enumeration``, which
the CLI calls directly.

Stage outputs are compared against the one embedded golden fixture, the
paper's table (``load_golden``); a mismatch raises ReproductionMismatch,
which the CLI maps to exit code 2, while violated internal invariants
surface as InvariantViolation (an AssertionError) and map to exit code 3.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from importlib import resources
from math import lcm

from . import cmhom, periodlattice, qforms
from . import intlinalg as la
from .invariants import check
from .bqf import canon_gamma2, cm_points_F1, gamma1_equivalent, gamma2_tiles, in_F1, in_F2
from .quadfield import KElem, scaled

LEMMA_DEGREES = tuple(sorted(set().union(*cmhom.SCREEN_LEMMA_DEGREES.values())))


class ReproductionMismatch(RuntimeError):
    """Computed output disagrees with the golden fixture."""


def load_golden() -> dict:
    """The embedded golden fixture: the paper's lemma lists, screen pairs and
    twenty classification rows."""
    return json.loads(resources.files("splitjac").joinpath("data/golden.json").read_bytes())


# -- stage 1: norm-form discriminant lists -----------------------------------


def run_lemma_lists() -> dict[int, tuple[int, ...]]:
    return {
        n: tuple(sorted(cmhom.primitive_norm_discriminants(n), key=abs))
        for n in LEMMA_DEGREES
    }


def check_lemma_lists(lists: dict[int, tuple[int, ...]], golden: dict) -> None:
    expected = {int(k): tuple(v) for k, v in golden["lemma_lists"].items()}
    if set(lists) != set(expected):
        raise ReproductionMismatch(f"degree set {sorted(lists)} != {sorted(expected)}")
    for n, got in lists.items():
        if set(got) != set(expected[n]):
            raise ReproductionMismatch(
                f"degree {n}: computed {sorted(got, key=abs)}, expected {expected[n]}"
            )


# -- stage 2: the discriminant screen ----------------------------------------


def screen_input() -> dict[int, tuple[int, ...]]:
    """{p: the lemma lists cmhom.SCREEN_LEMMA_DEGREES names for p, united and
    sorted by |delta|, less the discriminant that disc59_check excludes}; a
    failing certificate raises InvariantViolation."""
    excluded = cmhom.disc59_check()["discriminant"]
    lists = run_lemma_lists()
    return {
        p: tuple(sorted({delta for n in degrees for delta in lists[n]} - {excluded}, key=abs))
        for p, degrees in cmhom.SCREEN_LEMMA_DEGREES.items()
    }


def run_screen() -> tuple[tuple[int, int, bool], ...]:
    return cmhom.screen_all(screen_input())


def check_screen(pairs: tuple[tuple[int, int, bool], ...], golden: dict) -> None:
    expected = tuple(
        (row["delta_e"], row["delta_f"], row["isomorphic"])
        for row in golden["screen_pairs"]
    )
    if pairs != expected:
        raise ReproductionMismatch(
            f"screen produced {pairs}, expected {expected}"
        )


# -- stage 3: the (tau, sigma) sweep ------------------------------------------


class Candidate(namedtuple("Candidate", "delta_e delta_f lattice")):
    """A discriminant pair and the period lattice of one (tau, sigma)."""

    __slots__ = ()

    @property
    def tau(self) -> KElem:
        return self.lattice.tau

    @property
    def sigma(self) -> KElem:
        return self.lattice.sigma


class ClassificationRow(namedtuple(
        "ClassificationRow", "index delta_e delta_f tau sigma form_id gram witness")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "delta_e": self.delta_e,
            "delta_f": self.delta_f,
            "tau": str(self.tau),
            "sigma": str(self.sigma),
            "form_id": self.form_id,
            "gram": [list(row) for row in self.gram],
            "witness": [list(row) for row in self.witness],
        }


class RunReport(namedtuple(
        "RunReport", "candidates polarization_checked survivors nonintegral_grams timings")):
    """The stage counts of one ``run_search`` and its wall times by stage."""

    __slots__ = ()

    def check_monotone(self):
        check(self.candidates >= self.polarization_checked >= self.survivors,
              "stage counts are not monotone: %s", self)


def generate_candidates(
    screen_pairs: tuple[tuple[int, int, bool], ...],
) -> list[Candidate]:
    """All (tau, sigma) candidates for the sweep, one per isomorphism class.

    tau runs over the strict-F1 points of every ideal class of delta_e, the
    second curve over those of delta_f; for equal discriminants the classes
    are matched (isomorphic case) or crossed (non-isomorphic case).  sigma
    runs over the six coset images of the second point, each replaced by its
    canonical strict-F2 representative.

    Distinct level-2 classes can still present isomorphic surfaces when the
    first curve has extra automorphisms (discriminants -3 and -4): twisting
    the 2-torsion identification by a unit is an isomorphism of the
    resulting pairs.  Only then can it happen: the lattices compared share
    tau, so the witnesses g of ``diag_isomorphic`` are the stabilizer of tau,
    and with the stabilizer {+-I} a merge would need h = J*g*J = I mod 2,
    which puts sigma1 and sigma2 in one level-2 orbit.  Such duplicates are
    merged, each merge justified by an explicit diagonal lattice isomorphism;
    the representative kept is the class with the largest imaginary part
    (then smallest real part), compared as integers over the lcm of the
    group's denominators.  Its period lattice, built for the merge
    test, goes with the candidate; no Lambda is put in HNF, as both tests
    work in its basis b1..b4.
    """
    out = []
    for delta_e, delta_f, isomorphic in screen_pairs:
        rhos = cm_points_F1(delta_f)
        for tau in cm_points_F1(delta_e):
            for rho in rhos:
                if delta_e == delta_f and isomorphic != (rho == tau):
                    continue
                classes: list[KElem] = []
                for _, image in gamma2_tiles(rho):
                    sigma = canon_gamma2(image)
                    if sigma not in classes:
                        classes.append(sigma)
                # Each group is a list of lattices, its head first.
                groups: list[list[periodlattice.PeriodLattice]] = []
                for sigma in classes:
                    lat = periodlattice.PeriodLattice(tau, sigma)
                    for group in groups:
                        if periodlattice.diag_isomorphic(lat, group[0]):
                            group.append(lat)
                            break
                    else:
                        groups.append([lat])
                for group in groups:
                    den = lcm(*(it.sigma.r for it in group))
                    lat = max(group, key=lambda it: (it.sigma.q * den // it.sigma.r,
                                                     -it.sigma.p * den // it.sigma.r))
                    out.append(Candidate(delta_e, delta_f, lat))
    return out


def evaluate_candidate(cand: Candidate, ends: dict | None = None) -> dict:
    """Polarization check, glued small-value test, and a survivor's class.

    ``cmhom.glue`` builds the one degree form: its product decides
    ``represents_one`` and the small-value test, its 2G/2 ``integral`` and a
    survivor's class, whose isometry witness to a reference form certifies
    its value set.  ``ends`` maps tau to End(E)'s cosets for one run.

    A survivor's degree-2 maps C -> E (``cmhom.degree_two_maps``) must number
    |O_E^x|*(1 + [tau ~ sigma]), |O_E^x| = 6, 4 or 2 for delta_E = -3, -4 or
    other: when F = E the maps to F count too.
    """
    lattice = cand.lattice
    check(periodlattice.polarization_gram(lattice) == periodlattice.SYMPLECTIC_GRAM,
          "polarization failed at %s", cand)
    tau, sigma = lattice
    ends = {} if ends is None else ends
    end = ends[tau] = ends.get(tau) or cmhom.hom_cosets(tau, tau)
    hom = cmhom.hom_cosets(sigma, tau)
    theta, glued2 = cmhom.glue(end, hom)
    gram = la.divided(glued2, 2)
    represents_one = cmhom.slot(theta, 2) > 0
    result = {
        "candidate": cand,
        "integral": gram is not None,
        "survived": not represents_one and cmhom.takes_every_degree(theta),
        "represents_one": represents_one,
    }
    if not result["survived"]:
        return result
    units, maps = {-3: 6, -4: 4}.get(cand.delta_e, 2), cmhom.degree_two_maps(end, hom)
    check(maps == units * (1 + gamma1_equivalent(tau, sigma)),
          "candidate %s has %d maps of degree 2", cand, maps)
    check(gram is not None, "degree form is not integral")
    qf = qforms.QForm4(gram)
    matches = []
    for form_id, ref in qforms.REFERENCE_FORMS.items():
        witness = qforms.equivalent(qf, ref)
        if witness is not None:
            matches.append((form_id, witness))
    check(len(matches) == 1, "candidate %s matched forms %s", cand, [m[0] for m in matches])
    form_id, witness = matches[0]
    result.update(form_id=form_id, witness=witness, gram=qf.gram)
    return result


def _sorted_rows(rows: list[dict]) -> list[dict]:
    """The rows by |delta_E|, |delta_F|, then the coefficients of tau and sigma."""
    den = lcm(*(z.r for row in rows for z in (row["candidate"].tau, row["candidate"].sigma)))

    def key(row):
        cand = row["candidate"]
        return (abs(cand.delta_e), abs(cand.delta_f),
                *scaled(cand.tau, den), *scaled(cand.sigma, den))

    return sorted(rows, key=key)


def run_search(jobs: int = 1) -> tuple[list[ClassificationRow], RunReport]:
    """The screen, the candidates and the sweep: the 20 rows and their report.

    ``jobs > 1`` evaluates the candidates in a process pool.  No caller asks
    for one: the pool measured about 18 % slower than the serial sweep, and
    it stays only because the benchmark calls ``run_search(jobs=2)``
    (ROADMAP items 1 and 2).
    """
    timings = {}
    t0 = time.perf_counter()
    screen_pairs = run_screen()
    timings["screen"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    candidates = generate_candidates(screen_pairs)

    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(evaluate_candidate, candidates)
    else:
        ends = {}
        results = [evaluate_candidate(c, ends) for c in candidates]
    timings["sweep"] = time.perf_counter() - t0

    survivors = [r for r in results if r["survived"]]
    report = RunReport(len(candidates), len(results), len(survivors),
                       sum(1 for r in results if not r["integral"]), timings)
    report.check_monotone()
    check(report.survivors == 20, "expected 20 classification rows, got %d", report.survivors)

    rows = []
    for i, r in enumerate(_sorted_rows(survivors), start=1):
        cand = r["candidate"]
        check(in_F1(cand.tau) and in_F2(cand.sigma),
              "row (%s, %s) is not in strict F1 x F2", cand.tau, cand.sigma)
        rows.append(
            ClassificationRow(
                index=i,
                delta_e=cand.delta_e,
                delta_f=cand.delta_f,
                tau=cand.tau,
                sigma=cand.sigma,
                form_id=r["form_id"],
                gram=r["gram"],
                witness=r["witness"],
            )
        )
    return rows, report


def check_classification(rows: list[ClassificationRow], golden: dict) -> None:
    """Match computed rows against the fixture, bijectively.

    A row matches the first unused fixture row with the same discriminants
    and form id whose (tau, sigma) presents the same polarized surface,
    certified by a diagonal lattice isomorphism (``diag_isomorphic``, which
    also requires the two tau to be equivalent under the full modular
    group).  Every row must be certified; there is no weaker match.
    """
    expected = golden["classification"]
    if len(rows) != len(expected):
        raise ReproductionMismatch(f"{len(rows)} rows, expected {len(expected)}")
    fixture = [periodlattice.PeriodLattice(KElem.from_string(exp["tau"]),
                                           KElem.from_string(exp["sigma"]))
               for exp in expected]
    unused = list(range(len(expected)))
    for row in rows:
        lattice = periodlattice.PeriodLattice(row.tau, row.sigma)
        key = (row.delta_e, row.delta_f, row.form_id)
        for j in unused:
            exp = expected[j]
            if (key == (exp["delta_e"], exp["delta_f"], exp["form_id"])
                    and periodlattice.diag_isomorphic(lattice, fixture[j])):
                unused.remove(j)
                break
        else:
            raise ReproductionMismatch(f"row {row.to_dict()} has no fixture match")


# -- serialization --------------------------------------------------------------


def jsonable(x):
    """JSON-ready structure: integers beyond signed 64 bits become strings."""
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return x if -2**63 <= x < 2**63 else str(x)
    if isinstance(x, str) or x is None:
        return x
    if isinstance(x, float):
        raise TypeError("floating point has no place in pipeline output")
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if type(x) in (list, tuple):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x)}")


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"
