"""The benchmark's workloads, their correctness gates and the cold-state guard.

Each operation runs through a :class:`Tally`, which counts it as attempted
and, if it raises or fails a check, as failed; a failed operation leaves no
timing behind.  The checks use ``if ... raise`` so that they hold under
``python -O``.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from typing import NamedTuple

from splitjac import bqf, cmhom, pipeline, qforms, universal

FORMS = (1, 2, 3, 4)

#: Every ``lru_cache`` in the program.  Captured at import, before any
#: tracing wraps the module attributes, so ``cache_info`` stays reachable.
CACHES = {"cmhom.degree_profile": cmhom.degree_profile, "bqf.reduced_forms": bqf.reduced_forms}

#: (misses, hits) of ``degree_profile`` after one cold ``run_search``: 483
#: distinct lattice pairs, 377 repeats.  A warm sample reads (0, 860).
CLASSIFY_CACHE_COUNTS = (483, 377)
CANDIDATES, INTEGRAL, SURVIVORS = 135, 125, 20

UNIVERSAL_MAX = 10_000
ORACLE_MAX = 2000

#: represent-large draws n uniformly from this range, 16 per form per pass.
REPRESENT_RANGE = (10**6, 4 * 10**6)
REPRESENT_PER_FORM = 16

clock = time.perf_counter
cpu_clock = time.process_time


class Sample(NamedTuple):
    """CPU seconds of this process, and the clock readings around them."""

    cpu: float
    t0: float
    t1: float

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def timed(fn, *args):
    """(fn(*args), its Sample)."""
    t0 = clock()
    c0 = cpu_clock()
    result = fn(*args)
    cpu = cpu_clock() - c0
    return result, Sample(cpu, t0, clock())


class CheckFailed(Exception):
    """An output of the program is wrong."""


class ColdStateError(CheckFailed):
    """A sample did not start from, or did not behave like, a cold process."""


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, *args):
        """Run one operation; return its result, or None if it failed."""
        self.attempted += 1
        try:
            return op(*args)
        except Exception:  # any failure of the program is a failed operation
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc(limit=3))
            return None


def _require(condition: bool, message: str, error=CheckFailed):
    if not condition:
        raise error(message)


# -- cold-state guard ------------------------------------------------------


def start_cold() -> None:
    """Empty every program cache, as a fresh CLI process has them."""
    for name, cached in CACHES.items():
        cached.cache_clear()
        _require(cached.cache_info().currsize == 0, f"{name} not empty", ColdStateError)


def check_cache_counts(expected: tuple[int, int]) -> None:
    """Fail unless ``degree_profile`` saw exactly (misses, hits) since the clear."""
    info = CACHES["cmhom.degree_profile"].cache_info()
    _require(
        (info.misses, info.hits) == expected,
        f"degree_profile cache (misses, hits) = ({info.misses}, {info.hits}),"
        f" expected {expected}: the sample did not start cold",
        ColdStateError,
    )


# -- classify --------------------------------------------------------------


def classify_once(jobs: int, golden: dict) -> tuple[Sample, Sample, pipeline.RunReport]:
    """One cold ``splitjac classify``: Samples of the whole and of its
    screen, and the run's ``RunReport``.

    Times ``run_search`` plus ``check_classification``.  The screen is
    timed, and its output captured, on its way through ``run_search``, so
    it is checked without a second screen.  With ``jobs`` > 1 the CPU time
    leaves out the pool's workers; use the wall time.
    """
    start_cold()
    run_screen = pipeline.run_screen
    screens = []

    def capture():
        pairs, sample = timed(run_screen)
        screens.append((pairs, sample))
        return pairs

    def search():
        rows, report = pipeline.run_search(jobs=jobs)
        pipeline.check_classification(rows, golden)
        return rows, report

    pipeline.run_screen = capture
    try:
        (rows, report), total = timed(search)
    finally:
        pipeline.run_screen = run_screen
    check_cache_counts(CLASSIFY_CACHE_COUNTS)
    _require(len(screens) == 1, f"run_search screened {len(screens)} times")
    pipeline.check_screen(screens[0][0], golden)
    integral = report.candidates - report.nonintegral_grams
    counts = (report.candidates, report.polarization_checked, integral, report.survivors, len(rows))
    _require(
        counts == (CANDIDATES, CANDIDATES, INTEGRAL, SURVIVORS, SURVIVORS),
        f"(candidates, checked, integral, survivors, rows) = {counts}",
    )
    return total, screens[0][1], report


# -- universal-small -------------------------------------------------------


def verify_once(form_id: int) -> Sample:
    report, sample = timed(universal.verify_universal, form_id, UNIVERSAL_MAX)
    count = UNIVERSAL_MAX - 1
    _require(
        report["form"] == form_id and report["count"] == count
        and sum(report["cases"].values()) == count,
        f"q{form_id}: verify_universal covered {report['count']} of {count} values",
    )
    return sample


def oracle_once(form_id: int) -> Sample:
    values, sample = timed(universal.represented_by_enumeration, form_id, ORACLE_MAX)
    _require(
        set(values) == set(range(2, ORACLE_MAX + 1)),
        f"q{form_id}: oracle values up to {ORACLE_MAX} are not exactly 2..{ORACLE_MAX}",
    )
    return sample


def universal_pass(tally: Tally) -> tuple[list[Sample], list[Sample]] | None:
    """verify_universal to 10^4 and the oracle to 2000, for all four forms."""
    start_cold()
    verify = [tally.run(verify_once, f) for f in FORMS]
    oracle = [tally.run(oracle_once, f) for f in FORMS]
    if None in verify or None in oracle:
        return None
    return verify, oracle


# -- represent-large -------------------------------------------------------


def represent_inputs(seed: int, pass_index: int) -> list[tuple[int, int]]:
    """The (form, n) calls of one pass; the program sees only these."""
    rng = random.Random(seed * 1_000_003 + pass_index)
    calls = [(f, rng.randrange(*REPRESENT_RANGE)) for f in FORMS for _ in range(REPRESENT_PER_FORM)]
    rng.shuffle(calls)
    return calls


def check_vector(form_id: int, n: int, rep) -> None:
    """Re-evaluate a returned vector with the benchmark's own arithmetic."""
    gram = qforms.REFERENCE_FORMS[form_id].gram
    v = rep.vector
    _require(
        rep.form_id == form_id and rep.n == n and len(v) == 4
        and all(type(x) is int for x in v),
        f"q{form_id}({n}): malformed representation {rep!r}",
    )
    value = sum(gram[i][j] * v[i] * v[j] for i in range(4) for j in range(4))
    _require(value == n, f"q{form_id}{tuple(v)} = {value}, not {n}")


def represent_pass(calls, tally: Tally, represent=None) -> list[Sample]:
    """A Sample per correct call; ``represent`` replaces the program's in tests."""
    represent = represent or universal.represent
    samples = []

    def one(form_id, n):
        rep, sample = timed(represent, form_id, n)
        check_vector(form_id, n, rep)
        return sample

    start_cold()
    for form_id, n in calls:
        sample = tally.run(one, form_id, n)
        if sample is not None:
            samples.append(sample)
    return samples


# -- statistics ------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest whole percentile
    that leaves at least ten samples beyond it (at most p99)."""
    ordered = sorted(values)
    k = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(k * p / 100)
        if k - rank >= 10:
            return ordered[rank - 1], p, k - rank
    return ordered[-1], 100, 0
