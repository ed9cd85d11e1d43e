"""Timing loops, metrics and the result line of one benchmark run.

Imported by ``run.py`` once ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads as W
from gauge import Gauge
from splitjac import pipeline
from tracing import TRACED_NAMES, Tracer

#: One fresh interpreter that imports the package and loads the golden fixture.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import splitjac.pipeline; splitjac.pipeline.load_golden()"
)
#: Timed fresh interpreters before the workload, and again after it, so that
#: the median spans the run rather than its first second.
SETUP_REPEATS = 10

#: Call counts of one traced cold classify at the commit that introduced the
#: benchmark.  A change to the program may move them, so a traced run only
#: notes a difference; ``selftest.py`` fails on one.
CLASSIFY_TRACE_COUNTS = {
    "cmhom.morphism_degree": 8840,
    "pipeline.evaluate_candidate": 135,
    "qforms.equivalent": 80,
}

clock = time.perf_counter


# -- environment -----------------------------------------------------------


def _commit(root: Path) -> str | None:
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, root: Path) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src"),
    }


# -- helpers ---------------------------------------------------------------


def run_for(seconds: float, step) -> int:
    """Call ``step`` at least once, and again while another call should
    still end inside ``seconds``; return the number of calls."""
    start = clock()
    rounds = 0
    while True:
        t0 = clock()
        step()
        rounds += 1
        if clock() - start + (clock() - t0) > seconds:
            return rounds


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(src: Path, gauge: Gauge) -> list[float]:
    """Reference-core seconds of fresh interpreters, which inherit the
    benchmark's CPU and so share it with the gauge."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(src)]
    subprocess.run(cmd, check=True, timeout=120)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        cpu = _children_cpu()
        t0 = clock()
        subprocess.run(cmd, check=True, timeout=120)
        t1 = clock()
        times.append(gauge.seconds(_children_cpu() - cpu, t0, t1))
    return times


# -- end-to-end metrics (tracing off) ----------------------------------------
#
# Every time is CPU seconds of the benchmark process turned by the gauge into
# seconds on the reference core, except oracle_s (see gauge.py).  Each
# measure_* returns {slot: (name, value, description)}: the slot is the metric
# name in BENCHMARK.json, the name the one README.md uses on this workload,
# and the value None when every sample failed.


def _median(samples: list[float], what: str) -> tuple[float | None, str]:
    if not samples:
        return None, what
    return statistics.median(samples), f"median of {len(samples)}: {what}"


def measure_classify(args, tally, golden, gauge) -> dict:
    whole, screen, rest = [], [], []

    def round_():
        done = tally.run(W.classify_once, 1, golden)
        if done is not None:
            total, scr, _ = done
            whole.append(gauge.seconds(*total))
            screen.append(gauge.seconds(*scr))
            rest.append(gauge.seconds(total.cpu - scr.cpu, scr.t1, total.t1))

    run_for(args.seconds, round_)
    return {
        "primary_s": ("classify_s", *_median(whole, "cold run_search(jobs=1) + check_classification")),
        "secondary_s": ("screen_s", *_median(screen, "its screen")),
        "tertiary_s": ("after_screen_s", *_median(rest, "the rest: sweep, rows and check")),
    }


def measure_universal(args, tally, golden, gauge) -> dict:
    verify, oracle, total = [], [], []

    def round_():
        done = W.universal_pass(tally)
        if done is not None:
            verify.append(sum(gauge.seconds(*s) for s in done[0]))
            oracle.append(sum(s.cpu for s in done[1]))  # numpy: CPU seconds, see gauge.py
            total.append(verify[-1] + oracle[-1])

    run_for(args.seconds, round_)
    return {
        "primary_s": ("verify_universal_s", *_median(verify, "verify_universal(f, 10^4), f = 1..4")),
        "secondary_s": ("oracle_s", *_median(oracle, "represented_by_enumeration(f, 2000), f = 1..4,"
                                             " CPU seconds")),
        "tertiary_s": ("universal_total_s", *_median(total, "both, as verify-universal --oracle-max runs them")),
    }


def measure_represent(args, tally, golden, gauge) -> dict:
    times = []
    passes = itertools.count()

    def pass_():
        samples = W.represent_pass(W.represent_inputs(args.seed, next(passes)), tally)
        times.extend(gauge.seconds(*s) for s in samples)

    rounds = run_for(args.seconds, pass_)
    if not times:
        return {}
    value, p, beyond = W.tail(times)
    k = len(times)
    return {
        "primary_s": ("represent_large_p50_s", statistics.median(times),
                      f"median seconds per call, {k} calls in {rounds} passes"),
        "secondary_s": ("represent_large_tail_s", value,
                        f"p{p} seconds per call, {beyond} of {k} calls beyond it"),
        "tertiary_s": ("represent_large_mean_s", sum(times) / k, f"mean seconds per call, {k} calls"),
    }


MEASURE = {
    "classify": measure_classify,
    "universal-small": measure_universal,
    "represent-large": measure_represent,
}


def end_to_end(args, root: Path, tally, golden) -> dict:
    metrics = {}
    with Gauge() as gauge:
        setup = measure_setup(root / "src", gauge)
        slots = MEASURE[args.workload](args, tally, golden, gauge)
        setup += measure_setup(root / "src", gauge)
    for slot, (name, value, what) in slots.items():
        if value is not None:
            print(f"{name:<24}{value:.6f} s   {slot}; {what}")
            metrics[slot] = {"value": value, "unit": "s"}
    print(f"{'setup_s':<24}{statistics.median(setup):.6f} s   median of {len(setup)} fresh"
          " interpreters, half before and half after the workload")
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'peak_rss_mb':<24}{rss:.3f} MB")
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    print("times are seconds on the reference core: CPU seconds scaled by the speed gauge")
    return metrics


# -- per-layer metrics (tracing on) ------------------------------------------


def layered(args, root: Path, tally, golden) -> dict:
    """The workload untraced, then traced on the same inputs.

    Both are timed with the gauge, so ``trace.overhead_s`` is their
    difference in seconds on the reference core.  Self times are wall
    seconds of the traced run, the gauge's tenth of the core included.  On
    ``classify``, ``run_search`` with ``jobs=1`` and with ``jobs=2`` first
    run side by side without the gauge, whose pinning would leave the pool
    one CPU.
    """
    speedup = 0.0
    if args.workload == "classify":
        plain = tally.run(W.classify_once, 1, golden)
        pooled = tally.run(W.classify_once, 2, golden)
        if plain and pooled:
            speedup = plain[2].timings["sweep"] / pooled[2].timings["sweep"]
    report = None
    with Gauge() as gauge:
        def seconds(samples) -> float:
            return sum(gauge.seconds(*s) for s in samples)

        if args.workload == "classify":
            def work():
                nonlocal report
                done = tally.run(W.classify_once, 1, golden)
                if done is None:
                    return None
                report = done[2]
                return gauge.seconds(*done[0])

            untraced = work()
        elif args.workload == "universal-small":
            def work():
                done = W.universal_pass(tally)
                return None if done is None else seconds(done[0] + done[1])

            untraced = work()
        else:
            inputs, times = [], []

            def step():
                inputs.append(W.represent_inputs(args.seed, len(inputs)))
                times.append(seconds(W.represent_pass(inputs[-1], tally)))

            def work():
                return sum(seconds(W.represent_pass(calls, tally)) for calls in inputs)

            # The untraced half of the window picks the passes the traced half repeats.
            run_for(args.seconds / 2, step)
            untraced = sum(times)

        with Tracer() as tracer:
            traced = work()
    info = W.CACHES["cmhom.degree_profile"].cache_info()

    metrics = {}
    for name in TRACED_NAMES:
        stats = tracer.stats[name]
        print(f"{name:<42}calls={stats.calls:<8} self_s={stats.self_s:.6f}")
        metrics[f"{name}.calls"] = {"value": stats.calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": stats.self_s, "unit": "s"}
    equivalent = tracer.stats["qforms.equivalent"]
    candidates = report.candidates if report else 0
    ratios = {
        "cmhom.degree_profile.cache_hit_ratio": (info.hits, info.hits + info.misses),
        "qforms.equivalent.match_ratio": (equivalent.non_none, equivalent.calls),
        "pipeline.integral_ratio": (
            candidates - report.nonintegral_grams if report else 0, candidates
        ),
        "pipeline.survivor_ratio": (report.survivors if report else 0, candidates),
    }
    for name, (num, den) in ratios.items():
        print(f"{name:<42}{num}/{den}")
        metrics[name] = {"value": num / den if den else 0.0, "unit": "ratio"}
    print(f"{'pipeline.jobs2_sweep_speedup':<42}{speedup:.6f}"
          "   sweep of run_search(jobs=1) over that of jobs=2, untraced")
    metrics["pipeline.jobs2_sweep_speedup"] = {"value": speedup, "unit": "ratio"}
    if untraced is not None and traced is not None:
        print(f"{'trace.overhead_s':<42}{traced - untraced:.6f} s"
              f"   traced {traced:.6f} s - untraced {untraced:.6f} s")
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    if args.workload == "classify":
        for name, expected in CLASSIFY_TRACE_COUNTS.items():
            got = tracer.stats[name].calls
            if got != expected:
                print(f"note: {name} made {got} calls, {expected} when the benchmark was"
                      " introduced", file=sys.stderr)
    return metrics


def run(args, root: Path) -> int:
    """One workload: the env line, the metrics, then the result line."""
    print(f"env {json.dumps(environment(args, root), sort_keys=True)}")
    golden = pipeline.load_golden()
    tally = W.Tally()
    metrics = (layered if args.trace else end_to_end)(args, root, tally, golden)
    for error in tally.errors:
        print(error, file=sys.stderr, end="")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1
