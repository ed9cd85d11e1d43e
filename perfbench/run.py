"""Benchmark for splitjac: cold classification, small-n and large-n universality.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from ``src/`` of the same checkout.  Without it the
benchmark exits with status 2 before measuring anything.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit status is 0 only if every operation
was correct.  ``perfbench/README.md`` says what each metric means on each
workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("classify", "universal-small", "represent-large")


def import_program():
    """Import splitjac from this checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "splitjac" / "__init__.py").is_file():
        print(f"perfbench: no splitjac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import splitjac

    if Path(splitjac.__file__).resolve().parent != SRC / "splitjac":
        print(f"perfbench: imported splitjac from {splitjac.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def run_all(args) -> int:
    """Run every workload in its own process; the last line sums them up."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, *["-O"] * sys.flags.optimize, __file__,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= proc.returncode == 0 and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    import_program()
    if args.workload == "all":
        return run_all(args)
    import measure

    return measure.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
