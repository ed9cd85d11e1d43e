"""Command-line interface.

Subcommands map one-to-one onto the pipeline stages, and there is no
global option; all machine-readable output is UTF-8 JSON with lowercase
snake_case keys and unbounded integers (string-encoded beyond 64 bits).
Exit codes: 0 success (for the first three stages, output that matches the
paper's table, the embedded golden fixture), 2 a command line that argparse
rejects (no subcommand, an unknown option, a non-integer ``--n`` or a
``--form`` outside 1-4: usage on stderr, nothing on stdout) or a
reproduction mismatch against the golden fixture, 3 internal invariant
violation (a failed certificate check, or a failed construction step or
re-evaluation in ``represent`` and ``verify-universal``), an option value
out of its documented range, or a stdout that cannot be written, such as a
closed pipe or a full device (one line on stderr; for a bad value, nothing
computed).
Every option that sets the size of a computation is capped:
``represent --n`` at ``universal.REPRESENT_MAX`` (10^13),
``verify-universal --max`` at ``universal.VERIFY_MAX`` (10^6) and
``--oracle-max`` at ``universal.ORACLE_MAX`` (10^5), so no value asks for
unbounded time or memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from . import cmhom, pipeline, universal


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitjac",
        description="Exact classification of genus-2 curves with maps of every "
        "degree to a fixed elliptic curve, and universality checks for the four "
        "associated quaternary forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("lemma-lists", help="emit the eight norm-form discriminant lists")
    sub.add_parser("screen", help="emit the 18 surviving discriminant pairs")

    classify = sub.add_parser("classify", help="emit the 20 classification rows")
    classify.add_argument("--format", choices=("json", "csv", "table"), default="json")

    represent = sub.add_parser("represent", help="represent one integer by one form")
    represent.add_argument("--form", type=int, choices=(1, 2, 3, 4), required=True)
    represent.add_argument("--n", type=int, required=True,
                           help="the integer to represent, at least 2 and at most "
                           f"{universal.REPRESENT_MAX:,}")

    verify = sub.add_parser("verify-universal",
                            help="constructively represent every integer up to a bound")
    verify.add_argument("--form", type=int, choices=(1, 2, 3, 4), required=True)
    verify.add_argument("--max", type=int, required=True, dest="nmax", metavar="N",
                        help="represent every integer from 2 to N, N at least 2 "
                        f"and at most {universal.VERIFY_MAX:,}")
    verify.add_argument("--oracle-max", type=int, default=None, dest="oracle_max",
                        metavar="M",
                        help="cross-check against brute-force enumeration up to M, "
                        f"M at least 2 and at most {universal.ORACLE_MAX:,}")

    sub.add_parser("check-59", help="certify the excluded discriminant -59")
    return parser


def _cmd_lemma_lists(args) -> int:
    golden = pipeline.load_golden()
    lists = pipeline.run_lemma_lists()
    pipeline.check_lemma_lists(lists, golden)
    sys.stdout.write(pipeline.dumps({str(k): list(v) for k, v in lists.items()}))
    return 0


def _cmd_screen(args) -> int:
    golden = pipeline.load_golden()
    pairs = pipeline.run_screen()
    pipeline.check_screen(pairs, golden)
    payload = [
        {"delta_e": de, "delta_f": df, "isomorphic": iso} for de, df, iso in pairs
    ]
    sys.stdout.write(pipeline.dumps(payload))
    return 0


def _cmd_classify(args) -> int:
    golden = pipeline.load_golden()
    rows, report = pipeline.run_search()
    pipeline.check_classification(rows, golden)
    dicts = [r.to_dict() for r in rows]
    if args.format == "json":
        sys.stdout.write(pipeline.dumps(dicts))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["index", "delta_e", "delta_f", "tau", "sigma", "form_id",
                         "gram", "witness"])
        for d in dicts:
            writer.writerow([
                d["index"], d["delta_e"], d["delta_f"], d["tau"], d["sigma"],
                d["form_id"],
                " ".join(str(x) for row in d["gram"] for x in row),
                " ".join(str(x) for row in d["witness"] for x in row),
            ])
        sys.stdout.write(buf.getvalue())
    else:
        header = f"{'no':>3} {'delta_e':>8} {'delta_f':>8} {'tau':<22} {'sigma':<24} form"
        lines = [header, "-" * len(header)]
        for d in dicts:
            lines.append(
                f"{d['index']:>3} {d['delta_e']:>8} {d['delta_f']:>8} "
                f"{d['tau']:<22} {d['sigma']:<24} q{d['form_id']}"
            )
        sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()  # a failed write is then the one line on stderr
    sys.stderr.write(
        f"candidates={report.candidates} survivors={report.survivors}\n"
    )
    return 0


def _cmd_represent(args) -> int:
    rep = universal.represent(args.form, args.n)
    sys.stdout.write(pipeline.dumps({
        "form_id": rep.form_id,
        "n": rep.n,
        "vector": list(rep.vector),
        "trace": list(rep.trace),
    }))
    return 0


def _cmd_verify_universal(args) -> int:
    report = universal.verify_universal(args.form, args.nmax)
    payload: dict = dict(report)
    if args.oracle_max is not None:
        universal.check_enumeration(args.form, args.oracle_max)
        payload["oracle_max"] = args.oracle_max
        payload["oracle_agrees"] = True
    sys.stdout.write(pipeline.dumps(payload))
    return 0


def _cmd_check_59(args) -> int:
    sys.stdout.write(pipeline.dumps(cmhom.disc59_check()))
    return 0


_COMMANDS = {
    "lemma-lists": _cmd_lemma_lists,
    "screen": _cmd_screen,
    "classify": _cmd_classify,
    "represent": _cmd_represent,
    "verify-universal": _cmd_verify_universal,
    "check-59": _cmd_check_59,
}


def _input_error(args) -> str | None:
    """Why an option value is out of its documented range, or None."""
    if args.command == "represent":
        if args.n < 2:
            return "--n must be at least 2"
        if args.n > universal.REPRESENT_MAX:
            return f"--n {args.n} is above the cap of {universal.REPRESENT_MAX}"
    if args.command == "verify-universal":
        if args.nmax < 2:
            return "--max must be at least 2"
        if args.nmax > universal.VERIFY_MAX:
            return f"--max {args.nmax} is above the cap of {universal.VERIFY_MAX}"
        if args.oracle_max is not None:
            if args.oracle_max < 2:
                return "--oracle-max must be at least 2"
            if args.oracle_max > universal.ORACLE_MAX:
                return (f"--oracle-max {args.oracle_max} is above the cap of "
                        f"{universal.ORACLE_MAX}")
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    error = _input_error(args)
    if error:
        print(error, file=sys.stderr)
        return 3
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except pipeline.ReproductionMismatch as exc:
        print(f"reproduction mismatch: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # stdout now writes to the null device, so that the flush at exit
        # cannot fail on what is still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
