"""Command line interface.

Exit codes: 0 success, 2 inadmissible parameters (argv the parser rejects
and a scan output that cannot be written among them), 3 precision budget
exceeded (a ceiling, or a computation left with no surviving digits),
4 internal check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from fractions import Fraction

from .analyzer import (
    PrecisionBudgetError,
    analyze_point,
    check_budget,
    render_text,
    report_to_dict,
    scan_records,
    write_scan,
)
from .kubota import (IrregularScreenError, WeightPoint, check_irregular_prime,
                     lp_interpolation, lp_series)
from .padic import PadicContext, PrecisionLossError, agreement_precision, format_padic
from .qexp import (
    TwinConventionError,
    dump_lines,
    eisenstein_critical,
    eisenstein_ordinary,
)

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse_s(text: str) -> object:
    try:
        return Fraction(text) if "/" in text else int(text)
    except ZeroDivisionError:
        raise ValueError(f"--s {text} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"--s {text} is not an integer or a fraction a/b") from None


class _Parser(argparse.ArgumentParser):
    """Raises on rejected argv instead of printing usage and exiting, so
    `main` reports it in one line; subparsers inherit the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="eiszeta",
        description="critical Eisenstein points of the p-adic eigencurve and "
        "the Kubota-Leopoldt zeta function",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze one critical Eisenstein point")
    a.add_argument("--p", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--eps-exponent", type=int, required=True)
    a.add_argument("--precision", type=int, default=20)
    a.add_argument("--qexp-terms", type=int, default=200)
    a.add_argument("--format", choices=("json", "text"), default="text")

    s = sub.add_parser("scan", help="batch scan over primes and weights")
    s.add_argument("--p-from", type=int, required=True)
    s.add_argument("--p-to", type=int, required=True)
    s.add_argument("--k-from", type=int)
    s.add_argument("--k-to", type=int)
    s.add_argument("--target-branch", type=int)
    s.add_argument("--precision", type=int, default=20)
    s.add_argument("--qexp-terms", type=int, default=200)
    s.add_argument("--irregular-only", action="store_true")
    s.add_argument("--out", required=True)

    l = sub.add_parser("lp", help="evaluate the p-adic L-function on a branch")
    l.add_argument("--p", type=int, required=True)
    l.add_argument("--branch", type=int, required=True)
    l.add_argument("--s", type=str, required=True,
                   help="argument in Z_p, as an integer or fraction a/b; write a "
                   "negative one as --s=-1/2, since a bare -1/2 reads as an option")
    l.add_argument("--precision", type=int, default=20)
    l.add_argument("--route", choices=("series", "interpolation", "both"),
                   default="series")

    q = sub.add_parser("qexp", help="dump a q-expansion")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--eps-exponent", type=int, required=True)
    q.add_argument("--terms", type=int, default=200)
    q.add_argument("--which", choices=("crit", "ord", "twin"), required=True)
    q.add_argument("--precision", type=int, default=20)
    return ap


def _cmd_analyze(args) -> int:
    report = analyze_point(
        args.p, args.k, args.eps_exponent,
        precision=args.precision, terms=args.qexp_terms,
    )
    if args.format == "json":
        print(json.dumps(report_to_dict(report), sort_keys=True, indent=2))
    else:
        print(render_text(report))
    return EXIT_OK


def _cmd_scan(args) -> int:
    records = scan_records(
        args.p_from, args.p_to,
        k_from=args.k_from, k_to=args.k_to, target_branch=args.target_branch,
        precision=args.precision, terms=args.qexp_terms,
        irregular_only=args.irregular_only,
    )
    try:
        n = _write_out(records, args.out)
    except OSError as e:  # opening, writing, the final flush or the rename
        # strerror alone: the exception names the temporary file, not --out
        print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    print(f"wrote {n} records to {args.out}")
    return EXIT_OK


def _write_out(records, path: str) -> int:
    """write_scan into path, returning the count.  A path naming the file
    that stdout has open (/dev/stdout, or a file stdout is redirected to) is
    written through sys.stdout and flushed: a second handle would write from
    its own offset, under or over the lines stdout writes.  Otherwise a
    missing path or a regular file is written under a sibling temporary
    name, created by this call, and renamed onto path after the last record,
    so a scan that stops early leaves path as it was; the temporary file is
    removed on any exception.  Anything else, such as a symlink, a device
    (/dev/null) or a FIFO, is written directly."""
    try:
        to_stdout = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except OSError:  # no such path, or a stdout with no descriptor (io.UnsupportedOperation)
        to_stdout = False
    if to_stdout:
        n = write_scan(records, sys.stdout)
        sys.stdout.flush()
        return n
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as out:
            return write_scan(records, out)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    out = open(tmp, "x")
    try:
        with out:
            n = write_scan(records, out)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return n


def _cmd_lp(args) -> int:
    check_budget(args.precision)
    check_irregular_prime(args.p)
    ctx = PadicContext(args.p, args.precision)
    s = _parse_s(args.s)
    if args.route != "series" and (not isinstance(s, int) or s > 0):
        raise ValueError("the interpolation route needs s = 1 - n with n >= 1")
    results = []
    if args.route in ("series", "both"):
        results.append(lp_series(s, args.branch, ctx))
    if args.route in ("interpolation", "both"):
        results.append(lp_interpolation(1 - s, args.branch, ctx))
    for lv in results:
        print(f"L_p({args.s}, branch {lv.branch}) [{lv.route}] = "
              f"{format_padic(lv.value)}  (precision {lv.precision_achieved})")
    if len(results) == 2:
        a = agreement_precision(results[0].value, results[1].value)
        print(f"routes agree modulo {args.p}^{a}")
    return EXIT_OK


def _cmd_qexp(args) -> int:
    check_budget(args.precision, args.terms)
    check_irregular_prime(args.p)
    ctx = PadicContext(args.p, args.precision)
    point = (args.p, args.k, args.eps_exponent)
    if args.which == "crit":
        f = eisenstein_critical(*point, args.terms, ctx)
    elif args.which == "twin":
        f = eisenstein_ordinary(WeightPoint.critical(*point).twin(), args.terms, ctx)
    else:
        f = eisenstein_ordinary(WeightPoint.classical(*point), args.terms, ctx)
    for line in dump_lines(f):
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "analyze": _cmd_analyze,
        "scan": _cmd_scan,
        "lp": _cmd_lp,
        "qexp": _cmd_qexp,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (argparse.ArgumentError, ValueError) as e:  # AdmissibilityError, PoleError among them
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (PrecisionBudgetError, PrecisionLossError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (TwinConventionError, IrregularScreenError) as e:
        print(f"internal check failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
