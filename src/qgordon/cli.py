"""Batch command line surface.

Subcommands: solve, verify-gordon, oracle, crosscheck, check-recursions.
Standard output carries only data (JSON or TSV); progress notes go to
standard error. Exit codes: 0 all comparisons matched, 1 a well-formed run
found a mismatch, 2 usage error, out of memory, or standard output closed by
its reader before the data was written. An exit 2 for out of memory or a
closed standard output can come after part of the data was written, so
standard output may then hold an incomplete document, which must be
discarded. Identical invocations produce byte-identical output; there are
no config files or environment knobs.

Each integer option's domain is its argparse type, so a value outside it
fails while parsing, with argparse's usage and error lines on standard
error. The subcommands check only the rules between options (t <= l,
e <= k+1 and the MAX_CELLS cap), each with one error line.

main() builds its parser once per process and reuses it on every later
call, so a script or test that calls main() many times pays for argparse
once; a console-script run calls it once either way.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import stat
import sys
from itertools import chain, compress
from operator import concat
from typing import Callable, Iterable, Iterator, Sequence

from .ideal_quotient import hilbert_table
from .qcombinat import (
    GordonCondition,
    andrews_gordon_multisum,
    count_congruence_partitions,
    count_gordon_partitions,
    gordon_product,
    min_gordon_weight,
)
from .selberg import RecursionFamily, check_recursions, member_decoder, solve
from .series import MAX_CELLS, BiSeries, specialize_x

# oracle and crosscheck build full ideal-quotient tables; beyond this window
# the exact rank computations stop being interactive-fast, so larger requests
# are rejected as usage errors rather than left to crawl. At the edge,
# crosscheck --mmax 12 --wmax 30 takes about 0.15 s at k=1, 0.3 s at k=2,
# 0.45-0.5 s at k = 3, 4 and 5 and 0.25 s at k=8, as a subprocess on
# Python 3.11.7 and a shared 2-core x86-64
ORACLE_MAX_M = 12
ORACLE_MAX_W = 30
# verify-gordon counts partitions with one transfer table per counter and
# power-of-two size, O(q^2 log q) for the whole run. At q=200 it takes about
# 0.03 s for l=6, t=3 and 0.04 s for l=t=201; with --xmax 200 the multisum
# dominates, about 5 s for l=t=60
VERIFY_MAX_Q = 200


def _first_mismatch(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]
) -> tuple[int, int, int, int] | None:
    """The first cell (m, w) where two tables of the same shape differ, rows
    indexed by m and columns by w, as (m, w, a value, b value), or None if
    they match; a sequence is a one-row table."""
    if [len(r) for r in a_rows] != [len(r) for r in b_rows]:
        raise ValueError("compared tables must share a window")
    for m, (ra, rb) in enumerate(zip(a_rows, b_rows)):
        for w, (va, vb) in enumerate(zip(ra, rb)):
            if va != vb:
                return m, w, va, vb
    return None


def _report_line(
    mismatch: tuple[int, int, int, int] | None, route_a: str, route_b: str, window: str
) -> tuple[bool, str]:
    """Whether a comparison matched, and its report line, which names the
    first discrepant (m, w) and both values there."""
    line = f"{route_a}\t{route_b}\t{window}\t"
    if mismatch is None:
        return True, line + "match"
    m, w, va, vb = mismatch
    return False, line + f"mismatch\tm={m}\tw={w}\t{route_a}={va}\t{route_b}={vb}"


def _residual_line(label: str, residual: BiSeries) -> tuple[bool, str]:
    """Whether a residual vanished, and its report line, which names its
    first nonzero (m, w) and the value there."""
    if residual.is_zero():
        return True, f"{label}\tzero"
    m, w, value = next(residual.terms())
    return False, f"{label}\tnonzero\tm={m}\tw={w}\tvalue={value}"


def _rows(series: BiSeries) -> list[tuple[int, ...]]:
    return [series.row(a) for a in range(series.x_order + 1)]


def _report(results: Iterable[tuple[bool, str]]) -> int:
    """Write each comparison's line as it comes, so a long run holds none of
    them; 0 if every comparison matched, else 1."""
    code = 0
    write = sys.stdout.write
    for ok, line in results:
        write(line + "\n")
        if not ok:
            code = 1
    return code


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# -- subcommands ---------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    if (args.k + 1) * (args.xmax + 1) * (args.qmax + 1) > MAX_CELLS:
        return _usage(f"window has more than MAX_CELLS={MAX_CELLS} coefficients")
    fam = solve(args.k, args.xmax, args.qmax)
    if args.format == "json":
        fam.write_json(sys.stdout)
    else:
        print("i\ta\tb\tcoeff")
        # one write per nonzero row; tails[b] goes between a and the
        # coefficient on the line of column b
        tails = [f"\t{b}\t" for b in range(args.qmax + 1)]
        write = sys.stdout.write
        for i, member in enumerate(fam.members):
            for a in range(args.xmax + 1):
                row = member.row(a)
                if any(row):
                    head = f"{i}\t{a}"
                    write(head + f"\n{head}".join(map(concat, compress(tails, row),
                                                     map(str, compress(row, row)))) + "\n")
    return 0


def cmd_verify_gordon(args: argparse.Namespace) -> int:
    if args.t > args.l:
        return _usage("--t must satisfy t <= l")
    cond = GordonCondition(args.l, args.t)
    k, i = cond.level, args.t - 1
    qmax = args.qmax
    # an m-part partition weighs at least m, so x-degrees past qmax are empty
    xmax = min(args.xmax, qmax)
    window = f"q<={qmax}"

    print(f"verify-gordon l={args.l} t={args.t}", file=sys.stderr)
    gordon = [count_gordon_partitions(cond, n) for n in range(qmax + 1)]
    congruence = [count_congruence_partitions(cond, n) for n in range(qmax + 1)]
    product = gordon_product(cond, qmax).row(0)

    # beyond x-degree xmax the multisum window is truncated; coefficients of
    # q^n are still complete while every dropped partition outweighs n
    lossless = min(qmax, min_gordon_weight(k, xmax + 1) - 1)
    multisum = andrews_gordon_multisum(k, i, xmax, qmax)
    specialized = specialize_x(multisum, "x=1")[0].row(0)
    return _report([
        _report_line(_first_mismatch([gordon], [congruence]),
                     "gordon-count", "congruence-count", window),
        _report_line(_first_mismatch([congruence], [product]),
                     "congruence-count", "product", window),
        _report_line(_first_mismatch([product[: lossless + 1]], [specialized[: lossless + 1]]),
                     "product", "multisum(x=1)", f"q<={lossless}"),
    ])


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.e > args.k + 1:
        return _usage("--e must satisfy e <= k+1")
    print(
        f"building ideal-quotient table k={args.k} e={args.e} "
        f"(m<={args.mmax}, w<={args.wmax})",
        file=sys.stderr,
    )
    table = hilbert_table(args.k, args.e, args.mmax, args.wmax)
    if args.format == "json":
        print(table.to_biseries().to_json_text())
    else:
        print("m\tw\tdim")
        for m, row in enumerate(table.entries):
            sys.stdout.writelines(f"{m}\t{w}\t{d}\n" for w, d in enumerate(row))
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    if (args.k + 1) * (args.mmax + 1) * (args.wmax + 1) > MAX_CELLS:
        return _usage(f"window has more than MAX_CELLS={MAX_CELLS} coefficients")
    return _report(_crosscheck_comparisons(args.k, args.mmax, args.wmax))


def _crosscheck_comparisons(k: int, mmax: int, wmax: int) -> Iterator[tuple[bool, str]]:
    """The three pairwise comparisons for each member, yielded one at a time:
    a tall family has 3(k+1) of them."""
    window = f"x<={mmax},q<={wmax}"
    fam = solve(k, mmax, wmax)
    # a window cell holds at most min(mmax, wmax) ones and nonzero N_j, so
    # for i >= that bound neither the y_1^(i+1) generator nor the multisum's
    # linear term N_(i+1) + ... + N_k reaches it: those members share the
    # tables built for i = min(mmax, wmax); one progress line names them all
    shared = min(mmax, wmax)
    # members that share their three tables share the searches too: they run
    # again only when solve's member or the other two tables are new objects
    member = None
    for i, F in enumerate(fam.members):
        e = i + 1
        if i <= shared:
            print(f"crosscheck e={e} ({window})", file=sys.stderr)
            multisum = _rows(andrews_gordon_multisum(k, i, mmax, wmax))
            table = hilbert_table(k, e, mmax, wmax).entries
        elif i == shared + 1:
            print(
                f"crosscheck e={e}..{k + 1} ({window}), sharing the tables of e={e - 1}",
                file=sys.stderr,
            )
        if i <= shared or F is not member:
            # solve shares the members above the x-window as one object
            member = F
            solver = _rows(member)
            found = (
                _first_mismatch(solver, multisum),
                _first_mismatch(solver, table),
                _first_mismatch(multisum, table),
            )
        a = f"solve[F{i}]"
        b = f"multisum[i={i}]"
        c = f"ideal-quotient[e={e}]"
        yield _report_line(found[0], a, b, window)
        yield _report_line(found[1], a, c, window)
        yield _report_line(found[2], b, c, window)


def cmd_check_recursions(args: argparse.Namespace) -> int:
    try:
        # a FIFO without a writer would block a plain open(), and a device or
        # pipe may never end, so open without blocking and check the type first
        fd = os.open(args.input, os.O_RDONLY | os.O_NONBLOCK)
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            os.close(fd)
            return _usage(f"cannot load family from {args.input!r}: not a regular file")
        with os.fdopen(fd, "r", encoding="utf-8") as fh:
            # a parse tree holds no cycles, so the cyclic collector, which
            # would rescan its growing lists, is paused for the parse
            collecting = gc.isenabled()
            gc.disable()
            try:
                obj = json.load(fh, object_hook=member_decoder())
            finally:
                if collecting:
                    gc.enable()
        fam = RecursionFamily.from_json_dict(obj)
    except (OSError, ValueError, RecursionError) as exc:
        return _usage(f"cannot load family from {args.input!r}: {exc}")
    labels = chain((f"difference-eq[i={i}]" for i in range(1, fam.k + 1)), ["shift-eq"])
    return _report(map(_residual_line, labels, check_recursions(fam)))


# -- parser ---------------------------------------------------------------------


def _int_in(low: int, high: int | None = None, why: str = "") -> Callable[[str], int]:
    """An argparse type: int(text), which must lie in low..high (no upper
    bound if high is None); a value outside is a usage error naming the range."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            domain = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {domain}{why}, not {text!r}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The qgordon parser, built on the first call and shared by every later
    one: parsing leaves it unchanged, and it looks up sys.stdout and
    sys.stderr only when it prints."""
    positive, nonnegative = _int_in(1), _int_in(0)
    soft = " (soft limit of the ideal-quotient route)"
    charge, weight = _int_in(0, ORACLE_MAX_M, soft), _int_in(0, ORACLE_MAX_W, soft)
    parser = argparse.ArgumentParser(
        prog="qgordon",
        description="Exact q-series identity verification: recursion solver, "
        "multisums, partition counts, and the ideal-quotient dimension oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the level-k recursion system")
    p.add_argument("--k", type=positive, required=True, help="level, k >= 1")
    p.add_argument("--xmax", type=nonnegative, required=True, help="x truncation order")
    p.add_argument("--qmax", type=nonnegative, required=True, help="q truncation order")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "verify-gordon",
        help="compare partition counts, the congruence product, and the multisum",
    )
    p.add_argument("--l", type=_int_in(2), required=True, help="modulus parameter, l >= 2")
    p.add_argument("--t", type=positive, required=True, help="1 <= t <= l")
    p.add_argument(
        "--qmax",
        type=_int_in(0, VERIFY_MAX_Q, " (VERIFY_MAX_Q)"),
        required=True,
        help=f"compare up to q^qmax (<= {VERIFY_MAX_Q})",
    )
    p.add_argument(
        "--xmax",
        type=nonnegative,
        default=12,
        help="multisum x truncation order (default 12)",
    )
    p.set_defaults(func=cmd_verify_gordon)

    p = sub.add_parser("oracle", help="emit an ideal-quotient dimension table")
    p.add_argument("--k", type=positive, required=True, help="level, k >= 1")
    p.add_argument("--e", type=positive, required=True, help="y-power exponent, 1..k+1")
    p.add_argument("--mmax", type=charge, required=True, help=f"charge bound (<= {ORACLE_MAX_M})")
    p.add_argument("--wmax", type=weight, required=True, help=f"weight bound (<= {ORACLE_MAX_W})")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "crosscheck",
        help="pairwise-compare solver, multisum, and ideal-quotient tables",
    )
    p.add_argument("--k", type=positive, required=True, help="level, k >= 1")
    p.add_argument("--mmax", type=charge, required=True, help=f"charge bound (<= {ORACLE_MAX_M})")
    p.add_argument("--wmax", type=weight, required=True, help=f"weight bound (<= {ORACLE_MAX_W})")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser(
        "check-recursions", help="re-check residuals of a stored solved family"
    )
    p.add_argument("--input", required=True, help="path to a solve --format json file")
    p.set_defaults(func=cmd_check_recursions)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except (BrokenPipeError, MemoryError) as exc:
        # the reader closed stdout early, or memory ran out; send what is still
        # buffered to devnull, so that the flush at interpreter exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = _usage("out of memory" if isinstance(exc, MemoryError)
                      else "standard output was closed before the output was written")
    sys.exit(code)


if __name__ == "__main__":
    entry()
