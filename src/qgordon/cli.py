"""Batch command line surface.

Subcommands: solve, verify-gordon, oracle, crosscheck, check-recursions.
Standard output carries only data (JSON or TSV); progress notes go to
standard error. Exit codes: 0 all comparisons matched, 1 a well-formed run
found a mismatch, 2 usage error. Identical invocations produce
byte-identical output; there are no config files or environment knobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Sequence

from .ideal_quotient import hilbert_table
from .qcombinat import (
    GordonCondition,
    andrews_gordon_multisum,
    count_congruence_partitions,
    count_gordon_partitions,
    gordon_product,
    min_gordon_weight,
)
from .selberg import RecursionFamily, check_recursions, solve
from .series import MAX_CELLS, BiSeries, specialize_x

# oracle and crosscheck build full ideal-quotient tables; beyond this window
# the exact rank computations stop being interactive-fast, so larger requests
# are rejected as usage errors rather than left to crawl
ORACLE_MAX_M = 8
ORACLE_MAX_W = 20


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing two computation routes on a window."""

    route_a: str
    route_b: str
    window: str
    status: str  # "match" or "mismatch"
    first_discrepancy: tuple[int, int, int, int] | None = None  # (m, w, a, b)

    def line(self) -> str:
        out = f"{self.route_a}\t{self.route_b}\t{self.window}\t{self.status}"
        if self.first_discrepancy is not None:
            m, w, va, vb = self.first_discrepancy
            out += f"\tm={m}\tw={w}\t{self.route_a}={va}\t{self.route_b}={vb}"
        return out


def compare_series(
    a: BiSeries, b: BiSeries, route_a: str, route_b: str, window: str
) -> VerificationReport:
    """Coefficientwise comparison reporting the lexicographically first
    discrepant (m, w) cell."""
    if a.x_order != b.x_order or a.q_order != b.q_order:
        raise ValueError("compared series must share a window")
    for m in range(a.x_order + 1):
        for w in range(a.q_order + 1):
            va, vb = a.coeff(m, w), b.coeff(m, w)
            if va != vb:
                return VerificationReport(
                    route_a, route_b, window, "mismatch", (m, w, va, vb)
                )
    return VerificationReport(route_a, route_b, window, "match")


def compare_sequences(
    xs: Sequence[int], ys: Sequence[int], route_a: str, route_b: str, window: str
) -> VerificationReport:
    if len(xs) != len(ys):
        raise ValueError("compared sequences must have equal length")
    for n, (va, vb) in enumerate(zip(xs, ys)):
        if va != vb:
            return VerificationReport(
                route_a, route_b, window, "mismatch", (0, n, va, vb)
            )
    return VerificationReport(route_a, route_b, window, "match")


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _oracle_window_problem(mmax: int, wmax: int) -> str | None:
    """Why (mmax, wmax) is no window for the ideal-quotient route, or None."""
    if mmax < 0 or wmax < 0:
        return "--mmax and --wmax must be >= 0"
    if mmax > ORACLE_MAX_M or wmax > ORACLE_MAX_W:
        return (
            f"window too large for the ideal-quotient route "
            f"(soft limit m<={ORACLE_MAX_M}, w<={ORACLE_MAX_W})"
        )
    return None


# -- subcommands ---------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    if args.k < 1:
        return _usage("--k must be >= 1")
    if args.xmax < 0 or args.qmax < 0:
        return _usage("--xmax and --qmax must be >= 0")
    if (args.k + 1) * (args.xmax + 1) * (args.qmax + 1) > MAX_CELLS:
        return _usage(f"window has more than MAX_CELLS={MAX_CELLS} coefficients")
    fam = solve(args.k, args.xmax, args.qmax)
    if args.format == "json":
        print(json.dumps(fam.to_json_dict()))
    else:
        print("i\ta\tb\tcoeff")
        for i, member in enumerate(fam.members):
            for a, b, c in member.terms():
                print(f"{i}\t{a}\t{b}\t{c}")
    return 0


def cmd_verify_gordon(args: argparse.Namespace) -> int:
    if args.l < 2:
        return _usage("--l must be >= 2")
    if not 1 <= args.t <= args.l:
        return _usage("--t must satisfy 1 <= t <= l")
    if args.qmax < 0:
        return _usage("--qmax must be >= 0")
    if args.xmax < 0:
        return _usage("--xmax must be >= 0")
    cond = GordonCondition(args.l, args.t)
    k, i = cond.level, args.t - 1
    qmax = args.qmax

    print(f"verify-gordon l={args.l} t={args.t}", file=sys.stderr)
    gordon = [count_gordon_partitions(cond, n) for n in range(qmax + 1)]
    congruence = [count_congruence_partitions(cond, n) for n in range(qmax + 1)]
    reports = [
        compare_sequences(
            gordon, congruence, "gordon-count", "congruence-count", f"q<={qmax}"
        )
    ]

    product = gordon_product(cond, qmax)
    reports.append(
        compare_sequences(
            congruence,
            list(product.row(0)),
            "congruence-count",
            "product",
            f"q<={qmax}",
        )
    )

    # beyond x-degree xmax the multisum window is truncated; coefficients of
    # q^n are still complete while every dropped partition outweighs n
    lossless = min(qmax, min_gordon_weight(k, args.xmax + 1) - 1)
    multisum = andrews_gordon_multisum(k, i, args.xmax, qmax)
    specialized, _ = specialize_x(multisum, "x=1")
    reports.append(
        compare_sequences(
            list(product.row(0))[: lossless + 1],
            list(specialized.row(0))[: lossless + 1],
            "product",
            "multisum(x=1)",
            f"q<={lossless}",
        )
    )

    for rep in reports:
        print(rep.line())
    return 0 if all(r.status == "match" for r in reports) else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.k < 1:
        return _usage("--k must be >= 1")
    if not 1 <= args.e <= args.k + 1:
        return _usage("--e must satisfy 1 <= e <= k+1")
    problem = _oracle_window_problem(args.mmax, args.wmax)
    if problem:
        return _usage(problem)
    print(
        f"building ideal-quotient table k={args.k} e={args.e} "
        f"(m<={args.mmax}, w<={args.wmax})",
        file=sys.stderr,
    )
    table = hilbert_table(args.k, args.e, args.mmax, args.wmax)
    if args.format == "json":
        print(json.dumps(table.to_biseries().to_json_dict()))
    else:
        sys.stdout.write(table.to_tsv())
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    if args.k < 1:
        return _usage("--k must be >= 1")
    problem = _oracle_window_problem(args.mmax, args.wmax)
    if problem:
        return _usage(problem)
    mmax, wmax = args.mmax, args.wmax
    window = f"x<={mmax},q<={wmax}"
    fam = solve(args.k, mmax, wmax)
    reports = []
    for e in range(1, args.k + 2):
        i = e - 1
        print(f"crosscheck e={e} ({window})", file=sys.stderr)
        solver = fam.members[i]
        multisum = andrews_gordon_multisum(args.k, i, mmax, wmax)
        table = hilbert_table(args.k, e, mmax, wmax).to_biseries()
        a = f"solve[F{i}]"
        b = f"multisum[i={i}]"
        c = f"ideal-quotient[e={e}]"
        reports.append(compare_series(solver, multisum, a, b, window))
        reports.append(compare_series(solver, table, a, c, window))
        reports.append(compare_series(multisum, table, b, c, window))
    for rep in reports:
        print(rep.line())
    return 0 if all(r.status == "match" for r in reports) else 1


def cmd_check_recursions(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        fam = RecursionFamily.from_json_dict(obj)
    except (OSError, ValueError, RecursionError) as exc:
        return _usage(f"cannot load family from {args.input!r}: {exc}")
    residuals = check_recursions(fam)
    labels = [f"difference-eq[i={i}]" for i in range(1, fam.k + 1)] + ["shift-eq"]
    all_zero = True
    for label, res in zip(labels, residuals):
        if res.is_zero():
            print(f"{label}\tzero")
        else:
            a, b, c = next(res.terms())
            print(f"{label}\tnonzero\tm={a}\tw={b}\tvalue={c}")
            all_zero = False
    return 0 if all_zero else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgordon",
        description="Exact q-series identity verification: recursion solver, "
        "multisums, partition counts, and the ideal-quotient dimension oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the level-k recursion system")
    p.add_argument("--k", type=int, required=True, help="level, k >= 1")
    p.add_argument("--xmax", type=int, required=True, help="x truncation order")
    p.add_argument("--qmax", type=int, required=True, help="q truncation order")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "verify-gordon",
        help="compare partition counts, the congruence product, and the multisum",
    )
    p.add_argument("--l", type=int, required=True, help="modulus parameter, l >= 2")
    p.add_argument("--t", type=int, required=True, help="1 <= t <= l")
    p.add_argument("--qmax", type=int, required=True, help="compare up to q^qmax")
    p.add_argument(
        "--xmax",
        type=int,
        default=12,
        help="multisum x truncation order (default 12)",
    )
    p.set_defaults(func=cmd_verify_gordon)

    p = sub.add_parser("oracle", help="emit an ideal-quotient dimension table")
    p.add_argument("--k", type=int, required=True, help="level, k >= 1")
    p.add_argument("--e", type=int, required=True, help="y-power exponent, 1..k+1")
    p.add_argument("--mmax", type=int, required=True, help=f"charge bound (<= {ORACLE_MAX_M})")
    p.add_argument("--wmax", type=int, required=True, help=f"weight bound (<= {ORACLE_MAX_W})")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "crosscheck",
        help="pairwise-compare solver, multisum, and ideal-quotient tables",
    )
    p.add_argument("--k", type=int, required=True, help="level, k >= 1")
    p.add_argument("--mmax", type=int, required=True, help=f"charge bound (<= {ORACLE_MAX_M})")
    p.add_argument("--wmax", type=int, required=True, help=f"weight bound (<= {ORACLE_MAX_W})")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser(
        "check-recursions", help="re-check residuals of a stored solved family"
    )
    p.add_argument("--input", required=True, help="path to a solve --format json file")
    p.set_defaults(func=cmd_check_recursions)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
