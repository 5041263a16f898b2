"""Command line front end.

Usage:
    sumways count --dice 6 --faces 6 --sum 25
    sumways count --dice 2 --faces 6 --sum 7 --engine all --oracle
    sumways table --faces 6 --max-dice 8 --max-sum 36 --format csv
    sumways hetero --die 1..6 --die 1..8 --die 1..12
    sumways hetero --die 0,1 --die 2,4 --sum 5
    sumways polygonal-check --sides 4 --power 3 --upto 1000
    sumways virgins --gen 1:3 --gen 1:1 --targets 30:50 --list 10
    sumways verify-paper --table all

Exit codes: 0 success, 2 usage errors (bad flags or values), 3 verification
failure (engines disagree, an oracle check fails, a listed enumeration does
not match its count, or a reference table does not verify). JSON output
carries counts as decimal strings and round-trips through json.loads.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .golden import GOLDEN_TABLE_IDS, VerifyReport, verify_against_paper
from .heterogeneous import (
    DicePool,
    MarkedDie,
    consecutive_pool,
    hetero_count_product,
    hetero_distribution,
)
from .homogeneous import ENGINE_ORDER, ENGINES, HomoQuery, count_table_add_die
from .oracle import DEFAULT_BUDGET, BudgetExceededError, brute_dice
from .polygonal import (
    PolygonalSpec,
    check_all_positive,
    partition_count_grid,
    polygonal_parts,
    polygonal_series,
)
from .regula import LinearSystem2, rv_count_solutions, rv_enumerate_solutions
from .series import intpoly, poly_pow


class CliError(Exception):
    """Bad command line input; reported on stderr, exit 2."""


def parse_die_spec(spec: str) -> MarkedDie:
    """Die spec: either lo..hi (consecutive marks) or a comma list."""
    spec = spec.strip()
    if ".." in spec:
        lo_s, _, hi_s = spec.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise CliError("bad die spec %r" % spec) from None
        if lo > hi:
            raise CliError("bad die spec %r: empty range" % spec)
        marks = tuple(range(lo, hi + 1))
    else:
        try:
            marks = tuple(int(part) for part in spec.split(","))
        except ValueError:
            raise CliError("bad die spec %r" % spec) from None
    try:
        return MarkedDie(marks)
    except ValueError as exc:
        raise CliError("bad die spec %r: %s" % (spec, exc)) from None


def parse_pair(spec: str, what: str) -> tuple[int, int]:
    """a:b pair of nonnegative integers."""
    left, sep, right = spec.partition(":")
    if not sep:
        raise CliError("bad %s %r: expected a:b" % (what, spec))
    try:
        return int(left), int(right)
    except ValueError:
        raise CliError("bad %s %r: expected a:b" % (what, spec)) from None


# The JSON replies are written directly, laid out as json.dumps(obj,
# indent=2) lays them out. Their leaves are ints and decimal strings and
# their keys are fixed names, so nothing needs escaping.
_COUNT_JSON = '{\n  "dice": %d,\n  "faces": %d,\n  "sum": %d,\n  "counts": {\n%s\n  }\n}'
_TABLE_JSON = '{\n  "m": %d,\n  "n_max": %d,\n  "N_max": %d,\n  "rows": [\n%s\n  ]\n}'
_TABLE_ROW_JSON = '    {\n      "N": %d,\n      "counts": [\n        "%s"\n      ]\n    }'
_SUM_JSON = '{\n  "dice": %s,\n  "sum": %d,\n  "count": "%d"\n}'
_DIST_JSON = '{\n  "dice": %s,\n  "total": "%d",\n  "distribution": [\n%s\n  ]\n}'
_DIST_ENTRY_JSON = '    {\n      "sum": %d,\n      "count": "%d"\n    }'


def _dice_json(pool: DicePool) -> str:
    """The pool's marks as a JSON list of lists, indented as a top-level value."""
    return "[\n%s\n  ]" % ",\n".join(
        "    [\n      %s\n    ]" % ",\n      ".join(map(str, die.marks))
        for die in pool.dice
    )


def cmd_count(args) -> int:
    q = HomoQuery(args.dice, args.faces, args.sum)
    names = list(ENGINE_ORDER) if args.engine == "all" else [args.engine]
    counts = {name: ENGINES[name](q) for name in names}
    if args.format == "plain":
        for name in names:
            print(counts[name])
    elif args.format == "json":
        lines = ['    "%s": "%d"' % (name, counts[name]) for name in names]
        print(_COUNT_JSON % (q.n, q.m, q.N, ",\n".join(lines)))
    else:
        print("engine,count")
        for name in names:
            print("%s,%d" % (name, counts[name]))
    status = 0
    if len(set(counts.values())) > 1:
        print("error: engines disagree: %s" % counts, file=sys.stderr)
        status = 3
    if args.oracle:
        pool = consecutive_pool((q.m,) * q.n)
        reference = brute_dice(pool, q.N, budget=args.oracle_budget)
        if any(c != reference for c in counts.values()):
            print(
                "error: oracle counted %d, engines said %s" % (reference, counts),
                file=sys.stderr,
            )
            status = 3
    return status


def cmd_table(args) -> int:
    table = count_table_add_die(args.faces, args.max_dice, args.max_sum)
    rows = enumerate(table.entries[1:], 1)
    if args.format == "json":
        cells = '",\n        "'.join
        lines = [_TABLE_ROW_JSON % (N, cells(map(str, row))) for N, row in rows]
        print(_TABLE_JSON % (table.m, table.n_max, table.N_max, ",\n".join(lines)))
    else:
        head = "N," + ",".join("n=%d" % n for n in range(1, table.n_max + 1))
        lines = ["%d,%s" % (N, ",".join(map(str, row))) for N, row in rows]
        print("\n".join([head, *lines]))
    return 0


def cmd_hetero(args) -> int:
    if not args.die:
        raise CliError("need at least one --die")
    pool = DicePool(tuple(parse_die_spec(s) for s in args.die))
    if args.sum is not None:
        if args.sum < 0:
            raise CliError("--sum must be nonnegative")
        count = hetero_count_product(pool, args.sum)
        if args.format == "plain":
            print(count)
        elif args.format == "json":
            print(_SUM_JSON % (_dice_json(pool), args.sum, count))
        else:
            print("sum,count")
            print("%d,%d" % (args.sum, count))
        return 0
    dist = hetero_distribution(pool)
    total = pool.outcome_count
    if args.format == "plain":
        lines = ["%d %d" % ec for ec in dist]
        print("\n".join([*lines, "total %d" % total]))
    elif args.format == "json":
        lines = [_DIST_ENTRY_JSON % ec for ec in dist]
        print(_DIST_JSON % (_dice_json(pool), total, ",\n".join(lines)))
    else:
        lines = ["%d,%d" % ec for ec in dist]
        print("\n".join(["sum,count", *lines, "total,%d" % total]))
    return 0


def cmd_polygonal_check(args) -> int:
    spec = PolygonalSpec(args.sides, args.upto)
    if args.power < 1:
        raise CliError("--power must be positive")
    if args.unordered:
        parts = polygonal_parts(args.sides, args.upto, include_zero=True)
        grid = partition_count_grid(parts, args.power, args.upto)
        power = intpoly([row[args.power] for row in grid.grid], args.upto)
    else:
        power = poly_pow(polygonal_series(spec), args.power, args.upto)
    gap = check_all_positive(power, args.upto)
    if gap is None:
        print("all exponents 0..%d representable" % args.upto)
    else:
        print("first gap at %d" % gap)
    return 0


def cmd_virgins(args) -> int:
    if not args.gen:
        raise CliError("need at least one --gen")
    generators = tuple(parse_pair(s, "--gen") for s in args.gen)
    targets = parse_pair(args.targets, "--targets")
    mode = "positive" if args.positive else "nonnegative"
    system = LinearSystem2(generators, targets, mode)
    count = rv_count_solutions(system)
    print(count)
    if args.list is not None:
        if args.list < 0:
            raise CliError("--list cap must be nonnegative")
        solutions, truncated = rv_enumerate_solutions(system, args.list)
        for sol in solutions:
            print(" ".join(str(x) for x in sol))
        if truncated:
            print("(list truncated at %d)" % args.list)
        elif len(solutions) != count:
            print(
                "error: enumeration found %d solutions, count says %d"
                % (len(solutions), count),
                file=sys.stderr,
            )
            return 3
    return 0


def _format_report(report: VerifyReport) -> list[str]:
    """A summary line, then one line per mismatch no flagged erratum explains.

    A table without a printed total counts its printed entries only; one
    with a total also checks the sums it does not print.
    """
    if report.printed_total is None:
        line = "%d/%d printed entries match" % (report.matching, report.total_entries)
    else:
        line = "%d/%d entries match" % (report.matching, report.total_entries)
        if report.printed_total == report.computed_total:
            line += "; total %d" % report.printed_total
        else:
            line += "; printed total %d, computed total %d" % (
                report.printed_total,
                report.computed_total,
            )
    confirmed = [m for m in report.mismatches if m.is_confirmed_erratum]
    if confirmed:
        noun = "erratum" if len(confirmed) == 1 else "errata"
        line += "; %d known %s confirmed at %s" % (
            len(confirmed),
            noun,
            ", ".join(
                "%s: printed %d, computed %d" % (m.label, m.printed, m.computed)
                for m in confirmed
            ),
        )
    return [line] + [
        "mismatch at %s: printed %d, computed %d" % (m.label, m.printed, m.computed)
        for m in report.mismatches
        if not m.is_confirmed_erratum
    ]


def cmd_verify_paper(args) -> int:
    ids = list(GOLDEN_TABLE_IDS) if args.table == "all" else [args.table]
    status = 0
    for table_id in ids:
        report = verify_against_paper(table_id)
        prefix = "%s: " % table_id if args.table == "all" else ""
        for line in _format_report(report):
            print(prefix + line)
        if not report.clean:
            status = 3
    return status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, so one parser serves every call of
    :func:`main` in a process. Callers must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="sumways",
        description="Exact counting of dice sums and related representation problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="ways n dice with faces 1..m sum to N")
    p.add_argument("--dice", type=int, required=True, help="number of dice n")
    p.add_argument("--faces", type=int, required=True, help="faces per die m")
    p.add_argument("--sum", type=int, required=True, help="target sum N")
    p.add_argument(
        "--engine",
        choices=list(ENGINE_ORDER) + ["all"],
        default="poly",
        help="which engine to use, or all of them",
    )
    p.add_argument(
        "--oracle", action="store_true", help="cross-check against brute force"
    )
    p.add_argument(
        "--oracle-budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="largest outcome space the oracle may enumerate",
    )
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="full count table for faces 1..m")
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--max-dice", type=int, required=True)
    p.add_argument("--max-sum", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("hetero", help="sums for a pool of unlike dice")
    p.add_argument(
        "--die",
        action="append",
        metavar="SPEC",
        help="one die: lo..hi or a comma list of marks (repeatable)",
    )
    p.add_argument("--sum", type=int, default=None, help="target sum; omit for the full distribution")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=cmd_hetero)

    p = sub.add_parser(
        "polygonal-check", help="scan powers of a polygonal-number series for gaps"
    )
    p.add_argument("--sides", type=int, required=True, help="polygon sides m >= 3")
    p.add_argument("--power", type=int, required=True, help="how many summands")
    p.add_argument("--upto", type=int, required=True, help="scan exponents 0..upto")
    p.add_argument(
        "--unordered",
        action="store_true",
        help="count unordered multisets (zero included as a part) instead of ordered tuples",
    )
    p.set_defaults(func=cmd_polygonal_check)

    p = sub.add_parser(
        "virgins", help="solutions of two simultaneous linear equations"
    )
    p.add_argument(
        "--gen",
        action="append",
        metavar="A:B",
        help="one generator's two coefficients (repeatable)",
    )
    p.add_argument("--targets", required=True, metavar="N:V", help="the two targets")
    p.add_argument(
        "--positive", action="store_true", help="require every variable >= 1"
    )
    p.add_argument(
        "--list",
        type=int,
        default=None,
        metavar="CAP",
        help="also list solutions, at most CAP of them",
    )
    p.set_defaults(func=cmd_virgins)

    p = sub.add_parser("verify-paper", help="recompute the shipped reference tables")
    p.add_argument(
        "--table", choices=list(GOLDEN_TABLE_IDS) + ["all"], default="all"
    )
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the exit code is returned, not raised.

    Counts can run to any number of digits, so the interpreter's limit on
    int-to-decimal conversion (4300 digits by default, where it exists) is
    lifted for the call and put back afterwards.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(argv)
    saved = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(argv)
    finally:
        set_limit(saved)


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
