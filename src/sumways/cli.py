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
    sumways verify-paper --table s22 --format json

Exit codes: 0 success, 2 usage errors (bad flags or values), 3 verification
failure (engines disagree, an oracle check fails, a listed enumeration does
not match its count, a reference table does not verify, or an engine's
exact-arithmetic check fails). Flag values are checked before anything is
printed, except that an oracle whose outcome space exceeds a valid
--oracle-budget exits 2 after the counts are printed. JSON output carries
counts as decimal strings and round-trips through json.loads.

The table and distribution replies are rendered from %d templates: one
template of %d fields per table row, applied row by row, and one per
distribution reply, applied to all its values at once. A %d field writes
a count's digits straight into the reply, with no string object per
count; the JSON templates are built from the row and entry layouts below.

Each bad input is refused in one place. argparse refuses a missing or
malformed option; the library refuses a bad value at the public type or
function the question enters through, such as HomoQuery, MarkedDie,
hetero_count_product or LinearSystem2. The
commands here refuse three values themselves: --oracle-budget and --list
because the library would refuse them only after the count is printed,
and --power below 1 because the unordered route, partition_count_grid,
accepts 0 parts.

One parser is built per process. A well-formed subcommand line (whole
option strings, each followed by one value that does not start with "-",
flags by none) is read on a fast path, from a table each subcommand
parser's store, store_true and append actions are read into once: option
string to dest, type, choices and kind. The fast path converts and checks
each value itself, writes it into one dict started from the parser's
defaults, and makes the namespace once; every other line, and every line
that fails a check, is parsed whole by argparse, so argparse alone defines
the grammar, the help text and every error message. The values of a
repeatable option (``--die``, ``--gen``) are collected on the fast path and
stored once per line, not copied into a new list per use.

Die specs are parsed once per process: ``parse_die_spec`` remembers the
MarkedDie of each of the last DIE_SPEC_MEMO_SIZE spec texts it read, so a
pool that repeats a spec, or a request that repeats an earlier one's,
parses it once. A bad spec is refused on every call, since no error is
remembered.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import compress

from .golden import GOLDEN_TABLE_IDS, VerifyReport, verify_against_paper
from .heterogeneous import (
    DicePool,
    MarkedDie,
    consecutive_pool,
    hetero_count_product,
    hetero_counts,
)
from .homogeneous import ENGINES, DivisibilityError, HomoQuery, count_table_add_die
from .oracle import DEFAULT_BUDGET, BudgetExceededError, brute_dice, check_budget
from .polygonal import (
    check_all_positive,
    ordered_representation_counts,
    partition_count_grid,
    polygonal_parts,
)
from .regula import LinearSystem2, rv_count_solutions, rv_enumerate_solutions


# Die spec texts whose MarkedDie parse_die_spec remembers, the least
# recently used dropped first.
DIE_SPEC_MEMO_SIZE = 256


@functools.lru_cache(maxsize=DIE_SPEC_MEMO_SIZE)
def parse_die_spec(spec: str) -> MarkedDie:
    """Die spec: either lo..hi (consecutive marks, as a range) or a comma list.

    A MarkedDie is frozen, so one is shared by every call with the same
    text; a bad spec raises each time, since lru_cache stores no error.
    """
    spec = spec.strip()
    lo, dots, hi = spec.partition("..")
    try:
        marks = range(int(lo), int(hi) + 1) if dots else tuple(map(int, spec.split(",")))
    except ValueError:
        raise ValueError("bad die spec %r" % spec) from None
    try:
        return MarkedDie(marks)
    except ValueError as exc:
        raise ValueError("bad die spec %r: %s" % (spec, exc)) from None


def parse_pair(spec: str, what: str) -> tuple[int, int]:
    """a:b pair of nonnegative integers."""
    try:
        left, right = spec.split(":")
        return int(left), int(right)
    except ValueError:
        raise ValueError("bad %s %r: expected a:b" % (what, spec)) from None


# The JSON replies are written directly, laid out as json.dumps(obj,
# indent=2) lays them out: with an indent, json.dumps runs the pure-Python
# encoder, which is slower and leaves reference cycles behind. Their leaves
# are ints, bools, null, decimal strings and fixed labels, and their keys
# are fixed names, so nothing needs escaping.
_COUNT_JSON = '{\n  "dice": %d,\n  "faces": %d,\n  "sum": %d,\n  "counts": {\n%s\n  }\n}'
_TABLE_JSON = '{\n  "m": %d,\n  "n_max": %d,\n  "N_max": %d,\n  "rows": [\n%s\n  ]\n}'
_TABLE_ROW_JSON = '    {\n      "N": %d,\n      "counts": [\n        "%s"\n      ]\n    }'
_SUM_JSON = '{\n  "dice": %s,\n  "sum": %d,\n  "count": "%d"\n}'
_DIST_JSON = '{\n  "dice": %s,\n  "total": "%d",\n  "distribution": [\n%s\n  ]\n}'
_DIST_ENTRY_JSON = '    {\n      "sum": %d,\n      "count": "%d"\n    }'
_REPORT_JSON = (
    '  {\n    "table": "%s",\n    "total_entries": %d,\n    "matching": %d,\n'
    '    "clean": %s,\n    "printed_total": %s,\n    "computed_total": %s,\n'
    '    "mismatches": %s\n  }'
)
_MISMATCH_JSON = (
    '      {\n        "label": "%s",\n        "printed": "%d",\n'
    '        "computed": "%d",\n        "corrected": %s,\n'
    '        "confirmed_erratum": %s\n      }'
)


def _dice_json(pool: DicePool) -> str:
    """The pool's marks as a JSON list of lists, indented as a top-level value.

    Each of the pool's shapes is rendered once; a repeated die reuses it.
    """
    rendered = {
        marks: "    [\n      %s\n    ]" % ",\n      ".join(map(str, marks))
        for marks in pool.shapes
    }
    return "[\n%s\n  ]" % ",\n".join(rendered[die.marks] for die in pool.dice)


def cmd_count(args) -> int:
    q = HomoQuery(args.dice, args.faces, args.sum)
    if args.oracle_budget < 0:
        raise ValueError("--oracle-budget must be nonnegative")
    names = list(ENGINES) if args.engine == "all" else [args.engine]
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
        # the pool has m^n outcomes: refuse before building n dice and
        # multiplying out m^n, which the budget may already rule out
        check_budget(q.m, args.oracle_budget, "dice", q.n)
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
    fields = ["%d"] * args.max_dice
    if args.format == "json":
        row = _TABLE_ROW_JSON.replace("%s", '",\n        "'.join(fields))
    else:
        row = "%d," + ",".join(fields)
    lines = [row % (N, *counts) for N, counts in enumerate(table[1:], 1)]
    if args.format == "json":
        print(_TABLE_JSON % (args.faces, args.max_dice, args.max_sum, ",\n".join(lines)))
    else:
        head = "N," + ",".join("n=%d" % n for n in range(1, args.max_dice + 1))
        print("\n".join([head, *lines]))
    return 0


def cmd_hetero(args) -> int:
    pool = DicePool(tuple(map(parse_die_spec, args.die)))
    if args.sum is not None:
        count = hetero_count_product(pool, args.sum)
        if args.format == "plain":
            print(count)
        elif args.format == "json":
            print(_SUM_JSON % (_dice_json(pool), args.sum, count))
        else:
            print("sum,count")
            print("%d,%d" % (args.sum, count))
        return 0
    low, counts = hetero_counts(pool)
    total = pool.outcome_count
    # the templates' values: each sum with a nonzero count, then that count
    nonzero = list(filter(None, counts))
    values = nonzero * 2
    values[::2] = compress(range(low, low + len(counts)), counts)
    values[1::2] = nonzero
    values = tuple(values)
    if args.format == "plain":
        print("\n".join(["%d %d"] * len(nonzero)) % values)
        print("total %d" % total)
    elif args.format == "json":
        lines = ",\n".join([_DIST_ENTRY_JSON] * len(nonzero)) % values
        print(_DIST_JSON % (_dice_json(pool), total, lines))
    else:
        print("\n".join(["sum,count", *["%d,%d"] * len(nonzero)]) % values)
        print("total,%d" % total)
    return 0


def cmd_polygonal_check(args) -> int:
    if args.power < 1:
        raise ValueError("--power must be positive")
    # 0 and 1 are m-gonal for every m, so with at least N parts every
    # N <= upto is N ones plus zeros: every power >= upto prints one line
    power = min(args.power, max(args.upto, 1))
    if args.unordered:
        parts = polygonal_parts(args.sides, args.upto)
        counts = partition_count_grid(parts, power, args.upto)[power]
    else:
        counts = ordered_representation_counts(args.sides, power, args.upto)
    gap = check_all_positive(counts, args.upto)
    if gap is None:
        print("all exponents 0..%d representable" % args.upto)
    else:
        print("first gap at %d" % gap)
    return 0


def cmd_virgins(args) -> int:
    generators = tuple(parse_pair(s, "--gen") for s in args.gen)
    targets = parse_pair(args.targets, "--targets")
    mode = "positive" if args.positive else "nonnegative"
    system = LinearSystem2(generators, targets, mode)
    if args.list is not None and args.list < 0:
        raise ValueError("--list cap must be nonnegative")
    count = rv_count_solutions(system)
    print(count)
    if args.list is not None:
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


def _json_count(value: int | None) -> str:
    return "null" if value is None else '"%d"' % value


def _json_bool(value: bool) -> str:
    return "true" if value else "false"


def _report_json(report: VerifyReport) -> str:
    """A report's fields as one JSON object, indented as a list item."""
    mismatches = ",\n".join(
        _MISMATCH_JSON
        % (
            m.label,
            m.printed,
            m.computed,
            _json_count(m.corrected),
            _json_bool(m.is_confirmed_erratum),
        )
        for m in report.mismatches
    )
    return _REPORT_JSON % (
        report.table_id,
        report.total_entries,
        report.matching,
        _json_bool(report.clean),
        _json_count(report.printed_total),
        _json_count(report.computed_total),
        "[\n%s\n    ]" % mismatches if mismatches else "[]",
    )


def cmd_verify_paper(args) -> int:
    ids = list(GOLDEN_TABLE_IDS) if args.table == "all" else [args.table]
    reports = [verify_against_paper(table_id) for table_id in ids]
    if args.format == "json":
        # one object per table checked, in a list whatever --table names
        print("[\n%s\n]" % ",\n".join(map(_report_json, reports)))
    else:
        for report in reports:
            prefix = "%s: " % report.table_id if args.table == "all" else ""
            for line in _format_report(report):
                print(prefix + line)
    return 0 if all(report.clean for report in reports) else 3


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
    # each subcommand's own parser, by name, for _parse to dispatch to
    parser.commands = sub.choices

    p = sub.add_parser("count", help="ways n dice with faces 1..m sum to N")
    p.add_argument("--dice", type=int, required=True, help="number of dice n")
    p.add_argument("--faces", type=int, required=True, help="faces per die m")
    p.add_argument("--sum", type=int, required=True, help="target sum N")
    p.add_argument(
        "--engine",
        choices=list(ENGINES) + ["all"],
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
        required=True,
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
        required=True,
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
    p.add_argument("--format", choices=["plain", "json"], default="plain")
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


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, or the same exit.

    A line whose first argument names a subcommand tries
    :func:`_parse_fast`; every other line, and every line the fast path
    gives up on, is read by ``parse_args``. The fast path sits beside
    argparse rather than replacing it: a replacement would have to
    reproduce argparse's help and error messages, while this way a new
    option needs no second edit.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args = _parse_fast(command, argv[0], argv[1:])
        if args is not None:
            return args
    return parser.parse_args(argv)


# The action kinds the fast path stores itself. An option of any other kind
# is left out of its table, so a line that uses one goes to argparse.
_FAST_KINDS = {argparse._StoreAction: "store", argparse._StoreTrueAction: "flag",
               argparse._AppendAction: "append"}


@functools.cache
def _fast_table(command: argparse.ArgumentParser) -> tuple[dict, dict, set]:
    """What the fast path needs of one subcommand's parser, read once.

    Each whole option string of a ``store`` action taking one value, a
    ``store_true`` flag or an ``append`` action taking one value, mapped to
    (action, dest, type, choices as a set or None, kind); the values
    argparse starts the namespace with (action defaults first, then
    ``set_defaults``); and the required actions. Help is left out, so
    ``-h`` sends the line to argparse.
    """
    options, defaults = {}, {}
    for action in command._actions:
        if action.default is argparse.SUPPRESS:  # -h and --help
            continue
        defaults.setdefault(action.dest, action.default)
        kind = _FAST_KINDS.get(type(action))
        if kind is not None and action.nargs in (None, 0):
            choices = None if action.choices is None else set(action.choices)
            entry = (action, action.dest, action.type, choices, kind)
            options.update(dict.fromkeys(action.option_strings, entry))
    for dest, value in command._defaults.items():
        defaults.setdefault(dest, value)
    required = {action for action in command._actions if action.required}
    return options, defaults, required


def _parse_fast(
    command: argparse.ArgumentParser, name: str, tokens: list[str]
) -> argparse.Namespace | None:
    """The namespace argparse makes of a well-formed line, or None.

    Each token must be a whole option string of :func:`_fast_table`; a flag
    takes no value and any other option exactly one, which must not start
    with "-". Values are converted by the option's type, checked against
    its choices and written into a copy of the defaults, and the namespace
    is made once, at the end. The values of an ``append`` option (``--die``,
    ``--gen``) are collected and stored once, after a copy of its default,
    where argparse's action would copy the whole list on every use.
    Anything else (an unknown, abbreviated or ``--opt=value`` token, ``-h``,
    a missing or dash-led value, a failed conversion or choice, a missing
    required option) returns None, and argparse reads the line.
    """
    options, defaults, required = _fast_table(command)
    values, seen, appended = dict(defaults), set(), {}
    tokens = iter(tokens)
    for token in tokens:
        entry = options.get(token)
        if entry is None:
            return None
        action, dest, convert, choices, kind = entry
        seen.add(action)
        if kind == "flag":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value gives up like a dash-led one
        if value.startswith("-"):
            return None
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if choices is not None and value not in choices:
            return None
        if kind == "append":
            appended.setdefault(dest, []).append(value)
        else:
            values[dest] = value
    for dest, items in appended.items():
        values[dest] = [*(values[dest] or ()), *items]
    # filled in one dict update: Namespace(**values) would set each
    # attribute in a Python loop
    args = argparse.Namespace()
    vars(args).update(values, command=name)
    return args if required <= seen else None


def _run(argv: list[str] | None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DivisibilityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
