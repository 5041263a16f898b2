"""``cli.main`` reads a well-formed subcommand line on a fast path and
leaves every other line to the top-level parser; it must behave exactly as
parsing everything with the top-level parser does.

The reference below is that top-level path, written out here: one
``build_parser().parse_args(argv)``, then ``args.func``, with the same
error handling as ``main``. Both run on the interpreter's own argparse,
so the comparison holds on whichever version runs the tests. The last
tests check that well-formed lines really take the fast path in
``cli._parse``, so a silent fallback to argparse fails a test.
"""

import argparse
import contextlib
import io
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from sumways import cli
from sumways.oracle import BudgetExceededError

from test_cli_golden import INVOCATIONS


def reference_main(argv):
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def outcome(fn, argv):
    """(exit code or parsed Namespace, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = fn(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


PROBLEMS = [
    "count --dice 2 --faces 6 --sum 7 --bogus",
    "count --dice 2 --faces 6 --sum 7 --bogus 3 stray",
    "count --dice 2 --faces 6 --sum 7 stray",
    "count --dice 2 --faces 6 --sum 7 -- x",
    "count -- x",
    "count --dice 2 --faces 6",
    "count --dice 2 --faces 6 --sum 7 --engine psychic",
    "count --dice 2 --faces 6 --sum nope",
    "count --dice 2 --faces 6 --sum -1",
    "count --di 2 --fa 6 --su 7",
    "count --dice 2 --faces 6 --sum 7 --o",
    "count --dice=2 --faces=6 --sum=7 --engine=all",
    "count --dice 2 --faces 6 --sum 7 --dice 3",
    "count --dice 2 --faces 6 --sum 7 --oracle --oracle-budget -1",
    "count -h",
    "count --help --dice 2",
    "table --faces 6 --max-dice 2 --max-sum 4 --format plain",
    "hetero --die 1..6 --die 1..6 --die 2,4",
    "hetero --die",
    "hetero --die 1..6 --sum",
    "virgins --gen 1:1 --gen 1:2 --gen 1:1 --targets 5:7",
    "virgins --gen 1:1 --targets 3:3 --list -1",
    "virgins --targets",
    "verify-paper --table nope",
    "verify-paper extra",
    "-h",
    "--help",
    "-- count --dice 2 --faces 6 --sum 7",
    "",
    "bogus",
    "bogus --dice 2",
    "--dice 2 count",
    "count --dice 2 --faces 6 --sum",
    "hetero --die 1..6 --die",
    "count --dice 2 --faces 6 --sum 7 --engine all -h",
    "virgins --gen 1:1 --targets 3:3 --positive --positive",
    "virgins --targets 3:3",
]


def test_every_invocation_matches_the_top_level_path():
    for line in INVOCATIONS + PROBLEMS:
        argv = line.split()
        assert outcome(cli.main, argv) == outcome(reference_main, argv), line


def test_main_reads_sys_argv(monkeypatch):
    for line in ["count --dice 2 --faces 6 --sum 7", "count -h", "--help", "",
                 "count --dice 2 --faces 6 --sum 3 --bogus"]:
        monkeypatch.setattr(sys, "argv", ["sumways", *line.split()])
        expected = outcome(reference_main, None)
        assert outcome(lambda _: cli.main(), None) == expected, line


COMMANDS = cli.build_parser().commands


@st.composite
def argvs(draw):
    """A subcommand and tokens made of its option strings (whole,
    abbreviated and with =value) mixed with values good and bad."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    options = [s for action in COMMANDS[name]._actions for s in action.option_strings]
    value = st.one_of(
        st.integers(-3, 40).map(str),
        st.sampled_from(["x", "1..6", "2,4", "1:3", "30:50", "all", "json", "csv",
                         "plain", "poly", "lambda", "table1", "--", "-", "", "-1x"]),
    )
    option = st.sampled_from(options).flatmap(
        lambda s: st.integers(min(len(s), 3), len(s)).map(lambda k: s[:k]))
    token = st.one_of(option, option, value,
                      st.tuples(option, value).map(lambda ov: "%s=%s" % ov))
    return [name, *draw(st.lists(token, max_size=10))]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_parsed_namespaces_match_the_top_level_parser(argv):
    assert outcome(cli._parse, argv) == outcome(cli.build_parser().parse_args, argv)


def fast(argv):
    return cli._parse_fast(COMMANDS[argv[0]], argv[0], argv[1:])



# values the fast path must convert exactly as argparse does: leading
# zeros, digit groups, padding, non-ASCII digits, empty and dash-led
VALUES = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["007", "-1", "", "1_0", " 7", "\u0663", "1..6", "2,4", "1:3",
                     "30:50", "x"]),
)


def uses(action, min_size, max_size):
    """Lists of (tokens, dash-led value?) for uses of one option."""
    if action.nargs == 0:
        use = st.sampled_from(action.option_strings).map(lambda s: ([s], False))
    else:
        values = VALUES if action.choices is None else st.one_of(
            st.sampled_from(list(action.choices)), VALUES)
        use = st.tuples(st.sampled_from(action.option_strings), values).map(
            lambda ov: (list(ov), ov[1].startswith("-")))
    return st.lists(use, min_size=min_size, max_size=max_size)


@st.composite
def well_formed_argvs(draw):
    """A subcommand and a line of its whole option strings, in any order:
    required options most of the time, any option repeated, up to 60 of a
    repeatable one, flags anywhere; each option but a flag followed by one
    value. Returns the argv and whether a value starts with "-". Help is
    left to PROBLEMS."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    found = []
    for action in COMMANDS[name]._actions:
        if action.default is argparse.SUPPRESS:
            continue
        found += draw(uses(action, 0, 60 if action.dest in ("die", "gen") else 3))
        if action.required and draw(st.integers(0, 7)):
            found += draw(uses(action, 1, 1))
    found = draw(st.permutations(found))
    argv = [name, *(token for tokens, _ in found for token in tokens)]
    return argv, any(dash for _, dash in found)


@settings(max_examples=300, deadline=None)
@given(well_formed_argvs())
def test_fast_path_takes_every_well_formed_line(line):
    argv, dash_led = line
    result = outcome(cli._parse, argv)
    assert result == outcome(cli.build_parser().parse_args, argv)
    if isinstance(result[0], argparse.Namespace) and not dash_led:
        assert fast(argv) == result[0]


def test_fast_path_takes_every_golden_line_argparse_accepts():
    for line in INVOCATIONS:
        argv = line.split()
        parsed, _, _ = outcome(cli.build_parser().parse_args, argv)
        if isinstance(parsed, argparse.Namespace):
            assert fast(argv) == parsed, line


def test_fast_path_appends_as_argparse_does():
    # append values are stored once, after a copy of the default: the lists
    # equal parse_args' own, for a None default and a list default alike
    lines = [
        "hetero --die 1..6",
        "hetero " + " ".join("--die %d..%d" % (1, m) for m in range(1, 61)) + " --sum 9",
        "virgins --gen 1:3 --targets 30:50 --gen 1:1 --gen 2:0",
    ]
    for line in lines:
        argv = line.split()
        parsed = cli.build_parser().parse_args(argv)
        assert fast(argv) == parsed, line
    parser = argparse.ArgumentParser(prog="demo")
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser("demo")
    default = ["a"]
    demo.add_argument("--item", action="append", default=default)
    demo.add_argument("--die", action="append")
    demo.add_argument("--n", type=int, default=0)
    for tokens in ([], ["--item", "b"], ["--item", "b", "--n", "3", "--item", "c"],
                   ["--die", "x", "--item", "b", "--die", "y"]):
        parsed = parser.parse_args(["demo", *tokens])
        got = cli._parse_fast(demo, "demo", tokens)
        assert got == parsed, tokens
        assert default == ["a"]
        if "--item" in tokens:
            assert got.item is not default


@st.composite
def token_lines(draw):
    """A subcommand and a list of uses of its options: whole, abbreviated
    and unknown option strings, alone (a flag, or a missing value when
    last), followed by a value or joined to one by "="; values good, bad,
    dash-led, empty or among some option's choices; any option repeated,
    and each required one given most of the time, in any order."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    actions = COMMANDS[name]._actions
    whole = st.sampled_from([s for action in actions for s in action.option_strings])
    abbreviated = whole.flatmap(
        lambda s: st.integers(min(len(s), 3), len(s)).map(lambda k: s[:k]))
    option = st.one_of(whole, whole, abbreviated,
                       st.sampled_from(["--bogus", "-x", "--", "-", "--die-", "--sums"]))
    choices = [c for action in actions if action.choices for c in action.choices]
    value = st.one_of(
        VALUES, st.sampled_from([*choices, "psychic", "-5", "-x", "-1x", "--sum", "1e3"]))
    use = st.one_of(
        option.map(lambda o: [o]),
        st.tuples(option, value).map(list),
        st.tuples(option, value).map(lambda ov: ["%s=%s" % ov]),
        value.map(lambda v: [v]),
    )
    uses = draw(st.lists(use, max_size=10))
    for action in actions:
        if action.required and draw(st.integers(0, 7)):
            uses.append([action.option_strings[0], draw(value)])
    return [name, *(token for tokens in draw(st.permutations(uses)) for token in tokens)]


@settings(max_examples=500, deadline=None)
@given(st.one_of(token_lines(), well_formed_argvs().map(lambda line: line[0])))
def test_fast_path_gives_up_or_parses_as_parse_args_does(argv):
    parsed, _, _ = outcome(cli.build_parser().parse_args, argv)
    got = fast(argv)
    assert got is None or got == parsed
