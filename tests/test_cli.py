import json
import math
import sys
import tracemalloc

import pytest

from sumways import cli, homogeneous
from sumways.polygonal import (
    check_all_positive,
    ordered_representation_counts,
    partition_count_grid,
    polygonal_parts,
)


def test_count_plain(run_cli):
    code, out, err = run_cli("count", "--dice", "6", "--faces", "6", "--sum", "25")
    assert code == 0
    assert out == "2856\n"
    assert err == ""


def test_count_below_minimum(run_cli):
    code, out, _ = run_cli("count", "--dice", "3", "--faces", "6", "--sum", "2")
    assert code == 0
    assert out == "0\n"


def test_count_all_engines_with_oracle(run_cli):
    code, out, err = run_cli(
        "count", "--dice", "2", "--faces", "6", "--sum", "7", "--engine", "all", "--oracle"
    )
    assert code == 0
    assert out == "6\n6\n6\n6\n"
    assert err == ""


def test_count_each_engine(run_cli):
    for engine in ("poly", "add-die", "lambda", "closed"):
        code, out, _ = run_cli(
            "count", "--dice", "6", "--faces", "6", "--sum", "29", "--engine", engine
        )
        assert code == 0
        assert out == "756\n"


def test_count_json_and_csv(run_cli):
    code, out, _ = run_cli(
        "count", "--dice", "2", "--faces", "6", "--sum", "7",
        "--engine", "all", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "dice": 2,
        "faces": 6,
        "sum": 7,
        "counts": {"poly": "6", "add-die": "6", "lambda": "6", "closed": "6"},
    }
    # counts travel as decimal strings
    assert all(isinstance(v, str) for v in obj["counts"].values())
    code, out, _ = run_cli(
        "count", "--dice", "2", "--faces", "6", "--sum", "7", "--format", "csv"
    )
    assert out == "engine,count\npoly,6\n"


def test_count_usage_errors(run_cli):
    code, _, err = run_cli("count", "--dice", "0", "--faces", "6", "--sum", "3")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli("count", "--dice", "2", "--faces", "6", "--sum", "nope")
    assert code == 2
    code, _, _ = run_cli("count", "--dice", "2", "--faces", "6")
    assert code == 2
    code, _, _ = run_cli("count", "--dice", "2", "--faces", "6", "--sum", "7",
                         "--engine", "psychic")
    assert code == 2


def test_count_add_die_on_huge_dice(run_cli):
    code, out, _ = run_cli("count", "--dice", "3", "--faces", str(10**30), "--sum", "5",
                           "--engine", "all")
    assert (code, out) == (0, "6\n" * 4)
    # below the support every engine reads 0 without expanding 10**30 dice
    code, out, err = run_cli("count", "--dice", str(10**30), "--faces", "6", "--sum", "5",
                             "--engine", "all")
    assert (code, out, err) == (0, "0\n" * 4, "")


def test_count_lambda_refuses_a_window_it_cannot_index(run_cli):
    code, out, err = run_cli("count", "--dice", "3", "--faces", str(10**30),
                             "--sum", str(15 * 10**29), "--engine", "lambda")
    assert (code, out) == (2, "")
    assert err == ("error: too many faces to walk: the lambda window of k+1 counts,"
                   " k of 100 bits, cannot be indexed\n")


def test_equal_die_specs_share_one_die_and_a_bad_spec_raises_each_time():
    # the spec memo keeps dice, never errors
    cli.parse_die_spec.cache_clear()
    die = cli.parse_die_spec("1..6")
    assert cli.parse_die_spec("1..6") is die and die.marks == range(1, 7)
    assert cli.parse_die_spec("0,2,2") is cli.parse_die_spec("0,2,2")
    assert cli.parse_die_spec(" 1..6") is not die and cli.parse_die_spec(" 1..6") == die
    for spec in ("1..x", "", "-1,2", "5..3"):
        for _ in range(2):
            with pytest.raises(ValueError, match="bad die spec"):
                cli.parse_die_spec(spec)
    info = cli.parse_die_spec.cache_info()
    assert (info.currsize, info.maxsize) == (3, cli.DIE_SPEC_MEMO_SIZE)
    cli.parse_die_spec.cache_clear()


def test_table_walks_no_column_past_the_largest_sum(run_cli, monkeypatch):
    # n dice sum to at least n, so columns past n = N_max are zeros, padded
    walked = []
    real = homogeneous.accumulate
    monkeypatch.setattr(homogeneous, "accumulate", lambda it: walked.append(1) or real(it))
    code, out, _ = run_cli("table", "--faces", "6", "--max-dice", "40", "--max-sum", "3")
    assert code == 0 and len(walked) == 3
    assert out.split("\n")[1:4] == ["1,1" + ",0" * 39, "2,1,1" + ",0" * 38,
                                     "3,1,2,1" + ",0" * 37]


def test_count_oracle_budget_too_small(run_cli):
    code, _, err = run_cli(
        "count", "--dice", "5", "--faces", "6", "--sum", "18",
        "--oracle", "--oracle-budget", "10",
    )
    assert code == 2
    assert "budget" in err


def test_count_oracle_refuses_before_building_the_pool(run_cli):
    # m^n is checked against the budget before any die of 10^7 faces exists
    run_cli("count", "--dice", "2", "--faces", "6", "--sum", "7")  # builds the parser
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            "count", "--dice", "3", "--faces", "10000000", "--sum", "5",
            "--engine", "lambda", "--oracle",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "6\n")
    assert err == "error: dice outcome space %d exceeds budget 10000000\n" % 10**21
    assert peak < 64 * 1024, peak


def test_count_oracle_refuses_a_huge_space_in_one_short_line(run_cli):
    # 6^(10^6) is neither computed nor printed in full
    code, out, err = run_cli(
        "count", "--dice", "1000000", "--faces", "6", "--sum", "5",
        "--engine", "lambda", "--oracle",
    )
    assert (code, out) == (2, "0\n")
    assert err == (
        "error: dice outcome space of about 778152 digits exceeds budget 10000000\n"
    )


def test_count_engine_disagreement_exits_3(run_cli, monkeypatch):
    monkeypatch.setitem(cli.ENGINES, "closed", lambda q: 999)
    code, out, err = run_cli(
        "count", "--dice", "2", "--faces", "6", "--sum", "7", "--engine", "all"
    )
    assert code == 3
    assert out == "6\n6\n6\n999\n"
    assert "disagree" in err


def test_failed_exact_arithmetic_check_exits_3(run_cli, monkeypatch):
    # a λ walk that ends below zero trips the engine's own check
    monkeypatch.setattr(homogeneous, "_lambda_walk",
                        lambda n, m, walk, to, steps=None: (to, [-1]))
    code, out, err = run_cli(
        "count", "--dice", "2", "--faces", "6", "--sum", "7", "--engine", "lambda"
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: recurrence ended at negative count -1")

    def remainder(q):
        raise homogeneous.DivisibilityError("step left remainder 1")

    monkeypatch.setitem(cli.ENGINES, "closed", remainder)
    code, out, err = run_cli(
        "count", "--dice", "2", "--faces", "6", "--sum", "7", "--engine", "closed"
    )
    assert (code, out, err) == (3, "", "error: step left remainder 1\n")


def test_count_oracle_mismatch_exits_3(run_cli, monkeypatch):
    monkeypatch.setattr(cli, "brute_dice", lambda pool, N, budget: 999)
    code, _, err = run_cli(
        "count", "--dice", "2", "--faces", "6", "--sum", "7", "--oracle"
    )
    assert code == 3
    assert "oracle" in err


def test_table_csv(run_cli):
    code, out, _ = run_cli(
        "table", "--faces", "6", "--max-dice", "8", "--max-sum", "36", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N," + ",".join("n=%d" % n for n in range(1, 9))
    assert len(lines) == 37  # header + 36 data rows
    row18 = lines[18].split(",")
    assert row18[0] == "18" and row18[5] == "780"


def test_table_two_faces_is_binomial(run_cli):
    code, out, _ = run_cli(
        "table", "--faces", "2", "--max-dice", "3", "--max-sum", "6"
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cells = [int(c) for c in line.split(",")]
        N = cells[0]
        for n, got in enumerate(cells[1:], start=1):
            assert got == (math.comb(n, N - n) if N >= n else 0), (N, n)


def test_table_one_face_identity(run_cli):
    code, out, _ = run_cli(
        "table", "--faces", "1", "--max-dice", "3", "--max-sum", "3"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    for cells in rows:
        N = int(cells[0])
        assert [int(c) for c in cells[1:]] == [1 if N == n else 0 for n in (1, 2, 3)]


def test_table_json_round_trip(run_cli):
    code, out, _ = run_cli(
        "table", "--faces", "6", "--max-dice", "3", "--max-sum", "18",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 6 and obj["n_max"] == 3 and obj["N_max"] == 18
    assert obj["rows"][0] == {"N": 1, "counts": ["1", "0", "0"]}
    assert json.dumps(obj, indent=2) + "\n" == out


def test_table_usage_error(run_cli):
    code, _, _ = run_cli("table", "--faces", "0", "--max-dice", "3", "--max-sum", "3")
    assert code == 2


def test_hetero_distribution(run_cli):
    code, out, _ = run_cli("hetero", "--die", "1..6", "--die", "1..8", "--die", "1..12")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 25
    assert lines[0] == "3 1"
    assert lines[11] == "14 47"
    assert lines[-2] == "26 1"
    assert lines[-1] == "total 576"


def test_hetero_sum_and_specs(run_cli):
    code, out, _ = run_cli("hetero", "--die", "5", "--sum", "5")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli("hetero", "--die", "2,4", "--die", "3,3", "--sum", "7")
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli("hetero", "--die", "0,1", "--die", "0,1", "--sum", "1")
    assert code == 0 and out == "2\n"


def test_hetero_range_die_is_not_expanded(run_cli):
    # a die written lo..hi stays a range: a tiny sum on 10^8 faces builds none
    run_cli("hetero", "--die", "1..6", "--sum", "3")  # builds the parser
    tracemalloc.start()
    try:
        huge = run_cli("hetero", "--die", "0..100000000", "--sum", "3")
        wide = run_cli("hetero", "--die", "1..1000000000000", "--die", "1..6", "--sum", "5")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert huge == (0, "1\n", "")
    assert wide == (0, "4\n", "")
    assert peak < 64 * 1024, peak


def test_hetero_json_and_csv(run_cli):
    code, out, _ = run_cli(
        "hetero", "--die", "2,4", "--format", "json"
    )
    obj = json.loads(out)
    assert obj == {
        "dice": [[2, 4]],
        "total": "2",
        "distribution": [{"sum": 2, "count": "1"}, {"sum": 4, "count": "1"}],
    }
    assert json.dumps(obj, indent=2) + "\n" == out
    code, out, _ = run_cli("hetero", "--die", "2,4", "--format", "csv")
    assert out == "sum,count\n2,1\n4,1\ntotal,2\n"


def test_hetero_usage_errors(run_cli):
    code, out, err = run_cli("hetero", "--sum", "3")
    assert (code, out) == (2, "")
    assert "the following arguments are required: --die" in err
    # the pool's own door refuses a negative sum, in count's words
    negative = run_cli("hetero", "--die", "1..6", "--sum", "-1")
    assert negative == (2, "", "error: target sum must be nonnegative\n")
    assert run_cli("count", "--dice", "2", "--faces", "6", "--sum", "-1") == negative
    code, _, _ = run_cli("hetero", "--die", "6..1", "--sum", "3")
    assert code == 2
    code, _, _ = run_cli("hetero", "--die", "a,b", "--sum", "3")
    assert code == 2
    code, _, _ = run_cli("hetero", "--die", "-3", "--sum", "3")
    assert code == 2
    code, out, err = run_cli("hetero", "--die", "0..10000000000000000000", "--sum", "3")
    assert (code, out) == (2, "") and "too many faces" in err


def test_polygonal_check(run_cli):
    code, out, _ = run_cli(
        "polygonal-check", "--sides", "4", "--power", "3", "--upto", "1000"
    )
    assert code == 0
    assert out == "first gap at 7\n"
    code, out, _ = run_cli(
        "polygonal-check", "--sides", "3", "--power", "3", "--upto", "500"
    )
    assert code == 0
    assert out == "all exponents 0..500 representable\n"
    # at least upto parts write every N <= upto as ones and zeros
    code, out, err = run_cli(
        "polygonal-check", "--sides", "3", "--power", str(10**30), "--upto", "5"
    )
    assert (code, out, err) == (0, "all exponents 0..5 representable\n", "")


def test_polygonal_check_unordered(run_cli):
    code, out, _ = run_cli(
        "polygonal-check", "--sides", "4", "--power", "3", "--upto", "200",
        "--unordered",
    )
    assert code == 0
    assert out == "first gap at 7\n"
    code, out, _ = run_cli(
        "polygonal-check", "--sides", "3", "--power", "3", "--upto", "200",
        "--unordered",
    )
    assert out == "all exponents 0..200 representable\n"
    code, out, err = run_cli(
        "polygonal-check", "--sides", "3", "--power", str(10**30), "--upto", "5",
        "--unordered",
    )
    assert (code, out, err) == (0, "all exponents 0..5 representable\n", "")


@pytest.mark.parametrize("sides", range(3, 9))
def test_polygonal_check_caps_power_at_upto(run_cli, sides):
    # the CLI scans at most upto parts; the library counts take every power
    for upto in range(14):
        parts = polygonal_parts(sides, upto)
        for power in range(1, upto + 4):
            for unordered, counts in (
                ([], ordered_representation_counts(sides, power, upto)),
                (["--unordered"], partition_count_grid(parts, power, upto)[power]),
            ):
                gap = check_all_positive(counts, upto)
                expected = (
                    "all exponents 0..%d representable\n" % upto
                    if gap is None
                    else "first gap at %d\n" % gap
                )
                code, out, _ = run_cli(
                    "polygonal-check", "--sides", str(sides), "--power", str(power),
                    "--upto", str(upto), *unordered,
                )
                assert (code, out) == (0, expected), (upto, power, unordered)


def test_polygonal_check_usage(run_cli):
    code, _, _ = run_cli("polygonal-check", "--sides", "2", "--power", "3", "--upto", "9")
    assert code == 2
    code, _, _ = run_cli("polygonal-check", "--sides", "4", "--power", "0", "--upto", "9")
    assert code == 2


def test_virgins(run_cli):
    code, out, _ = run_cli(
        "virgins", "--gen", "1:3", "--gen", "1:1", "--targets", "6:10", "--list", "5"
    )
    assert code == 0
    assert out == "1\n2 4\n"
    code, out, _ = run_cli("virgins", "--gen", "1:1", "--targets", "3:4")
    assert code == 0 and out == "0\n"


def test_virgins_positive_and_truncation(run_cli):
    code, out, _ = run_cli(
        "virgins", "--gen", "1:1", "--gen", "1:1", "--targets", "4:4", "--list", "2"
    )
    assert code == 0
    assert out == "5\n0 4\n1 3\n(list truncated at 2)\n"
    code, out, _ = run_cli(
        "virgins", "--gen", "1:1", "--gen", "1:1", "--targets", "4:4",
        "--positive", "--list", "10",
    )
    assert code == 0
    assert out == "3\n1 3\n2 2\n3 1\n"


def test_virgins_listing_that_disagrees_with_the_count_exits_3(run_cli, monkeypatch):
    real = cli.rv_count_solutions
    monkeypatch.setattr(cli, "rv_count_solutions", lambda system: real(system) + 1)
    code, out, err = run_cli(
        "virgins", "--gen", "1:1", "--gen", "1:1", "--targets", "4:4", "--list", "10"
    )
    assert code == 3
    assert out == "6\n0 4\n1 3\n2 2\n3 1\n4 0\n"
    assert err == "error: enumeration found 5 solutions, count says 6\n"


def test_virgins_usage_errors(run_cli):
    code, out, err = run_cli("virgins", "--targets", "3:3")
    assert (code, out) == (2, "")
    assert "the following arguments are required: --gen" in err
    for spec in ["1", "1:2:3", "a:1", ":"]:
        code, out, err = run_cli("virgins", "--gen", spec, "--targets", "3:3")
        assert (code, out, err) == (2, "", "error: bad --gen %r: expected a:b\n" % spec)
    code, _, _ = run_cli("virgins", "--gen", "1:1", "--targets", "33")
    assert code == 2
    code, _, _ = run_cli("virgins", "--gen", "0:0", "--targets", "3:3")
    assert code == 2


def test_negative_caps_are_refused_before_any_output(run_cli):
    code, out, err = run_cli(
        "virgins", "--gen", "1:1", "--targets", "3:3", "--list", "-1"
    )
    assert (code, out, err) == (2, "", "error: --list cap must be nonnegative\n")
    # a cap past sys.maxsize is no error: no list is that long
    code, out, _ = run_cli(
        "virgins", "--gen", "1:1", "--targets", "3:3", "--list", str(2**64)
    )
    assert (code, out) == (0, "1\n3\n")
    for oracle in (["--oracle"], []):
        code, out, err = run_cli(
            "count", "--dice", "2", "--faces", "6", "--sum", "7", *oracle,
            "--oracle-budget", "-1",
        )
        assert (code, out, err) == (2, "", "error: --oracle-budget must be nonnegative\n")
    # a valid budget the oracle exceeds still reports after the counts
    code, out, _ = run_cli(
        "count", "--dice", "2", "--faces", "6", "--sum", "7", "--oracle",
        "--oracle-budget", "0",
    )
    assert (code, out) == (2, "6\n")


def test_verify_paper(run_cli):
    code, out, _ = run_cli("verify-paper", "--table", "table1")
    assert code == 0
    assert out == (
        "287/288 printed entries match; 1 known erratum confirmed at "
        "(N=26,n=8): printed 12588, computed 125588\n"
    )
    code, out, _ = run_cli("verify-paper", "--table", "s22")
    assert code == 0
    assert out == "24/24 entries match; total 576\n"
    code, out, _ = run_cli("verify-paper")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("table1: 287/288")
    assert lines[1].startswith("s22: 24/24")


def test_verify_paper_unknown_table(run_cli):
    code, _, _ = run_cli("verify-paper", "--table", "nope")
    assert code == 2


def test_no_command(run_cli):
    code, _, _ = run_cli()
    assert code == 2


def test_output_is_deterministic(run_cli):
    first = run_cli("table", "--faces", "5", "--max-dice", "4", "--max-sum", "20",
                    "--format", "json")
    second = run_cli("table", "--faces", "5", "--max-dice", "4", "--max-sum", "20",
                     "--format", "json")
    assert first == second


REPEATED_CALLS = [
    "hetero --die 1..6 --die 2,4 --sum 7",
    "hetero --die 1..4",
    "hetero --die 1..3 --die 1..3 --die 0,5 --format csv",
    "virgins --gen 1:3 --gen 1:1 --targets 30:50 --list 3",
    "virgins --gen 1:3 --gen 1:1 --gen 2:1 --targets 20:30 --positive",
    "virgins --gen 2:1 --targets 10:5",
    "count --dice 2 --faces 6 --sum 7 --engine all --oracle",
    "count --dice 2 --faces 6 --sum 7",
    "count --dice 2 --faces 6 --sum nope",
    "count --dice 3 --faces 6 --sum 10 --format json",
    "hetero --sum 3",
    "polygonal-check --sides 4 --power 3 --upto 40 --unordered",
    "polygonal-check --sides 4 --power 3 --upto 40",
]


def test_main_reuses_one_parser(capsys):
    """Calls in a row through the shared parser print exactly what a freshly
    built parser prints: appended options, flags and errors do not leak."""

    def run(argv):
        code = cli.main(argv.split())
        return (code, *capsys.readouterr())

    fresh = []
    for argv in REPEATED_CALLS:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    assert [run(argv) for argv in REPEATED_CALLS * 2] == fresh * 2
    assert cli.build_parser() is parser
    assert [code for code, _, _ in fresh].count(2) == 2


def test_counts_of_any_length_print_in_full(run_cli):
    # C(29999, 14999) has 9029 digits, past the interpreter's default limit
    # of 4300 on int-to-decimal conversion; main lifts the limit for its own
    # call and restores the caller's setting afterwards
    limits = hasattr(sys, "set_int_max_str_digits")
    if limits:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
    try:
        code, out, err = run_cli(
            "count", "--dice", "15001", "--faces", "20000", "--sum", "30000",
            "--engine", "closed",
        )
        assert (code, err) == (0, "")
        if limits:
            assert sys.get_int_max_str_digits() == 5000
            sys.set_int_max_str_digits(0)
        assert out == "%d\n" % math.comb(29999, 14999)
        assert len(out) == 9029 + 1
    finally:
        if limits:
            sys.set_int_max_str_digits(saved)
