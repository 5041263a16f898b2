"""The table and distribution replies against a reference renderer.

The CLI fills one template of %d fields per table row, or one per
distribution reply. The reference below renders each value on its own, by
str() or a %d of its own, and joins the pieces, as the CLI did before the
templates; the two must agree byte for byte, and every JSON reply must
parse.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumways import cli
from sumways.heterogeneous import DicePool, hetero_distribution
from sumways.homogeneous import count_table_add_die


def reply(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return out.getvalue()


def reference_table(m: int, n_max: int, N_max: int, fmt: str) -> str:
    rows = enumerate(count_table_add_die(m, n_max, N_max)[1:], 1)
    if fmt == "json":
        cells = '",\n        "'.join
        lines = [cli._TABLE_ROW_JSON % (N, cells(map(str, row))) for N, row in rows]
        return cli._TABLE_JSON % (m, n_max, N_max, ",\n".join(lines)) + "\n"
    head = "N," + ",".join("n=%d" % n for n in range(1, n_max + 1))
    lines = ["%d,%s" % (N, ",".join(map(str, row))) for N, row in rows]
    return "\n".join([head, *lines]) + "\n"


def reference_distribution(pool: DicePool, fmt: str) -> str:
    dist = hetero_distribution(pool)
    total = pool.outcome_count
    if fmt == "plain":
        lines = ["%d %d" % ec for ec in dist]
        return "\n".join([*lines, "total %d" % total]) + "\n"
    if fmt == "json":
        lines = [cli._DIST_ENTRY_JSON % ec for ec in dist]
        return cli._DIST_JSON % (cli._dice_json(pool), total, ",\n".join(lines)) + "\n"
    lines = ["%d,%d" % ec for ec in dist]
    return "\n".join(["sum,count", *lines, "total,%d" % total]) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 12), st.integers(1, 90),
       st.sampled_from(["csv", "json"]))
@example(1, 1, 1, "csv")
@example(1, 1, 1, "json")
@example(20, 12, 90, "json")
def test_table_renders_as_the_reference(m, n_max, N_max, fmt):
    text = reply(["table", "--faces", str(m), "--max-dice", str(n_max),
                  "--max-sum", str(N_max), "--format", fmt])
    assert text == reference_table(m, n_max, N_max, fmt)
    if fmt == "json":
        rows = json.loads(text)["rows"]
        assert [row["N"] for row in rows] == list(range(1, N_max + 1))


die_specs = st.one_of(
    st.lists(st.integers(0, 40), min_size=1, max_size=6).map(lambda marks: ",".join(map(str, marks))),
    st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
        lambda ends: "%d..%d" % (min(ends), max(ends))
    ),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(die_specs, min_size=1, max_size=12), st.sampled_from(["plain", "csv", "json"]))
@example(["0"], "plain")
@example(["0,1,1,2", "1..3"], "csv")
@example(["1..30"] * 12, "json")
def test_distribution_renders_as_the_reference(specs, fmt):
    argv = ["hetero"]
    for spec in specs:
        argv += ["--die", spec]
    text = reply([*argv, "--format", fmt])
    pool = DicePool(tuple(map(cli.parse_die_spec, specs)))
    assert text == reference_distribution(pool, fmt)
    if fmt == "json":
        obj = json.loads(text)
        assert int(obj["total"]) == sum(int(e["count"]) for e in obj["distribution"])


# Pools for the distribution reply: dice of even marks only, whose
# products have zero counts inside their support; asymmetric dice; single
# dice; and dice raised by 10**15, so the least sum is huge and only the
# sums above it are listed.
even_specs = st.lists(st.integers(0, 6).map(lambda v: 2 * v), min_size=1, max_size=4).map(
    lambda marks: ",".join(map(str, marks)))
asymmetric_specs = st.sampled_from(["0,1,5", "0,0,1", "2,3,3", "1,2,2", "0,3,4,4"])
raised_specs = st.tuples(st.integers(0, 3), st.integers(1, 3)).map(
    lambda lo_len: ",".join(str(10**15 + lo_len[0] + j) for j in range(lo_len[1])))
pool_specs = st.one_of(
    st.lists(st.one_of(even_specs, asymmetric_specs, die_specs), min_size=1, max_size=6),
    st.lists(st.one_of(raised_specs, even_specs, asymmetric_specs), min_size=1, max_size=4),
    st.one_of(even_specs, asymmetric_specs, raised_specs, die_specs).map(lambda s: [s]),
)


@settings(max_examples=80, deadline=None)
@given(pool_specs)
@example(["0,2,4"])
@example(["0,2,4", "0,2,4", "1..3"])
@example(["0,1,5", "1..3"])
@example(["1000000000000000,1000000000000001", "1,5"])
def test_every_distribution_format_renders_as_the_reference(specs):
    # the reply is written from hetero_counts' list, the reference from
    # hetero_distribution's (sum, count) pairs
    argv = ["hetero"]
    for spec in specs:
        argv += ["--die", spec]
    pool = DicePool(tuple(map(cli.parse_die_spec, specs)))
    for fmt in ("plain", "csv", "json"):
        assert reply([*argv, "--format", fmt]) == reference_distribution(pool, fmt), fmt
