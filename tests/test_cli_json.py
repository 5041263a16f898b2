"""The CLI's JSON replies: json.dumps(obj, indent=2) layout, library values.

The CLI writes its JSON shapes (``count``, ``table``, ``hetero`` with and
without ``--sum``, ``verify-paper``'s reports) directly. Each reply must be
byte for byte what the ``json`` module would write for the parsed object,
and the parsed values must be what the library computes.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumways import cli, golden
from sumways.golden import GOLDEN_TABLE_IDS, verify_against_paper
from sumways.heterogeneous import (
    DicePool,
    MarkedDie,
    hetero_count_product,
    hetero_distribution,
)
from sumways.homogeneous import ENGINES, HomoQuery, count_closed_form

bounded = settings(max_examples=80, deadline=None)


def check_json(argv: list[str], expected: dict) -> None:
    """Run argv with --format json; the reply must be laid out as json.dumps
    lays it out and hold ``expected``, keys in the same order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json"])
    assert code == 0
    text = out.getvalue()
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2) + "\n"
    assert obj == expected
    assert text == json.dumps(expected, indent=2) + "\n"


@bounded
@given(
    st.integers(1, 60),
    st.integers(1, 20),
    st.integers(0, 1300),
    st.sampled_from([*ENGINES, "all"]),
)
@example(1, 1, 1, "all")
@example(3, 5, 0, "all")
def test_count_json(n, m, N, engine):
    q = HomoQuery(n, m, N)
    names = ENGINES if engine == "all" else (engine,)
    check_json(
        ["count", "--dice", str(n), "--faces", str(m), "--sum", str(N),
         "--engine", engine],
        {
            "dice": n,
            "faces": m,
            "sum": N,
            "counts": {name: str(ENGINES[name](q)) for name in names},
        },
    )


@bounded
@given(st.integers(1, 12), st.integers(1, 10), st.integers(1, 40))
@example(1, 1, 1)
@example(6, 1, 8)
def test_table_json(m, n_max, N_max):
    check_json(
        ["table", "--faces", str(m), "--max-dice", str(n_max), "--max-sum", str(N_max)],
        {
            "m": m,
            "n_max": n_max,
            "N_max": N_max,
            "rows": [
                {
                    "N": N,
                    "counts": [
                        str(count_closed_form(HomoQuery(n, m, N)))
                        for n in range(1, n_max + 1)
                    ],
                }
                for N in range(1, N_max + 1)
            ],
        },
    )


dice_marks = st.lists(
    st.lists(st.integers(0, 12), min_size=1, max_size=6), min_size=1, max_size=5
)


@bounded
@given(dice_marks, st.none() | st.integers(0, 70))
@example([[0]], None)
@example([[0]], 0)
@example([[5], [0, 0, 3]], 9)
@example([[1, 2, 3]], 100)
def test_hetero_json(marks, target):
    argv = ["hetero"]
    for die in marks:
        argv += ["--die", ",".join(map(str, die))]
    if target is not None:
        argv += ["--sum", str(target)]
    pool = DicePool(tuple(MarkedDie(tuple(die)) for die in marks))
    if target is None:
        expected = {
            "dice": marks,
            "total": str(pool.outcome_count),
            "distribution": [
                {"sum": e, "count": str(c)} for e, c in hetero_distribution(pool)
            ],
        }
    else:
        expected = {
            "dice": marks,
            "sum": target,
            "count": str(hetero_count_product(pool, target)),
        }
    check_json(argv, expected)


def report_object(report) -> dict:
    """A verification report as ``verify-paper --format json`` prints it."""
    return {
        "table": report.table_id,
        "total_entries": report.total_entries,
        "matching": report.matching,
        "clean": report.clean,
        "printed_total": None if report.printed_total is None else str(report.printed_total),
        "computed_total": None if report.computed_total is None else str(report.computed_total),
        "mismatches": [
            {
                "label": m.label,
                "printed": str(m.printed),
                "computed": str(m.computed),
                "corrected": None if m.corrected is None else str(m.corrected),
                "confirmed_erratum": m.is_confirmed_erratum,
            }
            for m in report.mismatches
        ],
    }


@pytest.mark.parametrize("table", [*GOLDEN_TABLE_IDS, "all"])
def test_verify_paper_json(table):
    ids = GOLDEN_TABLE_IDS if table == "all" else (table,)
    expected = [report_object(verify_against_paper(table_id)) for table_id in ids]
    check_json(["verify-paper", "--table", table], expected)
    if table == "table1":
        assert expected[0]["mismatches"][0]["corrected"] == "125588"


def test_verify_paper_json_reports_a_failed_check(monkeypatch):
    real = golden.hetero_distribution
    monkeypatch.setattr(
        golden, "hetero_distribution", lambda pool: [(N, 2 * c) for N, c in real(pool)]
    )
    report = verify_against_paper("s22")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-paper", "--table", "s22", "--format", "json"])
    assert code == 3
    obj = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(obj, indent=2) + "\n"
    assert obj == [report_object(report)]
    assert obj[0]["clean"] is False
    assert (obj[0]["matching"], obj[0]["computed_total"]) == (0, "1152")
    # the plain report names both totals and fails the same way
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-paper", "--table", "s22"])
    assert code == 3
    lines = out.getvalue().splitlines()
    assert lines[0] == "0/24 entries match; printed total 576, computed total 1152"
    assert len(lines) == 1 + len(report.mismatches) == 25
