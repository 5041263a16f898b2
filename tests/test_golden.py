import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumways import golden
from sumways.golden import (
    GOLDEN_TABLE_IDS,
    Mismatch,
    load_golden,
    verify_against_paper,
)
from sumways.homogeneous import count_table_add_die


def test_ids_and_unknown():
    assert GOLDEN_TABLE_IDS == ("table1", "s22")
    with pytest.raises(ValueError):
        load_golden("nope")
    with pytest.raises(ValueError):
        verify_against_paper("nope")


def test_load_golden_returns_a_fresh_dict_each_call():
    for table_id in GOLDEN_TABLE_IDS:
        first = load_golden(table_id)
        first.clear()
        assert load_golden(table_id) != first


def test_table1_shape_and_flagged_misprint():
    data = load_golden("table1")
    assert (data["m"], data["n_max"], data["N_max"]) == (6, 8, 36)
    assert [row["N"] for row in data["rows"]] == list(range(1, 37))
    assert all(len(row["counts"]) == 8 for row in data["rows"])
    # the shipped digits keep the misprint; the annotation carries the fix
    row26 = data["rows"][25]
    assert row26["counts"][7] == "12588"
    assert data["errata"] == [
        {"N": 26, "n": 8, "erratum": {"printed": "12588", "corrected": "125588"}}
    ]


def test_table1_cited_column_values():
    data = load_golden("table1")
    col6 = {row["N"]: int(row["counts"][5]) for row in data["rows"]}
    assert col6[18] == col6[24] == 3431
    assert col6[19] == col6[23] == 3906
    assert col6[20] == col6[22] == 4221
    assert col6[14] == col6[28] == 1161


def test_table1_verification_finds_exactly_the_misprint():
    report = verify_against_paper("table1")
    assert report.total_entries == 288
    assert report.matching == 287
    assert len(report.mismatches) == 1
    m = report.mismatches[0]
    assert m.label == "(N=26,n=8)"
    assert m.printed == 12588
    assert m.computed == 125588
    assert m.corrected == 125588
    assert m.is_confirmed_erratum
    assert report.clean


def test_s22_verification_is_exact():
    report = verify_against_paper("s22")
    assert report.total_entries == 24
    assert report.matching == 24
    assert report.mismatches == ()
    assert report.printed_total == report.computed_total == 576
    assert report.clean


def test_corrected_table_satisfies_structure():
    data = load_golden("table1")
    corrections = {
        (e["N"], e["n"]): int(e["erratum"]["corrected"]) for e in data["errata"]
    }
    value = {}
    for row in data["rows"]:
        for n, printed in enumerate(row["counts"], start=1):
            value[(row["N"], n)] = corrections.get((row["N"], n), int(printed))
    # column sums reach 6^n for every column the table fully contains
    for n in range(1, 7):
        assert sum(value[(N, n)] for N in range(1, 37)) == 6**n
    # symmetry about the column midpoint wherever both mates are printed
    for n in range(1, 9):
        for N in range(1, 37):
            mate = 7 * n - N
            if 1 <= mate <= 36:
                assert value[(N, n)] == value[(mate, n)], (N, n)
    # below the first wraparound the counts are plain compositions
    for n in range(1, 9):
        for lam in range(0, 6):
            if n + lam <= 36:
                assert value[(n + lam, n)] == math.comb(n + lam - 1, lam)


TRUE_TABLE1 = count_table_add_die(6, 8, 36)
CELLS = st.tuples(st.integers(1, 36), st.integers(1, 8))
SHIFTS = st.integers(-3, 3).filter(bool)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(CELLS, SHIFTS, max_size=6),
    st.integers(1, 36),
    st.lists(st.integers(1, 8), min_size=2, max_size=2, unique=True),
    SHIFTS,
    st.booleans(),
    st.booleans(),
)
@example({}, 1, [1, 2], 1, False, False)
@example({}, 26, [7, 8], 1, True, False)
@example({(26, 8): 0}, 1, [1, 2], 1, False, True)
@example({(26, 8): 2}, 1, [1, 2], 1, False, False)
def test_table1_reports_every_altered_cell(
    shifts, row, pair, pair_shift, alter_pair, fix_erratum
):
    # Altered cells print the true count shifted by a nonzero amount; the
    # erratum cell keeps its misprint unless it is put back to the true
    # value (shift 0 there means "correct it").
    shifts = dict(shifts)
    if alter_pair:
        shifts.update({(row, n): pair_shift for n in pair})
    if fix_erratum:
        shifts[(26, 8)] = 0
    data = load_golden("table1")
    for (N, n), shift in shifts.items():
        data["rows"][N - 1]["counts"][n - 1] = str(TRUE_TABLE1[N][n - 1] + shift)
    expected = [
        Mismatch(
            "(N=%d,n=%d)" % (N, n),
            int(data["rows"][N - 1]["counts"][n - 1]),
            TRUE_TABLE1[N][n - 1],
            125588 if (N, n) == (26, 8) else None,
        )
        for N in range(1, 37)
        for n in range(1, 9)
        if int(data["rows"][N - 1]["counts"][n - 1]) != TRUE_TABLE1[N][n - 1]
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(golden, "load_golden", lambda table_id: data)
        # parse the altered data unmemoized; the process-wide parse stays clean
        mp.setattr(golden, "_table1_printed", golden._table1_printed.__wrapped__)
        report = verify_against_paper("table1")
    assert report.total_entries == 288
    assert [m.label for m in report.mismatches] == [m.label for m in expected]
    assert report.mismatches == tuple(expected)
    assert report.matching == 288 - len(expected)
    # a mismatch at the flagged cell is explained by the erratum whatever
    # was printed there; any other mismatch makes the report unclean
    assert report.clean == all(m.label == "(N=26,n=8)" for m in expected)


def test_verification_recomputes_on_every_call():
    # Once the printed values are parsed and cached, a wrong engine must
    # still be caught: nothing the engines computed may be kept.
    clean = [verify_against_paper(table_id) for table_id in GOLDEN_TABLE_IDS]
    assert all(report.clean for report in clean)
    real_table, real_distribution = golden.count_table_add_die, golden.hetero_distribution

    def wrong_table(*shape):
        table = [list(row) for row in real_table(*shape)]
        table[5][2] += 1  # (N=5, n=3): printed 6
        return tuple(map(tuple, table))

    def wrong_distribution(pool):
        return [(N, count + (N == 14)) for N, count in real_distribution(pool)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(golden, "count_table_add_die", wrong_table)
        mp.setattr(golden, "hetero_distribution", wrong_distribution)
        table1 = verify_against_paper("table1")
        s22 = verify_against_paper("s22")
    assert table1.mismatches == (
        Mismatch("(N=5,n=3)", 6, 7, None),
        Mismatch("(N=26,n=8)", 12588, 125588, 125588),
    )
    assert (table1.matching, table1.clean) == (286, False)
    assert s22.mismatches == (Mismatch("(N=14)", 47, 48, None),)
    assert (s22.matching, s22.printed_total, s22.computed_total) == (23, 576, 577)
    assert not s22.clean
    assert [verify_against_paper(table_id) for table_id in GOLDEN_TABLE_IDS] == clean


def is_tuple_of_ints(value) -> bool:
    if type(value) is tuple:
        return all(map(is_tuple_of_ints, value))
    return type(value) is int


def test_cached_printed_values_cannot_be_changed_through_load_golden():
    clean = [verify_against_paper(table_id) for table_id in GOLDEN_TABLE_IDS]
    table1, s22 = load_golden("table1"), load_golden("s22")
    for row in table1["rows"]:
        row["counts"][:] = ["0"] * len(row["counts"])
    table1["errata"].clear()
    for entry in s22["entries"]:
        entry["count"] = "0"
    s22["total"] = "0"
    assert [verify_against_paper(table_id) for table_id in GOLDEN_TABLE_IDS] == clean
    for printed in (golden._table1_printed(), golden._s22_printed()):
        hash(printed)
        assert is_tuple_of_ints(printed)
