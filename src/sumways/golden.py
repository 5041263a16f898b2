"""Reference tables digitized from the printed source, and their verification.

Two tables ship as JSON data files, values verbatim as printed:

``table1``
    counts for six-faced dice, n = 1..8 and N = 1..36. One entry is a known
    misprint; the file keeps the printed digits and flags the correction in
    an ``errata`` array, because the digitization must never silently fix
    its source.

``s22``
    the full sum distribution for the three unlike dice with 6, 8 and 12
    faces, exponents 3..26, with the printed total 576 = 6*8*12.

``verify_against_paper`` recomputes every printed entry with the engines and
reports each disagreement, marking the ones covered by a flagged erratum.
A report is clean when every mismatch is a flagged erratum whose corrected
value is what the engines produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .heterogeneous import consecutive_pool, hetero_distribution
from .homogeneous import count_table_add_die

GOLDEN_TABLE_IDS = ("table1", "s22")


@dataclass(frozen=True)
class Mismatch:
    """One printed entry the engines disagree with."""

    label: str
    printed: int
    computed: int
    corrected: int | None  # flagged erratum's correction, if any

    @property
    def is_confirmed_erratum(self) -> bool:
        return self.corrected is not None and self.corrected == self.computed


@dataclass(frozen=True)
class VerifyReport:
    table_id: str
    total_entries: int
    matching: int
    mismatches: tuple[Mismatch, ...]
    printed_total: int | None = None
    computed_total: int | None = None

    @property
    def clean(self) -> bool:
        if self.printed_total is not None and self.printed_total != self.computed_total:
            return False
        return all(m.is_confirmed_erratum for m in self.mismatches)


def load_golden(table_id: str) -> dict:
    """Parsed JSON for one golden table, exactly as shipped."""
    if table_id not in GOLDEN_TABLE_IDS:
        raise ValueError("unknown golden table %r" % (table_id,))
    path = resources.files("sumways").joinpath("data/%s.json" % table_id)
    return json.loads(path.read_text())


def _report(table_id: str, cells, **totals) -> VerifyReport:
    """Compare (label, printed, computed, corrected) cells into a report."""
    total = 0
    mismatches = []
    for label, printed, computed, corrected in cells:
        total += 1
        if computed != printed:
            mismatches.append(Mismatch(label, printed, computed, corrected))
    return VerifyReport(
        table_id, total, total - len(mismatches), tuple(mismatches), **totals
    )


def _verify_table1() -> VerifyReport:
    data = load_golden("table1")
    errata = {
        (e["N"], e["n"]): int(e["erratum"]["corrected"]) for e in data.get("errata", [])
    }
    entries = count_table_add_die(data["m"], data["n_max"], data["N_max"]).entries
    cells = (
        ("(N=%d,n=%d)" % (row["N"], n), int(printed), entries[row["N"]][n - 1],
         errata.get((row["N"], n)))
        for row in data["rows"]
        for n, printed in enumerate(row["counts"], start=1)
    )
    return _report("table1", cells)


def _verify_s22() -> VerifyReport:
    data = load_golden("s22")
    pool = consecutive_pool(tuple(data["face_counts"]))
    computed = dict(hetero_distribution(pool))
    cells = [
        ("(N=%d)" % e["N"], int(e["count"]), computed.get(e["N"], 0), None)
        for e in data["entries"]
    ]
    # sums the engines reach but the printed table lacks are mismatches too
    seen = {e["N"] for e in data["entries"]}
    cells += [("(N=%d)" % N, 0, computed[N], None) for N in sorted(set(computed) - seen)]
    return _report(
        "s22",
        cells,
        printed_total=int(data["total"]),
        computed_total=sum(computed.values()),
    )


def verify_against_paper(table_id: str) -> VerifyReport:
    """Recompute one golden table and report every disagreement."""
    if table_id == "table1":
        return _verify_table1()
    if table_id == "s22":
        return _verify_s22()
    raise ValueError("unknown golden table %r" % (table_id,))
