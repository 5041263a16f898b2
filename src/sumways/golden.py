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
value is what the engines produce. ``table1`` is compared a row at a time;
only a row that differs is walked cell by cell for its mismatches. ``s22``
is compared whole, and labelled cell by cell only when it differs.

``load_golden`` reads and parses a data file afresh for every caller, so
a caller may change what it gets. Verification reads the printed values
parsed once per process into tuples of ints, which no caller can change;
the engines still recompute every entry on every call, and nothing they
compute is kept.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

from .heterogeneous import consecutive_pool, hetero_distribution
from .homogeneous import count_table_add_die

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


def _known(table_id: str) -> str:
    """The id, if it names a shipped table."""
    if table_id not in GOLDEN_TABLE_IDS:
        raise ValueError("unknown golden table %r" % (table_id,))
    return table_id


def load_golden(table_id: str) -> dict:
    """Parsed JSON for one golden table, exactly as shipped; a new dict each call."""
    path = resources.files("sumways").joinpath("data/%s.json" % _known(table_id))
    return json.loads(path.read_text())


def _report(table_id: str, total: int, cells, **totals) -> VerifyReport:
    """Compare (label, printed, computed, corrected) cells into a report.

    ``total`` counts every entry of the table; entries not among ``cells``
    are known to match.
    """
    mismatches = tuple(
        Mismatch(label, printed, computed, corrected)
        for label, printed, computed, corrected in cells
        if computed != printed
    )
    return VerifyReport(table_id, total, total - len(mismatches), mismatches, **totals)


@functools.cache
def _table1_printed() -> tuple:
    """table1 as printed, parsed once per process: ``(m, n_max, N_max)``,
    the rows as ``(N, counts)`` pairs and the errata as ``((N, n),
    corrected)`` pairs, all tuples of ints."""
    data = load_golden("table1")
    rows = tuple((row["N"], tuple(map(int, row["counts"]))) for row in data["rows"])
    errata = tuple(
        ((e["N"], e["n"]), int(e["erratum"]["corrected"])) for e in data.get("errata", [])
    )
    return (data["m"], data["n_max"], data["N_max"]), rows, errata


@functools.cache
def _s22_printed() -> tuple:
    """s22 as printed, parsed once per process: the face counts, the
    entries as ``(N, count)`` pairs and the total, all tuples of ints."""
    data = load_golden("s22")
    entries = tuple((e["N"], int(e["count"])) for e in data["entries"])
    return tuple(data["face_counts"]), entries, int(data["total"])


def _verify_table1() -> VerifyReport:
    """Compare each printed row whole; only a row that differs is read cell by cell."""
    shape, rows, errata = _table1_printed()
    table = count_table_add_die(*shape)
    corrected = dict(errata)
    total = 0
    cells = []
    for N, printed in rows:
        total += len(printed)
        if printed != table[N]:
            cells += [
                ("(N=%d,n=%d)" % (N, n), value, table[N][n - 1], corrected.get((N, n)))
                for n, value in enumerate(printed, start=1)
            ]
    return _report("table1", total, cells)


def _verify_s22() -> VerifyReport:
    """Compare the printed entries whole; only a differing table is labelled cell by cell."""
    face_counts, entries, printed_total = _s22_printed()
    dist = hetero_distribution(consecutive_pool(face_counts))
    totals = {"printed_total": printed_total, "computed_total": sum(c for _, c in dist)}
    if tuple(dist) == entries:
        return _report("s22", len(entries), (), **totals)
    computed = dict(dist)
    cells = [("(N=%d)" % N, count, computed.get(N, 0), None) for N, count in entries]
    # sums the engines reach but the printed table lacks are mismatches too
    seen = {N for N, _ in entries}
    cells += [("(N=%d)" % N, 0, computed[N], None) for N in sorted(set(computed) - seen)]
    return _report("s22", len(cells), cells, **totals)


_VERIFIERS = {"table1": _verify_table1, "s22": _verify_s22}
GOLDEN_TABLE_IDS = tuple(_VERIFIERS)


def verify_against_paper(table_id: str) -> VerifyReport:
    """Recompute one golden table and report every disagreement."""
    return _VERIFIERS[_known(table_id)]()
