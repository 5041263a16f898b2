"""Byte-identical CLI stdout for a fixed set of invocations.

``tests/data/cli_golden.txt`` holds, for each invocation below, a
``$ sumways ...`` line, the exit code and everything printed on stdout.
Regenerate it only when a change of output is intended, and review the diff:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt
"""

import contextlib
import io
import pathlib
import sys

from sumways import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.txt"

INVOCATIONS = [
    "count --dice 6 --faces 6 --sum 25",
    "count --dice 3 --faces 6 --sum 2",
    "count --dice 6 --faces 6 --sum 29 --engine poly",
    "count --dice 6 --faces 6 --sum 29 --engine add-die",
    "count --dice 6 --faces 6 --sum 29 --engine lambda",
    "count --dice 6 --faces 6 --sum 29 --engine closed",
    "count --dice 2 --faces 6 --sum 7 --engine all --oracle",
    "count --dice 2 --faces 6 --sum 7 --engine all --format json",
    "count --dice 8 --faces 6 --sum 30 --engine all --format csv",
    "count --dice 190 --faces 6 --sum 665 --engine all",
    "count --dice 190 --faces 6 --sum 1000 --engine all --format json",
    "count --dice 40 --faces 20 --sum 420 --engine all",
    "count --dice 40 --faces 20 --sum 41 --engine all --format csv",
    "count --dice 1 --faces 1 --sum 1 --engine all",
    "count --dice 3 --faces 5 --sum 0 --engine all",
    "count --dice 4 --faces 3 --sum 13 --engine all",
    "count --dice 5 --faces 6 --sum 18 --oracle --oracle-budget 10",
    "count --dice 0 --faces 6 --sum 3",
    "table --faces 6 --max-dice 8 --max-sum 48",
    "table --faces 6 --max-dice 8 --max-sum 48 --format json",
    "table --faces 20 --max-dice 30 --max-sum 60 --format csv",
    "table --faces 20 --max-dice 30 --max-sum 35 --format json",
    "table --faces 1 --max-dice 3 --max-sum 3",
    "table --faces 12 --max-dice 3 --max-sum 5",
    "table --faces 6 --max-dice 1 --max-sum 8 --format json",
    "table --faces 2 --max-dice 3 --max-sum 6 --format json",
    "table --faces 0 --max-dice 3 --max-sum 3",
    "hetero --die 1..6 --die 1..8 --die 1..12",
    "hetero --die 1..6 --die 1..8 --die 1..12 --format json",
    "hetero --die 1..6 --die 1..8 --die 1..12 --format csv",
    "hetero --die 2,4 --die 3,3 --sum 7",
    "hetero --die 2,4 --die 3,3 --sum 7 --format json",
    "hetero --die 2,4 --die 3,3 --sum 7 --format csv",
    "hetero --die 0,1 --die 0,1 --sum 1",
    "hetero --sum 3",
    "polygonal-check --sides 4 --power 3 --upto 1000",
    "polygonal-check --sides 4 --power 4 --upto 1000",
    "polygonal-check --sides 3 --power 3 --upto 500",
    "polygonal-check --sides 5 --power 4 --upto 300",
    "polygonal-check --sides 3 --power 2 --upto 50",
    "polygonal-check --sides 4 --power 3 --upto 1000 --unordered",
    "polygonal-check --sides 4 --power 4 --upto 1000 --unordered",
    "polygonal-check --sides 3 --power 3 --upto 500 --unordered",
    "polygonal-check --sides 5 --power 4 --upto 300 --unordered",
    "polygonal-check --sides 3 --power 2 --upto 50 --unordered",
    "polygonal-check --sides 4 --power 1 --upto 0 --unordered",
    "polygonal-check --sides 4 --power 0 --upto 10",
    "virgins --gen 1:3 --gen 1:1 --targets 30:50",
    "virgins --gen 1:3 --gen 1:1 --targets 30:50 --list 10",
    "virgins --gen 1:3 --gen 1:1 --gen 2:1 --targets 20:30 --positive --list 100",
    "virgins --gen 1:3 --gen 1:1 --gen 2:1 --targets 20:30 --list 2",
    "verify-paper",
    "verify-paper --table all",
    "verify-paper --table table1",
    "verify-paper --table s22",
]

# Pools of unlike dice: consecutive, gapped, duplicated and zero marks, 30
# and 60 dice, each full distribution in every format.
MIXED_DICE = ("1..4", "1..6", "1..8", "1..10", "1..12", "1..20", "0,2,2,5",
              "3..5", "1,1,1,6", "2,3,5,7,11")
for k in (30, 60):
    pool = " ".join("--die " + spec for spec in (MIXED_DICE * 6)[:k])
    INVOCATIONS += ["hetero %s --format %s" % (pool, fmt) for fmt in ("plain", "json", "csv")]
# Duplicate and zero marks and a one-face die; sums 0..4 lie below the
# support 5..21, 22 past it.
ODD_POOL = "--die 0,0,3,3,3,7 --die 5 --die 0,1,1,9"
INVOCATIONS += ["hetero %s" % ODD_POOL] + [
    "hetero %s --sum %d" % (ODD_POOL, N) for N in (0, 4, 5, 9, 12, 21, 22, 1000)
]
# Every coefficient is 2^8 or 2^16: exactly one past a slot of 8 or 16 bits.
for k in (8, 16):
    INVOCATIONS += ["hetero %s" % " ".join(["--die 0,0"] * k),
                    "hetero %s --sum 0 --format csv" % " ".join(["--die 0,0"] * k)]


def run(line: str) -> str:
    """One invocation's part of the transcript."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(line.split())
    return "$ sumways %s\n[exit %d]\n%s" % (line, code, out.getvalue())


def render() -> str:
    """Run every invocation in order; the transcript the golden file holds."""
    return "".join(map(run, INVOCATIONS))


def test_cli_stdout_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


def test_reverse_replay_with_warm_memos_matches_golden():
    # Output must never depend on what earlier calls left in the engines'
    # memos: after a forward pass, every invocation replayed last to first
    # prints its golden part again.
    forward = [run(line) for line in INVOCATIONS]
    backward = [run(line) for line in reversed(INVOCATIONS)]
    assert "".join(forward) == GOLDEN.read_text(encoding="utf-8")
    assert backward[::-1] == forward


if __name__ == "__main__":
    sys.stdout.write(render())
