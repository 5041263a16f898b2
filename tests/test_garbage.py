"""No cyclic garbage from the counting engines, the enumeration or the CLI.

A call that leaves reference cycles behind makes memory grow between
collections in a long-running process. With the collector off, every
object these calls create must be freed by reference counting alone, so a
collection afterwards finds nothing.
"""

import contextlib
import gc
import io

from sumways import cli, homogeneous
from sumways.homogeneous import ENGINES, HomoQuery
from sumways.regula import LinearSystem2, rv_enumerate_solutions

CLI_CALLS = [
    "count --dice 6 --faces 6 --sum 25 --engine all",
    "count --dice 40 --faces 20 --sum 420 --engine all --format json",
    "count --dice 8 --faces 6 --sum 30 --engine all --format csv",
    "table --faces 6 --max-dice 8 --max-sum 48 --format json",
    "table --faces 6 --max-dice 8 --max-sum 48 --format csv",
    "hetero --die 1..6 --die 1..8 --die 1..12",
    "hetero --die 1..6 --die 1..8 --die 1..12 --format json",
    "hetero --die 1..6 --die 1..8 --die 1..12 --format csv",
    "hetero --die 2,4 --die 3,3 --sum 7",
    "hetero --die 2,4 --die 3,3 --sum 7 --format json",
    "hetero --die 2,4 --die 3,3 --sum 7 --format csv",
    "polygonal-check --sides 4 --power 3 --upto 300 --unordered",
    "virgins --gen 1:3 --gen 1:1 --targets 30:50 --list 10",
    "verify-paper",
]


def test_engines_and_enumeration_leave_no_cyclic_garbage():
    queries = [HomoQuery(6, 6, 25), HomoQuery(40, 20, 420), HomoQuery(3, 5, 0),
               HomoQuery(2, 6, 99)]
    systems = [(LinearSystem2(((1, 3), (1, 1)), (30, 50)), 10),
               (LinearSystem2(((1, 3), (1, 1), (2, 1)), (20, 30), "positive"), 100),
               (LinearSystem2(((1, 1), (1, 1)), (6, 6)), 3)]
    homogeneous._die_power.cache_clear()
    homogeneous._last_add_die_column.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):  # memo misses, then hits
            for q in queries:
                for engine in ENGINES.values():
                    engine(q)
            for system, cap in systems:
                rv_enumerate_solutions(system, cap)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_output_leaves_no_cyclic_garbage():
    argvs = [line.split() for line in CLI_CALLS]
    cli.build_parser()  # the shared parser is built once, outside the check
    homogeneous._die_power.cache_clear()
    homogeneous._last_add_die_column.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):  # memo misses, then hits
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
