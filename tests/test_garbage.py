"""No cyclic garbage from the counting engines or the enumeration.

A call that leaves reference cycles behind makes memory grow between
collections in a long-running process. With the collector off, every
object these calls create must be freed by reference counting alone, so a
collection afterwards finds nothing. (The JSON encoder behind
``--format json`` output is a separate source and is not covered here.)
"""

import gc

from sumways import homogeneous
from sumways.homogeneous import ENGINES, HomoQuery
from sumways.regula import LinearSystem2, rv_enumerate_solutions


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
