import random
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumways.oracle import brute_regula
from sumways.regula import LinearSystem2, rv_count_solutions, rv_enumerate_solutions


def test_system_validation():
    with pytest.raises(ValueError):
        LinearSystem2((), (3, 3))
    with pytest.raises(ValueError):
        LinearSystem2(((0, 0),), (3, 3))
    with pytest.raises(ValueError):
        LinearSystem2(((1, -1),), (3, 3))
    with pytest.raises(ValueError):
        LinearSystem2(((1, 1),), (-1, 3))
    with pytest.raises(ValueError):
        LinearSystem2(((1, 1),), (3, 3), "weird")


def test_count_single_generator():
    assert rv_count_solutions(LinearSystem2(((1, 1),), (3, 3))) == 1
    assert rv_count_solutions(LinearSystem2(((1, 1),), (3, 4))) == 0
    assert rv_count_solutions(LinearSystem2(((2, 3),), (4, 6))) == 1
    assert rv_count_solutions(LinearSystem2(((2, 3),), (4, 5))) == 0


def test_count_classic_shape():
    # x + y = 6 and 3x + y = 10 has the single solution x=2, y=4
    sys = LinearSystem2(((1, 3), (1, 1)), (6, 10))
    assert rv_count_solutions(sys) == 1
    assert rv_enumerate_solutions(sys, 10) == ([(2, 4)], False)


def test_zero_targets():
    sys = LinearSystem2(((1, 2), (2, 1)), (0, 0))
    assert rv_count_solutions(sys) == 1  # the empty assignment
    assert rv_enumerate_solutions(sys, 5) == ([(0, 0)], False)
    pos = LinearSystem2(((1, 2), (2, 1)), (0, 0), "positive")
    assert rv_count_solutions(pos) == 0


def test_positive_mode_shifts():
    ns = LinearSystem2(((1, 1), (1, 2)), (5, 7))
    pos = LinearSystem2(((1, 1), (1, 2)), (5, 7), "positive")
    assert rv_count_solutions(ns) == brute_regula(ns)
    assert rv_count_solutions(pos) == brute_regula(pos)
    assert rv_count_solutions(pos) <= rv_count_solutions(ns)
    # infeasible shift reports 0, no exception
    tight = LinearSystem2(((3, 1), (4, 1)), (5, 5), "positive")
    assert rv_count_solutions(tight) == 0


def test_enumeration_lexicographic_and_complete():
    sys = LinearSystem2(((1, 0), (0, 1)), (2, 2))
    sols, truncated = rv_enumerate_solutions(sys, 100)
    assert not truncated
    assert sols == [(2, 2)]
    sys = LinearSystem2(((1, 1), (1, 1)), (4, 4))
    sols, truncated = rv_enumerate_solutions(sys, 100)
    assert sols == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    assert sols == sorted(sols)
    assert not truncated
    assert rv_count_solutions(sys) == 5


def test_enumeration_cap():
    sys = LinearSystem2(((1, 1), (1, 1)), (6, 6))
    sols, truncated = rv_enumerate_solutions(sys, 3)
    assert truncated
    assert sols == [(0, 6), (1, 5), (2, 4)]
    sols, truncated = rv_enumerate_solutions(sys, 7)
    assert not truncated
    assert len(sols) == 7
    sols, truncated = rv_enumerate_solutions(sys, 0)
    assert truncated and sols == []


def test_generator_order_irrelevant_for_count():
    rng = random.Random(31)
    for _ in range(10):
        gens = []
        while len(gens) < 3:
            g = (rng.randint(0, 4), rng.randint(0, 4))
            if g != (0, 0):
                gens.append(g)
        targets = (rng.randint(0, 12), rng.randint(0, 12))
        counts = {
            rv_count_solutions(LinearSystem2(tuple(p), targets))
            for p in permutations(gens)
        }
        assert len(counts) == 1


def test_random_systems_match_brute_force():
    rng = random.Random(32)
    for _ in range(60):
        k = rng.randint(1, 4)
        gens = []
        while len(gens) < k:
            g = (rng.randint(0, 5), rng.randint(0, 5))
            if g != (0, 0):
                gens.append(g)
        targets = (rng.randint(0, 20), rng.randint(0, 20))
        for mode in ("nonnegative", "positive"):
            sys = LinearSystem2(tuple(gens), targets, mode)
            assert rv_count_solutions(sys) == brute_regula(sys), (gens, targets, mode)


def test_count_matches_enumeration_length():
    rng = random.Random(33)
    for _ in range(25):
        k = rng.randint(1, 3)
        gens = []
        while len(gens) < k:
            g = (rng.randint(0, 4), rng.randint(0, 4))
            if g != (0, 0):
                gens.append(g)
        sys = LinearSystem2(tuple(gens), (rng.randint(0, 15), rng.randint(0, 15)))
        sols, truncated = rv_enumerate_solutions(sys, 10_000)
        assert not truncated
        assert len(sols) == rv_count_solutions(sys)
        assert len(set(sols)) == len(sols)


def test_two_nonsingular_generators_at_most_one_solution():
    coeffs = range(0, 4)
    for a1, b1, a2, b2 in product(coeffs, repeat=4):
        if (a1, b1) == (0, 0) or (a2, b2) == (0, 0):
            continue
        if a1 * b2 - a2 * b1 == 0:
            continue
        for targets in ((5, 7), (12, 4), (9, 9)):
            for mode in ("nonnegative", "positive"):
                sys = LinearSystem2(((a1, b1), (a2, b2)), targets, mode)
                assert rv_count_solutions(sys) <= 1, (a1, b1, a2, b2, targets, mode)


def brute_solutions(sys):
    """Every solution in lexicographic order, by nested loops over each
    variable's full range."""
    n, v = sys.targets
    lo = 1 if sys.mode == "positive" else 0
    ranges = [range(lo, max(n, v) + 1) for _ in sys.generators]
    return [xs for xs in product(*ranges)
            if sum(a * x for (a, _), x in zip(sys.generators, xs)) == n
            and sum(b * x for (_, b), x in zip(sys.generators, xs)) == v]


generators = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda g: g != (0, 0))


@settings(max_examples=80, deadline=None)
@given(st.lists(generators, min_size=1, max_size=3), st.integers(0, 9), st.integers(0, 9),
       st.sampled_from(("nonnegative", "positive")), st.integers(0, 12))
@example([(0, 1)], 0, 3, "nonnegative", 5)
@example([(2, 0), (1, 1)], 4, 1, "positive", 0)
@example([(1, 1), (1, 1)], 6, 6, "nonnegative", 7)
def test_enumeration_matches_brute_force_under_any_cap(gens, n, v, mode, cap):
    sys = LinearSystem2(tuple(gens), (n, v), mode)
    every = brute_solutions(sys)
    sols, truncated = rv_enumerate_solutions(sys, cap)
    assert sols == every[:cap]
    assert truncated == (len(every) > cap)
