import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumways.oracle import brute_partitions
from sumways.polygonal import (
    PartSet,
    check_all_positive,
    count_partitions_with_parts,
    ordered_representation_counts,
    partition_count_grid,
    polygonal_number,
    polygonal_parts,
)


def test_polygonal_number_sequences():
    assert [polygonal_number(3, j) for j in range(8)] == [0, 1, 3, 6, 10, 15, 21, 28]
    assert [polygonal_number(4, j) for j in range(7)] == [0, 1, 4, 9, 16, 25, 36]
    assert [polygonal_number(5, j) for j in range(6)] == [0, 1, 5, 12, 22, 35]
    # first few entries follow the m-linear pattern for every polygon
    for m in range(3, 12):
        assert polygonal_number(m, 2) == m
        assert polygonal_number(m, 3) == 3 * m - 3
        assert polygonal_number(m, 4) == 6 * m - 8


def test_polygonal_number_validation():
    with pytest.raises(ValueError):
        polygonal_number(2, 3)
    with pytest.raises(ValueError):
        polygonal_number(3, -1)
    with pytest.raises(ValueError):
        ordered_representation_counts(2, 1, 10)
    with pytest.raises(ValueError):
        ordered_representation_counts(3, 1, -1)


def test_series_windows():
    s = ordered_representation_counts(3, 1, 10)
    assert [e for e, c in enumerate(s) if c] == [0, 1, 3, 6, 10]
    assert len(s) == 10 + 1
    s = ordered_representation_counts(4, 1, 9)
    assert [e for e, c in enumerate(s) if c] == [0, 1, 4, 9]
    s = ordered_representation_counts(7, 1, 0)
    assert s == [1]


def test_ordered_counts_small():
    cubes = ordered_representation_counts(3, 3, 12)
    assert cubes[0] == 1
    # 5 = 1+1+3 in three ordered ways; the oracle agrees and freezes it
    parts = polygonal_parts(3, 12)
    assert brute_partitions(parts, 3, 5, ordered=True) == 3
    assert cubes[5] == 3
    fourth = ordered_representation_counts(4, 4, 16)
    assert brute_partitions(polygonal_parts(4, 16), 4, 7, ordered=True) == 4
    assert fourth[7] == 4
    # the counts are a plain list of bound + 1 entries; a trailing zero stays
    squares_cubed = ordered_representation_counts(4, 3, 7)
    assert type(squares_cubed) is list
    assert squares_cubed == [1, 3, 3, 1, 3, 6, 3, 0]
    with pytest.raises(ValueError):
        ordered_representation_counts(3, 0, 10)


def test_ordered_counts_refuse_an_unindexable_bound_at_once():
    # bound + 1 counts past sys.maxsize: refused before the 1.4 * 10**15
    # triangular numbers up to 10**30 are listed
    with pytest.raises(ValueError, match="bound of 100 bits, cannot be indexed"):
        ordered_representation_counts(3, 2, 10**30)


def test_ordered_counts_match_oracle():
    for m in (3, 4, 5):
        for k in (1, 2, 3):
            bound = 40
            power = ordered_representation_counts(m, k, bound)
            parts = polygonal_parts(m, bound)
            for N in range(bound + 1):
                assert power[N] == brute_partitions(
                    parts, k, N, ordered=True
                ), (m, k, N)


def test_check_all_positive():
    assert check_all_positive([1, 1, 1], 2) is None
    assert check_all_positive([1, 0, 1], 2) == 1
    assert check_all_positive([0], 0) == 0
    squares_cubed = ordered_representation_counts(4, 3, 100)
    assert check_all_positive(squares_cubed, 100) == 7
    assert check_all_positive(ordered_representation_counts(4, 3, 1000), 1000) == 7
    triangles_cubed = ordered_representation_counts(3, 3, 500)
    assert check_all_positive(triangles_cubed, 500) is None


def test_check_all_positive_window_guard():
    counts = [1, 1, 1, 1, 1, 1]
    assert check_all_positive(counts, len(counts) - 1) is None
    with pytest.raises(ValueError):
        check_all_positive(counts, len(counts))
    with pytest.raises(ValueError):
        check_all_positive(counts, -1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=20).flatmap(
    lambda counts: st.tuples(st.just(counts), st.integers(0, len(counts) - 1))))
@example(([1, 1, 0], 1))
@example(([1, 1, 0], 2))
@example(([0], 0))
def test_check_all_positive_matches_plain_scan(window):
    # a 0/1 list and an upto inside it: the C-speed scan must stop exactly
    # where a plain scan of 0..upto does
    counts, upto = window
    expect = next((e for e in range(upto + 1) if counts[e] == 0), None)
    assert check_all_positive(counts, upto) == expect


def test_partset_validation():
    with pytest.raises(ValueError):
        PartSet(())
    with pytest.raises(ValueError):
        PartSet((3, 1))
    with pytest.raises(ValueError):
        PartSet((1, 1))
    with pytest.raises(ValueError):
        PartSet((-1, 2))
    # a part that is not an int is refused even when it is nonnegative
    with pytest.raises(ValueError, match="parts must be nonnegative ints"):
        PartSet((0, 1.5))
    assert polygonal_parts(3, 10).parts == (0, 1, 3, 6, 10)
    assert PartSet(polygonal_parts(3, 10).parts[1:]).parts == (1, 3, 6, 10)


def test_partition_count_grid_checks_its_bounds():
    # the lattice kernel checks nothing; this public door refuses bad
    # bounds, and count_partitions_with_parts enters through it
    parts = polygonal_parts(3, 10)
    for k, N, message in ((-1, 5, "k must"), (2, -1, "N must"), (2.5, 5, "k must")):
        with pytest.raises(ValueError, match=message):
            partition_count_grid(parts, k, N)
        with pytest.raises(ValueError, match=message):
            count_partitions_with_parts(parts, k, N)
    # refused before a window of 10**7 counts is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="k must be nonnegative"):
            partition_count_grid(parts, -1, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_partition_counts_small():
    parts = polygonal_parts(3, 10)
    assert count_partitions_with_parts(parts, 3, 5) == 1  # {1, 1, 3}
    assert count_partitions_with_parts(parts, 0, 0) == 1
    assert count_partitions_with_parts(parts, 0, 3) == 0
    # a single repeatable part
    assert count_partitions_with_parts(PartSet((2,)), 3, 6) == 1
    assert count_partitions_with_parts(PartSet((2,)), 3, 5) == 0
    # zero padding creates distinct multisets
    with_zero = count_partitions_with_parts(polygonal_parts(3, 6), 3, 6)
    without = count_partitions_with_parts(PartSet(polygonal_parts(3, 6).parts[1:]), 3, 6)
    assert with_zero > without


def test_partition_counts_match_oracle():
    for m in (3, 4):
        parts = polygonal_parts(m, 30)
        for k in (1, 2, 3, 4):
            for N in range(0, 31):
                assert count_partitions_with_parts(parts, k, N) == brute_partitions(
                    parts, k, N, ordered=False
                ), (m, k, N)


def test_partition_grid_shape():
    grid = partition_count_grid(polygonal_parts(3, 8), 3, 8)
    assert len(grid) == 4
    assert all(len(col) == 9 for col in grid)
    assert grid[0][0] == 1


def test_positivity_readings_agree():
    # ordered k-tuples with zeros allowed exist exactly when some k-multiset
    # (zero included as a part) exists
    for m in (3, 4, 5):
        for k in (2, 3, 4):
            bound = 60
            power = ordered_representation_counts(m, k, bound)
            parts = polygonal_parts(m, bound)
            for N in range(bound + 1):
                ordered_pos = power[N] > 0
                unordered_pos = count_partitions_with_parts(parts, k, N) > 0
                assert ordered_pos == unordered_pos, (m, k, N)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(1, 15), min_size=1, max_size=5), st.booleans(),
       st.integers(0, 4), st.integers(0, 12))
@example({1}, True, 4, 0)
@example({13, 14}, False, 2, 12)
@example({2, 3}, True, 0, 5)
def test_partition_grid_matches_brute_force(nonzero, with_zero, k, N):
    parts = PartSet(tuple(sorted(nonzero | {0} if with_zero else nonzero)))
    expect = [[brute_partitions(parts, j, n, ordered=False) for n in range(N + 1)]
              for j in range(k + 1)]
    assert partition_count_grid(parts, k, N) == expect
    assert count_partitions_with_parts(parts, k, N) == expect[k][N]
