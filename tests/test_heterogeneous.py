import inspect
import random
import textwrap
import tracemalloc
from collections import Counter
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumways import heterogeneous
from sumways.heterogeneous import (
    DicePool,
    MarkedDie,
    _merged_numerator,
    consecutive_pool,
    hetero_count_closed_form,
    hetero_count_product,
    hetero_distribution,
)
from sumways.homogeneous import HomoQuery, count_poly
from sumways.oracle import brute_dice

from test_series import schoolbook


def test_die_validation():
    with pytest.raises(ValueError):
        MarkedDie(())
    for marks in ((1, -2), (1, 2.0), (1, "2"), (3, -1)):
        with pytest.raises(ValueError, match="marks must be nonnegative ints"):
            MarkedDie(marks)
    # bool is an int subclass, and an int subclass is an int
    assert MarkedDie((True, 2)).marks == (True, 2)
    # a range is checked by its two ends, whichever way it steps
    assert MarkedDie(range(0, 10**18)).marks == range(0, 10**18)
    for marks in (range(-1, 10**18), range(10**18, -2, -1)):
        with pytest.raises(ValueError, match="marks must be nonnegative ints"):
            MarkedDie(marks)
    with pytest.raises(ValueError, match="at least one face"):
        MarkedDie(range(3, 3))
    # a range too long for len() is refused, not left to overflow later
    with pytest.raises(ValueError, match="too many faces"):
        MarkedDie(range(0, 10**19 + 1))
    with pytest.raises(ValueError):
        DicePool(())


def test_product_known_values():
    pool = consecutive_pool((6, 8, 12))
    assert hetero_count_product(pool, 14) == 47
    assert hetero_count_product(pool, 3) == 1
    assert hetero_count_product(pool, 26) == 1
    assert hetero_count_product(pool, 2) == 0
    assert hetero_count_product(pool, 27) == 0
    single = DicePool((MarkedDie((5,)),))
    assert hetero_count_product(single, 5) == 1
    assert hetero_count_product(single, 4) == 0


def test_duplicate_and_zero_marks():
    pool = DicePool((MarkedDie((3, 3)),))
    assert hetero_count_product(pool, 3) == 2
    pool = DicePool((MarkedDie((0, 1)), MarkedDie((0, 1))))
    assert hetero_count_product(pool, 0) == 1
    assert hetero_count_product(pool, 1) == 2


def test_distribution_small():
    pool = DicePool((MarkedDie((2, 4)),))
    assert hetero_distribution(pool) == [(2, 1), (4, 1)]
    pool = consecutive_pool((6, 8, 12))
    dist = hetero_distribution(pool)
    assert dist[0] == (3, 1)
    assert dist[-1] == (26, 1)
    assert len(dist) == 24
    assert sum(c for _, c in dist) == 576 == pool.outcome_count


def test_numerator_terms_structure():
    terms = _merged_numerator((6, 8, 12), 26)
    assert len(terms) == 8
    assert sum(terms.values()) == 0
    # multiplying out explicitly must give the same signed polynomial
    explicit = (1,)
    for m in (6, 8, 12):
        explicit = schoolbook(explicit, [1] + [0] * (m - 1) + [-1])
    assert [terms.get(e, 0) for e in range(len(explicit))] == list(explicit)
    assert sorted(terms) == [0, 6, 8, 12, 14, 18, 20, 26]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=20))
@example([6, 6, 6])
@example([30] * 20)
def test_numerator_equals_schoolbook_product(faces):
    # the dense expansion against the explicit product of its factors
    explicit = (1,)
    for m in faces:
        explicit = schoolbook(explicit, [1] + [0] * (m - 1) + [-1])
    expect = {e: c for e, c in enumerate(explicit) if c}
    assert _merged_numerator(tuple(faces), sum(faces)) == expect


def test_closed_form_known_values():
    assert hetero_count_closed_form((6, 8, 12), 14) == 47
    assert hetero_count_closed_form((6, 8, 12), 26) == 1
    assert hetero_count_closed_form((6, 8, 12), 3) == 1
    assert hetero_count_closed_form((6, 8, 12), 2) == 0
    assert hetero_count_closed_form((6, 8, 12), 40) == 0
    assert hetero_count_closed_form((4,), 4) == 1
    assert hetero_count_closed_form((4,), 5) == 0
    with pytest.raises(ValueError):
        hetero_count_closed_form((), 3)
    with pytest.raises(ValueError, match="target sum must be nonnegative"):
        hetero_count_closed_form((6,), -1)
    # a bad face count anywhere in the tuple is refused
    for faces in ((6, 0), (6, -1), (6, 2.0), (0, 6), (-1, 6), (2.0, 6)):
        with pytest.raises(ValueError, match="face counts must be positive ints"):
            hetero_count_closed_form(faces, 3)


def test_closed_form_equals_product_everywhere():
    rng = random.Random(21)
    for _ in range(25):
        faces = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
        pool = consecutive_pool(faces)
        top = sum(faces)
        for N in range(0, top + 2):
            assert hetero_count_closed_form(faces, N) == hetero_count_product(
                pool, N
            ), (faces, N)


def test_closed_form_thirty_dice():
    # 2^30 unmerged numerator terms; merged after each factor there are at
    # most sum(faces) + 1
    faces = tuple(range(1, 31))
    pool = consecutive_pool(faces)
    top = sum(faces)
    for N in (0, 29, 30, 31, 100, top // 2, top // 2 + 31, top - 1, top, top + 1):
        assert hetero_count_closed_form(faces, N) == hetero_count_product(
            pool, N
        ), N


def test_closed_form_expands_only_up_to_the_sum_asked_for():
    # a factor with more faces than the sum can reach is 1 below it
    tracemalloc.start()
    try:
        count = hetero_count_closed_form((10**6, 6), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 4
    assert peak < 1024 * 1024  # the whole numerator would take about 32 MB
    assert hetero_count_closed_form((10**9, 10**9, 10**9), 10) == 36
    assert hetero_count_closed_form((10**9, 6), 5) == 4
    # below k dice nothing is expanded, but every face count is still checked
    assert hetero_count_closed_form((10**9, 6), 1) == 0
    for faces in ((6, 0), (0, 6), (2.0, 6)):
        with pytest.raises(ValueError, match="face counts must be positive ints"):
            hetero_count_closed_form(faces, 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=20), st.data())
def test_closed_form_equals_product_on_random_pools(faces, data):
    # two independent routes: signed binomials against the packed product,
    # at sums from below the support to past it
    faces = tuple(faces)
    pool = consecutive_pool(faces)
    dist = dict(hetero_distribution(pool))
    sums = st.integers(0, sum(faces) + 2)
    for N in data.draw(st.lists(sums, min_size=1, max_size=6)):
        closed = hetero_count_closed_form(faces, N)
        assert closed == hetero_count_product(pool, N) == dist.get(N, 0), N


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=12), st.integers(0, 400))
@example([6, 8, 12], 23)
@example([1], 0)
def test_closed_form_folds_a_sum_to_its_mirror(faces, at):
    # a sum and its mirror equal the product, and each expands the
    # numerator only up to the lower of the two; past the top reads 0
    faces = tuple(faces)
    k, top = len(faces), sum(faces)
    N = k + at % (top - k + 1)
    pool = consecutive_pool(faces)
    limits = []
    real = heterogeneous._merged_numerator

    def spy(face_counts, limit):
        limits.append(limit)
        return real(face_counts, limit)

    with mock.patch.object(heterogeneous, "_merged_numerator", spy):
        for total in (N, k + top - N):
            count = hetero_count_closed_form(faces, total)
            assert count == hetero_count_product(pool, total) > 0, total
        assert hetero_count_closed_form(faces, top + 1 + at) == 0
    lower = min(N, k + top - N) - k
    assert limits == [lower, lower, -1 - at]


def test_matches_homogeneous_engines():
    for n in (1, 2, 3):
        for m in (2, 5, 6):
            pool = consecutive_pool((m,) * n)
            for N in range(0, m * n + 2):
                assert hetero_count_product(pool, N) == count_poly(HomoQuery(n, m, N))


def routed_distribution(pool):
    """Every sum's count by a route that shares no code with the mirror: the
    closed form for dice marked 1..m, the oracle for any other pool."""
    faces = [len(d.marks) for d in pool.dice]
    if all(d.marks == range(1, m + 1) for d, m in zip(pool.dice, faces)):
        count = partial(hetero_count_closed_form, tuple(faces))
    else:
        count = partial(brute_dice, pool)
    top = sum(max(d.marks) for d in pool.dice)
    return {N: c for N in range(top + 2) if (c := count(N))}


def symmetric_die(rng):
    """Random marks that pair up, first with last and so on, to one sum."""
    pair = rng.randint(0, 9)
    half = [rng.randint(0, pair) for _ in range(rng.randint(1, 3))]
    middle = [pair // 2] if pair % 2 == 0 and rng.random() < 0.5 else []
    marks = half + middle + [pair - v for v in half]
    rng.shuffle(marks)
    return tuple(marks)


def distribution_cases():
    """Pools for the mirror: dice marked 1..m, symmetric tuple dice, stepped
    and reversed ranges, and pools mixing symmetric and asymmetric dice."""
    rng = random.Random(22)
    pools = [consecutive_pool(tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 4))))
             for _ in range(20)]
    specs = [
        # symmetric tuple dice, low = 0 among them
        [(0, 1, 1, 2)], [(3, 3)], [(0, 1, 1, 2), (3, 3)], [(0, 2, 4), (1, 4, 6, 9)],
        # stepped and reversed ranges
        [range(0, 12, 3), range(9, 0, -2)], [range(9, 0, -2), range(2, 5), (0, 1, 1, 2)],
        # odd (2..12) and even (2..11) support lengths
        [range(1, 7), range(1, 7)], [range(1, 7), range(1, 6)],
        # single-face pools, at 0 and above it
        [(0,)], [(5,)], [range(4, 5), (7,)], [range(1, 2)] * 3,
        # symmetric and asymmetric dice mixed, low = 0 too
        [(0, 1, 5), range(1, 4)], [(0, 1, 1, 2), (0, 1, 5)], [range(0, 4), (2, 3, 3)],
        [(0, 0, 1)], [(3, 3), (1, 2, 2)],
    ]
    pools += [DicePool(tuple(map(MarkedDie, dice))) for dice in specs]
    pools += [DicePool(tuple(MarkedDie(symmetric_die(rng)) for _ in range(rng.randint(1, 3))))
              for _ in range(20)]
    return pools


def mirror_failures(distribution):
    """The pools on which ``distribution`` disagrees with the routed counts."""
    return [pool for pool in distribution_cases()
            if dict(distribution(pool)) != routed_distribution(pool)]


def test_distribution_total_and_symmetry(monkeypatch):
    # every sum of every case equals the routed count, and a pool whose
    # dice all equal their reflection v -> least + greatest - v is
    # expanded to the midpoint of its support only, any other pool to its
    # top, each as one product of the pool's {marks: copies} shapes
    calls = []
    real = heterogeneous.marks_product

    def spy(shapes, bound):
        calls.append((dict(shapes), bound))
        return real(shapes, bound)

    monkeypatch.setattr(heterogeneous, "marks_product", spy)
    assert mirror_failures(hetero_distribution) == []
    cases = distribution_cases()
    assert len(calls) == len(cases)
    mirrored = 0
    for pool, (shapes, bound) in zip(cases, calls):
        assert shapes == Counter(d.marks for d in pool.dice), pool
        ends = [(min(d.marks), max(d.marks)) for d in pool.dice]
        low, top = sum(lo for lo, _ in ends), sum(hi for _, hi in ends)
        if all(sorted(lo + hi - v for v in d.marks) == sorted(d.marks)
               for d, (lo, hi) in zip(pool.dice, ends)):
            assert bound == (low + top) // 2, pool
            mirrored += 1
        else:
            assert bound == top, pool
        assert sum(routed_distribution(pool).values()) == pool.outcome_count
    assert mirrored >= 40 and len(cases) - mirrored >= 5


def test_a_mirror_shifted_by_one_fails_the_distribution_check():
    # a seeded mutant: the upper half read one sum too high, in
    # hetero_counts, seen through a hetero_distribution that calls it
    source = textwrap.dedent(inspect.getsource(heterogeneous.hetero_counts))
    mirror = "counts[: top - mid]"
    assert source.count(mirror) == 1
    namespace = dict(vars(heterogeneous))
    exec(source.replace(mirror, "counts[1 : 1 + top - mid]"), namespace)
    exec(textwrap.dedent(inspect.getsource(heterogeneous.hetero_distribution)), namespace)
    assert namespace["hetero_counts"] is not heterogeneous.hetero_counts
    assert len(mirror_failures(namespace["hetero_distribution"])) >= 20


def test_distribution_refuses_a_list_it_cannot_index():
    pool = DicePool((MarkedDie((1, 10**30)), MarkedDie((2, 3))))
    with pytest.raises(ValueError, match="distribution of top-low\\+1 counts, top-low of 100 bits"):
        hetero_distribution(pool)
    assert hetero_count_product(pool, 5) == 0


def test_product_agrees_with_oracle_on_odd_pools():
    rng = random.Random(23)
    for _ in range(15):
        dice = tuple(
            MarkedDie(tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 6))))
            for _ in range(rng.randint(1, 4))
        )
        pool = DicePool(dice)
        top = sum(max(d.marks) for d in dice)
        for N in range(0, top + 2):
            assert hetero_count_product(pool, N) == brute_dice(pool, N), (dice, N)


die_ranges = st.builds(
    range, st.integers(0, 12), st.integers(0, 12), st.integers(-3, 3).filter(bool)
).filter(len)


@settings(max_examples=100, deadline=None)
@given(st.lists(die_ranges, min_size=1, max_size=3), st.lists(st.integers(0, 40), max_size=4))
@example([range(1, 7), range(1, 9)], [9, 14])
@example([range(0, 12, 3), range(9, 0, -2), range(2, 5)], [0, 7, 13])
def test_range_die_counts_as_its_marks(ranges, sums):
    # a die kept as a range, of any step, counts as the tuple of its marks
    as_range = DicePool(tuple(MarkedDie(r) for r in ranges))
    as_tuple = DicePool(tuple(MarkedDie(tuple(r)) for r in ranges))
    assert hetero_distribution(as_range) == hetero_distribution(as_tuple)
    for N in sums:
        want = brute_dice(as_tuple, N)
        assert brute_dice(as_range, N) == want
        assert hetero_count_product(as_range, N) == hetero_count_product(as_tuple, N) == want


def reflects(marks):
    """Whether the marks equal their reflection v -> least + greatest - v."""
    ends = min(marks) + max(marks)
    return sorted(ends - v for v in marks) == sorted(marks)


# Symmetric dice (ranges of any step, and marks paired to one sum) and
# asymmetric ones, drawn into pools of one kind or mixed.
symmetric_marks = st.one_of(
    die_ranges,
    st.integers(0, 9).flatmap(lambda pair: st.lists(
        st.integers(0, pair), min_size=1, max_size=3
    ).map(lambda half: tuple(half + [pair - v for v in half]))),
)
asymmetric_marks = st.lists(st.integers(0, 9), min_size=2, max_size=5).map(tuple).filter(
    lambda marks: not reflects(marks))
pools_of_every_kind = st.one_of(
    st.lists(symmetric_marks, min_size=1, max_size=4),
    st.lists(asymmetric_marks, min_size=1, max_size=3),
    st.lists(st.one_of(symmetric_marks, asymmetric_marks), min_size=2, max_size=4),
)


@settings(max_examples=120, deadline=None)
@given(pools_of_every_kind, st.integers(0, 60))
@example([range(1, 7), range(1, 9)], 9)
@example([(0, 1, 1, 2), (3, 3), range(9, 0, -2)], 9)
@example([(0, 1, 5), range(1, 4)], 6)
@example([(0, 0, 1), (2, 3, 3), (1, 2, 2)], 2)
@example([(0, 1, 5), (5, 4, 0), (0, 1, 5)], 2)
def test_a_sum_and_its_mirror_match_the_oracle(dice, at):
    # on both halves of the support; every pool, symmetric or not, expands
    # only up to the lower of a sum and its mirror, a sum above the midpoint
    # on the pool with each die reflected, v -> least + greatest - v (two
    # dice that reflect onto each other swap their copies)
    pool = DicePool(tuple(map(MarkedDie, dice)))
    low = sum(min(marks) for marks in dice)
    top = sum(max(marks) for marks in dice)
    N = low + at % (top - low + 1)
    bounds = []
    real = heterogeneous.marks_product

    def spy(shapes, bound):
        bounds.append(bound)
        return real(shapes, bound)

    with mock.patch.object(heterogeneous, "marks_product", spy):
        for total in (N, low + top - N):
            bounds.clear()
            assert hetero_count_product(pool, total) == brute_dice(pool, total), total
            assert bounds == [min(total, low + top - total)], total

