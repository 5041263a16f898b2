import inspect
import itertools
import math
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import clear_memos
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumways import homogeneous
from sumways.heterogeneous import consecutive_pool
from sumways.homogeneous import (
    ENGINES,
    HomoQuery,
    count_add_die,
    count_closed_form,
    count_lambda_recurrence,
    count_poly,
    count_table_add_die,
    lambda_recurrence_trace,
)
from sumways.oracle import brute_dice

ALL_ENGINES = list(ENGINES.values())


def counts_by_all_engines(n, m, N):
    return [engine(HomoQuery(n, m, N)) for engine in ALL_ENGINES]


def test_query_validation():
    with pytest.raises(ValueError):
        HomoQuery(0, 6, 3)
    with pytest.raises(ValueError):
        HomoQuery(2, 0, 3)
    with pytest.raises(ValueError):
        HomoQuery(2, 6, -1)


def test_count_poly_known_values():
    assert count_poly(HomoQuery(6, 6, 25)) == 2856
    assert count_poly(HomoQuery(1, 6, 7)) == 0
    assert count_poly(HomoQuery(6, 6, 6)) == 1
    assert count_poly(HomoQuery(6, 6, 36)) == 1
    assert count_poly(HomoQuery(3, 6, 0)) == 0


def test_add_die_table_values():
    table = count_table_add_die(6, 8, 36)
    assert table[18][5 - 1] == 780
    assert table[36][8 - 1] == 36688
    assert table[26][8 - 1] == 125588
    assert table[6][1 - 1] == 1
    assert table[7][1 - 1] == 0
    assert count_add_die(HomoQuery(5, 6, 18)) == 780


def test_add_die_cuts_faces_past_its_window():
    # a face past the window reaches no kept sum; 10^30 faces build no run of zeros
    assert count_add_die(HomoQuery(3, 10**30, 5)) == 6
    assert count_table_add_die(10**30, 2, 3) == count_table_add_die(3, 2, 3)


def test_expanding_engines_read_a_sum_below_the_support_without_expanding():
    # and a sum above it: neither engine expands for a sum outside n..n*m
    queries = [
        # 10**30 dice cannot sum to 5; an expansion would multiply out 6^n
        HomoQuery(10**30, 6, 5),
        # 2 dice of 10**4 faces cannot sum to 10**6; an expansion would
        # build the whole support of 2 * 10**4 counts and read past its end
        HomoQuery(2, 10**4, 10**6),
    ]
    clear_memos()
    for q, engine in itertools.product(queries, (count_poly, count_add_die)):
        tracemalloc.start()
        try:
            count = engine(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 0, (q, engine)
        assert peak < 64 * 1024, (q, engine)
    for memo in EXPANSIONS:
        assert memo.cache_info().misses == 0


def test_table_one_face():
    table = count_table_add_die(1, 3, 3)
    for N in range(1, 4):
        for n in range(1, 4):
            assert table[N][n - 1] == (1 if N == n else 0)


def test_table_validation():
    with pytest.raises(ValueError):
        count_table_add_die(0, 2, 5)
    with pytest.raises(ValueError):
        count_table_add_die(6, 0, 5)
    with pytest.raises(ValueError):
        count_table_add_die(6, 2, 0)
    # rows N = 0..N_max
    assert len(count_table_add_die(6, 2, 12)) == 13


def test_lambda_known_values():
    assert count_lambda_recurrence(HomoQuery(6, 6, 25)) == 2856
    assert count_lambda_recurrence(HomoQuery(6, 6, 29)) == 756
    assert count_lambda_recurrence(HomoQuery(4, 6, 3)) == 0
    assert count_lambda_recurrence(HomoQuery(4, 6, 4)) == 1


def test_lambda_negative_count_raises(monkeypatch):
    # a recurrence that ends below zero must raise even under python -O
    def bad_walk(n, m, walk, to, steps=None):
        return to, [-1]

    monkeypatch.setattr(homogeneous, "_lambda_walk", bad_walk)
    with pytest.raises(homogeneous.DivisibilityError, match="negative count -1"):
        count_lambda_recurrence(HomoQuery(2, 6, 3))


def test_lambda_past_support_takes_no_step(monkeypatch):
    def no_walk(n, m, walk, to, steps=None):
        raise AssertionError("walked the recurrence past the support")

    monkeypatch.setattr(homogeneous, "_lambda_walk", no_walk)
    assert count_lambda_recurrence(HomoQuery(2, 6, 10**6)) == 0
    assert count_lambda_recurrence(HomoQuery(2, 6, 13)) == 0
    assert count_lambda_recurrence(HomoQuery(2, 6, 1)) == 0


def test_lambda_trace_past_support_takes_no_step():
    # a walk to 10**9 would build a LambdaStep per offset and take minutes
    tracemalloc.start()
    try:
        traces = [lambda_recurrence_trace(HomoQuery(2, 6, N)) for N in (10**9, 13)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traces == [[], []]
    assert peak < 64 * 1024, peak


def test_lambda_count_builds_no_steps(monkeypatch):
    # the count walks the recurrence without recording it; only the trace
    # builds a LambdaStep per step
    def no_step(*fields):
        raise AssertionError("the count built a LambdaStep")

    monkeypatch.setattr(homogeneous, "LambdaStep", no_step)
    for q in (HomoQuery(6, 6, 25), HomoQuery(190, 6, 665), HomoQuery(7, 1, 7)):
        assert count_lambda_recurrence(q) == count_closed_form(q)
    with pytest.raises(AssertionError, match="built a LambdaStep"):
        lambda_recurrence_trace(HomoQuery(6, 6, 25))


def test_lambda_trace_final_steps():
    # the two documented worked divisions: 54264/19 and 17388/23
    trace = lambda_recurrence_trace(HomoQuery(6, 6, 25))
    assert trace[-1].lam == 19
    assert trace[-1].numerator == 54264
    assert trace[-1].value == 2856
    trace = lambda_recurrence_trace(HomoQuery(6, 6, 29))
    assert trace[-1].lam == 23
    assert trace[-1].numerator == 17388
    assert trace[-1].value == 756
    assert lambda_recurrence_trace(HomoQuery(3, 6, 2)) == []


def test_lambda_every_step_divides():
    for n in range(1, 7):
        for m in (1, 2, 5, 6, 7):
            for step in lambda_recurrence_trace(HomoQuery(n, m, m * n)):
                assert step.value * step.lam == step.numerator


def test_closed_form_known_values():
    assert count_closed_form(HomoQuery(6, 6, 10)) == math.comb(9, 4) == 126
    assert count_closed_form(HomoQuery(6, 6, 25)) == 2856
    assert count_closed_form(HomoQuery(3, 6, 12)) == 25
    assert count_closed_form(HomoQuery(2, 6, 1)) == 0
    assert count_closed_form(HomoQuery(2, 6, 13)) == 0


def closed_form_reference(n, m, N):
    """The alternating binomial sum with both binomials of every term
    computed afresh by math.comb: a reference independent of the ratio
    walk."""
    lam = N - n
    if lam < 0:
        return 0
    total = 0
    for j in range(0, min(n, lam // m) + 1):
        rest = lam - j * m
        term = math.comb(n, j) * math.comb(n + rest - 1, rest)
        total += term if j % 2 == 0 else -term
    return total


@st.composite
def closed_form_queries(draw):
    n, m = draw(st.integers(1, 250)), draw(st.integers(1, 20))
    return n, m, draw(st.integers(max(n - 1, 0), n * m + 1))


@settings(max_examples=200, deadline=None)
@given(closed_form_queries())
@example((2, 3, 20))  # lam // m = 6 > n: the walk starts at j = n
@example((4, 6, 16))  # lam = 12, an exact multiple of m: rest starts at 0
@example((3, 5, 18))  # lam = 15 = n * m: both
@example((5, 1, 5))  # m = 1
@example((5, 1, 6))
@example((1, 6, 1))  # n = 1
@example((1, 6, 7))
@example((1, 1, 1))
@example((190, 6, 665))  # 2m <= n: rest is walked by ratios
@example((11, 6, 38))  # 2m > n: each step recomputes its binomial
def test_closed_form_matches_fresh_binomials(query):
    n, m, N = query
    assert count_closed_form(HomoQuery(n, m, N)) == closed_form_reference(n, m, N)


def test_engines_agree_with_each_other_and_oracle():
    for n in range(1, 5):
        for m in (1, 2, 3, 6):
            pool = consecutive_pool((m,) * n)
            for N in range(0, m * n + 3):
                values = counts_by_all_engines(n, m, N)
                assert len(set(values)) == 1, (n, m, N, values)
                assert values[0] == brute_dice(pool, N), (n, m, N)


@st.composite
def mirrored_queries(draw):
    """A shape small enough for the brute oracle and an offset in the lower
    half of its support: the sum n + lam and its mirror n*m - lam."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return n, m, draw(st.integers(0, n * (m - 1) // 2))


def assert_agree_on_both_halves(engines, n, m, lam):
    pool = consecutive_pool((m,) * n)
    for N in (n + lam, n * m - lam):
        want = brute_dice(pool, N)
        for engine in engines:
            assert engine(HomoQuery(n, m, N)) == want, (engine.__name__, n, m, N)


@settings(max_examples=100, deadline=None)
@given(mirrored_queries())
@example((3, 6, 4))  # 7 and its mirror 14, on either side of the midpoint 10.5
@example((4, 6, 10))  # the midpoint 14 itself
@example((5, 6, 12))  # 17 and 18, the two middle sums of an odd n*(m+1)
@example((6, 1, 0))  # a support of one sum
@example((1, 6, 0))
def test_every_engine_equals_the_oracle_on_both_halves(query):
    clear_memos()
    assert_agree_on_both_halves(ALL_ENGINES, *query)


@pytest.mark.parametrize("name", list(ENGINES))
def test_a_fold_off_by_one_fails_the_agreement_check(name):
    # a seeded mutant: one engine folds a sum above the midpoint one step
    # too low
    engine = ENGINES[name]
    source = textwrap.dedent(inspect.getsource(engine))
    fold = "+ 1) - q.N)"
    assert source.count(fold) == 1
    namespace = dict(vars(homogeneous))
    exec(source.replace(fold, "+ 1) - q.N - 1)"), namespace)
    mutant = namespace[engine.__name__]
    clear_memos()
    assert_agree_on_both_halves([engine], 3, 6, 4)
    with pytest.raises(AssertionError):
        assert_agree_on_both_halves([mutant], 3, 6, 4)
    clear_memos()


def test_a_sum_near_the_top_costs_what_its_mirror_does():
    # 29999998 on three dice of 10**7 faces is the mirror of 5: unfolded,
    # poly and add-die ran out of memory and λ walked for seconds
    q = HomoQuery(3, 10**7, 29999998)
    for name, engine in ENGINES.items():
        clear_memos()
        tracemalloc.start()
        try:
            count = engine(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 6, name
        assert peak < 64 * 1024, name


def test_symmetry():
    for n in range(1, 7):
        for m in (2, 3, 6):
            for lam in range(0, (m - 1) * n + 1):
                a = count_closed_form(HomoQuery(n, m, n + lam))
                b = count_closed_form(HomoQuery(n, m, m * n - lam))
                assert a == b, (n, m, lam)


def test_support_and_endpoints():
    for n in range(1, 6):
        for m in (2, 4, 6):
            assert count_poly(HomoQuery(n, m, n)) == 1
            assert count_poly(HomoQuery(n, m, m * n)) == 1
            if n > 1:
                assert count_poly(HomoQuery(n, m, n - 1)) == 0
            assert count_poly(HomoQuery(n, m, m * n + 1)) == 0


def test_column_sums():
    for m in (2, 3, 6):
        table = count_table_add_die(m, 6, m * 6)
        for n in range(1, 7):
            assert sum(row[n - 1] for row in table) == m**n


def test_prefix_regime_is_compositions():
    # before the first face can overflow, counting is plain stars and bars
    for n in range(1, 7):
        for m in (3, 6, 8):
            for lam in range(0, m):
                assert count_closed_form(HomoQuery(n, m, n + lam)) == math.comb(
                    n + lam - 1, lam
                )


# printed three-term laws for six faces; letters A..M (no J) are the counts
# at offsets 1..12 above the minimum sum. Each law reads
#   k * value(target) == sum of coef * value(lam) + const
LAWS = {
    2: [
        (2, 2, [(3, 1)], 0),
        (3, 3, [(4, 2)], 0),
        (4, 4, [(5, 3)], 0),
        (5, 5, [(6, 4)], 0),
        (6, 6, [(7, 5)], -12),
        (7, 7, [(8, 6), (-11, 1)], 10),
        (8, 8, [(9, 7), (-10, 2), (9, 1)], 0),
        (9, 9, [(10, 8), (-9, 3), (8, 2)], 0),
        (10, 10, [(11, 9), (-8, 4), (7, 3)], 0),
        (11, 11, [(12, 10), (-7, 5), (6, 4)], 0),
        (12, 12, [(13, 11), (-6, 6), (5, 5)], 0),
    ],
    3: [
        (2, 2, [(4, 1)], 0),
        (3, 3, [(5, 2)], 0),
        (4, 4, [(6, 3)], 0),
        (5, 5, [(7, 4)], 0),
        (6, 6, [(8, 5)], -18),
        (7, 7, [(9, 6), (-17, 1)], 15),
        (8, 8, [(10, 7), (-16, 2), (14, 1)], 0),
        (9, 9, [(11, 8), (-15, 3), (13, 2)], 0),
        (10, 10, [(12, 9), (-14, 4), (12, 3)], 0),
        (11, 11, [(13, 10), (-13, 5), (11, 4)], 0),
        (12, 12, [(14, 11), (-12, 6), (10, 5)], 0),
    ],
    4: [
        (2, 2, [(5, 1)], 0),
        (3, 3, [(6, 2)], 0),
        (4, 4, [(7, 3)], 0),
        (5, 5, [(8, 4)], 0),
        (6, 6, [(9, 5)], -24),
        (7, 7, [(10, 6), (-23, 1)], 20),
        (8, 8, [(11, 7), (-22, 2), (19, 1)], 0),
        (9, 9, [(12, 8), (-21, 3), (18, 2)], 0),
        (10, 10, [(13, 9), (-20, 4), (17, 3)], 0),
        (11, 11, [(14, 10), (-19, 5), (16, 4)], 0),
        (12, 12, [(15, 11), (-18, 6), (15, 5)], 0),
    ],
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_printed_coefficient_laws_six_faces(n):
    def value(lam):
        return count_poly(HomoQuery(n, 6, n + lam))

    assert value(1) == n  # the first coefficient equals the number of dice
    for k, target, terms, const in LAWS[n]:
        rhs = sum(coef * value(lam) for coef, lam in terms) + const
        assert k * value(target) == rhs, (n, k, target)


def test_counts_never_negative_past_support():
    for n in (1, 3, 5):
        for m in (2, 6):
            for N in range(m * n + 1, m * n + 4):
                assert counts_by_all_engines(n, m, N) == [0, 0, 0, 0]


# Property tests of the add-a-die columns. Bounded example counts and no
# per-example deadline keep them fast and steady on a loaded machine.
bounded = settings(max_examples=80, deadline=None)


@st.composite
def like_dice_queries(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 12))
    return HomoQuery(n, m, draw(st.integers(0, n * m + 2)))


@bounded
@given(like_dice_queries())
@example(HomoQuery(1, 1, 1))
@example(HomoQuery(3, 1, 4))
@example(HomoQuery(2, 12, 5))
@example(HomoQuery(1, 6, 0))
@example(HomoQuery(40, 12, 482))
def test_add_die_matches_closed_form_and_lambda(q):
    assert count_add_die(q) == count_closed_form(q) == count_lambda_recurrence(q)


@bounded
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 3))
@example(1, 5, 0)
@example(9, 1, 0)
@example(12, 12, 3)
def test_table_columns_sum_to_m_pow_n_and_are_symmetric(m, n_max, extra):
    table = count_table_add_die(m, n_max, m * n_max + extra)
    for n in range(1, n_max + 1):
        col = [row[n - 1] for row in table]
        support = col[n : m * n + 1]
        assert sum(col) == sum(support) == m**n, (m, n)
        assert support == support[::-1], (m, n)
        assert support[0] == support[-1] == 1


@bounded
@given(st.integers(1, 20), st.integers(1, 10), st.integers(1, 60))
@example(12, 3, 5)
@example(7, 1, 60)
@example(1, 4, 2)
def test_truncated_table_cells_match_closed_form(m, n_max, N_max):
    table = count_table_add_die(m, n_max, N_max)
    assert len(table) == N_max + 1
    assert all(len(row) == n_max for row in table)
    for N in range(N_max + 1):
        for n in range(1, n_max + 1):
            assert table[N][n - 1] == count_closed_form(HomoQuery(n, m, N)), (N, n)


# Property tests of the per-shape memos: the expansions of the two
# expanding engines and the parked λ walks. Each example starts from empty
# memos, so a failure replays the same way.
EXPANSIONS = (homogeneous._die_power, homogeneous._last_add_die_column)
MEMOS = (*EXPANSIONS, homogeneous._parked)


def folded_lam(q):
    return min(q.N, q.n * (q.m + 1) - q.N) - q.n


def parked(q):
    """The walk parked in the slot q's count uses, (lam, its window's
    values), or None. Reading a slot creates it, so a test reads only the
    slots of sums it counted."""
    lam = folded_lam(q)
    walk = homogeneous._parked(q.n, min(q.m, lam + 1), lam.bit_length())[0]
    return walk and (walk[0], list(walk[1]))


def assert_park_is_exact(queries):
    """The slot of each query inside the support is empty or holds a walk in
    the query's band whose window holds the counts of its shape (n, k) at
    the offsets lam-k..lam, 0 below the support; and the park is bounded."""
    for q in queries:
        lam = folded_lam(q)
        walk = parked(q) if lam >= 0 else None
        if walk:
            at, window = walk
            k = min(q.m, lam + 1)
            assert at.bit_length() == lam.bit_length(), (q, at)
            assert window == [count_closed_form(HomoQuery(q.n, k, q.n + j)) if j >= 0 else 0
                              for j in range(at - k, at + 1)], (q, at)
    assert homogeneous._parked.cache_info().currsize <= homogeneous.SHAPE_MEMO_SIZE


@st.composite
def query_sequences(draw):
    """Queries over a pool of up to SHAPE_MEMO_SIZE + 8 die shapes, each
    with any N from 0 to past the support, in any order: shapes repeat, N
    grows and shrinks, and a long enough run evicts. A shape of 10**12
    faces takes sums up to 12 per die, far below its wraparound."""
    faces = st.integers(1, 12) | st.just(10**12)
    shapes = draw(st.lists(st.tuples(st.integers(1, 30), faces),
                           min_size=1, max_size=homogeneous.SHAPE_MEMO_SIZE + 8,
                           unique=True))
    queries = []
    for _ in range(draw(st.integers(1, 3 * len(shapes)))):
        n, m = draw(st.sampled_from(shapes))
        queries.append(HomoQuery(n, m, draw(st.integers(0, n * min(m, 12) + 3))))
    return queries


@settings(max_examples=40, deadline=None)
@given(query_sequences())
@example([HomoQuery(6, 6, 25), HomoQuery(6, 6, 5), HomoQuery(6, 6, 36),
          HomoQuery(6, 6, 37), HomoQuery(6, 6, 3), HomoQuery(6, 6, 25)])
@example([HomoQuery(n, 3, 2 * n) for n in range(1, 45)]
         + [HomoQuery(n, 3, N) for n in (1, 2, 3) for N in (0, n, 2 * n, 3 * n, 3 * n + 1)])
@example([HomoQuery(9, 4, 30), HomoQuery(9, 4, 12), HomoQuery(9, 4, 36),
          HomoQuery(9, 4, 9), HomoQuery(9, 4, 37), HomoQuery(9, 4, 8),
          HomoQuery(9, 4, 21)])
@example([HomoQuery(3, 10**12, 9), HomoQuery(3, 10**12, 2), HomoQuery(3, 10**12, 4),
          HomoQuery(3, 10**12, 39), HomoQuery(3, 10**12, 3)])
# parked (190, 6) walks moving up and back down in one process
@example([HomoQuery(190, 6, N) for N in (1000, 400, 665, 190, 1140)])
def test_memoized_engines_match_closed_form_on_any_query_sequence(queries):
    clear_memos()
    for q in queries:
        expected = count_closed_form(q)
        assert count_poly(q) == expected, q
        assert count_add_die(q) == expected, q
        before = homogeneous._parked.cache_info()
        assert count_lambda_recurrence(q) == expected, q
        lam = folded_lam(q)
        if lam >= 0:
            at, window = parked(q)
            assert (at, window[-1]) == (lam, expected), q
            assert len(window) == min(q.m, lam + 1) + 1, q
        else:  # outside the support no slot is read, so no walk is parked or moved
            assert homogeneous._parked.cache_info() == before, q
        assert_park_is_exact([q])
        for memo in MEMOS:
            assert memo.cache_info().currsize <= homogeneous.SHAPE_MEMO_SIZE
    assert_park_is_exact(queries)


def test_memo_evicts_least_recent_shape_and_recomputes_it():
    clear_memos()
    size = homogeneous.SHAPE_MEMO_SIZE
    shapes = [(n, 4) for n in range(1, size + 6)]
    for n, m in shapes:
        assert count_poly(HomoQuery(n, m, 2 * n)) == count_add_die(HomoQuery(n, m, 2 * n))
    for memo in EXPANSIONS:
        info = memo.cache_info()
        assert (info.currsize, info.misses, info.hits) == (size, len(shapes), 0)
    q = HomoQuery(1, 4, 2)  # the first shape, evicted long ago
    assert count_poly(q) == count_add_die(q) == count_closed_form(q) == 1
    for memo in EXPANSIONS:
        assert memo.cache_info().misses == len(shapes) + 1


def test_memo_entry_serves_every_sum_in_its_window():
    clear_memos()
    n, m = 190, 6
    # 512 up to the midpoint 665, and their mirrors up to 818, all fold
    # into the window 1024
    for N in range(512, 819, 37):
        q = HomoQuery(n, m, N)
        assert count_poly(q) == count_add_die(q) == count_closed_form(q), N
    for memo in EXPANSIONS:
        assert memo.cache_info().misses == 1
    # 1024 and 1140 fold to 306 and 190, in the windows 512 and 256; 1141
    # and 5000 lie past the support and expand nothing
    for N in (1024, 1140, 1141, 5000):
        q = HomoQuery(n, m, N)
        assert count_poly(q) == count_add_die(q) == count_closed_form(q), N
    for memo in EXPANSIONS:
        assert memo.cache_info().misses == 3
    # a window is capped at the midpoint n*(m+1)//2 once its power of two
    # passes it: (100, 2) folds every sum to at most 150, in the window 150
    for N in (128, 150, 170, 172):
        q = HomoQuery(100, 2, N)
        assert count_poly(q) == count_add_die(q) == count_closed_form(q), N
    for memo in EXPANSIONS:
        assert memo.cache_info().misses == 4


def test_expanding_engines_stop_at_the_midpoint(monkeypatch):
    # no sum folds past the midpoint n*(m+1)//2, so neither window does:
    # (190, 6) at 600 expands up to 665, not to its power of two 1024,
    # while a sum below the midpoint's power of two keeps its own
    clear_memos()
    windows = []
    product, columns = homogeneous.marks_product, homogeneous._add_die_columns

    def product_spy(shapes, bound):
        windows.append(("poly", bound))
        return product(shapes, bound)

    def columns_spy(m, n_max, N_max):
        windows.append(("add-die", N_max))
        return columns(m, n_max, N_max)

    monkeypatch.setattr(homogeneous, "marks_product", product_spy)
    monkeypatch.setattr(homogeneous, "_add_die_columns", columns_spy)
    for N in (600, 665, 680, 300):
        q = HomoQuery(190, 6, N)
        assert count_poly(q) == count_add_die(q) == count_closed_form(q), N
    assert windows == [("poly", 665), ("add-die", 665), ("poly", 512), ("add-die", 512)]
    clear_memos()


# The λ recurrence keeps only the last m+1 values. The reference below keeps
# every value in a list, as the recurrence reads on paper.
def lambda_steps_keeping_all(n, m, N):
    vals = [1]  # vals[lam] is the count for sum n + lam
    steps = []
    for lam in range(1, N - n + 1):
        numerator = (n + lam - 1) * vals[lam - 1]
        if lam >= m:
            numerator -= (m * n + m - lam) * vals[lam - m]
        if lam >= m + 1:
            numerator += (m * n - n + m + 1 - lam) * vals[lam - m - 1]
        assert numerator % lam == 0
        vals.append(numerator // lam)
        steps.append((lam, numerator, vals[-1]))
    return steps


@st.composite
def lambda_walks(draw):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 12))
    ends = st.sampled_from([n - 1, n, n + 1, n * m - 1, n * m, n * m + 1])
    N = draw(ends | st.integers(0, n * m + 3))
    return HomoQuery(n, m, N)


@bounded
@given(lambda_walks())
@example(HomoQuery(1, 1, 1))
@example(HomoQuery(5, 1, 5))
@example(HomoQuery(5, 1, 6))
@example(HomoQuery(7, 1, 9))
@example(HomoQuery(4, 6, 4))
@example(HomoQuery(4, 6, 24))
@example(HomoQuery(4, 6, 25))
@example(HomoQuery(12, 2, 24))
@example(HomoQuery(3, 10**12, 9))
@example(HomoQuery(2, 10**6, 5))
def test_lambda_trace_matches_list_keeping_reference(q):
    trace = lambda_recurrence_trace(q)
    # outside the support neither the trace nor the count takes a step
    reference = lambda_steps_keeping_all(q.n, q.m, q.N) if q.N <= q.n * q.m else []
    assert [(s.lam, s.numerator, s.value) for s in trace] == reference
    assert all(type(step) is homogeneous.LambdaStep for step in trace)
    expected = reference[-1][2] if reference else int(q.N == q.n)
    assert count_lambda_recurrence(q) == expected


def test_lambda_step_fields_and_immutability():
    step = lambda_recurrence_trace(HomoQuery(6, 6, 25))[-1]
    assert repr(step) == "LambdaStep(lam=19, numerator=54264, value=2856)"
    with pytest.raises(AttributeError):
        step.value = 0


def test_lambda_memory_stays_within_a_window_of_m_values():
    n, m = 2000, 3
    q = HomoQuery(n, m, 2 * n)  # the middle of the support: n steps
    count_bytes = (count_closed_form(q).bit_length() + 7) // 8
    clear_memos()
    tracemalloc.start()
    try:
        count = count_lambda_recurrence(q)
        _, windowed_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        reference = lambda_steps_keeping_all(n, m, q.N)
        _, listed_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == reference[-1][2] == count_closed_form(q)
    # the window's m+1 values, the step's products and the deque's block,
    # against n values that a list would keep
    assert windowed_peak < 32 * count_bytes
    assert listed_peak > 10 * windowed_peak


def test_lambda_short_walk_with_many_faces_allocates_no_window_of_m():
    q = HomoQuery(2, 10**6, 5)
    clear_memos()
    tracemalloc.start()
    try:
        count = count_lambda_recurrence(q)
        trace = lambda_recurrence_trace(q)
        # each sum on 10**12 faces walks only the faces it can use, so each
        # parked window is a few values long
        moved = [count_lambda_recurrence(HomoQuery(2, 10**12, N)) for N in (5, 40, 3, 7)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 4 == trace[-1].value
    assert moved == [4, 39, 2, 6]
    # 40 on 10**12 faces walked the shape (2, 39) to lam 38: 0 at lam -1,
    # then lam + 1 throws at each lam
    assert parked(HomoQuery(2, 10**12, 40)) == (38, list(range(40)))
    assert peak < 64 * 1024  # a window of m zeros would take about 8 MB
    # no engine builds a die of m faces for a sum far below m
    for name, engine in ENGINES.items():
        clear_memos()
        tracemalloc.start()
        try:
            count = engine(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 4, name
        assert peak < 64 * 1024, name


def test_lambda_trace_walks_afresh_past_a_parked_walk():
    clear_memos()
    q = HomoQuery(6, 6, 25)
    fresh = lambda_recurrence_trace(q)
    counted = []
    for N in (30, 25, 12, 36):
        counted.append(HomoQuery(6, 6, N))
        assert count_lambda_recurrence(counted[-1]) == count_closed_form(counted[-1])
        walks, info = [parked(c) for c in counted], homogeneous._parked.cache_info()
        assert lambda_recurrence_trace(q) == fresh, N
        # the trace neither read a slot nor moved a parked walk
        assert homogeneous._parked.cache_info() == info, N
        assert [parked(c) for c in counted] == walks, N
    # 30 and 12 fold to lam 6, 25 to lam 11 and 36 to lam 0: one walk in
    # each of three bands, and the trace, unfolded, walked 25 to lam 19
    assert [parked(c)[0] for c in counted] == [6, 11, 6, 0]
    assert fresh[-1].lam == 19
    assert_park_is_exact(counted)


def moves_recorded(monkeypatch):
    """Wrap ``_lambda_walk`` so that each move is recorded as (from, to)."""
    moves = []
    walk = homogeneous._lambda_walk

    def recording(n, m, start, to, steps=None):
        moves.append((start[0], to))
        return walk(n, m, start, to, steps)

    monkeypatch.setattr(homogeneous, "_lambda_walk", recording)
    return moves


def test_lambda_backward_move_crosses_a_full_window(monkeypatch):
    clear_memos()
    moves = moves_recorded(monkeypatch)
    n, m = 12, 5  # offsets 0..48, folded to 0..24

    def counts(lam_lo, lam_hi):
        return [count_closed_form(HomoQuery(n, m, n + lam)) for lam in range(lam_lo, lam_hi + 1)]

    queries = [HomoQuery(n, m, n + lam) for lam in (23, 17, 16, 7, 4)]
    assert count_lambda_recurrence(queries[0]) == counts(23, 23)[0]
    assert parked(queries[0]) == (23, counts(23 - m, 23))
    # m + 1 steps back and 1 step back in the band 16..31, a fresh walk up
    # to 7 in the band 4..7, then 3 steps back into the zeros below 0
    for q in queries[1:]:
        lam = q.N - n
        assert count_lambda_recurrence(q) == count_closed_form(q), lam
        # each step back recomputed the oldest value, so the window is exact
        assert parked(q) == (lam, [0] * (m - lam) + counts(max(lam - m, 0), lam)), lam
    # the band 16..31 now holds the walk at 16, 7 steps below 23
    assert count_lambda_recurrence(queries[0]) == counts(23, 23)[0]
    assert moves == [(0, 23), (23, 17), (17, 16), (0, 7), (7, 4), (16, 23)]
    assert_park_is_exact(queries)


@pytest.mark.parametrize("N, start, fail_at", [
    pytest.param(70, 60, "step lam=", id="70-step lam="),
    pytest.param(40, 50, "step back from lam=", id="40-step back from lam="),
])
def test_lambda_remainder_parks_no_walk(monkeypatch, N, start, fail_at):
    # a walk is parked at a sum 10 from N, in N's band, then one step of the
    # move of its copy to N, forward (70) or back (40), is made to leave a
    # remainder
    clear_memos()
    start = HomoQuery(20, 6, start)
    assert count_lambda_recurrence(start) == count_closed_form(start)
    before = parked(start)
    calls = itertools.count(1)

    def leaving_a_remainder(a, b):
        quotient, remainder = divmod(a, b)
        return quotient, remainder + (next(calls) == 5)

    q = HomoQuery(20, 6, N)
    with monkeypatch.context() as patch:
        patch.setattr(homogeneous, "divmod", leaving_a_remainder, raising=False)
        with pytest.raises(homogeneous.DivisibilityError, match=fail_at):
            count_lambda_recurrence(q)
    # the failed move parked nothing and left the walk it copied as it was
    assert parked(start) == before
    assert count_lambda_recurrence(q) == count_closed_form(q)
    # the band's one slot now holds the walk at N
    assert parked(start)[0] == parked(q)[0] == N - 20
    assert_park_is_exact([start, q])


def test_lambda_alternating_sums_start_from_the_nearest_parked_walk(monkeypatch):
    # one shape asked in turn near two sums far apart, in the bands 64..127
    # and 256..511: after the first visit to each, every count moves a copy
    # of a walk parked at most 6 away
    clear_memos()
    moves = moves_recorded(monkeypatch)
    queries = []
    for d in (0, 3, -3, 1, -2, 2, -1, 3, -3):
        for N in (270 + d, 426 + d):
            queries.append(HomoQuery(160, 7, N))
            assert count_lambda_recurrence(queries[-1]) == count_closed_form(queries[-1]), N
    steps = [abs(to - at) for at, to in moves]
    assert len(steps) == 18 and max(steps[2:]) <= 6, steps
    assert_park_is_exact(queries)


@pytest.mark.parametrize("order", [1, -1], ids=["up", "down"])
def test_lambda_sweep_over_the_lower_half_moves_at_most_four_steps_per_offset(
        monkeypatch, order):
    # every offset of the lower half in turn, up or down: the first count in
    # each band walks from lam = 0, and every later one a step from the last
    clear_memos()
    moves = moves_recorded(monkeypatch)
    n, m = 300, 6
    half = n * (m - 1) // 2  # L = 750 offsets
    for lam in range(half + 1)[::order]:
        q = HomoQuery(n, m, n + lam)
        assert count_lambda_recurrence(q) == count_poly(q), lam
    assert sum(abs(to - at) for at, to in moves) <= 4 * half


def test_lambda_first_count_in_a_band_walks_afresh(monkeypatch):
    # the trade of parking by band: lam 63 and 64 lie in the bands 32..63 and
    # 64..127, so the count at 64 walks from 0, though a walk is parked one
    # step away; each then answers its own band again with no step
    clear_memos()
    moves = moves_recorded(monkeypatch)
    n, m = 40, 6
    for lam in (63, 64, 63, 64):
        q = HomoQuery(n, m, n + lam)
        assert count_lambda_recurrence(q) == count_closed_form(q), lam
    assert moves == [(0, 63), (0, 64), (63, 63), (64, 64)]


def test_lambda_threads_copy_parked_walks_safely():
    # parked windows are read with no lock: four threads that move one
    # shape up and down through each other's walks all count exactly
    clear_memos()
    n, m = 40, 6
    # k = m at each sum of the lower half, and the sums above the midpoint
    # 140 fold onto the walks of their mirrors
    sums = range(n + m - 1, n * m + 1, 3)
    orders = [list(sums), list(reversed(sums)), [*sums[::2], *reversed(sums[1::2])],
              [*reversed(sums[::2]), *sums[1::2]]]

    def count_in_order(order):
        return [(N, count_lambda_recurrence(HomoQuery(n, m, N))) for N in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(count_in_order, orders * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        for N, count in result:
            assert count == count_closed_form(HomoQuery(n, m, N)), N
    assert_park_is_exact([HomoQuery(n, m, N) for N in sums])


def test_lambda_refuses_a_window_it_cannot_index():
    # k + 1 = 1.5 * 10**30 counts: refused before any list is built
    q = HomoQuery(3, 10**30, 15 * 10**29)
    for walk in (count_lambda_recurrence, lambda_recurrence_trace):
        with pytest.raises(ValueError, match="lambda window of k\\+1 counts"):
            walk(q)
