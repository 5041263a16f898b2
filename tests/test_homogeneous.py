import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumways import homogeneous
from sumways.heterogeneous import consecutive_pool
from sumways.homogeneous import (
    ENGINE_ORDER,
    ENGINES,
    HomoQuery,
    binomial,
    count_add_die,
    count_closed_form,
    count_lambda_recurrence,
    count_poly,
    count_table_add_die,
    lambda_recurrence_trace,
)
from sumways.oracle import brute_dice

ALL_ENGINES = [ENGINES[name] for name in ENGINE_ORDER]


def counts_by_all_engines(n, m, N):
    return [engine(HomoQuery(n, m, N)) for engine in ALL_ENGINES]


def test_query_validation():
    with pytest.raises(ValueError):
        HomoQuery(0, 6, 3)
    with pytest.raises(ValueError):
        HomoQuery(2, 0, 3)
    with pytest.raises(ValueError):
        HomoQuery(2, 6, -1)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 5) == 1
    assert binomial(0, 0) == 1
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_count_poly_known_values():
    assert count_poly(HomoQuery(6, 6, 25)) == 2856
    assert count_poly(HomoQuery(1, 6, 7)) == 0
    assert count_poly(HomoQuery(6, 6, 6)) == 1
    assert count_poly(HomoQuery(6, 6, 36)) == 1
    assert count_poly(HomoQuery(3, 6, 0)) == 0


def test_add_die_table_values():
    table = count_table_add_die(6, 8, 36)
    assert table.count(18, 5) == 780
    assert table.count(36, 8) == 36688
    assert table.count(26, 8) == 125588
    assert table.count(6, 1) == 1
    assert table.count(7, 1) == 0
    assert count_add_die(HomoQuery(5, 6, 18)) == 780


def test_table_one_face():
    table = count_table_add_die(1, 3, 3)
    for N in range(1, 4):
        for n in range(1, 4):
            assert table.count(N, n) == (1 if N == n else 0)


def test_table_accessor_bounds():
    table = count_table_add_die(6, 2, 12)
    with pytest.raises(ValueError):
        table.count(3, 0)
    with pytest.raises(ValueError):
        table.count(3, 3)
    with pytest.raises(ValueError):
        table.count(13, 1)
    with pytest.raises(ValueError):
        table.count(-1, 1)
    assert len(table.column(2)) == 13


def test_table_validation():
    with pytest.raises(ValueError):
        count_table_add_die(0, 2, 5)
    with pytest.raises(ValueError):
        count_table_add_die(6, 0, 5)
    with pytest.raises(ValueError):
        count_table_add_die(6, 2, 0)


def test_lambda_known_values():
    assert count_lambda_recurrence(HomoQuery(6, 6, 25)) == 2856
    assert count_lambda_recurrence(HomoQuery(6, 6, 29)) == 756
    assert count_lambda_recurrence(HomoQuery(4, 6, 3)) == 0
    assert count_lambda_recurrence(HomoQuery(4, 6, 4)) == 1


def test_lambda_negative_count_raises(monkeypatch):
    # a recurrence that ends below zero must raise even under python -O
    def bad_steps(n, m, N):
        yield homogeneous.LambdaStep(1, -1, -1)

    monkeypatch.setattr(homogeneous, "_lambda_steps", bad_steps)
    with pytest.raises(RuntimeError, match="negative count -1"):
        count_lambda_recurrence(HomoQuery(2, 6, 3))


def test_lambda_past_support_takes_no_step(monkeypatch):
    def no_steps(n, m, N):
        raise AssertionError("walked the recurrence past the support")

    monkeypatch.setattr(homogeneous, "_lambda_steps", no_steps)
    assert count_lambda_recurrence(HomoQuery(2, 6, 10**6)) == 0
    assert count_lambda_recurrence(HomoQuery(2, 6, 13)) == 0


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
            for step in lambda_recurrence_trace(HomoQuery(n, m, m * n + 3)):
                assert step.value * step.lam == step.numerator


def test_closed_form_known_values():
    assert count_closed_form(HomoQuery(6, 6, 10)) == binomial(9, 4) == 126
    assert count_closed_form(HomoQuery(6, 6, 25)) == 2856
    assert count_closed_form(HomoQuery(3, 6, 12)) == 25
    assert count_closed_form(HomoQuery(2, 6, 1)) == 0
    assert count_closed_form(HomoQuery(2, 6, 13)) == 0


def test_engines_agree_with_each_other_and_oracle():
    for n in range(1, 5):
        for m in (1, 2, 3, 6):
            pool = consecutive_pool((m,) * n)
            for N in range(0, m * n + 3):
                values = counts_by_all_engines(n, m, N)
                assert len(set(values)) == 1, (n, m, N, values)
                assert values[0] == brute_dice(pool, N), (n, m, N)


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
            assert sum(table.column(n)) == m**n


def test_prefix_regime_is_compositions():
    # before the first face can overflow, counting is plain stars and bars
    for n in range(1, 7):
        for m in (3, 6, 8):
            for lam in range(0, m):
                assert count_closed_form(HomoQuery(n, m, n + lam)) == binomial(
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
        col = table.column(n)
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
    assert len(table.entries) == N_max + 1
    assert all(len(row) == n_max for row in table.entries)
    for N in range(N_max + 1):
        for n in range(1, n_max + 1):
            assert table.count(N, n) == count_closed_form(HomoQuery(n, m, N)), (N, n)


# Property tests of the per-shape memo of the two expanding engines. Each
# example starts from empty memos, so a failure replays the same way.
MEMOS = (homogeneous._die_power, homogeneous._last_add_die_column)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@st.composite
def query_sequences(draw):
    """Queries over a pool of up to SHAPE_MEMO_SIZE + 8 die shapes, each
    with any N from 0 to past the support, in any order: shapes repeat, N
    grows and shrinks, and a long enough run evicts."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 12)),
                           min_size=1, max_size=homogeneous.SHAPE_MEMO_SIZE + 8,
                           unique=True))
    queries = []
    for _ in range(draw(st.integers(1, 3 * len(shapes)))):
        n, m = draw(st.sampled_from(shapes))
        queries.append(HomoQuery(n, m, draw(st.integers(0, n * m + 3))))
    return queries


@settings(max_examples=40, deadline=None)
@given(query_sequences())
@example([HomoQuery(6, 6, 25), HomoQuery(6, 6, 5), HomoQuery(6, 6, 36),
          HomoQuery(6, 6, 37), HomoQuery(6, 6, 3), HomoQuery(6, 6, 25)])
@example([HomoQuery(n, 3, 2 * n) for n in range(1, 45)]
         + [HomoQuery(n, 3, N) for n in (1, 2, 3) for N in (0, n, 2 * n, 3 * n, 3 * n + 1)])
def test_memoized_engines_match_closed_form_on_any_query_sequence(queries):
    clear_memos()
    for q in queries:
        expected = count_closed_form(q)
        assert count_poly(q) == expected, q
        assert count_add_die(q) == expected, q
    for memo in MEMOS:
        assert memo.cache_info().currsize <= homogeneous.SHAPE_MEMO_SIZE


def test_memo_evicts_least_recent_shape_and_recomputes_it():
    clear_memos()
    size = homogeneous.SHAPE_MEMO_SIZE
    shapes = [(n, 4) for n in range(1, size + 6)]
    for n, m in shapes:
        assert count_poly(HomoQuery(n, m, 2 * n)) == count_add_die(HomoQuery(n, m, 2 * n))
    for memo in MEMOS:
        info = memo.cache_info()
        assert (info.currsize, info.misses, info.hits) == (size, len(shapes), 0)
    q = HomoQuery(1, 4, 2)  # the first shape, evicted long ago
    assert count_poly(q) == count_add_die(q) == count_closed_form(q) == 1
    for memo in MEMOS:
        assert memo.cache_info().misses == len(shapes) + 1


def test_memo_entry_serves_every_sum_in_its_window():
    clear_memos()
    n, m = 190, 6
    for N in range(512, 1024, 37):
        q = HomoQuery(n, m, N)
        assert count_poly(q) == count_add_die(q) == count_closed_form(q), N
    for memo in MEMOS:
        assert memo.cache_info().misses == 1
    for N in (1024, 1140, 1141, 5000):  # windows capped at the support n*m
        q = HomoQuery(n, m, N)
        assert count_poly(q) == count_add_die(q) == count_closed_form(q), N
    for memo in MEMOS:
        assert memo.cache_info().misses == 2


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
def test_lambda_trace_matches_list_keeping_reference(q):
    trace = lambda_recurrence_trace(q)
    reference = lambda_steps_keeping_all(q.n, q.m, q.N)
    assert [(s.lam, s.numerator, s.value) for s in trace] == reference
    assert all(type(step) is homogeneous.LambdaStep for step in trace)
    # past the support the walk ends at 0, which the count returns at once
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
    tracemalloc.start()
    try:
        count = count_lambda_recurrence(q)
        trace = lambda_recurrence_trace(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 4 == trace[-1].value
    assert peak < 64 * 1024  # a window of m zeros would take about 8 MB
