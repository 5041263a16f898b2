import inspect
import sys
import textwrap
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import clear_memos
from sumways.heterogeneous import (
    DicePool,
    MarkedDie,
    hetero_count_product,
    hetero_counts,
    hetero_distribution,
)
from sumways.homogeneous import HomoQuery, count_lambda_recurrence, count_table_add_die
from sumways.oracle import brute_regula
from sumways.polygonal import ordered_representation_counts
from sumways.regula import LinearSystem2, rv_count_solutions
from sumways import series
from sumways.series import inverse_product_grid, marks_product


def schoolbook(a, b, bound=None):
    """Reference product of two coefficient sequences by direct convolution,
    independent of the kernel under test; canonical, cut at ``bound``."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    if bound is not None:
        del out[bound + 1 :]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_inverse_product_grid_shape():
    # a plain list of bounds[1]+1 columns of bounds[0]+1 ints
    for bounds in ((0, 0), (1, 1), (3, 0), (0, 2), (2, 5)):
        g = inverse_product_grid([(1, 2), (0, 1)], bounds)
        assert type(g) is list and len(g) == bounds[1] + 1
        for col in g:
            assert type(col) is list and len(col) == bounds[0] + 1
            assert {type(c) for c in col} == {int}
        assert g[0][0] == 1


def test_inverse_product_grid_geometric():
    # 1/(1 - u v) has 1 exactly on the diagonal
    g = inverse_product_grid([(1, 1)], (4, 4))
    assert g == [[1 if i == j else 0 for i in range(5)] for j in range(5)]


def test_inverse_product_grid_counts_pairs():
    # 1/((1-u)(1-u^2)): coefficient of u^4 counts {1,2}-multisets: 4 = 1+1+1+1,
    # 1+1+2, 2+2
    g = inverse_product_grid([(1, 0), (2, 0)], (4, 0))
    assert g[0][4] == 3


# -- the lattice walk against the two-equation oracle, cell by cell ----------

# Steps with a = 0 or b = 0, and steps past the window, which add nothing.
lattice_steps = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda s: s != (0, 0))


@settings(max_examples=100, deadline=None)
@given(st.lists(lattice_steps, min_size=1, max_size=4), st.integers(0, 6), st.integers(0, 6))
@example([(0, 1), (3, 0), (9, 9)], 4, 5)
@example([(1, 0), (1, 0)], 5, 0)
@example([(7, 7)], 3, 3)
@example([(2, 1), (0, 3), (1, 0), (1, 1)], 6, 6)
# (a, 0) steps after (a, b >= 1) steps, and an (a, 0) step past the window
@example([(2, 1), (3, 0)], 6, 3)
@example([(9, 0), (1, 1)], 4, 4)
@example([(1, 2), (0, 1), (2, 0), (5, 0)], 6, 5)
def test_every_grid_cell_matches_brute_force(steps, bu, bv):
    grid = inverse_product_grid(steps, (bu, bv))
    assert grid == [
        [brute_regula(LinearSystem2(tuple(steps), (i, j))) for i in range(bu + 1)]
        for j in range(bv + 1)
    ]
    # positive mode reads a cell of the grid for the shifted targets
    pos = LinearSystem2(tuple(steps), (bu, bv), "positive")
    assert rv_count_solutions(pos) == brute_regula(pos)


# -- the packed product kernel against the schoolbook reference ----------------


def examples(n):
    """n examples per property, with no per-example deadline or generation
    speed check, which a loaded machine would fail on big coefficients."""
    return settings(
        max_examples=n, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )


# Any marks, duplicates allowed, or runs of consecutive marks up to 40 long
# taken one to three times each.
die_marks = st.one_of(
    st.lists(st.integers(0, 20), min_size=1, max_size=8),
    st.builds(
        lambda lo, m, c: list(range(lo, lo + m)) * c,
        st.integers(0, 3),
        st.integers(1, 40),
        st.integers(1, 3),
    ),
)


@examples(60)
@given(st.lists(die_marks, min_size=1, max_size=12))
@example([list(range(1, m + 1)) for m in (6, 8, 12)])
@example([[0, 0]] * 8)
@example([[0, 0]] * 16)
@example([[7]])
def test_hetero_distribution_matches_schoolbook(dice):
    expect = (1,)
    for marks in dice:
        die = [0] * (max(marks) + 1)
        for v in marks:
            die[v] += 1
        expect = schoolbook(expect, die)
    pool = DicePool(tuple(MarkedDie(tuple(marks)) for marks in dice))
    assert hetero_distribution(pool) == [(e, c) for e, c in enumerate(expect) if c]
    # every truncated count, from below the support to past it
    for N, want in enumerate(expect + (0, 0)):
        assert hetero_count_product(pool, N) == want, N


def shapes_of(factors):
    """The {marks: copies} map of a list of factors, each a list of marks."""
    return Counter(map(tuple, factors))


def least_sum(shapes):
    """The least sum of a {marks: copies} map, where its product starts."""
    return sum(min(marks) * copies for marks, copies in shapes.items())


def schoolbook_product(factors, bound):
    """Coefficients at x^0..x^bound of the product over factors of the sum
    of x^mark, by schoolbook products of the dense factor polynomials.
    ``marks_product`` returns the same list from the least sum on."""
    expect = (1,)
    for marks in factors:
        die = [0] * (max(marks) + 1)
        for v in marks:
            die[v] += 1
        expect = schoolbook(expect, die, bound)
    return list(expect) + [0] * (bound + 1 - len(expect))


# One to six factors; some draws repeat one factor, as one list object.
factor_lists = st.one_of(
    st.lists(die_marks, min_size=1, max_size=6),
    st.builds(lambda marks, k: [marks] * k, die_marks, st.integers(1, 6)),
)


@st.composite
def products(draw):
    """Factors, and a bound from 0 to past the top sum: often below the
    lowest sum, sometimes inside the support."""
    factors = draw(factor_lists)
    return factors, draw(st.integers(0, sum(map(max, factors)) + 3))


@examples(150)
@given(products())
@example(([[3, 4], [5]], 0))
@example(([[3, 4], [5]], 7))
@example(([[3, 4], [5]], 8))
@example(([[0, 0, 2], [0]], 0))
@example(([list(range(1, 41)) * 3] * 2, 300))
# the die written straight into its slots has a run of multiplicity > 1
# that the bound cuts, or a run past the bound
@example(([list(range(10)) * 2, [1]], 4))
@example(([[0, 0, 1, 4, 4, 4, 9]], 5))
@example(([[2, 3, 3, 4, 4, 5, 5]] * 2, 9))
def test_marks_product_matches_schoolbook(product):
    factors, bound = product
    shapes = shapes_of(factors)
    want = schoolbook_product(factors, bound)[least_sum(shapes):]
    assert marks_product(shapes, bound) == want


# Shapes whose least mark is above 0: any marks shifted up by 1 to 5, and
# ranges of step 1 or more starting at 1 to 5.
raised_marks = st.one_of(
    st.builds(lambda marks, up: tuple(v + up for v in marks), die_marks, st.integers(1, 5)),
    st.builds(lambda lo, n, step: range(lo, lo + n * step, step),
              st.integers(1, 5), st.integers(1, 12), st.integers(1, 3)),
)


@st.composite
def shape_products(draw):
    """One to three shapes of one to three copies each, and a bound below,
    at or above the sum of their least marks times their copies."""
    shapes = draw(st.dictionaries(raised_marks, st.integers(1, 3), min_size=1, max_size=3))
    least = sum(min(marks) * copies for marks, copies in shapes.items())
    top = sum(max(marks) * copies for marks, copies in shapes.items())
    bound = draw(st.one_of(st.integers(0, least - 1), st.just(least),
                           st.integers(least, top + 3)))
    return shapes, bound


def expanded(shapes):
    """Each shape's marks as a list, once per copy."""
    return [list(marks) for marks, copies in shapes.items() for _ in range(copies)]


@examples(150)
@given(shape_products())
@example(({(1, 2, 3): 3}, 2))
@example(({(1, 2, 3): 3}, 3))
@example(({(1, 2, 3): 3}, 5))
@example(({range(2, 5): 2, (1, 1, 4): 1, (7,): 2}, 21))
@example(({range(3, 12, 4): 3, (5, 6, 6): 2}, 30))
def test_marks_product_of_shapes_matches_schoolbook(product):
    shapes, bound = product
    want = schoolbook_product(expanded(shapes), bound)[least_sum(shapes):]
    assert marks_product(shapes, bound) == want


def test_a_mask_one_slot_short_fails_the_schoolbook_check():
    # a seeded mutant: the one mask drops the slot at the final limit
    source = textwrap.dedent(inspect.getsource(series.marks_product))
    mask = "mask = (1 << (slot * (limit + 1))) - 1"
    assert source.count(mask) == 1
    namespace = dict(vars(series))
    exec(source.replace(mask, "mask = (1 << (slot * limit)) - 1"), namespace)
    mutant = namespace["marks_product"]
    cases = [({(1, 2, 3): 3}, 5), ({range(2, 5): 2, (1, 1, 4): 1}, 9),
             ({(0, 1): 4}, 2), ({range(1, 7): 3}, 10)]
    for shapes, bound in cases:
        want = schoolbook_product(expanded(shapes), bound)[least_sum(shapes):]
        assert marks_product(shapes, bound) == want
        assert mutant(shapes, bound) != want, (shapes, bound)


# Outcome counts at either side of the edge of a slot of w bytes: factor
# lengths multiplying to 2^(8w) - 1 and to 2^(8w).
SLOT_EDGES = [
    (3, 5, 17),
    (16, 16),
    (3, 5, 17, 257),
    (256, 256),
    (9, 5, 7, 13, 17, 241),
    (256, 256, 256),
]


@pytest.mark.parametrize("lengths", SLOT_EDGES)
def test_marks_product_at_slot_edges(lengths):
    outcomes = 1
    for n in lengths:
        outcomes *= n
    # every outcome sums to 0: the whole count sits in the lowest slot
    assert marks_product(shapes_of([0] * n for n in lengths), 2) == [outcomes, 0, 0]
    # one face of the first factor moved to 1 splits it over two slots
    factors = [[0] * (lengths[0] - 1) + [1]] + [[0] * n for n in lengths[1:]]
    want = [outcomes - outcomes // lengths[0], outcomes // lengths[0], 0]
    assert marks_product(shapes_of(factors), 2) == want == schoolbook_product(factors, 2)


def test_marks_product_finds_runs_of_a_repeated_factor_once(monkeypatch):
    calls = []

    def counted_runs(marks):
        calls.append(marks)
        return runs(marks)

    runs = series._runs
    monkeypatch.setattr(series, "_runs", counted_runs)
    die = (1, 2, 2, 5, 6)
    want = schoolbook_product([die] * 4, 30)
    assert marks_product({die: 4}, 30) == want[4:]
    assert len(calls) == 1
    calls.clear()
    # a pool groups equal dice, distinct objects too, into one shape
    copies = [tuple(list(die)) for _ in range(4)]
    assert len(set(map(id, copies))) == 4
    pool = DicePool(tuple(map(MarkedDie, copies)))
    assert pool.shapes == {die: 4}
    assert [c for _, c in hetero_distribution(pool)] == [c for c in want if c]
    assert len(calls) == 1


def test_marks_product_finds_runs_of_each_distinct_die_once(monkeypatch):
    calls = []

    def counted_runs(marks):
        calls.append(marks)
        return runs(marks)

    runs = series._runs
    monkeypatch.setattr(series, "_runs", counted_runs)
    a, b, c = (1, 1, 2, 3, 7), (0, 2, 4), (5, 6, 7, 8, 9, 10)
    # equal dice as distinct objects, interleaved with other dice
    dice = [tuple(list(die)) for die in (a, b, a, b, c, a)]
    assert dice[0] is not dice[2]
    pool = DicePool(tuple(map(MarkedDie, dice)))
    assert pool.shapes == {a: 3, b: 2, c: 1}
    want = schoolbook_product(dice, 40)
    assert dict(hetero_distribution(pool)) == {e: n for e, n in enumerate(want) if n}
    assert len(calls) == 3


def test_marks_product_dice_examples():
    d6 = range(1, 7)
    # the list starts at the least sum, so x^N is at N - least
    assert marks_product({d6: 3}, 10)[10 - 3] == 27
    assert marks_product({d6: 4}, 14)[14 - 4] == 146
    assert marks_product({d6: 2, range(1, 4): 1}, 3) == [1]
    assert marks_product({d6: 2, range(1, 4): 1}, 2) == []
    assert marks_product({(10**15, 10**15 + 1): 1, range(1, 6): 1}, 10**15 + 2) == [1, 2]
    assert marks_product({}, 2) == [1, 0, 0]


LIMIT = 64


def dice_pool(*dice):
    return DicePool(tuple(map(MarkedDie, dice)))


# Each route that builds a list refuses one of more than sys.maxsize
# counts: (the call at the limit, the call one past it, the refusal).
LIMIT_CASES = {
    "table rows": (
        lambda: count_table_add_die(6, 2, LIMIT - 1),
        lambda: count_table_add_die(6, 2, LIMIT),
        "too many rows to tabulate: a column of N_max+1 counts, N_max of 7 bits,",
    ),
    "table columns": (
        lambda: count_table_add_die(6, LIMIT, 3),
        lambda: count_table_add_die(6, LIMIT + 1, 3),
        "too many columns to tabulate: a row of n_max counts, n_max of 7 bits,",
    ),
    # k = min(m, lam + 1) faces; the window holds k + 1 counts
    "lambda window": (
        lambda: count_lambda_recurrence(HomoQuery(3, LIMIT - 1, 3 + LIMIT - 2)),
        lambda: count_lambda_recurrence(HomoQuery(3, LIMIT, 3 + LIMIT - 1)),
        "too many faces to walk: the lambda window of k+1 counts, k of 7 bits,",
    ),
    "hetero sum": (
        lambda: hetero_count_product(dice_pool(range(0, 101), range(0, 101)), LIMIT - 1),
        lambda: hetero_count_product(dice_pool(range(0, 101), range(0, 101)), LIMIT),
        "sum too large to count: a product of N-low+1 counts, N-low of 7 bits,",
    ),
    "hetero distribution": (
        lambda: hetero_counts(dice_pool(range(1, 33), range(1, LIMIT - 30))),
        lambda: hetero_counts(dice_pool(range(1, 33), range(1, LIMIT - 29))),
        "too many sums to list: the distribution of top-low+1 counts, top-low of 7 bits,",
    ),
    "lattice": (
        lambda: rv_count_solutions(LinearSystem2(((1, 0), (0, 1)), (5, LIMIT - 1))),
        lambda: rv_count_solutions(LinearSystem2(((1, 0), (0, 1)), (LIMIT, 5))),
        "targets too large to count: a lattice of n+1 by v+1 cells, the larger side of 7 bits,",
    ),
    "ordered polygonal": (
        lambda: ordered_representation_counts(3, 2, LIMIT - 1),
        lambda: ordered_representation_counts(3, 2, LIMIT),
        "bound too large to scan: a series of bound+1 counts, bound of 7 bits,",
    ),
}


@pytest.mark.parametrize("at_limit, past_limit, refusal", LIMIT_CASES.values(),
                         ids=LIMIT_CASES)
def test_each_route_answers_at_the_index_limit_and_refuses_one_past(
    monkeypatch, at_limit, past_limit, refusal
):
    # sys.maxsize is read at call time, so a lowered one moves every limit;
    # the memos are emptied so that no parked walk skips the refusal
    clear_memos()
    monkeypatch.setattr(sys, "maxsize", LIMIT)
    answer = at_limit()
    with pytest.raises(ValueError) as refused:
        past_limit()
    monkeypatch.undo()
    assert str(refused.value) == refusal + " cannot be indexed"
    assert answer == at_limit()
