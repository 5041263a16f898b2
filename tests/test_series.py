import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sumways.heterogeneous import (
    DicePool,
    MarkedDie,
    hetero_count_product,
    hetero_distribution,
)
from sumways.oracle import brute_regula
from sumways.regula import LinearSystem2, rv_count_solutions
from sumways.series import IntPoly, coeff, intpoly, inverse_product_grid, poly_mul, poly_pow

DIE6 = intpoly([0, 1, 1, 1, 1, 1, 1])


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


def rand_poly(rng, max_deg=8, max_abs=9, bound=None):
    cs = [rng.randint(-max_abs, max_abs) for _ in range(rng.randint(0, max_deg + 1))]
    return intpoly(cs, bound)


class Small(int):
    pass


def test_intpoly_canonical():
    assert intpoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert intpoly([]).coeffs == ()
    assert intpoly([0, 0]).coeffs == ()
    assert intpoly([1, 2, 3, 4], bound=1).coeffs == (1, 2)
    assert intpoly([1, 0, 0, 4], bound=2).coeffs == (1,)
    # an int subclass other than bool is an int
    assert IntPoly((Small(3),)).coeffs == (3,)


def test_intpoly_rejects_noncanonical():
    with pytest.raises(ValueError):
        IntPoly((1, 0))
    with pytest.raises(ValueError):
        IntPoly((1, 2, 3), bound=1)
    with pytest.raises(ValueError):
        IntPoly((True,))
    for cell in (True, 1.0, "1"):
        with pytest.raises(ValueError):
            IntPoly((1, cell))
    with pytest.raises(ValueError):
        intpoly([1], bound=-1)


def test_coeff_conventions():
    p = intpoly([5, 0, 7])
    assert coeff(p, 0) == 5
    assert coeff(p, 1) == 0
    assert coeff(p, 2) == 7
    assert coeff(p, 3) == 0
    assert coeff(p, -1) == 0


def test_mul_die_squared():
    sq = poly_mul(DIE6, DIE6)
    assert coeff(sq, 7) == 6
    assert coeff(sq, 2) == 1
    assert coeff(sq, 12) == 1
    assert coeff(sq, 1) == 0
    assert coeff(sq, 13) == 0


def test_pow_examples():
    assert coeff(poly_pow(DIE6, 3), 10) == 27
    assert coeff(poly_pow(DIE6, 4), 14) == 146
    assert poly_pow(DIE6, 0) == intpoly([1])


def test_mul_by_zero_and_one():
    zero = intpoly([])
    one = intpoly([1])
    p = intpoly([3, -1, 4])
    assert poly_mul(p, zero) == zero
    assert poly_mul(p, one) == p


def test_ring_identities():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_pow_is_iterated_mul():
    rng = random.Random(13)
    for _ in range(20):
        a = rand_poly(rng, max_deg=4, max_abs=3)
        k = rng.randint(0, 5)
        expect = intpoly([1])
        for _ in range(k):
            expect = poly_mul(expect, a)
        assert poly_pow(a, k) == expect


def test_truncated_mul_matches_full():
    rng = random.Random(17)
    for _ in range(30):
        a = rand_poly(rng)
        b = rand_poly(rng)
        bound = rng.randint(0, 10)
        assert poly_mul(a, b, bound).coeffs == intpoly(
            poly_mul(a, b).coeffs, bound
        ).coeffs


def test_bound_is_part_of_the_value():
    a = intpoly([1, 1], bound=5)
    b = intpoly([1, 1], bound=7)
    with pytest.raises(ValueError):
        poly_mul(a, b)
    # explicit narrowing is allowed
    assert poly_mul(a, b, bound=5).bound == 5
    # widening past the known window is not
    with pytest.raises(ValueError):
        poly_mul(a, a, bound=6)
    # exact values join bounded ones at the bounded window
    assert poly_mul(intpoly([1, 1]), a).bound == 5


def test_inverse_product_grid_shape():
    # a plain list of bounds[0]+1 rows of bounds[1]+1 ints
    for bounds in ((0, 0), (1, 1), (3, 0), (0, 2), (2, 5)):
        g = inverse_product_grid([(1, 2), (0, 1)], bounds)
        assert type(g) is list and len(g) == bounds[0] + 1
        for row in g:
            assert type(row) is list and len(row) == bounds[1] + 1
            assert {type(c) for c in row} == {int}
        assert g[0][0] == 1


def test_inverse_product_grid_geometric():
    # 1/(1 - u v) has 1 exactly on the diagonal
    g = inverse_product_grid([(1, 1)], (4, 4))
    assert g == [[1 if i == j else 0 for j in range(5)] for i in range(5)]


def test_inverse_product_grid_counts_pairs():
    # 1/((1-u)(1-u^2)): coefficient of u^4 counts {1,2}-multisets: 4 = 1+1+1+1,
    # 1+1+2, 2+2
    g = inverse_product_grid([(1, 0), (2, 0)], (4, 0))
    assert g[4][0] == 3


def test_inverse_product_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        inverse_product_grid([(0, 0)], (2, 2))
    with pytest.raises(ValueError):
        inverse_product_grid([(-1, 1)], (2, 2))
    with pytest.raises(ValueError):
        inverse_product_grid([(1, 1)], (-1, 2))
    with pytest.raises(ValueError):
        inverse_product_grid([(1, 1)], (2, -1))


def test_inverse_product_grid_checks_steps_before_the_walk():
    # a bad step late in the list is refused before any grid is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            inverse_product_grid([(1, 1), (2, 3), (0, 0)], (300, 300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


# -- the lattice walk against the two-equation oracle, cell by cell ----------

# Steps with a = 0 or b = 0, and steps past the window, which add nothing.
lattice_steps = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda s: s != (0, 0))


@settings(max_examples=100, deadline=None)
@given(st.lists(lattice_steps, min_size=1, max_size=4), st.integers(0, 6), st.integers(0, 6))
@example([(0, 1), (3, 0), (9, 9)], 4, 5)
@example([(1, 0), (1, 0)], 5, 0)
@example([(7, 7)], 3, 3)
@example([(2, 1), (0, 3), (1, 0), (1, 1)], 6, 6)
def test_every_grid_cell_matches_brute_force(steps, bu, bv):
    grid = inverse_product_grid(steps, (bu, bv))
    assert grid == [
        [brute_regula(LinearSystem2(tuple(steps), (i, j))) for j in range(bv + 1)]
        for i in range(bu + 1)
    ]
    # positive mode reads a cell of the grid for the shifted targets
    pos = LinearSystem2(tuple(steps), (bu, bv), "positive")
    assert rv_count_solutions(pos) == brute_regula(pos)


# -- the Kronecker kernel against the schoolbook reference --------------------


@st.composite
def coeff_lists(draw, max_len=24):
    """Signed coefficients of 1 to 1000 bits, dense or mostly zero."""
    bits = draw(st.integers(1, 1000))
    top = (1 << bits) - 1
    value = st.integers(-top, top)
    if draw(st.booleans()):
        value = st.one_of(st.just(0), st.just(0), st.just(0), value)
    return draw(st.lists(value, max_size=max_len))


bounds = st.one_of(st.none(), st.integers(0, 50))


def examples(n):
    """n examples per property, with no per-example deadline or generation
    speed check, which a loaded machine would fail on big coefficients."""
    return settings(
        max_examples=n, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )


@examples(200)
@given(coeff_lists(), coeff_lists(), bounds)
@example([], [1, 2], None)
@example([5, -3], [], 0)
@example([0, 0, 7], [1, 1], 0)
@example([1, 1], [1, -1], 1)
def test_mul_matches_schoolbook(a, b, bound):
    got = poly_mul(intpoly(a), intpoly(b), bound)
    assert got.coeffs == schoolbook(a, b, bound)
    assert got.bound == bound


@examples(60)
@given(coeff_lists(), bounds)
def test_square_matches_schoolbook(a, bound):
    p = intpoly(a)
    assert poly_mul(p, p, bound).coeffs == schoolbook(a, a, bound)


@examples(100)
@given(coeff_lists(), coeff_lists(), st.data())
def test_mixed_bounds_with_explicit_result_bound(a, b, data):
    ba = data.draw(st.integers(0, 30))
    bb = data.draw(st.integers(0, 30))
    rb = data.draw(st.integers(0, min(ba, bb)))
    got = poly_mul(intpoly(a, ba), intpoly(b, bb), rb)
    assert got.bound == rb
    assert got.coeffs == schoolbook(a[: ba + 1], b[: bb + 1], rb)


@examples(100)
@given(coeff_lists(max_len=10), st.integers(1, 20), st.integers(0, 40))
def test_cancellation_strips_top_slots(p, j, bound):
    # p * (1 + ... + x^(j-1)) * (1 - x) = p * (1 - x^j): under a bound that
    # ends inside the gap, the retained top slots cancel to zero
    a = schoolbook(p, [1] * j)
    got = poly_mul(intpoly(a), intpoly([1, -1]), bound)
    assert got.coeffs == schoolbook(a, [1, -1], bound)
    if len(p) <= bound < j:
        assert got.coeffs == intpoly(p).coeffs


@pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
def test_coefficients_at_slot_boundary(width):
    half = 1 << (8 * width - 1)
    for c in (half - 1, half, half + 1):
        for a in ([c, c, c], [c, -c, c], [-c, 0, -c], [c] * 255, [-c, c] * 127):
            for b in ([c], [-c, c], [c] * 255, a):
                assert poly_mul(intpoly(a), intpoly(b)).coeffs == schoolbook(a, b)


@examples(60)
@given(coeff_lists(max_len=8), st.integers(0, 9), bounds)
def test_pow_matches_schoolbook(a, k, bound):
    expect = (1,)
    for _ in range(k):
        expect = schoolbook(expect, a, bound)
    got = poly_pow(intpoly(a), k, bound)
    assert got.coeffs == expect
    assert got.bound == bound


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
