import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumways.heterogeneous import (
    DicePool,
    MarkedDie,
    consecutive_pool,
    hetero_count_closed_form,
    hetero_count_product,
    hetero_distribution,
    numerator_terms,
)
from sumways.homogeneous import HomoQuery, count_poly
from sumways.oracle import brute_dice
from sumways.series import coeff, intpoly, poly_mul


def test_die_validation():
    with pytest.raises(ValueError):
        MarkedDie(())
    with pytest.raises(ValueError):
        MarkedDie((1, -2))
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
    terms = numerator_terms((6, 8, 12))
    assert len(terms) == 8
    assert sum(s for s, _ in terms) == 0
    # multiplying out explicitly must give the same signed polynomial
    explicit = intpoly([1])
    for m in (6, 8, 12):
        factor = intpoly([1] + [0] * (m - 1) + [-1])
        explicit = poly_mul(explicit, factor)
    merged = {}
    for s, e in terms:
        merged[e] = merged.get(e, 0) + s
    for e in range(explicit.degree + 1):
        assert merged.get(e, 0) == coeff(explicit, e)
    assert sorted(e for e, c in merged.items() if c) == [0, 6, 8, 12, 14, 18, 20, 26]


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
    with pytest.raises(ValueError):
        hetero_count_closed_form((6, 0), 3)


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


def test_matches_homogeneous_engines():
    for n in (1, 2, 3):
        for m in (2, 5, 6):
            pool = consecutive_pool((m,) * n)
            for N in range(0, m * n + 2):
                assert hetero_count_product(pool, N) == count_poly(HomoQuery(n, m, N))


def test_distribution_total_and_symmetry():
    rng = random.Random(22)
    for _ in range(20):
        faces = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 4)))
        pool = consecutive_pool(faces)
        dist = dict(hetero_distribution(pool))
        assert sum(dist.values()) == pool.outcome_count
        mirror = sum(m + 1 for m in faces)
        for N, c in dist.items():
            assert dist.get(mirror - N) == c, (faces, N)


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
