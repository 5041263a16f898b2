import pytest

from sumways.heterogeneous import DicePool, MarkedDie, consecutive_pool
from sumways.oracle import (
    BudgetExceededError,
    brute_dice,
    brute_partitions,
    brute_regula,
)
from sumways.polygonal import PartSet
from sumways.regula import LinearSystem2


def test_brute_dice_basics():
    assert brute_dice(consecutive_pool((6, 6)), 7) == 6
    assert brute_dice(consecutive_pool((6,)), 0) == 0
    pool = DicePool((MarkedDie((3, 4)), MarkedDie((3, 4))))
    assert brute_dice(pool, 7) == 2
    assert brute_dice(pool, 6) == 1
    assert brute_dice(pool, 9) == 0


def test_brute_dice_budget():
    pool = consecutive_pool((6, 6, 6))
    with pytest.raises(BudgetExceededError):
        brute_dice(pool, 9, budget=100)
    assert brute_dice(pool, 9, budget=216) == 25
    # past about 100 digits a space is named by its digit count
    with pytest.raises(BudgetExceededError, match="^dice outcome space of about 156 digits "):
        brute_dice(consecutive_pool((6,) * 200), 9)


def test_brute_partitions_ordered():
    parts = PartSet((0, 1, 3, 6))
    assert brute_partitions(parts, 3, 5, ordered=True) == 3
    assert brute_partitions(parts, 1, 6, ordered=True) == 1
    assert brute_partitions(parts, 1, 5, ordered=True) == 0
    assert brute_partitions(parts, 0, 0, ordered=True) == 1
    assert brute_partitions(parts, 0, 2, ordered=True) == 0


def test_brute_partitions_unordered():
    parts = PartSet((0, 1, 3, 6))
    assert brute_partitions(parts, 3, 5, ordered=False) == 1
    assert brute_partitions(parts, 2, 4, ordered=False) == 1  # {1, 3}
    assert brute_partitions(parts, 3, 2, ordered=False) == 1  # {0, 1, 1}
    assert brute_partitions(parts, 3, 2, ordered=True) == 3


def test_brute_partitions_budget():
    parts = PartSet(tuple(range(30)))
    with pytest.raises(BudgetExceededError):
        brute_partitions(parts, 6, 10, ordered=True, budget=1000)
    # 30^(10^6) is refused on its bit length alone, never computed
    with pytest.raises(BudgetExceededError, match="space of about 1477122 digits exceeds"):
        brute_partitions(parts, 10**6, 10, ordered=True, budget=1000)
    with pytest.raises(ValueError):
        brute_partitions(parts, -1, 3, ordered=True)


def test_brute_regula():
    assert brute_regula(LinearSystem2(((1, 1),), (3, 3))) == 1
    assert brute_regula(LinearSystem2(((1, 1),), (3, 4))) == 0
    # decoupled: x = 4 and y = 3 fixed, z free on neither target: impossible
    sys = LinearSystem2(((1, 0), (0, 1)), (4, 3))
    assert brute_regula(sys) == 1
    sys = LinearSystem2(((1, 0), (1, 0), (0, 1)), (2, 1))
    assert brute_regula(sys) == 3  # x1 + x2 = 2 three ways, x3 = 1
    pos = LinearSystem2(((1, 0), (1, 0), (0, 1)), (2, 1), "positive")
    assert brute_regula(pos) == 1


def test_brute_regula_budget():
    sys = LinearSystem2(((1, 0), (0, 1), (1, 1)), (60, 60))
    with pytest.raises(BudgetExceededError):
        brute_regula(sys, budget=1000)
