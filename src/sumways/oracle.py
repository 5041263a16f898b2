"""Brute-force enumeration oracles.

Everything here is deliberately dumb: enumerate outcomes, count matches.
The only cleverness allowed is refusing to start when the outcome space
exceeds the budget, so a typo cannot freeze a test run. These functions
never share code with the engines they are used to check.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product

from .heterogeneous import DicePool
from .polygonal import PartSet
from .regula import LinearSystem2
from .series import Count

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The outcome space is larger than the oracle is willing to walk."""


def check_budget(base: int, budget: int, what: str, power: int = 1) -> None:
    """Refuse an outcome space of base^power larger than the budget, before
    any walk. A space past 332 bits (about 100 digits) is named by its
    digit count; once power * floor(log2(base)) reaches both 332 and the
    budget's bit length, the space exceeds the budget and is not computed."""
    if power * (base.bit_length() - 1) < max(budget.bit_length(), 332):
        space = base**power
        if space <= budget:
            return
        if space.bit_length() <= 332:
            raise BudgetExceededError(
                "%s outcome space %d exceeds budget %d" % (what, space, budget)
            )
    raise BudgetExceededError(
        "%s outcome space of about %d digits exceeds budget %d"
        % (what, power * math.log10(base) + 1, budget)
    )


def brute_dice(pool: DicePool, N: int, budget: int = DEFAULT_BUDGET) -> Count:
    """Count pool outcomes summing to N by walking all of them."""
    check_budget(pool.outcome_count, budget, "dice")
    markses = [d.marks for d in pool.dice]
    return sum(1 for outcome in product(*markses) if sum(outcome) == N)


def brute_partitions(
    parts: PartSet, k: int, N: int, ordered: bool, budget: int = DEFAULT_BUDGET
) -> Count:
    """Count k-tuples (ordered) or k-multisets (unordered) from parts
    summing to N."""
    if k < 0 or N < 0:
        raise ValueError("k and N must be nonnegative")
    vals = parts.parts
    if ordered:
        check_budget(len(vals), budget, "ordered parts", k)
        return sum(1 for t in product(vals, repeat=k) if sum(t) == N)
    check_budget(math.comb(len(vals) + k - 1, k), budget, "unordered parts")
    return sum(1 for t in combinations_with_replacement(vals, k) if sum(t) == N)


def _regula_loops(gens, lo: int, i: int, rn: int, rv: int) -> int:
    """Nested loops from generator i on: each x runs from lo to the most
    the remaining targets rn and rv allow; count the leaves at zero."""
    if i == len(gens):
        return 1 if rn == 0 and rv == 0 else 0
    a, b = gens[i]
    hi = []
    if a:
        hi.append(rn // a)
    if b:
        hi.append(rv // b)
    total = 0
    for x in range(lo, min(hi) + 1):
        total += _regula_loops(gens, lo, i + 1, rn - a * x, rv - b * x)
    return total


def brute_regula(sys: LinearSystem2, budget: int = DEFAULT_BUDGET) -> Count:
    """Count solutions by nested bounded loops over the variables."""
    n, v = sys.targets
    lo = 1 if sys.mode == "positive" else 0
    space = 1
    for a, b in sys.generators:
        bounds = []
        if a:
            bounds.append(n // a)
        if b:
            bounds.append(v // b)
        space *= min(bounds) + 1
    check_budget(space, budget, "two-equation")
    return _regula_loops(sys.generators, lo, 0, n, v)
