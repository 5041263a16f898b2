"""Counting sums for a pool of unlike dice.

Each die carries its own marks (any nonnegative integers, duplicates
allowed; a duplicated mark counts twice). The number of ordered outcomes
summing to N is the coefficient of x^N in the product of the dice
polynomials sum of x^mark.

Two engines:

``hetero_count_product``
    multiply the dice polynomials, as a balanced tree of pairwise products,
    and read the coefficient. Works for any marks.

``hetero_count_closed_form``
    for dice marked 1..m_i only: expand the product of (1 - x^(m_i)) into
    signed terms, merging like terms after each factor, shift by the number
    of dice, and divide by (1 - x)^k via binomials. Evaluates single
    coefficients without building the product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homogeneous import binomial
from .series import Count, IntPoly, _product, coeff, intpoly

SignedTerm = tuple[int, int]  # (coefficient, exponent)


@dataclass(frozen=True)
class MarkedDie:
    """One die: the multiset of marks on its faces."""

    marks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.marks:
            raise ValueError("a die needs at least one face")
        for v in self.marks:
            if not isinstance(v, int) or v < 0:
                raise ValueError("marks must be nonnegative ints")


@dataclass(frozen=True)
class DicePool:
    dice: tuple[MarkedDie, ...]

    def __post_init__(self) -> None:
        if not self.dice:
            raise ValueError("a pool needs at least one die")

    @property
    def outcome_count(self) -> int:
        total = 1
        for d in self.dice:
            total *= len(d.marks)
        return total


def consecutive_pool(face_counts: tuple[int, ...]) -> DicePool:
    """Pool of dice marked 1..m_i for the given face counts."""
    return DicePool(tuple(MarkedDie(tuple(range(1, m + 1))) for m in face_counts))


def _die_poly(die: MarkedDie, bound: int | None = None) -> IntPoly:
    top = max(die.marks)
    cs = [0] * (top + 1)
    for v in die.marks:
        cs[v] += 1
    return intpoly(cs, bound)


def hetero_count_product(pool: DicePool, N: int) -> Count:
    """Ordered outcomes of the pool summing to N, by polynomial product."""
    if N < 0:
        raise ValueError("target sum must be nonnegative")
    return coeff(_product([_die_poly(die, N) for die in pool.dice], N), N)


def hetero_distribution(pool: DicePool) -> list[tuple[int, Count]]:
    """All achievable sums with their counts, ascending.

    The counts add up to the number of outcomes (the product of the face
    counts).
    """
    acc = _product([_die_poly(die) for die in pool.dice])
    return [(e, c) for e, c in enumerate(acc.coeffs) if c]


def numerator_terms(face_counts: tuple[int, ...]) -> list[SignedTerm]:
    """Signed expansion of prod (1 - x^(m_i)): exactly 2^k terms, unmerged.

    Signs alternate with the number of factors taken from the high side, so
    they balance: half +1, half -1.
    """
    terms: list[SignedTerm] = [(1, 0)]
    for m in face_counts:
        if not isinstance(m, int) or m < 1:
            raise ValueError("face counts must be positive ints")
        terms = [(s, e) for s, e in terms] + [(-s, e + m) for s, e in terms]
    return terms


def _merged_numerator(face_counts: tuple[int, ...]) -> dict[int, int]:
    """prod (1 - x^(m_i)) as {exponent: nonzero coefficient}.

    Like terms are merged after each factor, so there are never more than
    sum(m_i) + 1 of them and the expansion costs O(k * sum(m_i)) rather
    than the 2^k of :func:`numerator_terms`.
    """
    acc = {0: 1}
    for m in face_counts:
        if not isinstance(m, int) or m < 1:
            raise ValueError("face counts must be positive ints")
        nxt = dict(acc)
        for e, c in acc.items():
            nxt[e + m] = nxt.get(e + m, 0) - c
        acc = {e: c for e, c in nxt.items() if c}
    return acc


def hetero_count_closed_form(face_counts: tuple[int, ...], N: int) -> Count:
    """Single coefficient for dice marked 1..m_i, without the product.

    The generating function is x^k * prod (1 - x^(m_i)) / (1 - x)^k for k
    dice. Each merged numerator term c * x^e, shifted to exponent e + k,
    contributes c * C(N - e - k + k - 1, k - 1) whenever its exponent is at
    most N; terms past N are simply absent from the sum.
    """
    if N < 0:
        raise ValueError("target sum must be nonnegative")
    k = len(face_counts)
    if k < 1:
        raise ValueError("need at least one die")
    total = 0
    for e, c in _merged_numerator(face_counts).items():
        shifted = e + k
        if shifted <= N:
            total += c * binomial(N - shifted + k - 1, k - 1)
    return total
