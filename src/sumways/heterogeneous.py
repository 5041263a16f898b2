"""Counting sums for a pool of unlike dice.

Each die carries its own marks (any nonnegative integers, duplicates
allowed; a duplicated mark counts twice); a die written lo..hi keeps the
``range``, which is checked and read by its two ends, never walked. The
number of ordered outcomes summing to N is the coefficient of x^N in the
product of the dice polynomials sum of x^mark.

The full distribution, ``hetero_distribution``, is one product up to the
largest sum. A die is symmetric when its sorted marks pair up, first with
last, second with second to last and so on, to one sum: every ``range`` is,
and (0, 1, 1, 2) and (3, 3) are. A pool of symmetric dice has a symmetric
distribution, so only its lower half, up to the midpoint of the least and
greatest sums, is expanded, and the upper half is read off it as a mirror.
A pool with any other die is expanded in full.

Two engines for one sum:

``hetero_count_product``
    multiply the dice polynomials with ``series.marks_product``, the packed
    accumulator that takes each die as shifted adds, and read the
    coefficient. Works for any marks.

``hetero_count_closed_form``
    for dice marked 1..m_i only: expand the product of (1 - x^(m_i)) on a
    dense list of signed coefficients, one shifted subtraction per factor,
    up to the sum asked for less the number of dice; shift by the number of
    dice, and divide by (1 - x)^k via binomials. Evaluates single
    coefficients without building the product.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import sub

from .series import Count, mark_ends, marks_product


@dataclass(frozen=True)
class MarkedDie:
    """One die: the multiset of marks on its faces."""

    marks: tuple[int, ...] | range

    def __post_init__(self) -> None:
        try:
            faces = len(self.marks)
        except OverflowError:
            raise ValueError("a die has too many faces to count") from None
        if not faces:
            raise ValueError("a die needs at least one face")
        for v in mark_ends(self.marks):
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
    return DicePool(tuple(MarkedDie(range(1, m + 1)) for m in face_counts))


def _top(pool: DicePool) -> int:
    """The largest sum the pool can throw."""
    return sum(max(mark_ends(die.marks)) for die in pool.dice)


def hetero_count_product(pool: DicePool, N: int) -> Count:
    """Ordered outcomes of the pool summing to N, by polynomial product.

    The product is truncated at N. A sum past the support reads 0 at once,
    so no slot mask is ever wider than the product itself.
    """
    if N < 0:
        raise ValueError("target sum must be nonnegative")
    if N > _top(pool):
        return 0
    return marks_product([die.marks for die in pool.dice], N)[N]


def _symmetric(marks: tuple[int, ...] | range) -> bool:
    """Whether a die is its own reflection v -> least + greatest - v: its
    sorted marks pair up, first with last and so on, to one sum. A range
    always is."""
    if isinstance(marks, range):
        return True
    ordered = sorted(marks)
    pair = ordered[0] + ordered[-1]
    return all(a + b == pair for a, b in zip(ordered, reversed(ordered)))


def hetero_distribution(pool: DicePool) -> list[tuple[int, Count]]:
    """All achievable sums with their counts, ascending.

    The counts add up to the number of outcomes (the product of the face
    counts). When every die is symmetric, so is the distribution: with low
    and top the least and greatest sums, the count at e equals the count at
    low + top - e. Such a pool is expanded up to (low + top) // 2 only and
    the rest is its mirror; a pool with any asymmetric die is expanded up
    to top. A list of top + 1 counts past sys.maxsize cannot be indexed, so
    it is refused before anything is built.
    """
    marks = [die.marks for die in pool.dice]
    top = _top(pool)
    if top + 1 > sys.maxsize:
        raise ValueError(
            "too many sums to list: the distribution of top+1 counts, top of %d bits,"
            " cannot be indexed" % top.bit_length()
        )
    if all(map(_symmetric, dict.fromkeys(marks))):
        low = sum(min(mark_ends(m)) for m in marks)
        mid = (low + top) // 2
        counts = marks_product(marks, mid)
        counts += reversed(counts[low : low + top - mid])
    else:
        counts = marks_product(marks, top)
    return [(e, c) for e, c in enumerate(counts) if c]


def _merged_numerator(face_counts: tuple[int, ...], limit: int) -> dict[int, int]:
    """prod (1 - x^(m_i)) up to x^limit, as {exponent: nonzero coefficient}.

    The product is expanded on a dense list of coefficients, exponent 0
    upward: a factor subtracts the list shifted up by m_i from itself, one
    C-speed pass over at most 2 * limit + 1 entries, cut back to limit + 1.
    A factor with m_i > limit is 1 up to x^limit, so it is checked and
    skipped, and a negative limit leaves no terms. The expansion costs
    O(k * limit) rather than the 2^k of the unmerged expansion.
    """
    acc = [1] if limit >= 0 else []
    for m in face_counts:
        if not isinstance(m, int) or m < 1:
            raise ValueError("face counts must be positive ints")
        if m <= limit:
            pad = [0] * m
            acc = list(map(sub, acc + pad, pad + acc))
            del acc[limit + 1 :]
    return {e: c for e, c in enumerate(acc) if c}


def hetero_count_closed_form(face_counts: tuple[int, ...], N: int) -> Count:
    """Single coefficient for dice marked 1..m_i, without the product.

    The generating function is x^k * prod (1 - x^(m_i)) / (1 - x)^k for k
    dice. Each merged numerator term c * x^e, shifted to exponent e + k,
    contributes c * C(N - e - k + k - 1, k - 1) when e + k <= N, so the
    numerator is expanded up to x^(N - k) only, where both arguments of
    the binomial are in range; below k dice no term does.
    """
    if N < 0:
        raise ValueError("target sum must be nonnegative")
    k = len(face_counts)
    if k < 1:
        raise ValueError("need at least one die")
    terms = _merged_numerator(face_counts, N - k)
    return sum(c * math.comb(N - e - 1, k - 1) for e, c in terms.items())
