"""Counting sums for a pool of unlike dice.

Each die carries its own marks (any nonnegative integers, duplicates
allowed; a duplicated mark counts twice); a die written lo..hi keeps the
``range``, which is checked and read by its two ends, never walked. The
number of ordered outcomes summing to N is the coefficient of x^N in the
product of the dice polynomials sum of x^mark.

A pool groups its equal dice once, when it is made, into one map of die
shapes, {marks: copies}. The map gives the least and greatest sums, the
symmetry test and the outcome count shape by shape, and it goes whole to
``series.marks_product``.

The full distribution, ``hetero_counts``, is one product up to the
largest sum, and its counts start at the least sum, as the product's do:
a pool whose least sum is huge lists only the sums it can throw.
``hetero_distribution`` pairs its nonzero counts with their sums. A die
is symmetric when its sorted marks pair up, first with last, second with
second to last and so on, to one sum: every ``range`` is, and
(0, 1, 1, 2) and (3, 3) are. A pool of symmetric dice has a symmetric
distribution, so only its lower half, up to the midpoint of the least and
greatest sums, is expanded, and the upper half is read off it as a mirror.
A pool with any other die is expanded in full.

Two engines for one sum, each of which folds a sum above the midpoint of
the support into the lower half first, so a sum near the top costs what
its mirror near the bottom does:

``hetero_count_product``
    multiply the dice polynomials with ``series.marks_product``, the packed
    accumulator that takes each die as shifted adds, and read the
    coefficient. Works for any marks. Reflecting every die, v -> least +
    greatest - v on its own marks, maps a throw summing to N to one summing
    to low + top - N, so a sum above the midpoint of any pool is counted as
    its mirror on the reflected pool. A ``range`` is its own reflection, as
    is every symmetric die.

``hetero_count_closed_form``
    for dice marked 1..m_i only: fold the sum to its mirror k + sum(m_i) - N
    when that is lower (these dice are symmetric), expand the product of
    (1 - x^(m_i)) on a dense list of signed coefficients, one shifted
    subtraction per factor, up to the folded sum less the number of dice;
    shift by the number of dice, and divide by (1 - x)^k via binomials.
    Evaluates single coefficients without building the product.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import compress
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
    """A pool of dice. Equal dice are grouped once, when the pool is made,
    into ``shapes``, {marks: copies} in order of first appearance."""

    dice: tuple[MarkedDie, ...]
    shapes: dict[tuple[int, ...] | range, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.dice:
            raise ValueError("a pool needs at least one die")
        shapes = {}
        for die in self.dice:
            shapes[die.marks] = shapes.get(die.marks, 0) + 1
        object.__setattr__(self, "shapes", shapes)

    @property
    def outcome_count(self) -> int:
        return math.prod(map(pow, map(len, self.shapes), self.shapes.values()))


def consecutive_pool(face_counts: tuple[int, ...]) -> DicePool:
    """Pool of dice marked 1..m_i for the given face counts."""
    return DicePool(tuple(MarkedDie(range(1, m + 1)) for m in face_counts))


def _support(pool: DicePool) -> tuple[int, int]:
    """The least and the greatest sum the pool can throw."""
    low = top = 0
    for marks, copies in pool.shapes.items():
        ends = mark_ends(marks)
        low += min(ends) * copies
        top += max(ends) * copies
    return low, top


def _symmetric(marks: tuple[int, ...] | range) -> bool:
    """Whether a die is its own reflection v -> least + greatest - v: its
    sorted marks pair up, first with last and so on, to one sum. A range
    always is."""
    if isinstance(marks, range):
        return True
    ordered = sorted(marks)
    pair = ordered[0] + ordered[-1]
    return [pair - v for v in reversed(ordered)] == ordered


def hetero_count_product(pool: DicePool, N: int) -> Count:
    """Ordered outcomes of the pool summing to N, by polynomial product.

    A sum outside the support low..top reads 0 at once. A sum above the
    midpoint is folded to its mirror low + top - N on the reflected pool:
    each tuple die's marks v become least + greatest - v, a ``range`` stays
    as it is, and the reflected pool has the same support. The product of
    the shapes is then truncated at the sum, and its counts start at low.
    A list of N - low + 1 counts past sys.maxsize cannot be indexed, so
    such a sum is refused before anything is expanded.
    """
    if N < 0:
        raise ValueError("target sum must be nonnegative")
    low, top = _support(pool)
    if N < low or N > top:
        return 0
    shapes = pool.shapes
    if 2 * N > low + top:
        N, shapes = low + top - N, {}
        for marks, copies in pool.shapes.items():
            if not isinstance(marks, range):
                pair = min(marks) + max(marks)
                marks = tuple(pair - v for v in marks)
            shapes[marks] = shapes.get(marks, 0) + copies
    if N - low + 1 > sys.maxsize:
        raise ValueError("sum too large to count: a product of N-low+1 counts, N-low of"
                         " %d bits, cannot be indexed" % (N - low).bit_length())
    return marks_product(shapes, N)[N - low]


def hetero_counts(pool: DicePool) -> tuple[int, list[Count]]:
    """The least sum low and the counts at every sum low..top, zeros included.

    The counts add up to the number of outcomes (the product of the face
    counts). When every die is symmetric, so is the distribution: the
    count at e equals the count at low + top - e. Such a pool is expanded
    up to (low + top) // 2 only and the rest is its mirror; a pool with
    any asymmetric die is expanded up to top. Each is one product of the
    pool's shapes. A list of top - low + 1 counts past sys.maxsize cannot
    be indexed, so it is refused before anything is built.
    """
    low, top = _support(pool)
    if top - low + 1 > sys.maxsize:
        raise ValueError(
            "too many sums to list: the distribution of top-low+1 counts, top-low of"
            " %d bits, cannot be indexed" % (top - low).bit_length()
        )
    if all(map(_symmetric, pool.shapes)):
        mid = (low + top) // 2
        counts = marks_product(pool.shapes, mid)
        counts += reversed(counts[: top - mid])
    else:
        counts = marks_product(pool.shapes, top)
    return low, counts


def hetero_distribution(pool: DicePool) -> list[tuple[int, Count]]:
    """All achievable sums with their counts, ascending: the nonzero counts
    of :func:`hetero_counts`, each with its sum."""
    low, counts = hetero_counts(pool)
    return list(compress(enumerate(counts, low), counts))


def _merged_numerator(face_counts: tuple[int, ...], limit: int) -> dict[int, int]:
    """prod (1 - x^(m_i)) up to x^limit, as {exponent: nonzero coefficient}.

    The product is expanded on a dense list of coefficients, exponent 0
    upward: a factor subtracts the list shifted up by m_i from itself, one
    C-speed pass over at most 2 * limit + 1 entries, cut back to limit + 1.
    A factor with m_i > limit is 1 up to x^limit, so it is skipped, and a
    negative limit leaves no terms. The expansion costs O(k * limit) rather
    than the 2^k of the unmerged expansion. The face counts are positive
    ints, checked by the caller.
    """
    acc = [1] if limit >= 0 else []
    for m in face_counts:
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
    the binomial are in range; below k dice no term does. Every face
    count is checked first, and then N is folded to min(N, k + sum(m_i) -
    N): the counts are symmetric about the midpoint of k..sum(m_i), so a
    sum near the top expands as few terms as its mirror, and a sum past
    the top folds below k and reads 0.
    """
    if N < 0:
        raise ValueError("target sum must be nonnegative")
    k = len(face_counts)
    if k < 1:
        raise ValueError("need at least one die")
    if not all(isinstance(m, int) and m >= 1 for m in face_counts):
        raise ValueError("face counts must be positive ints")
    N = min(N, k + sum(face_counts) - N)
    terms = _merged_numerator(face_counts, N - k)
    return sum(c * math.comb(N - e - 1, k - 1) for e, c in terms.items())
