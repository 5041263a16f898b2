"""Polygonal numbers and counting representations as sums of them.

The j-th m-gonal number is ((m-2)*j*j - (m-4)*j) / 2, always an integer:
0, 1, m, 3m-3, 6m-8, ... Triangles are m=3, squares m=4, and so on.
Every builder here takes the plain ints m and bound (inclusive) and lists
the numbers up to bound from ``polygonal_number``, the one home of the
formula.

Representation counting comes in two flavors that are deliberately both
here, because "a sum of k polygonal numbers" can be read two ways:

* ordered, zeros allowed: the k-th power of the series sum of x^(p_j)
  (which starts 1 + x + ...), built by ``series.marks_product`` with the
  m-gonal numbers up to bound as the marks of each of k factors; the
  coefficient at N counts ordered k-tuples.
  ``ordered_representation_counts`` returns the bound + 1 counts as a
  plain list; ``check_all_positive`` finds the first zero in such a list.

* unordered, over a ``PartSet``: ``polygonal_parts(m, bound)`` holds the
  numbers themselves, 0 included; a caller who wants no zero part drops
  it. A two-variable lattice walk counts multisets of exactly k parts.
  ``partition_count_grid`` returns the walk's columns, one per number of
  parts, indexed cols[k][N], and checks its two bounds, the only lattice
  input a ``PartSet`` does not already vouch for;
  ``count_partitions_with_parts`` reads one cell of it.

Positivity of one is equivalent to positivity of the other (with zero
included as a part), and the tests hold the two routes against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, takewhile
from typing import Iterator

from .series import Count, inverse_product_grid, marks_product, refuse_unindexable


def polygonal_number(m: int, j: int) -> int:
    """The j-th m-gonal number; j = 0 gives 0."""
    if not isinstance(m, int) or m < 3:
        raise ValueError("polygonal numbers need m >= 3 sides")
    if not isinstance(j, int) or j < 0:
        raise ValueError("index must be nonnegative")
    return ((m - 2) * j * j - (m - 4) * j) // 2


def _polygonal_numbers(m: int, bound: int) -> Iterator[int]:
    """The m-gonal numbers 0, 1, m, ... up to bound, strictly increasing,
    drawn lazily.

    The bound is checked at once; the first number drawn refuses a bad m.
    """
    if not isinstance(bound, int) or bound < 0:
        raise ValueError("bound must be nonnegative")
    numbers = (polygonal_number(m, j) for j in count())
    return takewhile(lambda p: p <= bound, numbers)


def ordered_representation_counts(m: int, k: int, bound: int) -> list[int]:
    """k-th power of the m-gonal series at x^0..x^bound, as bound + 1 counts.

    Count at N = ordered k-tuples of m-gonal numbers (zero allowed)
    summing to N. A list of bound + 1 counts past sys.maxsize cannot be
    indexed, so it is refused before the numbers are listed.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("power must be a positive int")
    numbers = _polygonal_numbers(m, bound)
    refuse_unindexable(bound + 1, "bound too large to scan: a series of bound+1 counts,"
                       " bound", bound)
    # the parts start at 0, so the product's counts start at x^0
    return marks_product({tuple(numbers): k}, bound)


def check_all_positive(counts: list[int], upto: int) -> int | None:
    """Smallest exponent in 0..upto with count 0, or None if none.

    Refuses to scan past what the counts actually know.
    """
    if not isinstance(upto, int) or upto < 0:
        raise ValueError("upto must be nonnegative")
    bound = len(counts) - 1
    if upto > bound:
        raise ValueError("upto %d exceeds the series bound %d" % (upto, bound))
    try:
        return counts.index(0, 0, upto + 1)
    except ValueError:
        return None


@dataclass(frozen=True)
class PartSet:
    """Strictly increasing nonnegative parts; include 0 only if you mean it."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("need at least one part")
        prev = -1
        for p in self.parts:
            if not isinstance(p, int) or p < 0:
                raise ValueError("parts must be nonnegative ints")
            if p <= prev:
                raise ValueError("parts must be strictly increasing")
            prev = p


def polygonal_parts(m: int, bound: int) -> PartSet:
    """All m-gonal numbers up to bound, 0 included, as a PartSet."""
    return PartSet(tuple(_polygonal_numbers(m, bound)))


def partition_count_grid(parts: PartSet, k_max: int, n_max: int) -> list[list[int]]:
    """Window of prod over parts of 1/(1 - x^p z) as k_max + 1 columns of
    n_max + 1 counts: cell cols[j][N] counts multisets of exactly j parts
    summing to N.

    Both bounds are checked here, before the lattice is allocated; the
    lattice kernel checks nothing itself.
    """
    if not isinstance(k_max, int) or k_max < 0:
        raise ValueError("k must be nonnegative")
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError("N must be nonnegative")
    return inverse_product_grid([(p, 1) for p in parts.parts], (n_max, k_max))


def count_partitions_with_parts(parts: PartSet, k: int, N: int) -> Count:
    """Multisets of exactly k values from parts summing to N.

    A repeated part counts once per use; if 0 is in parts, padding with
    zeros is allowed and distinct pad counts are distinct multisets.
    ``partition_count_grid`` checks k and N.
    """
    return partition_count_grid(parts, k, N)[k][N]
