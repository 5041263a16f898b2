"""Counting ordered ways n dice with faces 1..m sum to N.

count(N) is the coefficient of x^N in (x + x^2 + ... + x^m)^n. Four engines
compute it by genuinely different routes and exist to check one another:

``count_poly``
    expand the polynomial power and read the coefficient off.

``count_table_add_die``
    tabulate every (N, n) up to given maxima by adding one die at a time:
    (N)(n) = (N-1)(n) + (N-1)(n-1) - (N-1-m)(n-1). Unrolled over N this is
    one running sum, so each column is built from the previous one whole.
    ``count_add_die`` answers a point query from the last column.

``count_lambda_recurrence``
    walk the offset lam = N - n upward through a three-term recurrence
    whose every step divides exactly; intermediates are signed. A step
    reads only the last m+1 values, so the walk keeps a window of them:
    memory is O(m * bits of the count), not O(N * bits).

``count_closed_form``
    alternating binomial sum: inclusion-exclusion over how many dice are
    forced past their largest face.

All counts are exact Python ints. Writing (P)(n) for the number of ways n
dice total P, the useful structural facts are: support is n..m*n with value
1 at both ends, the counts are symmetric about the midpoint
((n+lam)(n) = (m*n-lam)(n)), each column sums to m^n, and below the first
wraparound (lam < m) the count is the plain composition count
C(n+lam-1, lam).

The two expanding engines, ``count_poly`` and ``count_add_die``, remember
what they expanded, per die shape (n, m), since one expansion holds the
count for every sum. Each expands out to the window
min(n*m, 2^bitlen(N)): the least power of two above N, capped at the full
support. An entry answers every later sum with the same window: N from
window/2 to window - 1, or, once the window is capped, every N from the
top power of two below n*m upward (past the support the count is 0). A
miss expands at most about twice as far as N needs, so it costs at most
about 3x an expansion to N alone, and never expands the full support for
a small N. Each engine keeps its own memo of at most SHAPE_MEMO_SIZE
entries, the least recently used dropped first, so the two routes stay
independent. An entry holds window+1 exact counts of at most n*log2(m)
bits each: about 77 KB for (190, 6) at window 1024, so each memo, full of
such shapes, holds about 2.5 MB. The λ recurrence and the closed form keep
no memo: they are the cheap, memo-free check the other two are compared
against.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import sub
from typing import NamedTuple

from .series import Count, IntPoly, coeff, intpoly, poly_pow


class DivisibilityError(RuntimeError):
    """A recurrence step failed to divide exactly; counts would be wrong."""


@dataclass(frozen=True)
class HomoQuery:
    """One homogeneous counting question: n dice, faces 1..m, target sum N."""

    n: int
    m: int
    N: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("need at least one die")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("need at least one face")
        if not isinstance(self.N, int) or self.N < 0:
            raise ValueError("target sum must be nonnegative")


def binomial(a: int, b: int) -> int:
    """C(a, b) with the usual convention: 0 when b < 0 or b > a."""
    if a < 0:
        raise ValueError("upper index must be nonnegative")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


# Entries each expanding engine keeps, one per (n, m, window).
SHAPE_MEMO_SIZE = 32


def _window(q: HomoQuery) -> int:
    """Largest sum an expansion for q keeps: the least power of two above
    N, capped at the full support n*m."""
    return min(q.n * q.m, 1 << q.N.bit_length())


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _die_power(n: int, m: int, window: int) -> IntPoly:
    return poly_pow(intpoly([0] + [1] * m), n, bound=window)


def count_poly(q: HomoQuery) -> Count:
    """Coefficient of x^N in (x + x^2 + ... + x^m)^n.

    The power is expanded out to the window of the module docstring and
    remembered per (n, m, window), so a shape seen before answers any sum
    in the same window without multiplying.
    """
    return coeff(_die_power(q.n, q.m, _window(q)), q.N)


@dataclass(frozen=True)
class CountTable:
    """Full grid of counts for faces 1..m, all n <= n_max and N <= N_max.

    Rows run N = 0..N_max (row 0 is all zeros; it makes the recurrence
    uniform), columns n = 1..n_max. Column n sums to m^n whenever
    N_max >= m*n, and each column is symmetric about N = n*(m+1)/2.
    """

    m: int
    n_max: int
    N_max: int
    entries: tuple[tuple[int, ...], ...]

    def count(self, N: int, n: int) -> Count:
        if not 1 <= n <= self.n_max:
            raise ValueError("n=%d outside table columns 1..%d" % (n, self.n_max))
        if not 0 <= N <= self.N_max:
            raise ValueError("N=%d outside table rows 0..%d" % (N, self.N_max))
        return self.entries[N][n - 1]

    def column(self, n: int) -> tuple[Count, ...]:
        """Counts for a fixed number of dice, N = 0..N_max."""
        if not 1 <= n <= self.n_max:
            raise ValueError("n=%d outside table columns 1..%d" % (n, self.n_max))
        return tuple(row[n - 1] for row in self.entries)


def _add_die_columns(m: int, n_max: int, N_max: int):
    """Yield the columns n = 1..n_max of counts over N = 0..N_max.

    Summing the add-a-die recurrence over N gives
    (N)(n) = sum over k < N of (k)(n-1) - (k-m)(n-1): column n is a zero
    followed by the running sum of column n-1 minus itself shifted down by
    m. The walk starts from no dice at all, (N)(0) = 1 at N = 0 only.
    """
    col = [1] + [0] * N_max
    for _ in range(n_max):
        col = [0, *islice(accumulate(map(sub, col, chain(repeat(0, m), col))), N_max)]
        yield col


def count_table_add_die(m: int, n_max: int, N_max: int) -> CountTable:
    """Tabulate counts by adding one die at a time.

    Throwing one more die and reading the face that completes the sum gives
    (N)(n) = (N-1)(n) + (N-1)(n-1) - (N-1-m)(n-1),
    out-of-range references counting as 0. Each column is computed whole
    from the previous one as a running sum, starting from zero dice; the
    rows of the table are the columns transposed.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("need at least one face")
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("need at least one column")
    if not isinstance(N_max, int) or N_max < 1:
        raise ValueError("need at least one row")
    return CountTable(m, n_max, N_max, tuple(zip(*_add_die_columns(m, n_max, N_max))))


class LambdaStep(NamedTuple):
    """One step of the offset recurrence: value = numerator / lam, exactly."""

    lam: int
    numerator: int
    value: int


def _lambda_steps(n: int, m: int, N: int):
    """Yield (lam, numerator, value) for lam = 1..N - n.

    A step reads the values at lam-1, lam-m and lam-m-1 only, so a window
    keeps the last k+1 values, k = min(m, N-n+1), seeded with k zeros for
    the offsets below 0 and the 1 at lam = 0. A walk shorter than m never
    reaches lam >= m, so there the zeros stand in for the values at lam-m
    and lam-m-1, and a huge m allocates no huge window.
    """
    k = min(m, N - n + 1)
    window = deque([0] * k + [1], maxlen=k + 1)
    a, b, c = n - 1, m * n + m, m * n - n + m + 1
    for lam in range(1, N - n + 1):
        # window[0], window[1], window[-1] hold the values at lam-m-1,
        # lam-m and lam-1
        numerator = (
            (a + lam) * window[-1] - (b - lam) * window[1] + (c - lam) * window[0]
        )
        value, r = divmod(numerator, lam)
        if r:
            raise DivisibilityError(
                "step lam=%d for n=%d m=%d left remainder %d" % (lam, n, m, r)
            )
        window.append(value)
        yield lam, numerator, value


def count_lambda_recurrence(q: HomoQuery) -> Count:
    """Count via the three-term recurrence in the offset lam = N - n.

    lam * (n+lam)(n) = (n+lam-1) * (n+lam-1)(n)
                     - (m*n+m-lam) * (n+lam-m)(n)
                     + (m*n-n+m+1-lam) * (n+lam-m-1)(n)

    seeded with (n)(n) = 1 and zeros below; a sum outside the support n..n*m
    is 0 without a step. Intermediate products are signed;
    every division is exact (a remainder raises DivisibilityError, since it
    would mean the values are not the counts this recurrence characterizes).
    A step reads only the last m+1 values, so only those are kept: memory
    is O(m * bits of the count), however long the walk.
    """
    if q.N < q.n or q.N > q.n * q.m:
        return 0
    value = 1
    for _, _, value in _lambda_steps(q.n, q.m, q.N):
        pass
    if value < 0:
        raise RuntimeError(
            "recurrence ended at negative count %d for n=%d m=%d N=%d"
            % (value, q.n, q.m, q.N)
        )
    return value


def lambda_recurrence_trace(q: HomoQuery) -> list[LambdaStep]:
    """All recurrence steps from lam = 1 up to lam = N - n, in order."""
    if q.N < q.n:
        return []
    return list(map(LambdaStep._make, _lambda_steps(q.n, q.m, q.N)))


def count_closed_form(q: HomoQuery) -> Count:
    """Alternating binomial sum for the count, no recursion.

    With lam = N - n, sum over j of
    (-1)^j * C(n, j) * C(n + lam - j*m - 1, lam - j*m)
    for as long as lam - j*m stays nonnegative: compositions with j dice
    pushed past face m, signed by inclusion-exclusion. The sum is the count
    itself, so no clamping is needed.
    """
    lam = q.N - q.n
    if lam < 0:
        return 0
    total = 0
    for j in range(0, min(q.n, lam // q.m) + 1):
        rest = lam - j * q.m
        term = binomial(q.n, j) * binomial(q.n + rest - 1, rest)
        total += term if j % 2 == 0 else -term
    return total


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _last_add_die_column(n: int, m: int, window: int) -> tuple[Count, ...]:
    for col in _add_die_columns(m, n, window):
        pass
    return tuple(col)


def count_add_die(q: HomoQuery) -> Count:
    """Point query answered by the add-a-die columns; only the last is read.

    The last column is built over the window of the module docstring and
    remembered per (n, m, window), in a memo of its own; a sum past the
    support reads 0.
    """
    col = _last_add_die_column(q.n, q.m, _window(q))
    return col[q.N] if q.N < len(col) else 0


ENGINES = {
    "poly": count_poly,
    "add-die": count_add_die,
    "lambda": count_lambda_recurrence,
    "closed": count_closed_form,
}

ENGINE_ORDER = tuple(ENGINES)
