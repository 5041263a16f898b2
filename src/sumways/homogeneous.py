"""Counting ordered ways n dice with faces 1..m sum to N.

count(N) is the coefficient of x^N in (x + x^2 + ... + x^m)^n. Four engines
compute it by genuinely different routes and exist to check one another:

``count_poly``
    expand the polynomial power, one die at a time on the packed
    accumulator of ``series.marks_product``, and read the coefficient off.

``count_table_add_die``
    tabulate every (N, n) up to given maxima by adding one die at a time:
    (N)(n) = (N-1)(n) + (N-1)(n-1) - (N-1-m)(n-1). Unrolled over N this is
    one running sum, so each column is built from the previous one whole.
    ``count_add_die`` answers a point query from the last column.

``count_lambda_recurrence``
    walk the offset lam = N - n through a three-term recurrence whose
    every step divides exactly; intermediates are signed. A step reads
    only the last k+1 values, k the faces a throw summing to N can show
    (``count_lambda_recurrence`` cuts the rest), so the walk keeps a window
    of them: memory is O(k * bits of the count), not O(N * bits). Solved
    for its oldest term, the same relation steps the walk back down, so a
    walk parked at one sum reaches another sum of its shape in |N - N'|
    steps.
    ``lambda_recurrence_trace`` walks up from lam = 0 by the same forward
    step and records each step, without folding N; the count records
    none. Neither steps for a sum outside the support n..n*m.

``count_closed_form``
    alternating binomial sum: inclusion-exclusion over how many dice are
    forced past their largest face. Its two binomials are computed once, at
    the largest such number, and walked down term by term by exact ratios.

All counts are exact Python ints. Writing (P)(n) for the number of ways n
dice total P, the useful structural facts are: support is n..m*n with value
1 at both ends, the counts are symmetric about the midpoint
((n+lam)(n) = (m*n-lam)(n)), each column sums to m^n, and below the first
wraparound (lam < m) the count is the plain composition count
C(n+lam-1, lam).

By that symmetry every count engine folds its sum into the lower half of
the support, N' = min(N, n*(m+1) - N), so a sum near the top costs what
its mirror near the bottom does. Each engine writes the fold itself (λ
and the closed form fold lam = N' - n), so a wrong fold in one shows up as
a disagreement with the others. A sum past the top folds below n, so
N' < n is each engine's one door to 0 outside the support n..n*m.
``lambda_recurrence_trace`` never folds: it records the steps up to the
sum it is given.

The two expanding engines, ``count_poly`` and ``count_add_die``, remember
what they expanded, per die shape (n, m), since one expansion holds the
count for every sum. Each expands out to the window min(n*(m+1)//2,
2^bitlen(N')): the least power of two above the folded sum N', capped at
the midpoint n*(m+1)//2, past which no folded sum reads, and computes that
window itself. An entry answers every later sum with the same window: N'
from window/2 to window - 1, or, once the window is capped, every N' from
the top power of two below the midpoint up to it, and each sum's mirror
with it. A miss expands at most about twice as far as N' needs, so it
costs at most about 3x an expansion to N' alone, and never expands past
the midpoint. Each engine keeps its own memo of at most SHAPE_MEMO_SIZE
entries, the least recently used dropped first, so the two routes stay
independent. An ``add-die`` entry holds window+1 exact counts of at most
n*log2(m) bits each, and a ``poly`` entry the window-n+1 of them from the
least sum n on: about 39 KB for (190, 6) at its capped window 665, so each
memo, full of such shapes, holds about 1.2 MB.

The λ recurrence parks walks instead of a table, one per walked shape
(n, k) and band of offsets, the band being lam's bit length: an offset
lam and the window of the last k+1 counts up to lam. A count moves a copy
of the walk parked in its own band, or a fresh walk from lam = 0 when the
band has none, and parks the copy at its own offset. Any walk in the band
is fewer than lam steps away, so it is always nearer than a fresh walk,
and a shape asked in turn near two sums in different bands keeps a walk
near each. The trade is at a band's edge: the first count in a band walks
from lam = 0, even past a walk parked one step away in the band below. A
parked window is never changed, so a step that fails leaves the park as it
was. The park is the third ``lru_cache`` of at most SHAPE_MEMO_SIZE
slots, so 32 parked walks of (190, 6) shapes hold 32 * 7 counts, and all
three like-dice memos are keyed by die shape and a power-of-two band of
the sum. The closed form keeps no memo: it is the one memo-free check the
other three are compared against.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import sub
from typing import NamedTuple

from .series import Count, marks_product


class DivisibilityError(RuntimeError):
    """An exact-arithmetic check failed (a recurrence step left a remainder,
    or a walk ended at a negative count); counts would be wrong."""


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


# Entries each like-dice memo keeps: one per (n, m, window) for each
# expanding engine, and one parked λ walk per (n, k, band of lam).
SHAPE_MEMO_SIZE = 32


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _die_power(n: int, m: int, window: int) -> tuple[Count, ...]:
    # a face above the window is part of no sum the window keeps; the
    # counts start at the least sum, n
    return tuple(marks_product({range(1, min(m, window) + 1): n}, window))


def count_poly(q: HomoQuery) -> Count:
    """Coefficient of x^N in (x + x^2 + ... + x^m)^n.

    The power is expanded out to the window of the module docstring and
    remembered per (n, m, window), so a shape seen before answers any sum
    in the same window without multiplying. The sum is folded into the
    lower half of the support first, and a sum outside the support n..n*m
    is 0 without an expansion.
    """
    N = min(q.N, q.n * (q.m + 1) - q.N)
    if N < q.n:
        return 0
    window = min(q.n * (q.m + 1) // 2, 1 << N.bit_length())
    return _die_power(q.n, q.m, window)[N - q.n]


def _add_die_columns(m: int, n_max: int, N_max: int):
    """Yield the columns n = 1..n_max of counts over N = 0..N_max.

    Summing the add-a-die recurrence over N gives
    (N)(n) = sum over k < N of (k)(n-1) - (k-m)(n-1): column n is a zero
    followed by the running sum of column n-1 minus itself shifted down by
    m. The walk starts from no dice at all, (N)(0) = 1 at N = 0 only. A
    shift past N_max leaves only zeros in the window, so the shift is cut
    at N_max + 1: faces past N_max reach no sum the columns keep, and a
    huge m builds no huge run of zeros. n dice sum to at least n, so every
    column past n = N_max is all zeros: at most N_max columns are walked,
    and the rest are one list of zeros.
    """
    col = [1] + [0] * N_max
    shift = min(m, N_max + 1)
    for _ in range(min(n_max, N_max)):
        col = [0, *islice(accumulate(map(sub, col, chain(repeat(0, shift), col))), N_max)]
        yield col
    if n_max > N_max:
        yield from repeat([0] * (N_max + 1), n_max - N_max)


def count_table_add_die(m: int, n_max: int, N_max: int) -> tuple[tuple[int, ...], ...]:
    """Tabulate counts by adding one die at a time.

    Throwing one more die and reading the face that completes the sum gives
    (N)(n) = (N-1)(n) + (N-1)(n-1) - (N-1-m)(n-1),
    out-of-range references counting as 0. Each column is computed whole
    from the previous one as a running sum, starting from zero dice; the
    rows of the table are the columns transposed.

    Returns the rows: ``rows[N][n - 1]`` counts throws of n dice summing
    to N. Rows run N = 0..N_max (row 0 is all zeros; it makes the
    recurrence uniform), columns n = 1..n_max. Column n sums to m^n
    whenever N_max >= m*n, and each column is symmetric about
    N = n*(m+1)/2. A column of N_max+1 counts or a row of n_max counts
    past sys.maxsize cannot be indexed, so it is refused before anything
    is built.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("need at least one face")
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("need at least one column")
    if not isinstance(N_max, int) or N_max < 1:
        raise ValueError("need at least one row")
    if N_max + 1 > sys.maxsize:
        raise ValueError(
            "too many rows to tabulate: a column of N_max+1 counts, N_max of %d bits,"
            " cannot be indexed" % N_max.bit_length()
        )
    if n_max > sys.maxsize:
        raise ValueError("too many columns to tabulate: a row of n_max counts, n_max of"
                         " %d bits, cannot be indexed" % n_max.bit_length())
    return tuple(zip(*_add_die_columns(m, n_max, N_max)))


class LambdaStep(NamedTuple):
    """One step of the offset recurrence: value = numerator / lam, exactly."""

    lam: int
    numerator: int
    value: int


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _parked(n: int, k: int, band: int) -> list[tuple[int, deque[int]] | None]:
    """The slot of the λ walk last parked on the shape (n, k) at an offset
    of bit length ``band``: a one-item list, None until a walk is parked.
    A parked window is never changed, and the slot's item is replaced
    whole, so any thread may read it."""
    return [None]


def _seed_walk(m: int) -> tuple[int, deque[int]]:
    """The walk at lam = 0, where the count is 1, after m zeros below.
    A window of m+1 counts past sys.maxsize cannot be indexed, so it is
    refused before anything is built."""
    if m + 1 > sys.maxsize:
        raise ValueError(
            "too many faces to walk: the lambda window of k+1 counts, k of %d bits,"
            " cannot be indexed" % m.bit_length()
        )
    return 0, deque([0] * m + [1], maxlen=m + 1)


def _lambda_walk(
    n: int, m: int, walk: tuple[int, deque[int]], to: int,
    steps: list[LambdaStep] | None = None,
) -> tuple[int, deque[int]]:
    """Move ``walk`` to the offset ``to`` and return it; its window's last
    value is the count at ``to``.

    A walk is its offset and a deque, kept full, of the last m+1 values:
    a step reads the values at lam-1, lam-m and lam-m-1 only.

    A forward move steps up as the recurrence reads, dividing by lam. A
    backward move solves the same relation for its oldest term,

    v[lam-m-1] = (lam*v[lam] - (n-1+lam)*v[lam-1] + (m*n+m-lam)*v[lam-m])
                 / (m*n-n+m+1-lam),

    whose divisor is at least m+1 inside the support, and pushes it in at
    the old end. A remainder raises DivisibilityError. The window is
    changed in place, so a move that raises leaves it half-moved; the
    count moves a copy, never a parked window. Each forward step is
    appended to ``steps`` as a LambdaStep when a list is passed; with
    none, the walk builds nothing per step but the window's new value.
    """
    at, window = walk
    a, b, c = n - 1, m * n + m, m * n - n + m + 1
    if to > at:
        value = window[-1]
        for lam in range(at + 1, to + 1):
            # window[0], window[1] and value hold the values at lam-m-1,
            # lam-m and lam-1
            numerator = (a + lam) * value - (b - lam) * window[1] + (c - lam) * window[0]
            value, r = divmod(numerator, lam)
            if r:
                raise DivisibilityError(
                    "step lam=%d for n=%d m=%d left remainder %d" % (lam, n, m, r)
                )
            window.append(value)
            if steps is not None:
                steps.append(LambdaStep(lam, numerator, value))
    else:
        for lam in range(at, to, -1):
            # window[0], window[-2] and window[-1] hold the values at
            # lam-m, lam-1 and lam
            numerator = lam * window[-1] - (a + lam) * window[-2] + (b - lam) * window[0]
            older, r = divmod(numerator, c - lam)
            if r:
                raise DivisibilityError(
                    "step back from lam=%d for n=%d m=%d left remainder %d"
                    % (lam, n, m, r)
                )
            window.appendleft(older)
    return to, window


def count_lambda_recurrence(q: HomoQuery) -> Count:
    """Count via the three-term recurrence in the offset lam = N - n.

    lam * (n+lam)(n) = (n+lam-1) * (n+lam-1)(n)
                     - (m*n+m-lam) * (n+lam-m)(n)
                     + (m*n-n+m+1-lam) * (n+lam-m-1)(n)

    seeded with (n)(n) = 1 and zeros below. The sum is first folded into
    the lower half of the support, lam = min(N, n*(m+1) - N) - n, and a
    negative lam, a sum outside the support n..n*m, is 0 without a step.
    Intermediate products are signed; every division is exact (a remainder
    raises DivisibilityError, since it would mean the values are not the
    counts this recurrence characterizes).

    The other n-1 dice show at least 1 each, so no face above N-n+1 is part
    of a throw summing to N: the count is that of the die shape (n, k),
    k = min(m, lam+1) for the folded lam, and the recurrence walks that
    shape. A step reads only the last k+1 values, so only those are kept:
    memory is O(k * bits of the count), however long the walk, and a huge m
    builds no huge window. Below lam = k the m-terms of the recurrence read
    zeros for either shape, so each step is the same as on the full die.

    Walks are parked between calls, one per shape (n, k) and band
    lam.bit_length(), as the module docstring says: a count starts from a
    copy of the walk parked in its band, or from lam = 0 when there is
    none, moves the copy up or down to lam, checks that the count is not
    negative and only then parks the copy in the band's slot; the walk it
    copied is left as it was. The walk records nothing per step;
    ``lambda_recurrence_trace`` walks afresh and keeps its steps.
    """
    n, lam = q.n, min(q.N, q.n * (q.m + 1) - q.N) - q.n
    if lam < 0:
        return 0
    k = min(q.m, lam + 1)
    slot = _parked(n, k, lam.bit_length())
    at, window = slot[0] or _seed_walk(k)
    window = _lambda_walk(n, k, (at, window.copy()), lam)[1]
    value = window[-1]
    if value < 0:
        raise DivisibilityError(
            "recurrence ended at negative count %d for n=%d m=%d N=%d"
            % (value, q.n, q.m, q.N)
        )
    slot[0] = lam, window
    return value


def lambda_recurrence_trace(q: HomoQuery) -> list[LambdaStep]:
    """All recurrence steps from lam = 1 up to lam = N - n, in order, on a
    fresh walk from lam = 0 on the shape the count walks. A sum outside
    the support n..n*m takes no step, as in the count, and gets no
    steps."""
    steps: list[LambdaStep] = []
    if q.n <= q.N <= q.n * q.m:
        k = min(q.m, q.N - q.n + 1)
        _lambda_walk(q.n, k, _seed_walk(k), q.N - q.n, steps)
    return steps


def count_closed_form(q: HomoQuery) -> Count:
    """Alternating binomial sum for the count, no recursion.

    With lam = N - n, sum over j from 0 to min(n, lam // m) of
    (-1)^j * C(n, j) * C(n + rest - 1, rest), rest = lam - j*m:
    compositions with j dice pushed past face m, signed by
    inclusion-exclusion. The sum is the count itself, so no clamping is
    needed. lam is folded into the lower half of the support first,
    lam = min(N, n*(m+1) - N) - n, so a sum near the top sums as few terms
    as its mirror, and a negative lam, a sum outside n..n*m, is 0.

    The walk runs j downward from its top value, where each binomial is
    computed once, and updates them by exact ratios: C(n, j-1) =
    C(n, j) * j / (n-j+1), and as rest grows by m, C(n + rest - 1, rest) is
    multiplied by (n+rest)...(n+rest+m-1) and divided by (rest+1)...(rest+m).
    Each division is exact, since its quotient is the next binomial. For
    wide dice, m > n/2, products of m terms cost as much as the binomial,
    whose lower index is only n - 1, or far more as m grows, so there each
    step computes C(n + rest - 1, rest) afresh.
    """
    n, m = q.n, q.m
    lam = min(q.N, n * (m + 1) - q.N) - n
    if lam < 0:
        return 0
    top = min(n, lam // m)
    rest = lam - top * m
    ratio = 2 * m <= n
    choose_j, spread = math.comb(n, top), math.comb(n + rest - 1, rest)
    total = 0
    for j in range(top, 0, -1):
        term = choose_j * spread
        total += -term if j % 2 else term
        choose_j = choose_j * j // (n - j + 1)
        rest += m
        if ratio:
            spread = spread * math.perm(n + rest - 1, m) // math.perm(rest, m)
        else:
            spread = math.comb(n + rest - 1, rest)
    # j = 0: C(n, 0) = 1
    return total + spread


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _last_add_die_column(n: int, m: int, window: int) -> tuple[Count, ...]:
    for col in _add_die_columns(m, n, window):
        pass
    return tuple(col)


def count_add_die(q: HomoQuery) -> Count:
    """Point query answered by the add-a-die columns; only the last is read.

    The last column is built over the window of the module docstring and
    remembered per (n, m, window), in a memo of its own. The sum is folded
    into the lower half of the support first, and a sum outside the
    support n..n*m is 0 without an expansion.
    """
    N = min(q.N, q.n * (q.m + 1) - q.N)
    if N < q.n:
        return 0
    window = min(q.n * (q.m + 1) // 2, 1 << N.bit_length())
    return _last_add_die_column(q.n, q.m, window)[N]


ENGINES = {
    "poly": count_poly,
    "add-die": count_add_die,
    "lambda": count_lambda_recurrence,
    "closed": count_closed_form,
}
