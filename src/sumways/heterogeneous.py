"""Counting sums for a pool of unlike dice.

Each die carries its own marks (any nonnegative integers, duplicates
allowed; a duplicated mark counts twice). The number of ordered outcomes
summing to N is the coefficient of x^N in the product of the dice
polynomials sum of x^mark.

Two engines:

``hetero_count_product``
    multiply the dice polynomials into one packed accumulator, a big
    integer with one coefficient per fixed-width slot, and read the
    coefficient. Works for any marks.

``hetero_count_closed_form``
    for dice marked 1..m_i only: expand the product of (1 - x^(m_i)) into
    signed terms, merging like terms after each factor, shift by the number
    of dice, and divide by (1 - x)^k via binomials. Evaluates single
    coefficients without building the product.

The product route never multiplies two polynomials. The slot width is fixed
once, from the pool's outcome count: every coefficient of every partial
product counts some of the outcomes, so none exceeds it, no slot overflows
and no slot ever carries into the next. A die is applied as shifted adds:
its marks fall into runs of consecutive marks that share one multiplicity
c, and a run lo..lo+len-1 multiplies the accumulator by
c * x^lo * (1 + x + ... + x^(len-1)), built by doubling in O(log len)
shifted adds. The whole distribution is unpacked once, at the end; a single
count keeps only the slots up to N after each die.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .homogeneous import binomial
from .series import Count, _unpack

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


def _runs(die: MarkedDie) -> list[list[int]]:
    """[lo, length, multiplicity] for each maximal run of consecutive marks
    that share one multiplicity, ascending."""
    counts = Counter(die.marks)
    runs: list[list[int]] = []
    for v in sorted(counts):
        c = counts[v]
        if runs and runs[-1][0] + runs[-1][1] == v and runs[-1][2] == c:
            runs[-1][1] += 1
        else:
            runs.append([v, 1, c])
    return runs


def _times_ones(acc: int, length: int, slot: int) -> int:
    """acc * (1 + x + ... + x^(length-1)) with x = 2^slot, by doubling.

    Walks the bits of ``length`` from the top: each bit doubles the run
    (add a copy shifted by the run so far), a set bit then lengthens it by
    one (shift by one slot and add acc).
    """
    run, have = acc, 1
    for bit in bin(length)[3:]:
        run += run << (have * slot)
        have *= 2
        if bit == "1":
            run = acc + (run << slot)
            have += 1
    return run


def _slot_bytes(pool: DicePool) -> int:
    """Bytes per slot: enough for the outcome count, which bounds every
    coefficient of every partial product."""
    return (pool.outcome_count.bit_length() + 7) // 8


def _add_die(
    acc: int, runs: list[list[int]], slot: int, limit: int | None = None
) -> int:
    """The packed accumulator times the die's polynomial over x^(lowest mark).

    Under ``limit``, runs starting past it are skipped and runs reaching
    past it are cut at it.
    """
    base = runs[0][0]
    out = 0
    for lo, length, c in runs:
        lo -= base
        if limit is not None:
            if lo > limit:
                break
            length = min(length, limit + 1 - lo)
        term = _times_ones(acc, length, slot)
        # skip the no-op steps (times 1, shift by 0, 0 + term): each would
        # copy the whole accumulator
        if c != 1:
            term *= c
        if lo:
            term <<= lo * slot
        out = out + term if out else term
    return out


def hetero_count_product(pool: DicePool, N: int) -> Count:
    """Ordered outcomes of the pool summing to N, by polynomial product.

    Each die takes its lowest mark off N, and the accumulator keeps only
    the slots up to what is left. A sum past the support reads 0 at once,
    so no slot mask is ever wider than the product itself.
    """
    if N < 0:
        raise ValueError("target sum must be nonnegative")
    if N > sum(max(die.marks) for die in pool.dice):
        return 0
    slot = 8 * _slot_bytes(pool)
    acc = 1
    for die in pool.dice:
        runs = _runs(die)
        N -= runs[0][0]
        if N < 0:
            return 0
        acc = _add_die(acc, runs, slot, N) & ((1 << (slot * (N + 1))) - 1)
    return acc >> (N * slot)


def hetero_distribution(pool: DicePool) -> list[tuple[int, Count]]:
    """All achievable sums with their counts, ascending.

    The counts add up to the number of outcomes (the product of the face
    counts).
    """
    width = _slot_bytes(pool)
    acc, low = 1, 0
    for die in pool.dice:
        runs = _runs(die)
        low += runs[0][0]
        acc = _add_die(acc, runs, 8 * width)
    top = sum(max(die.marks) for die in pool.dice)
    slots = _unpack(acc, top - low + 1, width, False)
    return [(e, c) for e, c in enumerate(slots, low) if c]


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
