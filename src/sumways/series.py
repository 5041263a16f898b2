"""Exact polynomial kernels over arbitrary-precision integers.

Products of "die" polynomials, each a sum of x^mark over a multiset of
nonnegative marks, are ``marks_product``: one packed accumulator, a big
integer with one coefficient per fixed-width slot, starts at 1 and takes
every die as shifted adds, and returns the coefficients from the least
sum the shapes can throw on. Callers hand it die shapes with their copies,
``{marks: copies}``; each shape's runs of marks are found once and its
copies are applied in a row, shapes with the fewest faces first, under
one mask built once at the final limit. A die lo..hi stays the ``range``
it was written as, and its one run is read from the range's ends. Like
dice, unlike dice and powers of the polygonal series are all such
products, truncated at a target.

The two-variable lattice kernel, ``inverse_product_grid``, returns the
columns its walk built, one list over the first variable for each power of
the second, and adds whole columns at a time. Like ``marks_product``, it
checks nothing: its callers hand it steps and bounds that their public
types and functions (``regula.LinearSystem2``, ``polygonal.PartSet`` and
``polygonal.partition_count_grid``) have already checked.

The one size rule lives here too: ``refuse_unindexable`` refuses a list of
more counts than Python can index, past ``sys.maxsize``. The table, λ,
pool, two-equation and ordered polygonal routes call it before they
allocate; ``polygonal.partition_count_grid`` does not yet.
"""

from __future__ import annotations

import struct
import sys
from collections import Counter
from itertools import accumulate, repeat
from operator import add
from typing import Mapping, Sequence

Count = int


def refuse_unindexable(size: int, what: str, named: int) -> None:
    """Raise ValueError "<what> of <bits of named> bits, cannot be indexed"
    when a list of ``size`` items would be longer than sys.maxsize, read at
    call time; return None otherwise."""
    if size > sys.maxsize:
        raise ValueError("%s of %d bits, cannot be indexed" % (what, named.bit_length()))


def mark_ends(marks: tuple[int, ...] | range) -> tuple[int, ...] | range:
    """The marks, or only a range's two ends: either holds the least and greatest."""
    return (marks[0], marks[-1]) if isinstance(marks, range) else marks


def _runs(marks: tuple[int, ...] | range) -> list[list[int]]:
    """[lo, length, multiplicity] for each maximal run of consecutive marks
    that share one multiplicity, ascending. A range of step 1 is one run,
    read from its ends."""
    if isinstance(marks, range) and marks.step == 1:
        return [[marks.start, len(marks), 1]]
    counts = Counter(marks)
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


def _add_die(acc: int, runs: list[list[int]], slot: int, limit: int) -> int:
    """The packed accumulator times the factor's polynomial over x^(lowest
    mark), up to x^limit: runs starting past it are skipped and runs
    reaching past it are cut at it."""
    base = runs[0][0]
    out = 0
    for lo, length, c in runs:
        lo -= base
        if lo > limit:
            break
        term = _times_ones(acc, min(length, limit + 1 - lo), slot)
        # skip the no-op steps (times 1, shift by 0, 0 + term): each would
        # copy the whole accumulator
        if c != 1:
            term *= c
        if lo:
            term <<= lo * slot
        out = out + term if out else term
    return out


def _unpack(packed: int, n: int, width: int) -> list[int]:
    """The n slots of ``width`` bytes of a packed value below 2^(8*width*n),
    as coefficients."""
    data = packed.to_bytes(n * width, "little")
    fields = struct.Struct("%ds" % width * n).unpack(data)
    return list(map(int.from_bytes, fields, repeat("little")))


def marks_product(
    shapes: Mapping[tuple[int, ...] | range, int], bound: int
) -> list[int]:
    """Coefficients at x^least..x^bound of the product over die shapes of
    the sum of x^mark over the shape's marks, raised to its copies, where
    least is the sum of each shape's least mark times its copies: the
    product has no term below it, so the list starts there, and it is
    empty when the bound is below it.

    Each shape is a nonempty tuple or ``range`` of nonnegative marks; a
    repeated mark counts once per time it appears. The product lives on
    one packed accumulator, a big integer with one coefficient per slot.
    The slot width is fixed once, from the number of outcomes, the product
    of each shape's faces to its copies: every coefficient of every
    partial product counts some of those outcomes, so none exceeds it and
    no slot carries into the next. Exponents are kept relative to the
    least marks, so the product is cut at one final limit, the bound less
    every least mark times its copies, with one mask built once: the dice
    still to come only add nonnegative exponents, so a slot past the limit
    never comes back below it. Each shape's runs of consecutive marks of
    equal multiplicity are found once and its copies applied in a row, the
    shapes with the fewest faces first (each die costs in proportion to
    the accumulator it meets, which every face widens). The accumulator
    starts at 1, and each die is applied as shifted adds, one run at a
    time: a run lo..lo+len-1 of multiplicity c multiplies the accumulator
    by c * x^lo * (1 + x + ... + x^(len-1)), built by doubling.
    """
    outcomes, least, runs = 1, 0, {}
    for marks in sorted(shapes, key=len):
        runs[marks] = _runs(marks)
        outcomes *= len(marks) ** shapes[marks]
        least += runs[marks][0][0] * shapes[marks]
    limit = bound - least
    if limit < 0:
        return []
    width = (outcomes.bit_length() + 7) // 8
    slot = 8 * width
    mask = (1 << (slot * (limit + 1))) - 1
    acc = 1
    for marks, shape_runs in runs.items():
        for _ in range(shapes[marks]):
            acc = _add_die(acc, shape_runs, slot, limit) & mask
    return _unpack(acc, limit + 1, width)


def inverse_product_grid(
    steps: Sequence[tuple[int, int]], bounds: tuple[int, int]
) -> list[list[int]]:
    """Expand prod over steps of 1 / (1 - u^a v^b), truncated to ``bounds``.

    Returns the columns the walk built: bounds[1]+1 lists of bounds[0]+1
    ints, cols[j][i] the coefficient of u^i v^j. Each factor is absorbed in
    place: cell (i, j) gains cell (i-a, j-b), in ascending order so a factor
    may be used any number of times, one whole column per pass. The factors
    commute, so every (a, 0) step goes first, while only column 0 is
    nonzero, as prefix sums of stride a; a step (a, b) with b >= 1 then
    adds column j-b, already final, into column j for j ascending. A step
    with a past bounds[0] adds nothing and is skipped. The caller passes
    nonnegative int bounds and nonnegative int steps, never (0, 0) (that
    factor would not be a power series); none of them is checked here.
    """
    bu, bv = bounds
    first = [0] * (bu + 1)
    first[0] = 1
    for a, b in steps:
        if b == 0 and a <= bu:
            for r in range(a):
                first[r::a] = accumulate(first[r::a])
    cols = [first] + [[0] * (bu + 1) for _ in range(bv)]
    for a, b in steps:
        if b and a <= bu:
            for j in range(b, bv + 1):
                col = cols[j]
                col[a:] = map(add, col[a:], cols[j - b][: bu + 1 - a])
    return cols
