"""Counting solutions of two simultaneous linear equations.

Given generators (a_i, b_i) and targets (n, v), count assignments of
x_i >= 0 (or x_i >= 1 in positive mode) with

    sum a_i x_i = n   and   sum b_i x_i = v.

This is the classic coin-style problem with two constraints at once (the
Rule of the Virgins shape: so many heads, so much money). The count is the
coefficient of u^n w^v in the product over generators of 1/(1 - u^a w^b),
computed as a dense two-variable lattice walk. Positive mode folds away by
shifting both targets by one copy of every generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Literal

from .series import Count, coeff2, inverse_product_grid

Mode = Literal["nonnegative", "positive"]


@dataclass(frozen=True)
class LinearSystem2:
    """Generators, targets, and which solution domain is meant."""

    generators: tuple[tuple[int, int], ...]
    targets: tuple[int, int]
    mode: Mode = "nonnegative"

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("need at least one generator")
        for a, b in self.generators:
            if not isinstance(a, int) or not isinstance(b, int) or a < 0 or b < 0:
                raise ValueError("generator coefficients must be nonnegative ints")
            if a == 0 and b == 0:
                raise ValueError("generator (0, 0) is not allowed")
        n, v = self.targets
        if not isinstance(n, int) or not isinstance(v, int) or n < 0 or v < 0:
            raise ValueError("targets must be nonnegative ints")
        if self.mode not in ("nonnegative", "positive"):
            raise ValueError("mode must be 'nonnegative' or 'positive'")


def _shifted_targets(sys: LinearSystem2) -> tuple[int, int] | None:
    """Targets after folding positive mode away; None if plainly infeasible."""
    n, v = sys.targets
    if sys.mode == "positive":
        n -= sum(a for a, _ in sys.generators)
        v -= sum(b for _, b in sys.generators)
        if n < 0 or v < 0:
            return None
    return n, v


def rv_count_solutions(sys: LinearSystem2) -> Count:
    """Number of solutions in the system's domain. Infeasible is 0, never
    an exception."""
    shifted = _shifted_targets(sys)
    if shifted is None:
        return 0
    n, v = shifted
    grid = inverse_product_grid(sys.generators, (n, v))
    return coeff2(grid, n, v)


def _solutions(gens, lo: int, rn: int, rv: int, prefix: list[int]):
    """Yield every completion of prefix by generators gens[len(prefix):],
    each x at least lo, that leaves both remaining targets rn and rv at
    zero, in lexicographic order."""
    a, b = gens[len(prefix)]
    if len(prefix) == len(gens) - 1:
        # the last generator's x is fixed by the remaining targets
        x = rn // a if a else rv // b
        if x >= lo and a * x == rn and b * x == rv:
            yield (*prefix, x)
        return
    hi = min(rn // a if a else rv // b, rv // b if b else rn // a)
    for x in range(lo, hi + 1):
        prefix.append(x)
        yield from _solutions(gens, lo, rn - a * x, rv - b * x, prefix)
        prefix.pop()


def rv_enumerate_solutions(
    sys: LinearSystem2, cap: int
) -> tuple[list[tuple[int, ...]], bool]:
    """Solutions in lexicographic order, at most cap of them.

    Returns (solutions, truncated); truncated is True when more solutions
    exist beyond the cap.
    """
    if not isinstance(cap, int) or cap < 0:
        raise ValueError("cap must be nonnegative")
    lo = 1 if sys.mode == "positive" else 0
    n, v = sys.targets
    out = list(islice(_solutions(sys.generators, lo, n, v, []), cap + 1))
    truncated = len(out) > cap
    del out[cap:]
    return out, truncated
