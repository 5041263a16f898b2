"""Exact dense polynomial arithmetic over arbitrary-precision integers.

Coefficients are Python ints stored densely, index = exponent. A value is
either an ordinary finite polynomial (``bound is None``) or the truncation of
a power series, in which case ``bound`` is the largest exponent the value
retains (inclusive) and is part of the value itself.

Combining rule for bounds: exact values combine with anything; two values
truncated at the same bound combine freely; two different finite bounds are
rejected unless the caller explicitly asks for a result bound that is no
wider than the narrowest input window. Nothing is ever re-truncated silently.

Products use Kronecker substitution (Schoenhage 1982; Harvey, J. Symb.
Comput. 2009): both operands are packed into single integers with one
coefficient per fixed-width slot, multiplied once by CPython's big-int
multiply, and unpacked. Slots are wide enough for every product
coefficient, so the result is exact. Powers use binary powering.

The two-variable lattice kernel, ``inverse_product_grid``, returns the
plain ``list[list[int]]`` its walk built. It checks the steps and bounds it
is given, which come from outside; the cells it fills are not checked
again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from operator import add, sub
from typing import Iterable, Sequence

Count = int


@dataclass(frozen=True)
class IntPoly:
    """Canonical dense polynomial: no trailing zero coefficient, zero = ().

    Build values with :func:`intpoly` rather than the raw constructor; the
    constructor only checks canonical form, it does not normalize.
    """

    coeffs: tuple[int, ...]
    bound: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.coeffs, tuple):
            raise ValueError("coeffs must be a tuple")
        # one pass at C speed; only a cell that is not exactly an int sends
        # the check to the loop, which accepts int subclasses but bool
        if not set(map(type, self.coeffs)) <= {int}:
            for c in self.coeffs:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError("coefficients must be ints")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("not canonical: trailing zero coefficient")
        if self.bound is not None:
            if not isinstance(self.bound, int) or self.bound < 0:
                raise ValueError("bound must be a nonnegative int or None")
            if len(self.coeffs) > self.bound + 1:
                raise ValueError("coefficients extend past the bound")


def intpoly(coeffs: Iterable[int], bound: int | None = None) -> IntPoly:
    """Normalize a coefficient sequence into an IntPoly.

    Exponents above ``bound`` are dropped (that is what a truncated series
    is); trailing zeros are stripped.
    """
    cs = list(coeffs)
    if bound is not None:
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        del cs[bound + 1 :]
    while cs and cs[-1] == 0:
        cs.pop()
    return IntPoly(tuple(cs), bound)


def coeff(p: IntPoly, e: int) -> int:
    """Coefficient at exponent e; 0 off either end of the stored range."""
    if e < 0 or e >= len(p.coeffs):
        return 0
    return p.coeffs[e]


def _combined_bound(a: IntPoly, b: IntPoly, requested: int | None) -> int | None:
    finite = [x.bound for x in (a, b) if x.bound is not None]
    window = min(finite) if finite else None
    if requested is None:
        if len(finite) == 2 and finite[0] != finite[1]:
            raise ValueError(
                "mixed truncation bounds %d and %d; pass an explicit result bound"
                % (finite[0], finite[1])
            )
        return window
    if requested < 0:
        raise ValueError("bound must be nonnegative")
    if window is not None and requested > window:
        raise ValueError(
            "requested bound %d exceeds the known window %d" % (requested, window)
        )
    return requested


def _magnitude_bits(cs: Sequence[int]) -> tuple[int, bool]:
    """Bit length of the largest |coefficient|, and whether any is negative."""
    lo = min(cs)
    return max(max(cs), -lo).bit_length(), lo < 0


def _slot_ones(n: int, width: int) -> int:
    """The integer with a 1 at the bottom of each of n slots."""
    return int.from_bytes((b"\x01" + bytes(width - 1)) * n, "little")


def _pack(cs: Sequence[int], width: int, signed: bool) -> int:
    """The integer sum of cs[i] * 2^(8*width*i), built in one pass.

    Each coefficient is written as ``width`` little-endian bytes. A signed
    operand is written with every slot biased by half a slot, so each slot
    is nonnegative, and the bias is taken off again in one big-int
    subtraction, which makes all the two's-complement borrows at once.
    """
    if not signed:
        return int.from_bytes(
            b"".join(map(int.to_bytes, cs, repeat(width), repeat("little"))), "little"
        )
    half = 1 << (8 * width - 1)
    biased = map(int.to_bytes, map(add, cs, repeat(half)), repeat(width), repeat("little"))
    return int.from_bytes(b"".join(biased), "little") - half * _slot_ones(len(cs), width)


def _unpack(packed: int, n: int, width: int, signed: bool) -> list[int]:
    """The first n slots of a packed value, as coefficients.

    A signed value gets half a slot added to every slot first, which makes
    the carries out of negative slots in one big-int addition; each slot
    then holds coefficient + half with no carry left to propagate.
    """
    half = 1 << (8 * width - 1)
    if signed:
        packed += half * _slot_ones(n, width)
    nbytes = n * width
    data = (packed & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
    fields = struct.Struct("%ds" % width * n).unpack(data)
    slots = map(int.from_bytes, fields, repeat("little"))
    if signed:
        return list(map(sub, slots, repeat(half)))
    return list(slots)


def poly_mul(a: IntPoly, b: IntPoly, bound: int | None = None) -> IntPoly:
    """Exact product, optionally truncated at ``bound``.

    Kronecker substitution: each operand is packed into one integer, one
    coefficient per slot of whole bytes, the two integers are multiplied
    once by CPython's big-int multiply (Karatsuba), and the product's slots
    are read back as the coefficients. A slot holds
    bitlen(max|a|) + bitlen(max|b|) + bitlen(min(len a, len b)) bits plus a
    sign bit, enough for any coefficient of the product, so every count is
    exact. Under a bound, both operands are cut to bound+1 terms first and
    only the first bound+1 slots are read. Packing and unpacking are
    linear in the number of bytes.
    """
    rb = _combined_bound(a, b, bound)
    ac, bc = a.coeffs, b.coeffs
    if not ac or not bc:
        return IntPoly((), rb)
    n = len(ac) + len(bc) - 1
    if rb is not None and rb < n - 1:
        n = rb + 1
        ac, bc = ac[:n], bc[:n]
    a_bits, a_signed = _magnitude_bits(ac)
    b_bits, b_signed = (a_bits, a_signed) if a is b else _magnitude_bits(bc)
    bits = a_bits + b_bits + min(len(ac), len(bc)).bit_length() + 1  # + sign
    width = (bits + 7) // 8
    packed_a = _pack(ac, width, a_signed)
    packed_b = packed_a if a is b else _pack(bc, width, b_signed)
    product = _unpack(packed_a * packed_b, n, width, a_signed or b_signed)
    while product and not product[-1]:
        product.pop()
    return IntPoly(tuple(product), rb)


def poly_pow(base: IntPoly, k: int, bound: int | None = None) -> IntPoly:
    """k-th power by binary powering; k = 0 gives 1.

    Squares for each bit of k below the top one, and multiplies by the base
    for each set bit: about 2*log2(k) products instead of k.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative int")
    rb = _combined_bound(base, base, bound)
    if k == 0:
        return intpoly((1,), rb)
    result = intpoly(base.coeffs, rb)
    for bit in bin(k)[3:]:
        result = poly_mul(result, result, rb)
        if bit == "1":
            result = poly_mul(result, base, rb)
    return result


def inverse_product_grid(
    steps: Sequence[tuple[int, int]], bounds: tuple[int, int]
) -> list[list[int]]:
    """Expand prod over steps of 1 / (1 - u^a v^b), truncated to ``bounds``.

    Returns the plain grid the walk built: bounds[0]+1 rows of bounds[1]+1
    ints, grid[i][j] the coefficient of u^i v^j. Each factor is absorbed by
    one in-place lattice pass: cell (i, j) gains cell (i-a, j-b), visiting
    cells in ascending order so a factor may be used any number of times.
    Steps must be nonnegative and never (0, 0) (that factor would not be a
    power series); every step is checked before the grid is allocated.
    """
    bu, bv = bounds
    if bu < 0 or bv < 0:
        raise ValueError("bounds must be nonnegative")
    for a, b in steps:
        if a < 0 or b < 0:
            raise ValueError("steps must be nonnegative")
        if a == 0 and b == 0:
            raise ValueError("step (0, 0) is not allowed")
    grid = [[0] * (bv + 1) for _ in range(bu + 1)]
    grid[0][0] = 1
    for a, b in steps:
        for i in range(a, bu + 1):
            row = grid[i]
            src = grid[i - a]
            for j in range(b, bv + 1):
                row[j] += src[j - b]
    return grid
