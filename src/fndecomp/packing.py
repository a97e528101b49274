"""Whole tables of group element codes, added and subtracted as one int.

``Packing`` holds a table of codes (``groups.Group.encode``) in one int, one
cell per entry and one bit field per cyclic factor in a cell, and a few
big-int steps reduce every field modulo its factor at once.  A cell takes at
most PACKED_BITS = 32 bits, so a packed table of MAX_CELLS cells
(``errors.MAX_CELLS``) holds at most 16 MB.  ``packed_cell`` refuses a wider
group; every cyclic group of order up to 2**31 fits, and so does every group
of order up to 2048.

Only the derivative calculus (``calculus``) packs tables.  ``packed_cell``
also bounds the codomain of every table that ``analyze`` and ``decompose
--mode taylor`` read and ``witness`` writes, and no other command compiles
this module.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Sequence
from itertools import accumulate
from operator import mul

from .errors import ResourceError, excerpt_int
from .groups import Group

# Bits of one packed cell, the fields of all cyclic factors together.
PACKED_BITS = 32


def packed_cell(moduli: tuple[int, ...]) -> tuple:
    """One cell of a Packing over these moduli: its width in bytes, the bits
    and offset of each field, M, K and TOP, and per field width b the top
    bits of the fields that wide with b - 1.  ResourceError when the fields
    take more than PACKED_BITS bits."""
    bits = [(m - 1).bit_length() + 1 for m in moduli]
    if sum(bits) > PACKED_BITS:
        raise ResourceError(
            f"group order {excerpt_int(math.prod(moduli))} too large for packed residues: "
            f"{sum(bits)} bits per cell, more than {PACKED_BITS}"
        )
    fields = tuple(zip(bits, accumulate(bits, initial=0)))
    tops = {w: sum(1 << o + b - 1 for b, o in fields if b == w) for w in bits}
    return (1 if sum(bits) <= 8 else 2 if sum(bits) <= 16 else 4, fields,
            sum(m << o for m, (b, o) in zip(moduli, fields)),
            sum((1 << b - 1) - m << o for m, (b, o) in zip(moduli, fields)),
            sum(tops.values()), tuple((top, w - 1) for w, top in tops.items()))


class Packing:
    """The codes of `cells` elements as one int, `width` bytes per cell, cell
    j from bit 8 * width * j up, with one field per cyclic factor Z_m, factor
    0 lowest: the residue, in b bits, the least b with 2m - 1 < 2**b.

    add and sub act on every field at once, with no carry between fields.
    S = x + y, or x + (M - y) where M holds m in each field, is below 2m.
    With K = 2**(b-1) - m in each field, (S + K) & TOP flags the top bit of
    the fields where S >= m.  A flag, doubled, less its copy at the bottom of
    its field fills the field, and & M leaves the m that S then loses.
    """

    def __init__(self, group: Group, cells: int):
        self.group, self.cells = group, cells
        self.width, self.fields, mods, bias, tops, lows = packed_cell(group.moduli)
        self.typecode = "BHI"[self.width.bit_length() - 1]
        self.cell_struct = struct.Struct(f"<{cells}{self.typecode}")
        self.mods, self.bias, self.tops = map(self._every_cell, (mods, bias, tops))
        self.lows = [(self._every_cell(t), s) for t, s in lows]

    def _every_cell(self, value: int) -> int:
        return int.from_bytes(value.to_bytes(self.width, "little") * self.cells, "little")

    def pack(self, codes: Sequence[int]) -> int:
        if len(self.fields) > 1:
            decode = self.group.decode
            spread = {c: sum(r << o for r, (b, o) in zip(decode(c), self.fields))
                      for c in set(codes)}
            codes = map(spread.__getitem__, codes)
        # a lone starred tuple is passed on as it is, with no copy
        return int.from_bytes(self.cell_struct.pack(*codes), "little")

    def unpack(self, x: int) -> memoryview:
        """The codes in x, as a view of `width`-byte native integers."""
        if len(self.fields) > 1:
            # the code of an element is below the order, which fits in a cell
            weights = accumulate(self.group.moduli, mul, initial=1)
            x = sum((x >> o & self._every_cell((1 << b) - 1)) * w
                    for (b, o), w in zip(self.fields, weights))
        cells = memoryview(x.to_bytes(self.cells * self.width, sys.byteorder)).cast(self.typecode)
        # in big-endian order the bytes of cell 0 come last
        return cells if sys.byteorder == "little" else cells[::-1]

    def add(self, x: int, y: int) -> int:
        return self._reduce(x + y)

    def sub(self, x: int, y: int) -> int:
        return self._reduce(x + (self.mods - y))

    def _reduce(self, s: int) -> int:
        flags = (s + self.bias) & self.tops
        lows = sum((flags & top) >> shift for top, shift in self.lows)
        return s - (((flags << 1) - lows) & self.mods)
