"""Physical-address to DRAM-coordinate mapping.

The default layout is row:bank:column:offset — consecutive cache lines
fill a row before moving to the next bank, which keeps sequential streams
on open rows (the behaviour DRAMA-style mapping probes detect on real
parts, and a good match for the on-DIMM DRAM where the 4KB AIT entries
are laid out contiguously).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.common.errors import ConfigError
from repro.common.units import is_power_of_two
from repro.engine.request import CACHE_LINE


@dataclass(frozen=True)
class AddressMapping:
    """Decompose byte addresses into (bank, row, col).

    ``row_bytes`` is the row-buffer size per bank; ``col`` indexes 64B
    bursts within the row.  Both sizes are powers of two, so the layout
    reduces to the shift/mask fields below, set once at construction:
    ``bank = (addr >> bank_shift) & bank_mask``, ``row = addr >> row_shift``
    and ``col = (addr >> col_shift) & col_mask``.
    """

    nbanks: int = 16
    row_bytes: int = 8192
    col_shift: int = field(init=False, repr=False, compare=False)
    col_mask: int = field(init=False, repr=False, compare=False)
    bank_shift: int = field(init=False, repr=False, compare=False)
    bank_mask: int = field(init=False, repr=False, compare=False)
    row_shift: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.nbanks):
            raise ConfigError(f"nbanks must be a power of two, got {self.nbanks}")
        if not is_power_of_two(self.row_bytes) or self.row_bytes < CACHE_LINE:
            raise ConfigError(f"invalid row_bytes {self.row_bytes}")
        # frozen: the derived layout fields go in through object.__setattr__
        bank_shift = self.row_bytes.bit_length() - 1
        object.__setattr__(self, "col_shift", CACHE_LINE.bit_length() - 1)
        object.__setattr__(self, "col_mask", self.cols_per_row - 1)
        object.__setattr__(self, "bank_shift", bank_shift)
        object.__setattr__(self, "bank_mask", self.nbanks - 1)
        object.__setattr__(self, "row_shift", bank_shift + self.nbanks.bit_length() - 1)

    @property
    def cols_per_row(self) -> int:
        return self.row_bytes // CACHE_LINE

    def decompose(self, addr: int) -> Tuple[int, int, int]:
        """Return ``(bank, row, col)`` for a byte address."""
        return ((addr >> self.bank_shift) & self.bank_mask,
                addr >> self.row_shift,
                (addr >> self.col_shift) & self.col_mask)

    def compose(self, bank: int, row: int, col: int) -> int:
        """Inverse of :meth:`decompose` (returns the line base address)."""
        line = (row * self.nbanks + bank) * self.cols_per_row + col
        return line * CACHE_LINE
