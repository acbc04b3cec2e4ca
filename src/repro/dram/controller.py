"""Command-level DDR4 controller.

For each line access the controller issues the minimal legal command
sequence (PRE/ACT/RD or WR plus lazy REF), tracking every JEDEC timing
constraint from :class:`~repro.dram.timing.DDR4Timing`.  It is an
open-page FCFS controller by default (closed-page optional); the command
stream can be recorded and replayed through the protocol checker.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common.errors import ConfigError
from repro.dram.address import AddressMapping
from repro.dram.command import Command, CmdType
from repro.dram.timing import DDR4Timing
from repro.engine.stats import StatsRegistry


class _BankState:
    __slots__ = ("open_row", "act_ps", "pre_ready_ps", "act_ready_ps")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.act_ps = 0
        self.pre_ready_ps = 0  # earliest legal PRE
        self.act_ready_ps = 0  # earliest legal ACT


class DramController:
    """One channel of DDR4: banks, timing state, and command generation.

    :meth:`access` is the per-access hot path.  Everything that does not
    depend on the access is fixed at construction: the picosecond value
    of every timing constraint and the mapping's bank/row shift and mask.
    Per access it decodes the address with two shifts and a mask, enters
    :meth:`_do_refresh` only once a refresh is due, bumps counters in
    place and builds :class:`Command` objects only when
    ``record_commands`` is set.
    """

    def __init__(
        self,
        timing: DDR4Timing,
        mapping: Optional[AddressMapping] = None,
        row_policy: str = "open",
        record_commands: bool = False,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if row_policy not in ("open", "closed"):
            raise ConfigError(f"unknown row policy {row_policy!r}")
        self.timing = timing
        self.mapping = mapping or AddressMapping()
        self.row_policy = row_policy
        self.record_commands = record_commands
        self.commands: List[Command] = []
        self.stats = stats or StatsRegistry()

        self._banks = [_BankState() for _ in range(self.mapping.nbanks)]
        self._act_history: Deque[int] = deque(maxlen=4)  # for tFAW
        self._last_act_ps = -(10**15)
        self._next_cas_ps = 0          # tCCD spacing between bursts
        self._rd_ready_after_wr_ps = 0  # tWTR
        self._next_refresh_due = timing.ps(timing.trefi)
        self._blocked_until_ps = 0      # tRFC after a refresh

        self._hits = self.stats.counter("dram.row_hits")
        self._misses = self.stats.counter("dram.row_misses")
        self._reads = self.stats.counter("dram.reads")
        self._writes = self.stats.counter("dram.writes")
        self._refreshes = self.stats.counter("dram.refreshes")

        t = timing
        self._trcd_ps = t.ps(t.trcd)
        self._trp_ps = t.ps(t.trp)
        self._tras_ps = t.ps(t.tras)
        self._trc_ps = t.ps(t.trc)
        self._trrd_ps = t.ps(t.trrd)
        self._tfaw_ps = t.ps(t.tfaw)
        self._tccd_ps = t.ps(t.tccd)
        self._twr_ps = t.ps(t.twr)
        self._twtr_ps = t.ps(t.twtr)
        self._trtp_ps = t.ps(t.trtp)
        self._rd_data_ps = t.ps(t.cl) + t.ps(t.burst_cycles)   # RD -> data end
        self._wr_data_ps = t.ps(t.cwl) + t.ps(t.burst_cycles)  # WR -> data end
        self._bank_shift = self.mapping.bank_shift
        self._bank_mask = self.mapping.bank_mask
        self._row_shift = self.mapping.row_shift
        self._closed = row_policy == "closed"

    # -- helpers -------------------------------------------------------

    def _emit(self, time_ps: int, kind: CmdType, bank: int, row: int = -1,
              col: int = -1) -> None:
        if self.record_commands:
            self.commands.append(Command(time_ps, kind, bank, row, col))

    def _do_refresh(self, now: int) -> None:
        """Issue any overdue all-bank refreshes before servicing ``now``."""
        t = self.timing
        while self._next_refresh_due <= now:
            start = max(self._next_refresh_due, self._blocked_until_ps)
            if self._closed:
                # each access's closing PRE may still be pending; tRC =
                # tRAS + tRP makes its PRE + tRP the bank's next ACT
                start = max(start, max(b.act_ready_ps for b in self._banks))
            # All banks must be precharged before REF.
            for bank_id, bank in enumerate(self._banks):
                if bank.open_row is not None:
                    pre_time = max(start, bank.pre_ready_ps)
                    self._emit(pre_time, CmdType.PRE, bank_id)
                    bank.open_row = None
                    start = max(start, pre_time + t.ps(t.trp))
            self._emit(start, CmdType.REF, -1)
            self._refreshes.add()
            end = start + t.ps(t.trfc)
            self._blocked_until_ps = end
            for bank in self._banks:
                bank.act_ready_ps = max(bank.act_ready_ps, end)
            self._next_refresh_due += t.ps(t.trefi)

    # -- public API ----------------------------------------------------

    def access(self, addr: int, is_write: bool, now: int) -> int:
        """Perform one 64B access; returns the data completion time.

        For reads this is the time of the last data beat on the bus; for
        writes it is the end of the write burst (write data has entered
        the array interface; durability rules are enforced via tWR before
        any later PRE).
        """
        if now >= self._next_refresh_due:
            self._do_refresh(now)
        record = self.record_commands
        bank_id = (addr >> self._bank_shift) & self._bank_mask
        row = addr >> self._row_shift
        bank = self._banks[bank_id]
        earliest = self._blocked_until_ps
        if now > earliest:
            earliest = now

        # open the row: a hit waits only for tRCD after its ACT
        if bank.open_row == row:
            self._hits.value += 1
            cas_time = bank.act_ps + self._trcd_ps
            if earliest > cas_time:
                cas_time = earliest
        else:
            self._misses.value += 1
            act_ready = bank.act_ready_ps
            if bank.open_row is not None:
                pre_time = bank.pre_ready_ps
                if earliest > pre_time:
                    pre_time = earliest
                if record:
                    self.commands.append(Command(pre_time, CmdType.PRE, bank_id))
                ready = pre_time + self._trp_ps
                if ready > act_ready:
                    act_ready = ready
            act_time = earliest
            if act_ready > act_time:
                act_time = act_ready
            ready = self._last_act_ps + self._trrd_ps
            if ready > act_time:
                act_time = ready
            history = self._act_history
            if len(history) == 4:
                ready = history[0] + self._tfaw_ps
                if ready > act_time:
                    act_time = ready
            if record:
                self.commands.append(Command(act_time, CmdType.ACT, bank_id, row=row))
            bank.open_row = row
            bank.act_ps = act_time
            bank.pre_ready_ps = act_time + self._tras_ps
            bank.act_ready_ps = act_time + self._trc_ps
            self._last_act_ps = act_time
            history.append(act_time)
            cas_time = act_time + self._trcd_ps

        if self._next_cas_ps > cas_time:
            cas_time = self._next_cas_ps
        if is_write:
            if record:
                self.commands.append(Command(
                    cas_time, CmdType.WR, bank_id, row=row,
                    col=self.mapping.decompose(addr)[2]))
            self._writes.value += 1
            data_end = cas_time + self._wr_data_ps
            ready = data_end + self._twr_ps
            if ready > bank.pre_ready_ps:
                bank.pre_ready_ps = ready
            ready = data_end + self._twtr_ps
            if ready > self._rd_ready_after_wr_ps:
                self._rd_ready_after_wr_ps = ready
        else:
            if self._rd_ready_after_wr_ps > cas_time:
                cas_time = self._rd_ready_after_wr_ps
            if record:
                self.commands.append(Command(
                    cas_time, CmdType.RD, bank_id, row=row,
                    col=self.mapping.decompose(addr)[2]))
            self._reads.value += 1
            data_end = cas_time + self._rd_data_ps
            ready = cas_time + self._trtp_ps
            if ready > bank.pre_ready_ps:
                bank.pre_ready_ps = ready
        self._next_cas_ps = cas_time + self._tccd_ps

        if self._closed:
            pre_time = bank.pre_ready_ps
            if record:
                self.commands.append(Command(pre_time, CmdType.PRE, bank_id))
            bank.open_row = None
            ready = pre_time + self._trp_ps
            if ready > bank.act_ready_ps:
                bank.act_ready_ps = ready
        return data_end

    @property
    def row_hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0
