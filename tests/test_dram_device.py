"""Multi-channel DRAM device."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import MIB
from repro.dram.command import CmdType
from repro.dram.device import DramDevice
from repro.dram.timing import DDR4_2666
from repro.dram.verifier import DDR4ProtocolChecker


def test_channels_must_be_power_of_two():
    with pytest.raises(ConfigError):
        DramDevice(DDR4_2666, nchannels=3)


def test_line_interleave_across_channels():
    dev = DramDevice(DDR4_2666, nchannels=4, record_commands=True)
    for addr in (0, 64, 256):
        dev.access(addr, False, 0)
    # line n goes to channel n % 4 at channel-local column n // 4
    reads = [[(c.bank, c.row, c.col) for c in channel.commands
              if c.kind is CmdType.RD] for channel in dev.channels]
    assert reads == [[(0, 0, 0), (0, 0, 1)], [(0, 0, 0)], [], []]


def test_parallel_channels_beat_single():
    """Back-to-back line accesses finish sooner with more channels."""
    def total_time(nchannels):
        dev = DramDevice(DDR4_2666, nchannels=nchannels)
        done = 0
        for i in range(32):
            done = max(done, dev.access(i * 64, False, 0))
        return done

    assert total_time(4) < total_time(1)


def test_access_block_streams_lines():
    one = DramDevice(DDR4_2666, nchannels=1).access(0, False, 0)
    block = DramDevice(DDR4_2666, nchannels=1).access_block(0, 4096, False, 0)
    # 64 pipelined line accesses cost far less than 64 serial latencies
    assert block < one * 16
    assert block > one


def test_address_wraps_capacity():
    dev = DramDevice(DDR4_2666, nchannels=1, capacity_bytes=1 * MIB)
    done = dev.access(5 * MIB, False, 0)  # wraps, must not blow up
    assert done > 0


def test_row_hit_rate_tracked():
    dev = DramDevice(DDR4_2666, nchannels=1)
    now = 0
    for i in range(32):
        now = dev.access(i * 64, False, now)
    assert dev.row_hit_rate > 0.9


def test_device_trace_is_protocol_legal():
    dev = DramDevice(DDR4_2666, nchannels=2, record_commands=True)
    now = 0
    for i in range(128):
        now = dev.access(i * 192, i % 2 == 0, now)
    for channel in dev.channels:
        DDR4ProtocolChecker(DDR4_2666).check(channel.commands)
