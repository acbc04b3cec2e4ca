"""3D-XPoint media model."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import MIB, NS
from repro.media.xpoint import XPointConfig, XPointMedia


def make(**kwargs):
    defaults = dict(capacity_bytes=64 * MIB)
    defaults.update(kwargs)
    return XPointMedia(XPointConfig(**defaults))


def test_read_write_asymmetry():
    media = make()
    read_done = media.access(0, False, 0)
    media = make()
    write_done = media.access(0, True, 0)
    assert write_done > read_done


def test_partition_parallelism():
    media = make()
    a = media.access(0, False, 0)
    b = media.access(256, False, 0)  # adjacent 256B unit -> next partition
    assert a == b


def test_same_partition_serializes():
    media = make()
    first = media.access(0, False, 0)
    second = media.access(0, False, 0)
    assert second == first + media.config.read_ps


def test_unaligned_access_rounds_down():
    media = make()
    media.access(100, False, 0)
    media2 = make()
    media2.access(0, False, 0)
    assert media.banks.banks[0].busy_until == media2.banks.banks[0].busy_until


def test_block_access_spans_partitions():
    media = make()
    done = media.access_block(0, 4096, False, 0)
    # 16 units over 16 partitions run fully parallel
    assert done == media.config.read_ps
    assert media.reads == 16


def test_byte_counters():
    media = make()
    media.access(0, True, 0)
    media.access(256, False, 0)
    stats = media.stats.snapshot()
    assert stats["media.bytes_written"] == 256
    assert stats["media.bytes_read"] == 256


def test_capacity_wrap():
    media = make(capacity_bytes=1 * MIB)
    assert media.access(3 * MIB, False, 0) > 0


def test_invalid_configs():
    with pytest.raises(ConfigError):
        XPointConfig(granularity=100)
    with pytest.raises(ConfigError):
        XPointConfig(npartitions=5)
    with pytest.raises(ConfigError):
        XPointConfig(capacity_bytes=1000)
