"""Wear-leveling engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB, US
from repro.media.wear import WearConfig, WearLeveler


def make(threshold=100, capacity=16 * MIB, decay=0, track=False):
    return WearLeveler(
        WearConfig(migrate_threshold=threshold, decay_window_writes=decay),
        capacity_bytes=capacity,
        track_line_wear=track,
    )


def test_migration_after_threshold_writes():
    wear = make(threshold=10)
    migrated = []
    for i in range(10):
        _, m = wear.on_write(0, i * 1000)
        migrated.append(m)
    assert migrated == [False] * 9 + [True]
    assert wear.migrations == 1


def test_migration_stalls_subsequent_writes():
    wear = make(threshold=2)
    wear.on_write(0, 0)
    end, migrated = wear.on_write(0, 10)
    assert migrated
    assert end == 10 + wear.config.migration_ps
    ready, _ = wear.on_write(0, 20)
    assert ready == end  # blocked behind the migration


def test_reads_stall_during_migration():
    wear = make(threshold=1)
    end, _ = wear.on_write(0, 0)
    assert wear.on_read(0, 100) == end
    assert wear.on_read(0, end + 1) == end + 1


def test_migration_remaps_block():
    wear = make(threshold=1)
    before = wear.translate(100)
    wear.on_write(0, 0)
    after = wear.translate(100)
    assert before != after
    assert after % wear.config.block_bytes == 100  # offset preserved


def test_translate_within_capacity():
    wear = make(threshold=1, capacity=1 * MIB)
    for i in range(40):
        wear.on_write(0, i)
    assert 0 <= wear.translate(0) < 1 * MIB


def test_counts_reset_after_migration():
    wear = make(threshold=5)
    for i in range(5):
        wear.on_write(0, i)
    assert wear.block_write_count(0) == 0


def test_different_blocks_independent():
    wear = make(threshold=10)
    block = 64 * KIB
    for i in range(9):
        wear.on_write(0, i)
        wear.on_write(block, i)
    assert wear.migrations == 0
    assert wear.block_write_count(0) == 9
    assert wear.block_write_count(block) == 9


def test_spreading_prevents_migration_quantization():
    """The Figure 7c mechanism: same volume over 2 blocks, each below
    threshold, yields zero migrations."""
    wear = make(threshold=100)
    for i in range(150):
        wear.on_write((i % 2) * 64 * KIB, i)
    assert wear.migrations == 0
    wear2 = make(threshold=100)
    for i in range(150):
        wear2.on_write(0, i)
    assert wear2.migrations == 1


def test_decay_halves_counters():
    wear = make(threshold=1000, decay=10)
    for i in range(10):
        wear.on_write(0, i)
    assert wear.block_write_count(0) < 10


def test_line_wear_tracking():
    wear = make(track=True)
    for _ in range(3):
        wear.on_write(512, 0)
    wear.on_write(0, 0)
    top = wear.top_written_lines(1)
    assert top == [(512, 3)]


def test_migration_counts_per_block():
    wear = make(threshold=2)
    for i in range(4):
        wear.on_write(0, i * US)
    assert wear.migration_counts.get(0) == 2


def test_invalid_config():
    with pytest.raises(ConfigError):
        WearConfig(block_bytes=100)
    with pytest.raises(ConfigError):
        WearConfig(migrate_threshold=0)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=300),
       st.integers(2, 50))
def test_migrations_bounded_by_write_counts(blocks, threshold):
    """Property: total migrations == sum over blocks of
    floor(writes/threshold) when writes arrive in time order."""
    wear = make(threshold=threshold)
    counts = {}
    now = 0
    for b in blocks:
        addr = b * 64 * KIB
        ready, _ = wear.on_write(addr, now)
        now = max(now, ready) + 1
        counts[b] = counts.get(b, 0) + 1
    expected = sum(c // threshold for c in counts.values())
    assert wear.migrations == expected
