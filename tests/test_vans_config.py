"""VANS configuration tree."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import GIB, KIB, MIB
from repro.media.wear import WearConfig
from repro.vans.config import (
    AitConfig,
    DimmConfig,
    LsqConfig,
    RmwConfig,
    VansConfig,
    WpqConfig,
    optane_config,
)


def test_default_matches_paper_parameters():
    cfg = VansConfig()
    assert cfg.wpq.capacity_bytes == 512
    assert cfg.dimm.lsq.capacity_bytes == 4 * KIB
    assert cfg.dimm.rmw.capacity_bytes == 16 * KIB
    assert cfg.dimm.ait.capacity_bytes == 16 * MIB
    assert cfg.interleave_bytes == 4 * KIB
    assert cfg.dimm.wear.block_bytes == 64 * KIB
    assert cfg.dimm.wear.migrate_threshold == 14_000


def test_entry_sizes_match_paper():
    cfg = VansConfig()
    assert cfg.dimm.rmw.entry_bytes == 256
    assert cfg.dimm.ait.entry_bytes == 4 * KIB
    assert cfg.dimm.lsq.combine_bytes == 256
    assert cfg.wpq.entry_bytes == 64


def test_with_dimms():
    cfg = VansConfig().with_dimms(6)
    assert cfg.ndimms == 6
    assert cfg.interleaved
    single = cfg.with_dimms(1)
    assert not single.interleaved


def test_with_media_capacity():
    cfg = VansConfig().with_media_capacity(8 * GIB)
    assert cfg.dimm.media.capacity_bytes == 8 * GIB
    # other parameters untouched
    assert cfg.dimm.rmw.capacity_bytes == 16 * KIB


def test_with_lazy_cache():
    assert not VansConfig().dimm.lazy_cache
    assert VansConfig().with_lazy_cache().dimm.lazy_cache


def test_total_capacity():
    cfg = optane_config(ndimms=6)
    assert cfg.total_capacity_bytes == 6 * cfg.dimm.media.capacity_bytes


def test_describe_keys():
    desc = VansConfig().describe()
    for key in ("wpq_bytes", "lsq_bytes", "rmw_bytes", "ait_bytes",
                "wear_block_bytes", "interleave_bytes"):
        assert key in desc


def test_interleaving_requires_multiple_dimms():
    with pytest.raises(ConfigError):
        VansConfig(ndimms=1, interleaved=True)


def test_ait_must_fit_on_dimm_dram():
    with pytest.raises(ConfigError):
        DimmConfig(ait=AitConfig(entries=1 << 20))  # 4GB > 512MB DRAM


@pytest.mark.parametrize("dimm", [
    # 128 KiB entry: spans two 64 KiB wear blocks
    dict(ait=AitConfig(entry_bytes=128 * KIB)),
    # 8 KiB entry over 4 KiB wear blocks
    dict(wear=WearConfig(block_bytes=4 * KIB), ait=AitConfig(entry_bytes=8 * KIB)),
    # 3 KiB entries: the one at 63 KiB straddles two 64 KiB wear blocks
    dict(ait=AitConfig(entry_bytes=3 * KIB)),
    # 128 B entry: half a 256 B media unit
    dict(ait=AitConfig(entry_bytes=128)),
    # 8 KiB RMW blocks do not fit in a 4 KiB entry
    dict(rmw=RmwConfig(entry_bytes=8 * KIB)),
], ids=["spans-wear-blocks", "spans-small-wear-blocks", "straddles-wear-block",
        "part-media-unit", "part-rmw-block"])
def test_ait_entry_geometry_is_checked(dimm):
    """An AIT fill remaps its entry with one wear-block lookup, so the
    entry must sit inside one wear block, in whole media units and
    whole RMW blocks."""
    with pytest.raises(ConfigError):
        DimmConfig(**dimm)


def test_rmw_entry_multiple_of_combine():
    with pytest.raises(ConfigError):
        DimmConfig(rmw=RmwConfig(entry_bytes=384),
                   lsq=LsqConfig(combine_bytes=256))


def test_interleave_power_of_two():
    with pytest.raises(ConfigError):
        VansConfig(interleave_bytes=3000)


def test_config_is_immutable():
    cfg = VansConfig()
    with pytest.raises(Exception):
        cfg.ndimms = 4
