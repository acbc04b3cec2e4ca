"""Pre-translation and Lazy cache components."""

import pytest

from repro.common.units import KIB
from repro.optim.lazycache import LazyCache, LazyCacheConfig
from repro.optim.pretranslation import PreTranslation, PreTranslationConfig


class TestPreTranslation:
    def test_first_observation_misses_and_updates(self):
        pt = PreTranslation()
        assert pt.observe(0x1000, 0x5000) is False
        assert pt.observe(0x1000, 0x5000) is True  # entry now present

    def test_pointer_change_invalidates(self):
        pt = PreTranslation()
        pt.observe(0x1000, 0x5000)
        # node's pointer now targets a different page: stale -> update
        assert pt.observe(0x1000, 0x9000) is False
        assert pt.observe(0x1000, 0x9000) is True

    def test_same_page_pointers_match(self):
        pt = PreTranslation()
        pt.observe(0x1000, 0x5000)
        # different offset, same page frame -> still a valid entry
        assert pt.observe(0x1000, 0x5040) is True

    def test_hit_rate(self):
        pt = PreTranslation()
        pt.observe(0, 4096)
        pt.observe(0, 4096)
        pt.observe(0, 4096)
        assert pt.hit_rate == pytest.approx(2 / 3)

    def test_rlb_capacity_bounded(self):
        cfg = PreTranslationConfig(rlb_bytes=64, rlb_entry_bytes=16)
        pt = PreTranslation(cfg)
        for i in range(10):
            pt.observe(i * 64, 4096)
        assert len(pt._rlb) <= cfg.rlb_entries

    def test_table_capacity_bounded(self):
        cfg = PreTranslationConfig(table_bytes=80, table_entry_bytes=8)
        pt = PreTranslation(cfg)
        for i in range(100):
            pt.observe(i * 64, 4096)
        assert len(pt._table) <= cfg.table_entries

    def test_stale_rate_discards_hits(self):
        pt = PreTranslation(PreTranslationConfig(stale_rate=1.0))
        pt.observe(0, 4096)
        assert pt.observe(0, 4096) is False  # always stale
        assert pt.stats.snapshot()["pretrans.stale"] >= 1

    def test_config_defaults_match_paper(self):
        cfg = PreTranslationConfig()
        assert cfg.rlb_bytes == 1 * KIB
        assert cfg.table_bytes == 16 * 1024 * 1024


class TestLazyCache:
    def test_mark_and_absorb(self):
        lazy = LazyCache()
        lazy.mark_hot(0)
        assert lazy.is_hot(0)
        assert lazy.absorb(0) == []
        assert lazy.contains(0)
        assert lazy.absorbed == 1

    def test_eviction_returns_dirty_victims(self):
        cfg = LazyCacheConfig(lz2_bytes=256, lz2_line=128,
                              lz1_bytes=128, lz1_line=64)
        lazy = LazyCache(cfg)
        evicted = []
        for i in range(5):
            evicted.extend(lazy.absorb(i * 256))
        assert evicted  # 5 absorbs into 2 LZ2 entries -> victims
        assert all(isinstance(v, int) for v in evicted)

    def test_inclusive_lz1_subset_of_lz2(self):
        lazy = LazyCache()
        for i in range(40):
            lazy.absorb(i * 256)
        for addr in lazy._lz1:
            assert addr in lazy._lz2

    def test_wlb_capacity_bounded(self):
        lazy = LazyCache()
        for i in range(200):
            lazy.mark_hot(i * 256)
        assert len(lazy._wlb) <= lazy._wlb_entries

    def test_flush_drains_everything(self):
        lazy = LazyCache()
        lazy.absorb(0)
        lazy.absorb(256)
        dirty = lazy.flush()
        assert set(dirty) == {0, 256}
        assert not lazy.contains(0)

    def test_total_size_is_3kb(self):
        cfg = LazyCacheConfig()
        assert cfg.lz1_bytes + cfg.lz2_bytes == 3 * KIB


class TestLazyCacheInDimm:
    def test_hot_block_writes_skip_media(self, fast_wear_config):
        from dataclasses import replace
        from repro.vans import VansSystem

        cfg = fast_wear_config.with_lazy_cache()
        system = VansSystem(cfg)
        threshold = cfg.dimm.wear.migrate_threshold
        now = 0
        # hammer one 256B block well past the hot threshold
        for i in range(threshold * 3):
            for line in range(4):
                now = system.write(line * 64, now)
            now = system.fence(now)
        dimm = system.dimm
        assert dimm.lazy.absorbed > 0
        # once absorbed, media writes stop accruing for that block
        media_writes = dimm.media.writes
        for i in range(50):
            for line in range(4):
                now = system.write(line * 64, now)
            now = system.fence(now)
        assert dimm.media.writes == media_writes

    def test_lazy_limits_migrations(self, fast_wear_config):
        from repro.vans import VansSystem

        def migrations(lazy):
            cfg = fast_wear_config.with_lazy_cache(lazy)
            system = VansSystem(cfg)
            now = 0
            for i in range(cfg.dimm.wear.migrate_threshold * 5):
                now = system.write(0, now)
                now = system.fence(now)
            return system.wear_migrations

        assert migrations(True) < migrations(False)

    def test_lazy_read_hits_cached_block(self, fast_wear_config):
        from repro.vans import VansSystem

        cfg = fast_wear_config.with_lazy_cache()
        system = VansSystem(cfg)
        now = 0
        for i in range(cfg.dimm.wear.migrate_threshold * 2):
            now = system.write(0, now)
            now = system.fence(now)
        assert system.dimm.lazy.contains(0)
        t0 = now + 10**6
        hit = system.read(0, t0) - t0
        assert hit < 200_000  # served on-DIMM, no media

    def test_reset_state_drops_lazy_entries(self):
        """The Lazy SRAM holds nothing after a power cut or cold restart,
        so a block it absorbed is read from the media tier again."""
        from repro import registry

        def hammered():
            system = registry.build("vans-lazy", migrate_threshold=16)
            now = 0
            for i in range(400):
                now = system.write((i % 4) * 256, now)
                now = system.fence(now)
            return system, now

        kept, now = hammered()
        assert kept.read(0, now) - now == 140_000  # Lazy hit
        system, now = hammered()
        lazy = system.dimm.lazy
        assert all(lazy.contains(b * 256) for b in range(4))
        system.reset_state()
        assert not any(lazy.contains(b * 256) or lazy.is_hot(b * 256)
                       for b in range(4))
        assert system.read(0, now) - now == 376_500
