"""Tests for the set-associative cache model."""

import pytest

from repro.memory.cache import Cache


class TestConstruction:
    def test_basic_geometry(self):
        cache = Cache("il1", 4096, line_size=64, associativity=2)
        assert cache.num_lines == 64
        assert cache.num_sets == 32

    def test_fully_associative(self):
        cache = Cache("l0", 256, line_size=64, associativity=None)
        assert cache.num_sets == 1
        assert cache.associativity == 4

    def test_associativity_capped_at_num_lines(self):
        cache = Cache("c", 128, line_size=64, associativity=8)
        assert cache.associativity == 2

    @pytest.mark.parametrize("size,line,assoc", [
        (0, 64, 2), (100, 64, 2), (4096, 64, 0), (4096, 0, 2),
    ])
    def test_invalid_geometry_rejected(self, size, line, assoc):
        with pytest.raises(ValueError):
            Cache("bad", size, line_size=line, associativity=assoc)


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = Cache("c", 1024, 64, 2)
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_same_line_different_offsets(self):
        cache = Cache("c", 1024, 64, 2)
        cache.fill(0x1000)
        assert cache.lookup(0x103C)  # same 64-byte line

    def test_contains_does_not_count(self):
        cache = Cache("c", 1024, 64, 2)
        cache.fill(0x1000)
        cache.contains(0x1000)
        cache.contains(0x2000)
        assert cache.stats.accesses == 0

    def test_fill_returns_eviction(self):
        # One set, two ways: 128-byte fully associative cache.
        cache = Cache("c", 128, 64, None)
        assert cache.fill(0x0000) is None
        assert cache.fill(0x0040) is None
        evicted = cache.fill(0x0080)
        assert evicted == 0x0000  # LRU

    def test_fill_existing_line_no_eviction(self):
        cache = Cache("c", 128, 64, None)
        cache.fill(0x0000)
        assert cache.fill(0x0000) is None
        assert cache.occupancy() == 1

    def test_lru_order_respects_hits(self):
        cache = Cache("c", 128, 64, None)
        cache.fill(0x0000)
        cache.fill(0x0040)
        cache.lookup(0x0000)          # make line 0 most recently used
        evicted = cache.fill(0x0080)
        assert evicted == 0x0040

    def test_invalidate(self):
        cache = Cache("c", 1024, 64, 2)
        cache.fill(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.invalidate(0x1000)
        assert not cache.contains(0x1000)

    def test_flush(self):
        cache = Cache("c", 1024, 64, 2)
        for i in range(8):
            cache.fill(0x1000 + i * 64)
        cache.flush()
        assert cache.occupancy() == 0

    def test_dunder_contains(self):
        cache = Cache("c", 1024, 64, 2)
        cache.fill(0x1000)
        assert 0x1000 in cache
        assert 0x2000 not in cache


class TestLRU:
    """Each set replaces its least recently used line."""

    def _three_way(self):
        cache = Cache("c", 192, 64, None)      # one set, three ways
        for addr in (0x0000, 0x0040, 0x0080):
            cache.fill(addr)
        return cache

    def test_victim_is_least_recently_used_after_a_hit(self):
        cache = self._three_way()
        assert cache.lookup(0x0000)
        assert cache.fill(0x00C0) == 0x0040
        assert cache.fill(0x0100) == 0x0080
        assert cache.fill(0x0140) == 0x0000

    def test_fill_of_a_resident_line_refreshes_it(self):
        cache = self._three_way()
        assert cache.fill(0x0000) is None
        assert cache.stats.fills == 3
        assert cache.fill(0x00C0) == 0x0040

    def test_refilled_invalidated_line_is_the_newest(self):
        cache = self._three_way()
        assert cache.invalidate(0x0000)
        assert cache.fill(0x0000) is None       # a free way, no eviction
        assert cache.fill(0x00C0) == 0x0040
        assert cache.fill(0x0100) == 0x0080
        assert cache.fill(0x0140) == 0x0000


class TestSetMapping:
    def test_conflicting_lines_evict_within_set(self):
        # 2-way, 4 sets; lines mapping to the same set conflict.
        cache = Cache("c", 512, 64, 2)
        stride = cache.num_sets * 64
        cache.fill(0x0000)
        cache.fill(0x0000 + stride)
        cache.fill(0x0000 + 2 * stride)
        assert cache.occupancy() == 2
        assert not cache.contains(0x0000)

    def test_distinct_sets_do_not_interfere(self):
        cache = Cache("c", 512, 64, 2)
        for i in range(cache.num_sets):
            cache.fill(i * 64)
        assert cache.occupancy() == cache.num_sets

    def test_capacity_never_exceeded(self):
        cache = Cache("c", 1024, 64, 4)
        for i in range(200):
            cache.fill(i * 64)
        assert cache.occupancy() <= cache.num_lines


class TestStats:
    def test_hit_and_miss_rates(self):
        cache = Cache("c", 1024, 64, 2)
        cache.lookup(0x1000)
        cache.fill(0x1000)
        cache.lookup(0x1000)
        cache.lookup(0x1000)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert cache.stats.miss_rate == pytest.approx(1 / 3)

    def test_empty_rates(self):
        cache = Cache("c", 1024, 64, 2)
        assert cache.stats.hit_rate == 0.0
        assert cache.stats.miss_rate == 0.0
