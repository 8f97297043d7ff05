"""Tests for the Cache Line Target Queue (cache-line granularity)."""

from repro.core.cltq import CacheLineTargetQueue
from repro.frontend.fetch_block import FetchBlock
from repro.workloads.isa import line_split


def block(start=0x1000, length=8, **kw):
    return FetchBlock(start=start, length=length,
                      split=line_split(start, length, 64), **kw)


class TestBlockToLineExpansion:
    def test_push_splits_into_lines(self):
        cltq = CacheLineTargetQueue(capacity_blocks=8)
        cltq.push_block(block(0x1000 + 48, length=20))  # spans 2 lines
        assert cltq.occupancy_lines == 2
        assert cltq.occupancy_blocks == 1
        assert cltq.enqueued_lines == 2

    def test_entries_carry_prefetched_and_occupied_bits(self):
        cltq = CacheLineTargetQueue()
        cltq.push_block(block())
        entry = cltq.peek_line()
        assert not entry.prefetched
        assert entry.occupied

    def test_lines_pop_in_fetch_order(self):
        cltq = CacheLineTargetQueue()
        cltq.push_block(block(0x1000, length=32))  # 2 lines
        cltq.push_block(block(0x8000, length=4))
        addrs = [cltq.pop_line().line_addr for _ in range(3)]
        assert addrs == [0x1000, 0x1040, 0x8000]

    def test_pop_clears_occupied_bit(self):
        cltq = CacheLineTargetQueue()
        cltq.push_block(block())
        entry = cltq.pop_line()
        assert not entry.occupied


class TestCapacityInBlocks:
    def test_capacity_counts_blocks_not_lines(self):
        cltq = CacheLineTargetQueue(capacity_blocks=2)
        assert cltq.push_block(block(0x1000, length=40))   # 3 lines
        assert cltq.push_block(block(0x8000, length=40))
        assert not cltq.has_space()
        assert not cltq.push_block(block(0xF000))
        assert cltq.dropped_blocks == 1

    def test_block_residency_released_after_last_line(self):
        cltq = CacheLineTargetQueue(capacity_blocks=1)
        cltq.push_block(block(0x1000, length=32))  # 2 lines
        cltq.pop_line()
        assert not cltq.has_space()   # one line of the block still queued
        cltq.pop_line()
        assert cltq.has_space()

    def test_same_opportunities_as_ftq(self):
        """The CLTQ holds the same fetch blocks as an FTQ of equal capacity
        (the paper: both queues give the same prefetch opportunities)."""
        cltq = CacheLineTargetQueue(capacity_blocks=8)
        blocks = [block(0x1000 * (i + 1), length=24) for i in range(8)]
        for b in blocks:
            assert cltq.push_block(b)
        assert cltq.occupancy_blocks == 8
        queued_blocks = {id(e.block) for e in cltq.iter_entries()}
        assert queued_blocks == {id(b) for b in blocks}


class TestPrestagingScanHelpers:
    def test_unprefetched_entries_in_order_with_limit(self):
        cltq = CacheLineTargetQueue()
        cltq.push_block(block(0x1000, length=48))  # 3 lines
        entries = cltq.unprefetched_entries(limit=2)
        assert len(entries) == 2
        entries[0].prefetched = True
        remaining = cltq.unprefetched_entries()
        assert all(not e.prefetched for e in remaining)
        assert len(remaining) == 2

    def test_flush_empties_queue_and_residency(self):
        cltq = CacheLineTargetQueue(capacity_blocks=2)
        cltq.push_block(block(0x1000, length=32))
        cltq.flush()
        assert cltq.occupancy_lines == 0
        assert cltq.occupancy_blocks == 0
        assert cltq.has_space()
        assert cltq.pop_line() is None
