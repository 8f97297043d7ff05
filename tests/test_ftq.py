"""Tests for the Fetch Target Queue (fetch-block granularity)."""

from repro.core.ftq import FetchTargetQueue
from repro.frontend.fetch_block import FetchBlock
from repro.workloads.isa import line_split


def block(start=0x1000, length=8, **kw):
    return FetchBlock(start=start, length=length,
                      split=line_split(start, length, 64), **kw)


class TestCapacity:
    def test_has_space_until_capacity(self):
        ftq = FetchTargetQueue(capacity_blocks=2)
        assert ftq.push(block(0x1000))
        assert ftq.push(block(0x2000))
        assert not ftq.has_space()
        assert not ftq.push(block(0x3000))
        assert ftq.dropped_blocks == 1

    def test_head_expansion_counts_towards_capacity(self):
        ftq = FetchTargetQueue(capacity_blocks=2)
        ftq.push(block(0x1000, length=20))
        ftq.push(block(0x2000))
        ftq.pop_line()  # starts expanding the head block
        assert not ftq.has_space()

    def test_occupancy_and_len(self):
        ftq = FetchTargetQueue(capacity_blocks=4)
        ftq.push(block(0x1000))
        ftq.push(block(0x2000))
        assert len(ftq) == 2
        assert bool(ftq)


class TestLineExpansion:
    def test_lines_pop_in_order(self):
        ftq = FetchTargetQueue(capacity_blocks=4)
        ftq.push(block(0x1000 + 56, length=10))  # spans 2 lines
        first = ftq.pop_line()
        second = ftq.pop_line()
        assert first.line_addr == 0x1000
        assert second.line_addr == 0x1040
        assert first.num_instructions + second.num_instructions == 10

    def test_peek_does_not_consume(self):
        ftq = FetchTargetQueue(capacity_blocks=4)
        ftq.push(block(0x1000))
        assert ftq.peek_line() is ftq.peek_line()
        assert ftq.pop_line() is not None

    def test_pop_across_blocks(self):
        ftq = FetchTargetQueue(capacity_blocks=4)
        ftq.push(block(0x1000, length=4))
        ftq.push(block(0x2000, length=4))
        a = ftq.pop_line()
        b = ftq.pop_line()
        assert a.block.start == 0x1000
        assert b.block.start == 0x2000

    def test_empty_queue_returns_none(self):
        ftq = FetchTargetQueue()
        assert ftq.pop_line() is None
        assert ftq.peek_line() is None

    def test_pending_blocks_excludes_head_in_expansion(self):
        ftq = FetchTargetQueue(capacity_blocks=4)
        ftq.push(block(0x1000))
        ftq.push(block(0x2000))
        ftq.pop_line()
        pending = ftq.pending_blocks()
        assert [b.start for b in pending] == [0x2000]


class TestFlush:
    def test_flush_discards_everything(self):
        ftq = FetchTargetQueue(capacity_blocks=4)
        ftq.push(block(0x1000, length=20))
        ftq.push(block(0x2000))
        ftq.pop_line()
        ftq.flush()
        assert len(ftq) == 0
        assert ftq.pop_line() is None
        assert ftq.has_space()

    def test_counters(self):
        ftq = FetchTargetQueue(capacity_blocks=1)
        ftq.push(block(0x1000))
        ftq.push(block(0x2000))
        assert ftq.enqueued_blocks == 1
        assert ftq.dropped_blocks == 1
