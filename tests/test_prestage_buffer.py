"""Tests for the CLGP prestage buffer (consumers-counter replacement)."""

import pytest

from repro.core.prestage_buffer import PrestageBuffer


class TestConsumersCounter:
    def test_allocate_sets_one_consumer(self):
        buffer = PrestageBuffer(entries=4)
        entry = buffer.allocate_for_prefetch(0x1000)
        assert entry.consumers == 1
        assert not entry.valid

    def test_add_consumer_extends_lifetime(self):
        buffer = PrestageBuffer(entries=4)
        entry = buffer.allocate_for_prefetch(0x1000)
        buffer.add_consumer(entry)
        assert entry.consumers == 2
        assert buffer.consumer_increments == 2

    def test_consume_decrements(self):
        buffer = PrestageBuffer(entries=4)
        entry = buffer.allocate_for_prefetch(0x1000)
        buffer.consume(entry)
        assert entry.consumers == 0
        assert buffer.consumer_decrements == 1

    def test_consume_never_goes_negative(self):
        buffer = PrestageBuffer(entries=4)
        entry = buffer.allocate_for_prefetch(0x1000)
        buffer.consume(entry)
        buffer.consume(entry)
        assert entry.consumers == 0

    def test_total_consumers(self):
        buffer = PrestageBuffer(entries=4)
        a = buffer.allocate_for_prefetch(0x1000)
        b = buffer.allocate_for_prefetch(0x2000)
        buffer.add_consumer(a)
        assert buffer.total_consumers() == 3
        del b


class TestReplacement:
    def test_entry_with_consumers_is_protected(self):
        buffer = PrestageBuffer(entries=1)
        entry = buffer.allocate_for_prefetch(0x1000)
        entry.mark_arrived(5, "ul2")
        # The single entry still has one consumer: allocation must fail.
        assert buffer.allocate_for_prefetch(0x2000) is None
        buffer.consume(entry)
        assert buffer.allocate_for_prefetch(0x2000) is not None

    def test_lru_among_free_entries(self):
        buffer = PrestageBuffer(entries=2)
        a = buffer.allocate_for_prefetch(0x1000)
        b = buffer.allocate_for_prefetch(0x2000)
        for entry in (a, b):
            entry.mark_arrived(1, "ul2")
            buffer.consume(entry)
        # Touch `a` so `b` becomes LRU among the replaceable entries.
        buffer.touch(a)
        buffer.allocate_for_prefetch(0x3000)
        assert buffer.contains(0x1000)
        assert not buffer.contains(0x2000)

    def test_reset_consumers_makes_all_replaceable(self):
        buffer = PrestageBuffer(entries=2)
        a = buffer.allocate_for_prefetch(0x1000)
        b = buffer.allocate_for_prefetch(0x2000)
        buffer.add_consumer(a)
        buffer.add_consumer(b)
        buffer.reset_consumers()
        assert buffer.total_consumers() == 0
        assert len(buffer.replaceable_entries()) == 2
        assert buffer.counter_resets == 1

    def test_touching_a_detached_entry_leaves_the_order_alone(self):
        """The fetch stage may consume a line whose entry has since left
        the buffer; touching it must not move or resurrect anything."""
        buffer = PrestageBuffer(entries=4)
        removed = buffer.allocate_for_prefetch(0x1000)
        old = buffer.allocate_for_prefetch(0x2000)
        buffer.remove(removed)
        buffer.remove(old)
        newer = buffer.allocate_for_prefetch(0x2000)   # same line, new entry
        live = buffer.allocate_for_prefetch(0x3000)
        for entry in (newer, live):
            buffer.consume(entry)
        for stale in (removed, old):
            buffer.touch(stale)
            buffer.consume(stale)
            # Identity, not ==: ``old`` and ``newer`` are equal dataclasses.
            assert list(map(id, buffer.entries())) == [id(newer), id(live)]
        assert buffer.get(0x2000) is newer
        assert buffer._victim() is newer

    def test_valid_lines_survive_reset_until_replaced(self):
        buffer = PrestageBuffer(entries=2)
        a = buffer.allocate_for_prefetch(0x1000)
        a.mark_arrived(3, "ul2")
        buffer.reset_consumers()
        # The line is still present and valid after the counters reset ...
        assert buffer.get(0x1000) is a and a.valid
        # ... and only disappears once a new prefetch claims the entry.
        buffer.allocate_for_prefetch(0x2000)
        buffer.allocate_for_prefetch(0x3000)
        assert not buffer.contains(0x1000)


class TestInvariants:
    def test_check_invariants_ok(self):
        buffer = PrestageBuffer(entries=4)
        for i in range(4):
            entry = buffer.allocate_for_prefetch(0x1000 + i * 64)
            entry.mark_arrived(i, "ul2")
        buffer.check_invariants()

    def test_check_invariants_detects_negative_counter(self):
        buffer = PrestageBuffer(entries=2)
        entry = buffer.allocate_for_prefetch(0x1000)
        entry.consumers = -1
        with pytest.raises(AssertionError):
            buffer.check_invariants()

    def test_pipelined_latency_configurable(self):
        buffer = PrestageBuffer(entries=16, latency=3, pipelined=True)
        assert buffer.port.pipelined
        assert buffer.port.latency == 3


class TestVictimEquivalence:
    """The prestage buffer's _victim fast path must always pick the same
    entry as replaceable_entries()[0] (LRU among consumers==0)."""

    def _mixed_buffer(self, seed: int) -> PrestageBuffer:
        import random
        rng = random.Random(seed)
        buffer = PrestageBuffer(entries=8)
        for i in range(8):
            entry = buffer.allocate_for_prefetch(0x1000 * (i + 1))
            if rng.random() < 0.7:
                entry.mark_arrived(cycle=i, source="ul2")
            if rng.random() < 0.6:
                buffer.consume(entry)          # consumers -> 0
            if rng.random() < 0.3:
                buffer.add_consumer(entry)
            if rng.random() < 0.4:
                buffer.touch(entry)
        return buffer

    @pytest.mark.parametrize("seed", range(20))
    def test_victim_matches_replaceable_head(self, seed):
        buffer = self._mixed_buffer(seed)
        candidates = buffer.replaceable_entries()
        victim = buffer._victim()
        if not candidates:
            assert victim is None
        else:
            assert victim is candidates[0]
