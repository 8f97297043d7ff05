"""Tests for the L2 bus and its arbitration policy."""

from repro.memory.bus import BusPriority, L2Bus


class TestArbitration:
    def test_single_grant_per_cycle(self):
        bus = L2Bus()
        granted = []
        for i in range(3):
            bus.submit(BusPriority.PREFETCH, lambda c, i=i: granted.append((i, c)))
        bus.tick(0)
        assert granted == [(0, 0)]
        bus.tick(1)
        bus.tick(2)
        assert granted == [(0, 0), (1, 1), (2, 2)]

    def test_priority_order(self):
        bus = L2Bus()
        order = []
        bus.submit(BusPriority.PREFETCH, lambda c: order.append("prefetch"))
        bus.submit(BusPriority.INSTRUCTION_DEMAND, lambda c: order.append("ifetch"))
        bus.submit(BusPriority.DATA_DEMAND, lambda c: order.append("data"))
        for cycle in range(3):
            bus.tick(cycle)
        assert order == ["data", "ifetch", "prefetch"]

    def test_fifo_within_same_priority(self):
        bus = L2Bus()
        order = []
        for i in range(3):
            bus.submit(BusPriority.PREFETCH, lambda c, i=i: order.append(i))
        for cycle in range(3):
            bus.tick(cycle)
        assert order == [0, 1, 2]

    def test_late_high_priority_preempts_waiting_low_priority(self):
        bus = L2Bus()
        order = []
        bus.submit(BusPriority.PREFETCH, lambda c: order.append("prefetch"))
        bus.submit(BusPriority.PREFETCH, lambda c: order.append("prefetch2"))
        bus.tick(0)
        # A data demand arriving later still beats the queued prefetch.
        bus.submit(BusPriority.DATA_DEMAND, lambda c: order.append("data"))
        bus.tick(1)
        bus.tick(2)
        assert order == ["prefetch", "data", "prefetch2"]


class TestStats:
    def test_grants_counted(self):
        bus = L2Bus()
        bus.submit(BusPriority.PREFETCH, lambda c: None)
        bus.submit(BusPriority.PREFETCH, lambda c: None)
        bus.tick(0)
        bus.tick(1)
        assert bus.stats.grants[BusPriority.PREFETCH] == 2

    def test_pending_counts(self):
        bus = L2Bus()
        bus.submit(BusPriority.PREFETCH, lambda c: None)
        bus.submit(BusPriority.DATA_DEMAND, lambda c: None)
        assert bus.pending == 2
        bus.tick(0)
        assert bus.pending == 1
        bus.tick(1)
        assert bus.pending == 0

    def test_empty_tick(self):
        bus = L2Bus()
        assert bus.tick(0) == 0
        assert bus.stats.grants == [0, 0, 0]
