"""Tests for the baseline (no-prefetch) fetch engine."""

import pytest

from repro.core.baseline import BaselineEngine
from repro.core.engine import FetchEngineConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

from engine_harness import RecordingBackend, block_for, delivered_sources, drive


def make_engine(workload, l0=False, pipelined=False, l1_size=4096,
                tech="0.045um", **cfg_overrides):
    hierarchy = MemoryHierarchy(HierarchyConfig(
        technology=tech, l1_size_bytes=l1_size,
        l0_size_bytes=256 if l0 else None, l1_pipelined=pipelined,
    ))
    config = FetchEngineConfig(**cfg_overrides)
    return BaselineEngine(config, hierarchy)


class TestFetchFromL1:
    def test_delivers_all_instructions_of_block(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        block = block_for(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        drive(engine, backend, 20)
        assert backend.count == block.length
        assert delivered_sources(engine) == {"il1"}

    def test_l1_latency_delays_first_delivery(self, tiny_workload):
        engine = make_engine(tiny_workload)   # 4KB @ 0.045um -> 4 cycles
        backend = RecordingBackend()
        block = block_for(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        delivered_by_cycle = []
        for cycle in range(8):
            delivered_by_cycle.append(engine.fetch_tick(cycle, backend))
            engine.hierarchy.tick(cycle)
        # Nothing can be delivered before the 4-cycle L1 access completes.
        assert sum(delivered_by_cycle[:4]) == 0
        assert sum(delivered_by_cycle) > 0

    def test_fetch_width_limits_delivery_rate(self, tiny_workload):
        engine = make_engine(tiny_workload, fetch_width=2)
        backend = RecordingBackend()
        block = block_for(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        for cycle in range(30):
            assert engine.fetch_tick(cycle, backend) <= 2
            engine.hierarchy.tick(cycle)

    def test_backend_backpressure(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend(capacity=2)
        # Pick a basic block with more instructions than the back-end space.
        index = next(i for i, b in enumerate(tiny_workload.cfg.all_blocks())
                     if b.size >= 4)
        block = block_for(tiny_workload, index)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        drive(engine, backend, 20)
        assert backend.count == 2
        assert engine.stats.stall_cycles.get("backend-full", 0) > 0


class TestDemandMiss:
    def test_miss_is_served_by_l2_and_fills_l1(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        block = block_for(tiny_workload)
        engine.hierarchy.l2.fill(block.start)
        engine.enqueue_block(block, 0)
        drive(engine, backend, 40)
        assert backend.count == block.length
        assert delivered_sources(engine) == {"ul2"}
        assert engine.hierarchy.l1.contains(block.start)

    def test_uncached_miss_goes_to_memory(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        block = block_for(tiny_workload)
        engine.enqueue_block(block, 0)
        drive(engine, backend, 260)
        assert delivered_sources(engine) == {"Mem"}
        assert engine.hierarchy.l2.contains(block.start)


class TestL0Behaviour:
    def test_l0_hit_is_one_cycle(self, tiny_workload):
        engine = make_engine(tiny_workload, l0=True)
        backend = RecordingBackend()
        block = block_for(tiny_workload)
        engine.hierarchy.l0.fill(block.start)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        first_delivery = None
        for cycle in range(10):
            if engine.fetch_tick(cycle, backend) and first_delivery is None:
                first_delivery = cycle
            engine.hierarchy.tick(cycle)
        assert first_delivery is not None and first_delivery <= 2
        # Only the first line is in the L0, and it is delivered first.
        assert "il0" in delivered_sources(engine)

    def test_consumed_l1_lines_fill_l0(self, tiny_workload):
        engine = make_engine(tiny_workload, l0=True)
        backend = RecordingBackend()
        block = block_for(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        drive(engine, backend, 20)
        assert engine.hierarchy.l0.contains(block.start)

    def test_name_reflects_l0(self, tiny_workload):
        assert make_engine(tiny_workload).name == "base"
        assert make_engine(tiny_workload, l0=True).name == "base+L0"


class TestQueueAndFlush:
    def test_can_accept_until_queue_full(self, tiny_workload):
        engine = make_engine(tiny_workload, queue_capacity_blocks=2)
        assert engine.can_accept_block()
        engine.enqueue_block(block_for(tiny_workload, 0), 0)
        engine.enqueue_block(block_for(tiny_workload, 1), 0)
        assert not engine.can_accept_block()

    def test_flush_discards_pending_work(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        block = block_for(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        drive(engine, backend, 2)   # start the access but deliver nothing yet
        engine.flush(2)
        drive(engine, backend, 20, start_cycle=3)
        assert backend.count == 0
        assert engine.stats.flushes == 1

    def test_never_prefetches(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        engine.enqueue_block(block_for(tiny_workload), 0)
        drive(engine, backend, 50)
        assert engine.stats.prefetches_issued == 0
