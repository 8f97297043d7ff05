"""Tests for fetch-engine machinery shared by all engines (engine.py)."""

import pytest

from repro.core.clgp import CLGPEngine
from repro.core.engine import FetchEngineConfig, FetchStats
from repro.core.fdp import FDPEngine
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

from engine_harness import (
    RecordingBackend,
    blocks_on_distinct_lines,
    delivered_sources,
    drive,
)


def make_engine(workload, cls=FDPEngine, lookahead=2, l1_size=4096, **cfg):
    hierarchy = MemoryHierarchy(HierarchyConfig(
        technology="0.045um", l1_size_bytes=l1_size))
    config = FetchEngineConfig(prebuffer_entries=4, fetch_lookahead=lookahead,
                               **cfg)
    return cls(config, hierarchy)


class TestFetchStats:
    def test_record_stall(self):
        stats = FetchStats()
        stats.record_stall("il1")
        stats.record_stall("il1")
        stats.record_stall("empty")
        assert stats.stall_cycles == {"il1": 2, "empty": 1}


class TestFastPathClassification:
    def test_line_on_fast_path_variants(self, tiny_workload):
        engine = make_engine(tiny_workload)
        line = 0x4000
        assert not engine._line_on_fast_path(line)
        engine.hierarchy.l1.fill(line)
        assert engine._line_on_fast_path(line)
        engine.hierarchy.l1.invalidate(line)
        engine.prefetch_buffer.allocate(line)   # even in-flight counts
        assert engine._line_on_fast_path(line)


class TestDemandMissSerialisation:
    def test_only_head_may_be_a_demand_miss(self, tiny_workload):
        """With several queued lines that all miss, the fetch unit keeps a
        single outstanding demand request (the prefetcher, not the fetch
        unit, is what overlaps long-latency fetches)."""
        engine = make_engine(tiny_workload, lookahead=4)
        backend = RecordingBackend()
        blocks = blocks_on_distinct_lines(tiny_workload, 3)
        for block in blocks:
            engine.hierarchy.l2.fill(block.lines()[0])
            engine.enqueue_block(block, 0)
        engine.fetch_tick(0, backend)
        # Only the head line's demand request was issued to the bus.
        assert engine.hierarchy.bus.pending == 1
        assert len(engine._inflight) == 1

    def test_fast_path_lines_fill_the_lookahead(self, tiny_workload):
        engine = make_engine(tiny_workload, lookahead=4)
        backend = RecordingBackend()
        blocks = blocks_on_distinct_lines(tiny_workload, 3)
        for block in blocks:
            engine.hierarchy.l1.fill(block.lines()[0])
            for line in block.lines():
                engine.hierarchy.l1.fill(line)
            engine.enqueue_block(block, 0)
        engine.fetch_tick(0, backend)
        assert len(engine._inflight) >= 2


class TestStallAccounting:
    def test_empty_stall_recorded(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        engine.fetch_tick(0, backend)
        assert engine.stats.stall_cycles.get("empty") == 1

    def test_latency_stall_attributed_to_source(self, tiny_workload):
        engine = make_engine(tiny_workload)   # 4-cycle L1
        backend = RecordingBackend()
        block = blocks_on_distinct_lines(tiny_workload, 1)[0]
        for line in block.lines():
            engine.hierarchy.l1.fill(line)
        engine.enqueue_block(block, 0)
        for cycle in range(3):
            engine.fetch_tick(cycle, backend)
        assert engine.stats.stall_cycles.get("il1", 0) >= 2


class TestPrebufferWaitEscalation:
    def test_wait_on_inflight_prefetch_resolves(self, tiny_workload):
        """A fetch that finds its line being prefetched waits for it and is
        then served from the pre-buffer."""
        engine = make_engine(tiny_workload, cls=CLGPEngine)
        backend = RecordingBackend()
        block = blocks_on_distinct_lines(tiny_workload, 1, min_size=4)[0]
        engine.hierarchy.l2.fill(block.lines()[0])
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)            # allocate + issue the prefetch
        drive(engine, backend, 60, prefetch=False)
        assert backend.count >= 1
        # The prefetched line is the block's first, delivered first.
        assert "PB" in delivered_sources(engine)
        assert engine.stats.stall_cycles.get("PB-wait", 0) >= 1

    def test_wait_escalates_to_demand_if_entry_replaced(self, tiny_workload):
        """If the awaited prestage entry is replaced before its line ever
        arrives, the fetch unit escalates to a demand request instead of
        hanging."""
        engine = make_engine(tiny_workload, cls=CLGPEngine)
        backend = RecordingBackend()
        block = blocks_on_distinct_lines(tiny_workload, 1, min_size=4)[0]
        line = block.lines()[0]
        engine.hierarchy.l2.fill(line)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        # Start the fetch: it begins waiting on the in-flight entry.
        engine.fetch_tick(0, backend)
        # Simulate the entry being stolen: reset consumers and overwrite the
        # buffer with other lines before the bus ever granted the prefetch.
        engine.prestage_buffer.reset_consumers()
        for i in range(1, 5):
            engine.prestage_buffer.allocate_for_prefetch(0x9000 + i * 64)
        drive(engine, backend, 80, start_cycle=1, prefetch=False)
        assert backend.count >= 1   # fetch made progress regardless
