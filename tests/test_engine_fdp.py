"""Tests for the Fetch Directed Prefetching engine."""

import pytest

from repro.core.engine import FetchEngineConfig
from repro.core.fdp import FDPEngine
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

from engine_harness import (
    RecordingBackend,
    block_for,
    blocks_on_distinct_lines,
    delivered_sources,
    drive,
)


def make_engine(workload, l0=False, entries=4, pipelined_pb=False,
                filtering="enqueue-cache-probe", **cfg_overrides):
    hierarchy = MemoryHierarchy(HierarchyConfig(
        technology="0.045um", l1_size_bytes=4096,
        l0_size_bytes=256 if l0 else None,
    ))
    config = FetchEngineConfig(
        prebuffer_entries=entries,
        prebuffer_latency=3 if pipelined_pb else 1,
        prebuffer_pipelined=pipelined_pb,
        prefetch_filter=filtering,
        **cfg_overrides,
    )
    return FDPEngine(config, hierarchy)


def big_block(workload, min_size=4):
    index = next(i for i, b in enumerate(workload.cfg.all_blocks())
                 if b.size >= min_size)
    return block_for(workload, index)


class TestPrefetchCandidateGeneration:
    def test_uncached_lines_enter_piq(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = block_for(tiny_workload)
        engine.enqueue_block(block, 0)
        assert list(engine.piq) == block.lines()

    def test_filtering_drops_cached_lines(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = block_for(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        assert len(engine.piq) == 0
        assert engine.stats.prefetch_source["il1"] >= 1

    def test_null_filtering_keeps_cached_lines(self, tiny_workload):
        engine = make_engine(tiny_workload, filtering="none")
        block = block_for(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        assert len(engine.piq) > 0

    def test_duplicate_lines_not_enqueued_twice(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = block_for(tiny_workload)
        engine.enqueue_block(block, 0)
        engine.enqueue_block(block_for(tiny_workload), 0)
        assert len(engine.piq) == len(set(engine.piq))

    def test_piq_capacity_enforced(self, tiny_workload):
        engine = make_engine(tiny_workload, piq_entries=1)
        for block in blocks_on_distinct_lines(tiny_workload, 3):
            engine.enqueue_block(block, 0)
        assert len(engine.piq) == 1
        assert engine.piq_drops >= 1


class TestPrefetchIssueAndUse:
    def test_prefetch_lands_in_buffer(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        block = big_block(tiny_workload)
        line = block.lines()[0]
        engine.hierarchy.l2.fill(line)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        assert engine.prefetch_buffer.contains(line)
        drive(engine, backend, 40)
        assert "PB" in delivered_sources(engine)

    def test_one_prefetch_issued_per_cycle(self, tiny_workload):
        engine = make_engine(tiny_workload, entries=8)
        for block in blocks_on_distinct_lines(tiny_workload, 4):
            engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        assert engine.stats.prefetches_issued == 1
        engine.prefetch_tick(1)
        assert engine.stats.prefetches_issued == 2

    def test_prefetch_stalls_when_buffer_full_of_inflight(self, tiny_workload):
        engine = make_engine(tiny_workload, entries=1)
        for block in blocks_on_distinct_lines(tiny_workload, 3):
            engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        engine.prefetch_tick(1)
        assert engine.stats.prefetch_buffer_stalls >= 1

    def _fetch_after_prefetch_lands(self, engine, block, cycles_for_prefetch=30):
        """Issue the prefetch for the block's first line, wait for it to
        arrive, then fetch the block."""
        line = block.lines()[0]
        engine.hierarchy.l2.fill(line)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        for cycle in range(cycles_for_prefetch):
            engine.hierarchy.tick(cycle)
        drive(engine, RecordingBackend(), 40, start_cycle=cycles_for_prefetch,
              prefetch=False)

    def test_used_line_moves_to_l1_and_leaves_buffer(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = big_block(tiny_workload)
        line = block.lines()[0]
        self._fetch_after_prefetch_lands(engine, block)
        assert "PB" in delivered_sources(engine)
        assert engine.hierarchy.l1.contains(line)
        assert not engine.prefetch_buffer.contains(line)

    def test_used_line_moves_to_l0_when_present(self, tiny_workload):
        engine = make_engine(tiny_workload, l0=True)
        block = big_block(tiny_workload)
        line = block.lines()[0]
        self._fetch_after_prefetch_lands(engine, block)
        assert "PB" in delivered_sources(engine)
        assert engine.hierarchy.l0.contains(line)
        assert not engine.hierarchy.l1.contains(line)

    def test_prefetch_served_by_l1_when_probe_enabled(self, tiny_workload):
        engine = make_engine(tiny_workload, filtering="none")
        block = big_block(tiny_workload)
        line = block.lines()[0]
        engine.hierarchy.l1.fill(line)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        entry = engine.prefetch_buffer.get(line)
        assert entry is not None
        assert entry.valid and entry.source == "il1"


class TestFlush:
    def test_flush_clears_ftq_and_piq_keeps_buffer(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = big_block(tiny_workload)
        engine.hierarchy.l2.fill(block.lines()[0])
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        engine.hierarchy.tick(0)
        assert engine.prefetch_buffer.occupancy == 1
        engine.flush(1)
        assert len(engine.piq) == 0
        assert len(engine.ftq) == 0
        assert engine.prefetch_buffer.occupancy == 1

    def test_name(self, tiny_workload):
        assert make_engine(tiny_workload).name == "FDP"
        assert make_engine(tiny_workload, l0=True).name == "FDP+L0"
