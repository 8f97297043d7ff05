"""Tests for the Cache Line Guided Prestaging engine."""

import pytest

from repro.core.clgp import CLGPEngine
from repro.core.engine import FetchEngineConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

from engine_harness import (
    RecordingBackend,
    block_for,
    blocks_on_distinct_lines,
    delivered_sources,
    drive,
)


def make_engine(workload, l0=False, entries=4, **cfg_overrides):
    hierarchy = MemoryHierarchy(HierarchyConfig(
        technology="0.045um", l1_size_bytes=4096,
        l0_size_bytes=256 if l0 else None,
    ))
    config = FetchEngineConfig(prebuffer_entries=entries, **cfg_overrides)
    return CLGPEngine(config, hierarchy)


def big_block(workload, min_size=4):
    index = next(i for i, b in enumerate(workload.cfg.all_blocks())
                 if b.size >= min_size)
    return block_for(workload, index)


class TestPrestagingAlgorithm:
    def test_blocks_split_into_cltq_lines(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = big_block(tiny_workload)
        engine.enqueue_block(block, 0)
        assert engine.cltq.occupancy_lines == len(block.lines())

    def test_new_line_allocates_prestage_entry(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = big_block(tiny_workload)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        entry = engine.prestage_buffer.get(block.lines()[0])
        assert entry is not None and entry.consumers == 1
        assert engine.stats.prefetches_issued == 1

    def test_repeated_line_increments_consumers_without_new_prefetch(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = big_block(tiny_workload)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        issued_before = engine.stats.prefetches_issued
        engine.enqueue_block(big_block(tiny_workload), 0)  # same lines again
        engine.prefetch_tick(1)
        engine.prefetch_tick(2)
        entry = engine.prestage_buffer.get(block.lines()[0])
        assert entry.consumers >= 2
        assert engine.stats.prefetch_source["PB"] >= 1
        assert engine.stats.prefetches_issued >= issued_before

    def test_no_filtering_prefetches_l1_resident_lines(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = big_block(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        entry = engine.prestage_buffer.get(block.lines()[0])
        assert entry is not None
        assert entry.valid and entry.source == "il1"

    def test_filtering_ablation_skips_l1_resident_lines(self, tiny_workload):
        engine = make_engine(tiny_workload, clgp_use_filtering=True)
        block = big_block(tiny_workload)
        engine.hierarchy.l1.fill(block.start)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        assert engine.prestage_buffer.get(block.lines()[0]) is None

    def test_allocation_stalls_when_all_entries_have_consumers(self, tiny_workload):
        engine = make_engine(tiny_workload, entries=1)
        for block in blocks_on_distinct_lines(tiny_workload, 3):
            engine.enqueue_block(block, 0)
        for cycle in range(4):
            engine.prefetch_tick(cycle)
        assert engine.stats.prefetch_buffer_stalls >= 1
        assert engine.prestage_buffer.occupancy == 1


class TestFetchBehaviour:
    def test_fetch_from_prestage_decrements_consumers(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        block = big_block(tiny_workload)
        engine.hierarchy.l2.fill(block.start)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        entry = engine.prestage_buffer.get(block.lines()[0])
        before = entry.consumers
        drive(engine, backend, 60, prefetch=False)
        assert "PB" in delivered_sources(engine)
        assert entry.consumers == before - 1

    def test_consumed_line_not_copied_to_cache(self, tiny_workload):
        engine = make_engine(tiny_workload, l0=True)
        backend = RecordingBackend()
        block = big_block(tiny_workload)
        line = block.lines()[0]
        engine.hierarchy.l2.fill(line)
        engine.enqueue_block(block, 0)
        # Let the prefetch land before any fetch happens, so the line is
        # served by the prestage buffer (not by a demand miss).
        engine.prefetch_tick(0)
        for cycle in range(30):
            engine.hierarchy.tick(cycle)
        drive(engine, backend, 40, start_cycle=30, prefetch=False)
        # Only the first line was prefetched; every other line is a
        # demand miss, so the one line served by the buffer is that one.
        assert engine.stats.fetch_source_lines["PB"] == 1
        assert not engine.hierarchy.l0.contains(line)
        assert not engine.hierarchy.l1.contains(line)
        # ... and the line stays in the prestage buffer.
        assert engine.prestage_buffer.contains(line)

    def test_copy_to_cache_ablation(self, tiny_workload):
        engine = make_engine(tiny_workload, l0=True, clgp_copy_to_cache=True)
        backend = RecordingBackend()
        block = big_block(tiny_workload)
        engine.hierarchy.l2.fill(block.start)
        engine.enqueue_block(block, 0)
        drive(engine, backend, 60)
        if "PB" in delivered_sources(engine):
            assert engine.hierarchy.l0.contains(block.lines()[0])

    def test_free_on_use_ablation_releases_entry(self, tiny_workload):
        engine = make_engine(tiny_workload, clgp_free_on_use=True)
        backend = RecordingBackend()
        block = big_block(tiny_workload)
        engine.hierarchy.l2.fill(block.start)
        engine.enqueue_block(block, 0)
        engine.enqueue_block(big_block(tiny_workload), 0)  # extra consumer
        drive(engine, backend, 80)
        if "PB" in delivered_sources(engine):
            entry = engine.prestage_buffer.get(block.lines()[0])
            assert entry is None or entry.consumers == 0

    def test_demand_miss_fills_emergency_caches(self, tiny_workload):
        engine = make_engine(tiny_workload, l0=True)
        backend = RecordingBackend()
        block = big_block(tiny_workload)
        engine.hierarchy.l2.fill(block.start)
        engine.enqueue_block(block, 0)
        # No prefetching at all: every line is a demand miss.
        drive(engine, backend, 80, prefetch=False)
        assert delivered_sources(engine) == {"ul2"}
        assert engine.hierarchy.l1.contains(block.start)
        assert engine.hierarchy.l0.contains(block.start)


class TestMispredictionFlush:
    def test_flush_resets_consumers_and_clears_cltq(self, tiny_workload):
        engine = make_engine(tiny_workload)
        block = big_block(tiny_workload)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        assert engine.prestage_buffer.total_consumers() > 0
        engine.flush(1)
        assert engine.prestage_buffer.total_consumers() == 0
        assert engine.cltq.occupancy_lines == 0

    def test_valid_lines_survive_flush_and_remain_usable(self, tiny_workload):
        engine = make_engine(tiny_workload)
        backend = RecordingBackend()
        block = big_block(tiny_workload)
        engine.hierarchy.l2.fill(block.start)
        engine.enqueue_block(block, 0)
        engine.prefetch_tick(0)
        drive(engine, backend, 30, prefetch=False)  # let the prefetch land
        engine.flush(30)
        # Re-enqueue the same block along the "new" path: the line is still
        # in the prestage buffer and is fetched from there.
        from_buffer = engine.stats.fetch_source_instructions["PB"]
        engine.enqueue_block(big_block(tiny_workload), 31)
        drive(engine, RecordingBackend(), 30, start_cycle=31)
        assert engine.stats.fetch_source_instructions["PB"] > from_buffer

    def test_name(self, tiny_workload):
        assert make_engine(tiny_workload).name == "CLGP"
        assert make_engine(tiny_workload, l0=True).name == "CLGP+L0"
