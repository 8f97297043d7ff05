"""Tests for the related-work prefetchers (next-N-line, target-line)."""

import pytest

from repro.core.classic_prefetchers import NextNLineEngine, TargetLineEngine
from repro.core.engine import FetchEngineConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

from engine_harness import RecordingBackend, block_for, drive


def make_hierarchy():
    return MemoryHierarchy(HierarchyConfig(technology="0.045um",
                                           l1_size_bytes=4096))


def big_block(workload, min_size=4):
    index = next(i for i, b in enumerate(workload.cfg.all_blocks())
                 if b.size >= min_size)
    return block_for(workload, index)


class TestNextNLine:
    def test_invalid_degree(self, tiny_workload):
        with pytest.raises(ValueError):
            NextNLineEngine(FetchEngineConfig(), make_hierarchy(), degree=0)

    def test_no_candidates_at_enqueue_time(self, tiny_workload):
        engine = NextNLineEngine(FetchEngineConfig(), make_hierarchy(),
                                 degree=2)
        engine.enqueue_block(big_block(tiny_workload), 0)
        assert len(engine.piq) == 0

    def test_consuming_a_line_prefetches_successors(self, tiny_workload):
        engine = NextNLineEngine(FetchEngineConfig(), make_hierarchy(),
                                 degree=2)
        backend = RecordingBackend()
        block = big_block(tiny_workload)
        line = block.lines()[0]
        engine.hierarchy.l1.fill(line)
        engine.enqueue_block(block, 0)
        drive(engine, backend, 30, prefetch=False)
        # The two sequential successor lines became prefetch candidates.
        expected = {line + 64, line + 128}
        assert expected <= (set(engine.piq)
                            | set(engine.prefetch_buffer._entries))

    def test_name_includes_degree(self, tiny_workload):
        engine = NextNLineEngine(FetchEngineConfig(), make_hierarchy(),
                                 degree=3)
        assert engine.name == "next-3-line"


class TestTargetLine:
    def test_learns_non_sequential_transition(self, tiny_workload):
        engine = TargetLineEngine(FetchEngineConfig(), make_hierarchy(),
                                  degree=1)
        backend = RecordingBackend()
        blocks = tiny_workload.cfg.all_blocks()
        # Fetch two blocks whose lines are far apart so the transition is
        # recorded in the target table.
        far_pairs = None
        for i, a in enumerate(blocks):
            for j, b in enumerate(blocks):
                if abs(a.addr - b.addr) > 256:
                    far_pairs = (i, j)
                    break
            if far_pairs:
                break
        assert far_pairs is not None
        a, b = far_pairs
        for index in (a, b):
            blk = block_for(tiny_workload, index)
            engine.hierarchy.l1.fill(blk.lines()[0])
            engine.enqueue_block(blk, 0)
        drive(engine, backend, 60, prefetch=False)
        line_a = blocks[a].addr - blocks[a].addr % 64
        line_b = blocks[b].addr - blocks[b].addr % 64
        assert engine._target_table.get(line_a) == line_b

    def test_target_table_capacity_bounded(self, tiny_workload):
        engine = TargetLineEngine(FetchEngineConfig(), make_hierarchy(),
                                  degree=1,
                                  table_entries=2)
        for i in range(6):
            engine._last_line = i * 0x1000
            engine._remember_transition((i + 100) * 0x1000)
        assert len(engine._target_table) <= 2

    def test_name(self, tiny_workload):
        engine = TargetLineEngine(FetchEngineConfig(), make_hierarchy(),
                                  degree=1)
        assert engine.name.startswith("target-line")
