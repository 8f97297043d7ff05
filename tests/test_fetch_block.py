"""Tests for fetch blocks and line requests."""

import pytest

from repro.frontend.fetch_block import FetchBlock, FetchLineRequest


class TestFetchBlock:
    def test_basic_geometry(self):
        block = FetchBlock(start=0x1000, length=10)
        assert block.end_addr == 0x1000 + 40
        assert block.instruction_addr(0) == 0x1000
        assert block.instruction_addr(9) == 0x1000 + 36

    def test_correct_prefix_defaults_to_length(self):
        block = FetchBlock(start=0x1000, length=6)
        assert block.correct_prefix == 6
        assert not block.mispredicted

    def test_wrong_path_block_has_zero_prefix(self):
        block = FetchBlock(start=0x1000, length=6, wrong_path=True)
        assert block.correct_prefix == 0

    def test_mispredicted_block_keeps_prefix(self):
        block = FetchBlock(start=0x1000, length=8, mispredicted=True,
                           correct_prefix=3, redirect_target=0x2000)
        assert block.correct_prefix == 3

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            FetchBlock(start=0x1000, length=0)

    def test_prefix_cannot_exceed_length(self):
        with pytest.raises(ValueError):
            FetchBlock(start=0x1000, length=4, correct_prefix=5, mispredicted=True)

    def test_unique_ids(self):
        a = FetchBlock(start=0x1000, length=4)
        b = FetchBlock(start=0x1000, length=4)
        assert a.block_id != b.block_id


class TestLines:
    def test_lines_within_one_cache_line(self):
        block = FetchBlock(start=0x1000, length=8)
        assert block.lines(64) == [0x1000]

    def test_lines_spanning_boundaries(self):
        block = FetchBlock(start=0x1000 + 56, length=5)
        assert block.lines(64) == [0x1000, 0x1040]

    def test_line_requests_cover_all_instructions(self):
        block = FetchBlock(start=0x1000 + 32, length=20)
        requests = block.line_requests(64)
        assert sum(r.num_instructions for r in requests) == 20
        # first request starts at the block start
        assert requests[0].start_addr == block.start
        # indices are contiguous
        running = 0
        for request in requests:
            assert request.first_instr_index == running
            running += request.num_instructions

    def test_line_request_flags_default(self):
        block = FetchBlock(start=0x1000, length=4)
        request = block.line_requests(64)[0]
        assert not request.prefetched
        assert request.occupied
        assert request.line_addr == 0x1000
        assert not request.wrong_path

    def test_wrong_path_propagates_to_requests(self):
        block = FetchBlock(start=0x1000, length=4, wrong_path=True)
        assert block.line_requests(64)[0].wrong_path


class TestInstrClasses:
    def test_classes_resolved_from_bbdict(self, tiny_workload):
        first_block = tiny_workload.cfg.all_blocks()[0]
        block = FetchBlock(start=first_block.addr, length=first_block.size)
        classes = block.instr_classes(tiny_workload.bbdict)
        assert len(classes) == first_block.size
        assert list(classes) == list(first_block.instr_classes)

    def test_classes_cached(self, tiny_workload):
        first_block = tiny_workload.cfg.all_blocks()[0]
        block = FetchBlock(start=first_block.addr, length=first_block.size)
        first = block.instr_classes(tiny_workload.bbdict)
        second = block.instr_classes(tiny_workload.bbdict)
        assert first is second

    def test_classes_across_basic_blocks(self, tiny_workload):
        blocks = tiny_workload.cfg.all_blocks()
        b0, b1 = blocks[0], blocks[1]
        if b0.end_addr != b1.addr:
            pytest.skip("first two blocks are not contiguous")
        fetch_block = FetchBlock(start=b0.addr, length=b0.size + 2)
        classes = fetch_block.instr_classes(tiny_workload.bbdict)
        assert len(classes) == b0.size + 2
        assert classes[b0.size] == b1.instr_classes[0]
