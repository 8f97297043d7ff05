"""Tests for fetch blocks and line requests."""

import pytest

from repro.frontend.fetch_block import FetchBlock
from repro.workloads.isa import line_split


def make_block(start, length, **kw):
    """A fetch block split into 64-byte lines."""
    return FetchBlock(start=start, length=length,
                      split=line_split(start, length, 64), **kw)


class TestFetchBlock:
    def test_basic_geometry(self):
        block = make_block(start=0x1000, length=10)
        assert block.end_addr == 0x1000 + 40
        assert block.instruction_addr(0) == 0x1000
        assert block.instruction_addr(9) == 0x1000 + 36

    def test_correct_prefix_defaults_to_length(self):
        block = make_block(start=0x1000, length=6)
        assert block.correct_prefix == 6
        assert not block.mispredicted

    def test_wrong_path_block_has_zero_prefix(self):
        block = make_block(start=0x1000, length=6, wrong_path=True)
        assert block.correct_prefix == 0

    def test_mispredicted_block_keeps_prefix(self):
        block = make_block(start=0x1000, length=8, mispredicted=True,
                           correct_prefix=3, redirect_target=0x2000)
        assert block.correct_prefix == 3

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            make_block(start=0x1000, length=0)

    def test_prefix_cannot_exceed_length(self):
        with pytest.raises(ValueError):
            make_block(start=0x1000, length=4, correct_prefix=5,
                       mispredicted=True)


class TestLines:
    def test_lines_within_one_cache_line(self):
        block = make_block(start=0x1000, length=8)
        assert block.lines() == [0x1000]

    def test_lines_spanning_boundaries(self):
        block = make_block(start=0x1000 + 56, length=5)
        assert block.lines() == [0x1000, 0x1040]

    def test_line_requests_cover_all_instructions(self):
        block = make_block(start=0x1000 + 32, length=20)
        requests = block.line_requests()
        assert sum(r.num_instructions for r in requests) == 20
        # first request starts at the block start
        assert requests[0].start_addr == block.start
        # indices are contiguous
        running = 0
        for request in requests:
            assert request.first_instr_index == running
            running += request.num_instructions

    def test_line_request_flags_default(self):
        block = make_block(start=0x1000, length=4)
        request = block.line_requests()[0]
        assert not request.prefetched
        assert request.occupied
        assert request.line_addr == 0x1000
        assert not request.wrong_path

    def test_wrong_path_propagates_to_requests(self):
        block = make_block(start=0x1000, length=4, wrong_path=True)
        assert block.line_requests()[0].wrong_path

    def test_split_is_memoised_on_the_workload(self, tiny_workload):
        bbdict = tiny_workload.bbdict
        split = bbdict.line_split(0x1000 + 32, 20, 64)
        assert split == line_split(0x1000 + 32, 20, 64)
        assert bbdict.line_split(0x1000 + 32, 20, 64) is split
        assert bbdict.line_split(0x1000 + 32, 20, 32) != split


class TestInstrClasses:
    def test_classes_resolved_from_bbdict(self, tiny_workload):
        first_block = tiny_workload.cfg.all_blocks()[0]
        classes = tiny_workload.bbdict.classes_for(first_block.addr,
                                                   first_block.size)
        assert len(classes) == first_block.size
        assert list(classes) == list(first_block.instr_classes)

    def test_classes_cached(self, tiny_workload):
        first_block = tiny_workload.cfg.all_blocks()[0]
        bbdict = tiny_workload.bbdict
        first = bbdict.classes_for(first_block.addr, first_block.size)
        second = bbdict.classes_for(first_block.addr, first_block.size)
        assert first is second

    def test_classes_across_basic_blocks(self, tiny_workload):
        blocks = tiny_workload.cfg.all_blocks()
        b0, b1 = blocks[0], blocks[1]
        if b0.end_addr != b1.addr:
            pytest.skip("first two blocks are not contiguous")
        classes = tiny_workload.bbdict.classes_for(b0.addr, b0.size + 2)
        assert len(classes) == b0.size + 2
        assert classes[b0.size] == b1.instr_classes[0]
