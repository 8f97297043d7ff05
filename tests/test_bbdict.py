"""Tests for the basic-block dictionary (wrong-path static lookup)."""

from repro.workloads.bbdict import BasicBlockDictionary
from repro.workloads.isa import INSTRUCTION_BYTES, BranchKind, InstrClass


class TestViewAt:
    def test_view_at_block_start(self, tiny_workload):
        cfg = tiny_workload.cfg
        block = cfg.all_blocks()[0]
        view = tiny_workload.bbdict.view_at(block.addr)
        assert view.start == block.addr
        assert view.size == block.size
        assert view.kind == block.kind
        assert not view.synthetic

    def test_view_mid_block(self, tiny_workload):
        cfg = tiny_workload.cfg
        block = next(b for b in cfg.all_blocks() if b.size >= 3)
        mid = block.addr + INSTRUCTION_BYTES
        view = tiny_workload.bbdict.view_at(mid)
        assert view.start == mid
        assert view.size == block.size - 1
        assert view.instr_classes == tuple(block.instr_classes[1:])
        assert view.kind == block.kind

    def test_view_outside_program_is_synthetic(self, tiny_workload):
        view = tiny_workload.bbdict.view_at(0x10)
        assert view.synthetic
        assert view.kind is BranchKind.NONE
        assert view.size > 0
        assert all(c is InstrClass.ALU for c in view.instr_classes)

    def test_view_unaligned_address_is_aligned_down(self, tiny_workload):
        block = tiny_workload.cfg.all_blocks()[0]
        view = tiny_workload.bbdict.view_at(block.addr + 2)
        assert view.start == block.addr

    def test_fall_through_and_terminator(self, tiny_workload):
        block = tiny_workload.cfg.all_blocks()[0]
        view = tiny_workload.bbdict.view_at(block.addr)
        assert view.fall_through == block.end_addr
        assert view.terminator_addr == block.terminator_addr
        assert view.ends_in_branch == block.ends_in_branch

    def test_block_at_passthrough(self, tiny_workload):
        block = tiny_workload.cfg.all_blocks()[0]
        assert tiny_workload.bbdict.block_at(block.addr) is block
        assert tiny_workload.bbdict.block_at(block.addr + 4) is None

    def test_cfg_property(self, tiny_workload):
        assert tiny_workload.bbdict.cfg is tiny_workload.cfg

    def test_every_block_viewable(self, tiny_workload):
        bbdict = tiny_workload.bbdict
        for block in tiny_workload.cfg.all_blocks():
            view = bbdict.view_at(block.addr)
            assert view.size == block.size
            assert len(view.instr_classes) == view.size


class TestLoads:
    def test_loads_are_the_load_class_offsets(self, tiny_workload):
        bbdict = tiny_workload.bbdict
        block = max(tiny_workload.cfg.all_blocks(),
                    key=lambda b: b.instr_classes.count(InstrClass.LOAD))
        offsets, probs = bbdict.loads(block.addr, block.size)
        assert len(offsets) >= 2
        assert offsets == tuple(i for i, c in enumerate(block.instr_classes)
                                if c is InstrClass.LOAD)
        assert probs == (block.load_miss_probability,) * len(offsets)
        assert bbdict.loads(block.addr, block.size)[0] is offsets
        # A shorter span holds the loads of its prefix only.
        assert bbdict.loads(block.addr, offsets[1])[0] == offsets[:1]
