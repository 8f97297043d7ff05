"""Tests for the simplified out-of-order back-end model."""

import dataclasses

import pytest

from repro.backend.dcache import DataCacheModel
from repro.backend.pipeline import BackendPipeline
from repro.cache.shared import dumps_with_workload, loads_with_workload
from repro.frontend.fetch_block import FetchBlock
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.simulator.presets import paper_config
from repro.simulator.runner import get_workload
from repro.simulator.simulator import Simulator, SimulatorCheckpoint
from repro.workloads.isa import InstrClass
from repro.workloads.trace import build_workload

ALU = InstrClass.ALU
LOAD = InstrClass.LOAD


def make_backend(workload, ruu_size=16, resolution=4, on_redirect=None):
    hierarchy = MemoryHierarchy(HierarchyConfig(technology="0.09um"))
    dcache = DataCacheModel(hierarchy)
    return BackendPipeline(
        dcache=dcache,
        bbdict=workload.bbdict,
        commit_width=4,
        ruu_size=ruu_size,
        branch_resolution_latency=resolution,
        on_redirect=on_redirect,
    )


def dispatch(backend, cycle, length=1, first=0, count=None, classes=None,
             start=0x1000, **block_fields):
    """Dispatch ``count`` instructions (default: all) of a fresh block,
    starting at index ``first``, as one run.  Returns the block."""
    block = FetchBlock(start=start, length=length, **block_fields)
    if count is None:
        count = length - first
    backend.dispatch_run(block, first, count, classes or (ALU,) * length,
                         cycle)
    return block


def mispredicted(length, prefix):
    """Block fields of a mispredicted block: ``prefix`` correct-path
    instructions, the last of them the mispredicted branch."""
    return dict(length=length, correct_prefix=prefix, mispredicted=True)


class TestDispatchAndCommit:
    def test_commit_width_limits_per_cycle(self, tiny_workload):
        backend = make_backend(tiny_workload)
        dispatch(backend, 0, length=8)
        assert backend.tick(1) == 4
        assert backend.tick(2) == 4
        assert backend.stats.committed_instructions == 8

    def test_instructions_commit_only_after_completion(self, tiny_workload):
        backend = make_backend(tiny_workload)
        dispatch(backend, 10)
        assert backend.tick(10) == 0     # completes at cycle 11
        assert backend.tick(11) == 1

    def test_ruu_capacity_backpressure(self, tiny_workload):
        backend = make_backend(tiny_workload, ruu_size=2)
        dispatch(backend, 0, length=2)
        assert backend.free_slots() == 0
        backend.tick(5)
        assert backend.free_slots() == 2
        # The fetch stage never offers more than free_slots().
        assert backend.stats.ruu_full_stalls == 0

    def test_loads_use_dcache_model(self, tiny_workload):
        backend = make_backend(tiny_workload)
        block = tiny_workload.cfg.all_blocks()[0]
        assert block.instr_classes[0] is LOAD
        dispatch(backend, 0, length=block.size, count=1, start=block.addr,
                 classes=tuple(block.instr_classes))
        assert backend.dcache.stats.loads == 1

    def test_wrong_path_loads_do_not_touch_dcache(self, tiny_workload):
        backend = make_backend(tiny_workload)
        dispatch(backend, 0, classes=(LOAD,), wrong_path=True)
        assert backend.dcache.stats.loads == 0

    def test_wrong_path_instructions_never_commit(self, tiny_workload):
        backend = make_backend(tiny_workload)
        dispatch(backend, 0, wrong_path=True)
        for cycle in range(1, 10):
            assert backend.tick(cycle) == 0
        assert backend.stats.committed_instructions == 0


class TestRedirect:
    def test_redirect_fires_after_resolution_latency(self, tiny_workload):
        fired = []
        backend = make_backend(tiny_workload, resolution=5,
                               on_redirect=fired.append)
        dispatch(backend, 10, **mispredicted(2, 1))
        for cycle in range(10, 20):
            backend.tick(cycle)
        assert fired == [15]
        assert backend.stats.redirects == 1

    def test_redirect_squashes_wrong_path(self, tiny_workload):
        backend = make_backend(tiny_workload, resolution=3)
        dispatch(backend, 0, **mispredicted(1, 1))
        dispatch(backend, 0, length=5, start=0x2000, wrong_path=True)
        for cycle in range(0, 6):
            backend.tick(cycle)
        assert backend.stats.squashed_instructions == 5
        assert backend.occupancy == 0
        # The branch itself was correct-path and must have committed.
        assert backend.stats.committed_instructions == 1

    def test_correct_path_instructions_survive_redirect(self, tiny_workload):
        backend = make_backend(tiny_workload, resolution=2)
        dispatch(backend, 0, **mispredicted(3, 2))
        for cycle in range(0, 5):
            backend.tick(cycle)
        assert backend.stats.committed_instructions == 2

    def test_redirect_pending_property(self, tiny_workload):
        backend = make_backend(tiny_workload, resolution=99)
        dispatch(backend, 0, **mispredicted(1, 1))
        assert backend.redirect_pending


class TestStats:
    def test_dispatch_counters(self, tiny_workload):
        backend = make_backend(tiny_workload)
        dispatch(backend, 0)
        dispatch(backend, 0, wrong_path=True)
        assert backend.stats.dispatched_instructions == 2
        assert backend.stats.wrong_path_dispatched == 1

    def test_commit_stall_cycles(self, tiny_workload):
        backend = make_backend(tiny_workload)
        backend.tick(0)
        assert backend.stats.commit_stall_cycles == 1


class TestDispatchRun:
    @pytest.mark.parametrize("split, armed_in", [(4, 1), (5, 0), (6, 0)])
    def test_redirect_armed_in_the_cycle_dispatching_the_branch(
            self, tiny_workload, split, armed_in):
        """A mispredicted block (branch at index 4) delivered over two
        cycles, split after ``split`` instructions."""
        fired = []
        backend = make_backend(tiny_workload, resolution=6,
                               on_redirect=fired.append)
        fields = mispredicted(8, 5)
        block = dispatch(backend, 0, count=split, **fields)
        assert backend.redirect_pending == (armed_in == 0)
        backend.dispatch_run(block, split, 8 - split, (ALU,) * 8, 1)
        assert backend.redirect_pending
        for cycle in range(2, 12):
            backend.tick(cycle)
        assert fired == [armed_in + 6]

    def test_run_crossing_correct_prefix_counts_its_wrong_path_tail(
            self, tiny_workload):
        backend = make_backend(tiny_workload)
        block = FetchBlock(start=0x1000, **mispredicted(8, 3))
        # Indices 1..5 are dispatched; 3, 4 and 5 lie past the prefix.
        assert backend.dispatch_run(block, 1, 5, (ALU,) * 8, 0) == 3
        assert backend.stats.dispatched_instructions == 5
        assert backend.stats.wrong_path_dispatched == 3
        assert backend.occupancy == 5

    def test_free_slots_count_wrong_path_instructions(self, tiny_workload):
        backend = make_backend(tiny_workload, ruu_size=16)
        dispatch(backend, 0, **mispredicted(4, 4))
        dispatch(backend, 0, length=3, start=0x2000, wrong_path=True)
        assert backend.free_slots() == 16 - 7
        backend.tick(1)     # commits the four correct-path instructions
        assert backend.free_slots() == 16 - 3

    def test_squash_removes_exactly_the_wrong_path_count(self, tiny_workload):
        backend = make_backend(tiny_workload, ruu_size=32, resolution=3)
        dispatch(backend, 0, **mispredicted(6, 2))
        dispatch(backend, 1, length=5, start=0x2000, wrong_path=True)
        assert backend.free_slots() == 32 - 11
        for cycle in range(0, 4):
            backend.tick(cycle)
        assert backend.stats.squashed_instructions == 9
        assert backend.stats.committed_instructions == 2
        assert backend.occupancy == 0
        assert backend.free_slots() == 32

    def test_load_miss_blocks_commit_until_its_bus_grant(self, tiny_workload):
        """The miss (behind two instructions that commit first) holds up
        the instruction behind it until the bus grant fixes its
        completion; then both commit in order."""
        workload = build_workload(dataclasses.replace(
            tiny_workload.profile, dl1_miss_rate=1.0))
        backend = make_backend(workload)
        static = workload.cfg.all_blocks()[0]
        assert static.instr_classes[0] is LOAD
        dispatch(backend, 0, length=2)
        dispatch(backend, 0, length=2, start=static.addr,
                 classes=(LOAD, ALU))
        assert backend.dcache.stats.dl1_misses == 1
        for cycle in range(1, 21):
            backend.tick(cycle)
        assert backend.stats.committed_instructions == 2
        # The bus grant: the exposed latency already lies in the past.
        backend.dcache.hierarchy.tick(20)
        assert backend.tick(21) == 2
        assert backend.stats.committed_instructions == 4
        assert backend.occupancy == 0


class TestCheckpoint:
    def test_snapshot_restore_with_wrong_path_in_ruu(self):
        """A run ending with correct- and wrong-path instructions in the
        RUU and a redirect pending, pickled as a frontier is, continues
        bit-identically."""
        workload = get_workload("gcc")
        config = paper_config("CLGP+L0", max_instructions=3000,
                              warmup_instructions=3000)
        sim = Simulator(config, workload)
        sim.run()
        backend = sim.backend
        assert backend._ruu and backend._wrong and backend.redirect_pending
        state = loads_with_workload(
            dumps_with_workload(sim.snapshot()._state, workload), workload)
        resumed = Simulator(config, workload)
        resumed.restore(SimulatorCheckpoint(state))
        assert resumed.run(6000) == sim.run(6000)
