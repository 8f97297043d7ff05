"""Tests for the simplified out-of-order back-end model."""

import pytest

from repro.backend.dcache import DataCacheModel
from repro.backend.pipeline import NEVER, BackendPipeline
from repro.cache.shared import dumps_with_workload, loads_with_workload
from repro.frontend.fetch_block import FetchBlock
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.simulator.presets import paper_config
from repro.simulator.runner import get_workload
from repro.simulator.simulator import Simulator, SimulatorCheckpoint
from repro.workloads.isa import line_split


def make_backend(ruu_size=16, resolution=4, on_redirect=None):
    hierarchy = MemoryHierarchy(HierarchyConfig(technology="0.09um"))
    return BackendPipeline(
        dcache=DataCacheModel(hierarchy),
        commit_width=4,
        ruu_size=ruu_size,
        branch_resolution_latency=resolution,
        on_redirect=on_redirect,
    )


def make_block(start=0x1000, length=1, **block_fields):
    return FetchBlock(start=start, length=length,
                      split=line_split(start, length, 64), **block_fields)


def dispatch(backend, cycle, length=1, first=0, count=None, **block_fields):
    """Dispatch ``count`` instructions (default: all) of a fresh block,
    starting at index ``first``, as one run.  Returns the block."""
    block = make_block(length=length, **block_fields)
    if count is None:
        count = length - first
    backend.dispatch_run(block, first, count, cycle)
    return block


def mispredicted(length, prefix):
    """Block fields of a mispredicted block: ``prefix`` correct-path
    instructions, the last of them the mispredicted branch."""
    return dict(length=length, correct_prefix=prefix, mispredicted=True)


class TestDispatchAndCommit:
    def test_commit_width_limits_per_cycle(self):
        backend = make_backend()
        dispatch(backend, 0, length=8)
        assert backend.tick(1) == 4
        assert backend.tick(2) == 4
        assert backend.stats.committed_instructions == 8

    def test_instructions_commit_only_after_completion(self):
        backend = make_backend()
        dispatch(backend, 10)
        assert backend.tick(10) == 0     # completes at cycle 11
        assert backend.tick(11) == 1

    def test_ruu_capacity_backpressure(self):
        backend = make_backend(ruu_size=2)
        dispatch(backend, 0, length=2)
        assert backend.free_slots() == 0
        backend.tick(5)
        assert backend.free_slots() == 2
        # The fetch stage never offers more than free_slots().
        assert backend.stats.ruu_full_stalls == 0

    def test_loads_use_dcache_model(self):
        """Loads are counted by position: a run that stops part-way
        through a block counts only the loads it dispatched."""
        backend = make_backend()
        block = make_block(length=8, loads=(0, 3, 5))
        backend.dispatch_run(block, 0, 1, 0)
        assert backend.dcache.stats.loads == 1
        backend.dispatch_run(block, 1, 4, 1)
        assert backend.dcache.stats.loads == 2
        backend.dispatch_run(block, 5, 3, 2)
        assert backend.dcache.stats.loads == 3
        assert backend.dcache.stats.dl1_misses == 0

    def test_wrong_path_loads_do_not_touch_dcache(self):
        backend = make_backend()
        dispatch(backend, 0, length=2, wrong_path=True, loads=(0,),
                 misses=((0, False),))
        assert backend.dcache.stats.loads == 0
        assert backend.dcache.stats.dl1_misses == 0
        assert backend.dcache.hierarchy.bus.idle

    def test_wrong_path_instructions_never_commit(self):
        backend = make_backend()
        dispatch(backend, 0, wrong_path=True)
        for cycle in range(1, 10):
            assert backend.tick(cycle) == 0
        assert backend.stats.committed_instructions == 0


class TestRedirect:
    def test_redirect_fires_after_resolution_latency(self):
        fired = []
        backend = make_backend(resolution=5,
                               on_redirect=fired.append)
        dispatch(backend, 10, **mispredicted(2, 1))
        for cycle in range(10, 20):
            backend.tick(cycle)
        assert fired == [15]
        assert backend.stats.redirects == 1

    def test_redirect_squashes_wrong_path(self):
        backend = make_backend(resolution=3)
        dispatch(backend, 0, **mispredicted(1, 1))
        dispatch(backend, 0, length=5, wrong_path=True)
        for cycle in range(0, 6):
            backend.tick(cycle)
        assert backend.stats.squashed_instructions == 5
        assert backend.occupancy == 0
        # The branch itself was correct-path and must have committed.
        assert backend.stats.committed_instructions == 1

    def test_correct_path_instructions_survive_redirect(self):
        backend = make_backend(resolution=2)
        dispatch(backend, 0, **mispredicted(3, 2))
        for cycle in range(0, 5):
            backend.tick(cycle)
        assert backend.stats.committed_instructions == 2

    def test_redirect_pending_property(self):
        backend = make_backend(resolution=99)
        dispatch(backend, 0, **mispredicted(1, 1))
        assert backend.redirect_pending


class TestStats:
    def test_dispatch_counters(self):
        backend = make_backend()
        dispatch(backend, 0)
        dispatch(backend, 0, wrong_path=True)
        assert backend.stats.dispatched_instructions == 2
        assert backend.stats.wrong_path_dispatched == 1

    def test_commit_stall_cycles(self):
        backend = make_backend()
        backend.tick(0)
        assert backend.stats.commit_stall_cycles == 1


class TestDispatchRun:
    @pytest.mark.parametrize("split, armed_in", [(4, 1), (5, 0), (6, 0)])
    def test_redirect_armed_in_the_cycle_dispatching_the_branch(
            self, split, armed_in):
        """A mispredicted block (branch at index 4) delivered over two
        cycles, split after ``split`` instructions."""
        fired = []
        backend = make_backend(resolution=6,
                               on_redirect=fired.append)
        fields = mispredicted(8, 5)
        block = dispatch(backend, 0, count=split, **fields)
        assert backend.redirect_pending == (armed_in == 0)
        backend.dispatch_run(block, split, 8 - split, 1)
        assert backend.redirect_pending
        for cycle in range(2, 12):
            backend.tick(cycle)
        assert fired == [armed_in + 6]

    def test_run_crossing_correct_prefix_counts_its_wrong_path_tail(
            self):
        backend = make_backend()
        block = make_block(**mispredicted(8, 3))
        # Indices 1..5 are dispatched; 3, 4 and 5 lie past the prefix.
        assert backend.dispatch_run(block, 1, 5, 0) == 3
        assert backend.stats.dispatched_instructions == 5
        assert backend.stats.wrong_path_dispatched == 3
        assert backend.occupancy == 5

    def test_free_slots_count_wrong_path_instructions(self):
        backend = make_backend(ruu_size=16)
        dispatch(backend, 0, **mispredicted(4, 4))
        dispatch(backend, 0, length=3, wrong_path=True)
        assert backend.free_slots() == 16 - 7
        backend.tick(1)     # commits the four correct-path instructions
        assert backend.free_slots() == 16 - 3

    def test_squash_removes_exactly_the_wrong_path_count(self):
        backend = make_backend(ruu_size=32, resolution=3)
        dispatch(backend, 0, **mispredicted(6, 2))
        dispatch(backend, 1, length=5, wrong_path=True)
        assert backend.free_slots() == 32 - 11
        for cycle in range(0, 4):
            backend.tick(cycle)
        assert backend.stats.squashed_instructions == 9
        assert backend.stats.committed_instructions == 2
        assert backend.occupancy == 0
        assert backend.free_slots() == 32

    def test_load_miss_blocks_commit_until_its_bus_grant(self):
        """The miss (behind two instructions that commit first) holds up
        the instruction behind it until the bus grant fixes its
        completion; then both commit in order."""
        backend = make_backend()
        dispatch(backend, 0, length=2)
        dispatch(backend, 0, length=2, loads=(0,), misses=((0, False),))
        assert backend.dcache.stats.dl1_misses == 1
        for cycle in range(1, 21):
            backend.tick(cycle)
        assert backend.stats.committed_instructions == 2
        # The bus grant: the exposed latency already lies in the past.
        backend.dcache.hierarchy.tick(20)
        assert backend.tick(21) == 2
        assert backend.stats.committed_instructions == 4
        assert backend.occupancy == 0


class TestRuuSegments:
    """The RUU holds run-length ``[completion, count]`` segments; every
    count it reports is in instructions."""

    def test_runs_completing_together_share_one_segment(self):
        backend = make_backend()
        dispatch(backend, 0, length=2)
        dispatch(backend, 0, length=3)
        assert list(backend._ruu) == [[1, 5]]
        dispatch(backend, 1, length=2)
        assert list(backend._ruu) == [[1, 5], [2, 2]]

    def test_commit_width_splits_a_segment(self):
        backend = make_backend()
        dispatch(backend, 0, length=10)
        assert backend.tick(1) == 4
        assert list(backend._ruu) == [[1, 6]]
        assert backend.tick(2) == 4
        assert backend.tick(3) == 2
        assert not backend._ruu

    def test_miss_segment_blocks_younger_segments_until_its_grant(self):
        backend = make_backend()
        dispatch(backend, 0, length=6, loads=(2, 4), misses=((2, True),))
        assert list(backend._ruu) == [[1, 2], [NEVER, 1], [1, 3]]
        assert backend.dcache.stats.loads == 2
        assert backend.dcache.stats.dl1_misses == 1
        assert backend.dcache.stats.l2_data_misses == 1
        assert backend.tick(1) == 2
        for cycle in range(2, 6):
            assert backend.tick(cycle) == 0
        assert backend.next_event_cycle(6) == 6     # waits for the grant
        backend.dcache.hierarchy.tick(6)
        done = backend._ruu[0][0]
        assert 6 < done < NEVER
        assert backend.next_event_cycle(7) == done
        assert backend.tick(done - 1) == 0
        assert backend.tick(done) == 4
        assert backend.occupancy == 0

    def test_free_slots_and_occupancy_count_instructions(self):
        backend = make_backend(ruu_size=16)
        dispatch(backend, 0, length=5, loads=(2,), misses=((2, False),))
        dispatch(backend, 0, length=3, wrong_path=True)
        assert len(backend._ruu) == 3
        assert backend.occupancy == 8
        assert backend.free_slots() == 16 - 8

    def test_squash_leaves_the_correct_path_segments_alone(self):
        backend = make_backend(ruu_size=32, resolution=1)
        dispatch(backend, 0, loads=(1,), misses=((1, False),),
                 **mispredicted(6, 3))
        dispatch(backend, 0, length=4, wrong_path=True)
        assert list(backend._ruu) == [[1, 1], [NEVER, 1], [1, 1]]
        assert backend.occupancy == 3 + 3 + 4
        assert backend.tick(1) == 1     # squash, then commit up to the miss
        assert backend.stats.squashed_instructions == 7
        assert list(backend._ruu) == [[NEVER, 1], [1, 1]]
        assert backend.occupancy == 2


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
