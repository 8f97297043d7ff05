"""Determinism guard for simulator checkpoints (snapshot / restore / skip).

Analogous to ``tests/test_event_loop.py``: the core contract is that a
``snapshot()``/``restore()`` round trip is *bit-identical* -- every field
of ``SimulationResult`` of a run that checkpointed and restored mid-way
must equal the uninterrupted run's, for every engine, and a checkpoint
must be restorable any number of times (and into other simulators of the
same configuration) with identical continuations.
"""

import dataclasses
import functools
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.store import temporary_cache_dir
from repro.sampling.checkpoint import DEFAULT_STORE, FRONTIER, POSITIONED
from repro.sampling.sampled import SamplingSpec, _execute_sampled
from repro.simulator.config import SimulationConfig
from repro.simulator.runner import _execute_single, clear_process_caches
from repro.simulator.simulator import Simulator
from repro.simulator.testing import make_sim_config
from repro.workloads.generator import WorkloadProfile
from repro.workloads.spec2000 import profile_for
from repro.workloads.trace import Workload, build_workload

ENGINES = ["baseline", "fdp", "clgp", "next-line", "target-line"]


@functools.lru_cache(maxsize=None)
def _pooled_workload(seed: int) -> Workload:
    """Small randomized workloads for the property-based round trips
    (cached: hypothesis revisits seeds, and builds are the slow part)."""
    rng = random.Random(977 * (seed + 1))
    profile = WorkloadProfile(
        name=f"ckpt-prop-{seed}",
        footprint_kb=rng.choice([8.0, 16.0, 32.0]),
        num_functions=rng.randint(6, 24),
        avg_block_size=rng.uniform(4.0, 6.5),
        hard_branch_fraction=rng.uniform(0.06, 0.16),
        loop_fraction=rng.uniform(0.08, 0.20),
        avg_loop_iterations=rng.uniform(3.0, 7.0),
        call_fraction=rng.uniform(0.05, 0.10),
        dl1_miss_rate=rng.uniform(0.01, 0.06),
        seed=seed,
    )
    return build_workload(profile)


def _assert_identical(a, b):
    if a == b:
        return
    diffs = [
        f"{f.name}: a={getattr(a, f.name)!r} b={getattr(b, f.name)!r}"
        for f in dataclasses.fields(a)
        if getattr(a, f.name) != getattr(b, f.name)
    ]
    raise AssertionError("checkpoint round-trip diverged:\n  "
                         + "\n  ".join(diffs))


class TestSnapshotRestoreRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_mid_run_round_trip_is_bit_identical(self, medium_workload, engine):
        config = make_sim_config(engine=engine, max_instructions=2500)
        reference = Simulator(config, medium_workload).run()

        sim = Simulator(config, medium_workload)
        sim.run(1000)
        checkpoint = sim.snapshot()
        sim.restore(checkpoint)
        _assert_identical(sim.run(2500), reference)

    def test_checkpoint_restorable_many_times(self, medium_workload):
        config = make_sim_config(engine="clgp", max_instructions=2000)
        sim = Simulator(config, medium_workload)
        sim.warm_up()
        checkpoint = sim.snapshot()
        first = sim.run(2000)
        for _ in range(2):
            sim.restore(checkpoint)
            _assert_identical(sim.run(2000), first)

    def test_restore_into_fresh_simulator(self, medium_workload):
        config = make_sim_config(engine="fdp", max_instructions=2000)
        sim = Simulator(config, medium_workload)
        sim.warm_up()
        checkpoint = sim.snapshot()
        result = sim.run(2000)

        other = Simulator(config, medium_workload)
        other.restore(checkpoint)
        _assert_identical(other.run(2000), result)

    def test_checkpoint_properties(self, medium_workload):
        config = make_sim_config(max_instructions=1500)
        sim = Simulator(config, medium_workload)
        sim.run(500)
        checkpoint = sim.snapshot()
        assert checkpoint.cycle == sim.cycle
        assert (checkpoint.consumed_instructions
                == sim.prediction.consumed_instructions)

    def test_restore_resets_cycle_and_stats(self, medium_workload):
        config = make_sim_config(max_instructions=2000)
        sim = Simulator(config, medium_workload)
        sim.warm_up()
        checkpoint = sim.snapshot()
        sim.run(1200)
        assert sim.cycle > 0
        sim.restore(checkpoint)
        assert sim.cycle == 0
        assert sim.backend.stats.committed_instructions == 0


class TestSkipTo:
    def test_skip_is_deterministic(self, medium_workload):
        config = make_sim_config(engine="clgp", max_instructions=1500)
        results = []
        for _ in range(2):
            sim = Simulator(config, medium_workload)
            sim.warm_up()
            sim.skip_to(4000)
            results.append(sim.run(1500))
        _assert_identical(results[0], results[1])

    def test_skip_positions_the_oracle_exactly(self, medium_workload):
        config = make_sim_config(max_instructions=1000)
        sim = Simulator(config, medium_workload)
        sim.warm_up()
        skipped = sim.skip_to(3210)
        assert skipped == 3210
        assert sim.prediction.oracle.consumed_instructions == 3210
        # Absolute target: a second call to the same offset is a no-op.
        assert sim.skip_to(3210) == 0

    def test_skip_advances_dcache_load_index(self, medium_workload):
        config = make_sim_config(max_instructions=1000)
        sim = Simulator(config, medium_workload)
        sim.warm_up()
        sim.skip_to(5000)
        assert sim.prediction.skipped_loads > 0

    def test_skip_does_not_touch_timing(self, medium_workload):
        config = make_sim_config(max_instructions=1000)
        sim = Simulator(config, medium_workload)
        sim.warm_up()
        sim.skip_to(2000)
        assert sim.cycle == 0
        assert sim.backend.stats.committed_instructions == 0

    def test_skip_warms_up_first(self, medium_workload):
        """A skip on an unwarmed machine equals warm-up plus the same
        skip.  Each machine gets its own workload, so the two timed runs
        cannot share a prediction trace."""
        config = make_sim_config(engine="fdp", max_instructions=1000)
        machines = []
        for warm_first in (False, True):
            sim = Simulator(config, build_workload(medium_workload.profile))
            if warm_first:
                sim.warm_up()
            sim.skip_to(3210)
            machines.append(sim)
        bare, warmed = machines
        assert bare.prediction.history == warmed.prediction.history
        assert (bare.prediction.ras.snapshot()
                == warmed.prediction.ras.snapshot())
        for level in ("l1", "l2"):
            assert (sorted(getattr(bare.hierarchy, level).resident_lines())
                    == sorted(getattr(warmed.hierarchy, level)
                              .resident_lines()))
        _assert_identical(bare.run(1000), warmed.run(1000))

    def test_skip_after_a_timed_run_raises(self, medium_workload):
        """After a timed tick the front-end's functional state belongs to
        its prediction trace, so there is nothing left to skip with."""
        sim = Simulator(make_sim_config(max_instructions=1000),
                        medium_workload)
        sim.run(500)
        with pytest.raises(RuntimeError):
            sim.skip_to(5000)

    def test_skip_off_a_stream_boundary_raises(self, medium_workload):
        """A skip strides over the canonical stream segmentation, so it
        refuses to start where no skip can have stopped."""
        sim = Simulator(make_sim_config(max_instructions=1000),
                        medium_workload)
        sim.warm_up()
        oracle = sim.prediction.oracle
        assert oracle.segments(sim.prediction.max_stream).aligned_index(1) \
            is None
        oracle.advance(1)
        with pytest.raises(RuntimeError, match="stream boundary"):
            sim.skip_to(500)


class TestPositionalProperties:
    """Property-based round trips: random seeded configs/workloads pushed
    through ``snapshot()``/``restore()``/``skip_to`` must leave the
    machine *positionally exact* -- the predictor-facing path history,
    RAS, instruction-cache contents and the data-cache load index after
    a skip split at arbitrary checkpoints equal those after one
    continuous skip, and the timed continuation is bit-identical.
    (This invariant is what lets persisted positioned checkpoints be
    restored by runs whose skip targets were never seen before.)"""

    @settings(max_examples=8, deadline=None)
    @given(
        engine=st.sampled_from(ENGINES),
        l1_size=st.sampled_from([1024, 4096]),
        cuts=st.lists(st.integers(min_value=50, max_value=5000),
                      min_size=1, max_size=3),
        target=st.integers(min_value=5000, max_value=7000),
    )
    def test_split_skip_is_positionally_exact(self, medium_workload,
                                              engine, l1_size, cuts, target):
        config = make_sim_config(engine=engine, l1_size_bytes=l1_size,
                                 max_instructions=1500)
        reference = Simulator(config, medium_workload)
        reference.warm_up()
        reference.skip_to(target)

        split = Simulator(config, medium_workload)
        split.warm_up()
        for cut in sorted(cuts):
            split.skip_to(min(cut, target))
            checkpoint = split.snapshot()
            split = Simulator(config, medium_workload)   # fresh machine
            split.restore(checkpoint)
        split.skip_to(target)

        ref_pred, split_pred = reference.prediction, split.prediction
        assert split_pred.oracle.consumed_instructions == target
        assert ref_pred.oracle.consumed_instructions == target
        assert (split_pred.oracle.current_address()
                == ref_pred.oracle.current_address())
        assert split_pred.history == ref_pred.history
        assert split_pred.ras.snapshot() == ref_pred.ras.snapshot()
        assert split_pred.skipped_loads == ref_pred.skipped_loads
        assert (sorted(split.hierarchy.l1.resident_lines())
                == sorted(reference.hierarchy.l1.resident_lines()))
        assert (sorted(split.hierarchy.l2.resident_lines())
                == sorted(reference.hierarchy.l2.resident_lines()))
        # Strongest check: the timed continuations are bit-identical
        # (covers the predictor tables and every other skipped structure).
        _assert_identical(split.run(1500), reference.run(1500))

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        engine=st.sampled_from(["baseline", "fdp", "clgp"]),
        skip=st.integers(min_value=500, max_value=4000),
    )
    def test_randomized_workload_round_trip(self, seed, engine, skip):
        """Mid-skip snapshots restore bit-identically on randomized
        seeded workloads, into fresh simulators, any number of times."""
        workload = _pooled_workload(seed)
        config = make_sim_config(engine=engine, max_instructions=1200,
                                 warmup_instructions=3000)
        sim = Simulator(config, workload)
        sim.warm_up()
        sim.skip_to(skip)
        checkpoint = sim.snapshot()
        assert checkpoint.consumed_instructions == skip
        expected = sim.run(1200)

        other = Simulator(config, workload)
        other.restore(checkpoint)
        _assert_identical(other.run(1200), expected)
        other.restore(checkpoint)
        assert other.prediction.oracle.consumed_instructions == skip
        _assert_identical(other.run(1200), expected)


def _fresh(workload: Workload) -> Workload:
    """A new object of ``workload``'s benchmark: nothing derived in
    memory yet, so its checkpoints come from the store tier or not at
    all."""
    return build_workload(workload.profile)


class TestCheckpointStore:
    def test_warm_checkpoint_cached(self, medium_workload):
        workload = _fresh(medium_workload)
        config = make_sim_config(max_instructions=1000)
        a = DEFAULT_STORE.warm_checkpoint(config, workload)
        b = DEFAULT_STORE.warm_checkpoint(config, workload)
        assert a is b

    def test_distinct_configs_get_distinct_checkpoints(self, medium_workload):
        workload = _fresh(medium_workload)
        a = DEFAULT_STORE.warm_checkpoint(
            make_sim_config(max_instructions=1000), workload)
        b = DEFAULT_STORE.warm_checkpoint(
            make_sim_config(max_instructions=1000, l1_size_bytes=1024),
            workload)
        assert a is not b

    def test_kinds_at_one_offset_stay_apart(self, medium_workload,
                                            tmp_path):
        """A positioned and a frontier checkpoint published at the same
        offset of one config and workload come back only to their own
        kind -- from memory and from the store -- and each restores into
        its own path: a skip onward, or the resumed timed run."""
        config = make_sim_config(engine="fdp", max_instructions=3000)
        writer = _fresh(medium_workload)
        timed = Simulator(config, writer)
        timed.warm_up()
        offset = timed.run(1500).committed_instructions
        frontier = timed.snapshot()
        skipped = Simulator(config, writer)
        skipped.warm_up()
        skipped.skip_to(offset)
        positioned = skipped.snapshot()

        def continue_from(kind, checkpoint, workload=writer):
            simulator = Simulator(config, workload)
            if checkpoint is None:
                simulator.warm_up()
            else:
                simulator.restore(checkpoint)
            if kind == POSITIONED:
                simulator.skip_to(offset + 500)
                return simulator.run(1000)
            return simulator.run(3000)

        expected = {kind: continue_from(kind, None)
                    for kind in (POSITIONED, FRONTIER)}
        with temporary_cache_dir(tmp_path / "cache"):
            DEFAULT_STORE.publish(POSITIONED, config, writer, offset,
                                  positioned)
            DEFAULT_STORE.publish(FRONTIER, config, writer, offset, frontier)
            assert DEFAULT_STORE.deepest(POSITIONED, config, writer,
                                         0, offset) == (offset, positioned)
            assert DEFAULT_STORE.deepest(FRONTIER, config, writer,
                                         0, offset) == (offset, frontier)
            reader = _fresh(medium_workload)    # the store tier only
            for kind in (POSITIONED, FRONTIER):
                found = DEFAULT_STORE.deepest(kind, config, reader,
                                              0, offset)
                assert found is not None and found[0] == offset
                _assert_identical(continue_from(kind, found[1], reader),
                                  expected[kind])

    def test_warm_checkpoint_matches_plain_warm_up(self, medium_workload):
        """Restoring the store's warm checkpoint must continue exactly like
        a freshly warmed simulator (the sampled runner relies on the two
        states being interchangeable)."""
        workload = _fresh(medium_workload)
        config = make_sim_config(engine="fdp", max_instructions=1500)
        fresh = Simulator(config, workload)
        fresh.warm_up()
        expected = fresh.run(1500)

        restored = Simulator(config, workload)
        restored.restore(DEFAULT_STORE.warm_checkpoint(config, workload))
        _assert_identical(restored.run(1500), expected)


class TestCheckpointsFollowTheirWorkload:
    """A checkpoint shares its workload's objects (CFG, traces), so one
    taken on a workload object never restores into a machine built on
    another object of the same benchmark; with the store off, that other
    object simply runs without it.  The checkpoints live on their
    workload, so dropping the workload drops them too."""

    CONFIG = SimulationConfig(engine="clgp", technology="0.045um",
                              l1_size_bytes=4096, max_instructions=800,
                              warmup_instructions=2000)

    @pytest.fixture(autouse=True)
    def _fresh_caches(self, tmp_path):
        clear_process_caches()
        with temporary_cache_dir(tmp_path / "off", enabled=False):
            yield
        clear_process_caches()

    def test_larger_run_after_clear_process_caches(self):
        _execute_single(self.CONFIG, "gzip", 800)
        clear_process_caches()
        after_clear = _execute_single(self.CONFIG, "gzip", 1000)
        clear_process_caches()
        _assert_identical(after_clear,
                          _execute_single(self.CONFIG, "gzip", 1000))

    def test_a_dropped_workload_is_freed_with_its_checkpoints(self):
        workload = build_workload(profile_for("gcc"))
        publishes = DEFAULT_STORE.counts[POSITIONED, "publish"]
        _execute_sampled(self.CONFIG, workload, 10_000,
                         SamplingSpec(max_intervals=8))
        # The run jumped more than once, so it left positioned states in
        # memory, each holding the workload's objects.
        assert DEFAULT_STORE.counts[POSITIONED, "publish"] > publishes
        dropped = weakref.ref(workload)
        del workload
        gc.collect()
        assert dropped() is None

    def test_sampled_run_on_a_second_workload_object(self):
        spec = SamplingSpec(max_intervals=8)
        publishes = DEFAULT_STORE.counts[POSITIONED, "publish"]
        first = _execute_sampled(self.CONFIG, "gcc", 10_000, spec)
        # The run jumped more than once, so it left positioned states.
        assert DEFAULT_STORE.counts[POSITIONED, "publish"] > publishes
        second = _execute_sampled(
            self.CONFIG, build_workload(profile_for("gcc")), 10_000, spec)
        clear_process_caches()
        fresh = _execute_sampled(
            self.CONFIG, build_workload(profile_for("gcc")), 10_000, spec)
        _assert_identical(second, fresh)
        _assert_identical(first, fresh)
