"""Tests for the functional warm-up machinery."""

from repro.frontend.stream_predictor import StreamPredictor
from repro.memory.cache import Cache
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.simulator.simulator import Simulator
from repro.simulator.testing import make_sim_config
from repro.simulator.warming import (
    apply_warmup,
    compute_warmup,
    get_warmup_artifacts,
)
from repro.workloads.trace import build_workload


class TestComputeWarmup:
    def test_replays_requested_instructions(self, tiny_workload):
        artifacts = compute_warmup(tiny_workload, 2000)
        assert artifacts.instructions >= 2000
        assert artifacts.line_trace
        assert artifacts.predictor.base_table.occupancy() > 0

    def test_cache_returns_same_object(self, tiny_workload):
        workload = build_workload(tiny_workload.profile)
        a = get_warmup_artifacts(workload, 1000)
        b = get_warmup_artifacts(workload, 1000)
        assert a is b
        c = get_warmup_artifacts(workload, 2000)
        assert c is not a

    def test_apply_warmup_copies_predictor(self, tiny_workload):
        artifacts = compute_warmup(tiny_workload, 1000)
        hierarchy = MemoryHierarchy(HierarchyConfig())
        predictor = apply_warmup(artifacts, hierarchy)
        assert predictor is not artifacts.predictor
        assert predictor.base_table.occupancy() == artifacts.predictor.base_table.occupancy()
        assert hierarchy.l1.occupancy() > 0
        assert hierarchy.l2.occupancy() > 0

    def test_apply_warmup_without_caches(self, tiny_workload):
        artifacts = compute_warmup(tiny_workload, 500)
        hierarchy = MemoryHierarchy(HierarchyConfig())
        apply_warmup(artifacts, hierarchy, warm_caches=False)
        assert hierarchy.l1.occupancy() == 0


class TestFunctionalWarmup:
    def test_in_place_training(self, tiny_workload):
        hierarchy = MemoryHierarchy(HierarchyConfig())
        artifacts = compute_warmup(tiny_workload, 1500)
        predictor = apply_warmup(artifacts, hierarchy)
        assert artifacts.instructions >= 1500
        assert predictor.base_table.occupancy() > 0
        assert hierarchy.l1.occupancy() > 0

    def test_zero_budget_is_noop(self, tiny_workload):
        artifacts = compute_warmup(tiny_workload, 0)
        assert artifacts.instructions == 0
        assert artifacts.line_trace == []
        hierarchy = MemoryHierarchy(HierarchyConfig())
        predictor = apply_warmup(artifacts, hierarchy)
        assert predictor.base_table.occupancy() == 0
        assert hierarchy.l1.occupancy() == 0

    def test_improves_prediction_accuracy(self, tiny_workload):
        """A warmed predictor must predict the start of the correct path
        much better than a cold one."""
        cold = StreamPredictor()
        warm = apply_warmup(compute_warmup(tiny_workload, 4000), None)

        def count_hits(predictor):
            oracle = tiny_workload.new_oracle()
            history = 0
            hits = 0
            for _ in range(200):
                addr = oracle.current_address()
                actual = oracle.peek_stream(64)
                pred = predictor.predict(addr, history)
                if (pred.length == actual.length
                        and pred.next_addr == actual.next_addr):
                    hits += 1
                history = StreamPredictor.fold_history(
                    history, actual.next_addr, actual.ends_taken)
                oracle.advance(actual.length)
            return hits

        assert count_hits(warm) > count_hits(cold) + 50


def _cache_state(cache):
    """Contents of ``cache`` in each set's LRU order, and statistics."""
    return {i: list(s) for i, s in cache._sets.items()}, cache.stats


class TestPerCacheSnapshots:
    def test_l2_warms_once_across_l1_sizes(self, tiny_workload):
        """Machines that differ only in L1 size share one L2 snapshot,
        and every warmed cache equals a per-line fill replay."""
        workload = build_workload(tiny_workload.profile)
        sizes = (1024, 4096, 16384)
        sims = [Simulator(make_sim_config(l1_size_bytes=size,
                                          warmup_instructions=4000),
                          workload)
                for size in sizes]
        for sim in sims:
            sim.warm_up()
        config = sims[0].config
        artifacts = get_warmup_artifacts(
            workload, 4000,
            base_entries=config.stream_predictor_base_entries,
            history_entries=config.stream_predictor_history_entries,
            max_stream_instructions=config.max_stream_instructions,
            line_size=config.line_size,
        )
        geometries = sorted(artifacts.cache_snapshots)
        assert len(geometries) == 4
        assert sorted(key[0] for key in geometries) == sorted(
            sizes + (sims[0].hierarchy.l2.size_bytes,))

        for sim in sims:
            l1, l2 = sim.hierarchy.l1, sim.hierarchy.l2
            fresh_l1 = Cache("il1", l1.size_bytes, l1.line_size,
                             l1.associativity)
            fresh_l2 = Cache("ul2", l2.size_bytes, l2.line_size,
                             l2.associativity)
            for line in artifacts.line_trace:
                fresh_l2.fill(line)
                fresh_l1.fill(line)
            assert _cache_state(l1) == _cache_state(fresh_l1)
            assert _cache_state(l2) == _cache_state(fresh_l2)
