"""Tests for the functional warm-up machinery."""

from repro.frontend.stream_predictor import StreamPredictor
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.simulator.warming import (
    apply_warmup,
    clear_warmup_cache,
    compute_warmup,
    get_warmup_artifacts,
)


class TestComputeWarmup:
    def test_replays_requested_instructions(self, tiny_workload):
        artifacts = compute_warmup(tiny_workload, 2000)
        assert artifacts.instructions >= 2000
        assert artifacts.line_trace
        assert artifacts.predictor.base_table.occupancy() > 0

    def test_cache_returns_same_object(self, tiny_workload):
        clear_warmup_cache()
        a = get_warmup_artifacts(tiny_workload, 1000)
        b = get_warmup_artifacts(tiny_workload, 1000)
        assert a is b
        c = get_warmup_artifacts(tiny_workload, 2000)
        assert c is not a
        clear_warmup_cache()

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
