"""Tests for the data-cache model: the pure per-load draws that the
prediction trace makes once per record, and the timed miss over the bus."""

import dataclasses

import pytest

from repro.backend.dcache import DataCacheModel, _hash01, draw_misses
from repro.backend.pipeline import NEVER, BackendPipeline
from repro.frontend.fetch_block import FetchBlock
from repro.frontend.prediction import PredictionUnit
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.simulator.simulator import Simulator
from repro.simulator.testing import make_sim_config
from repro.workloads.trace import build_workload


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(HierarchyConfig(technology="0.09um"))


class TestHash:
    def test_deterministic(self):
        assert _hash01(123, 7) == _hash01(123, 7)

    def test_range(self):
        for i in range(200):
            assert 0.0 <= _hash01(i, 42) < 1.0

    def test_salt_changes_value(self):
        assert _hash01(5, 1) != _hash01(5, 2)

    def test_roughly_uniform(self):
        values = [_hash01(i, 3) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55


def _loads(n, miss_probability):
    """``n`` consecutive loads, one per instruction, as (offsets, probs)."""
    return tuple(range(n)), (miss_probability,) * n


class TestAccess:
    """A load's D-cache access: its outcome drawn once, by position, and
    a miss's trip over the L2 bus."""

    # -- the pure draw ---------------------------------------------------
    def test_hit_latency(self, hierarchy):
        """A load the draw lets hit completes one cycle after dispatch,
        like any other instruction."""
        assert draw_misses(*_loads(1, 0.0), 0, 0, 0.0) == ()
        backend = BackendPipeline(DataCacheModel(hierarchy))
        block = FetchBlock(0x1000, 1, ((0x1000, 0, 1),), loads=(0,))
        backend.dispatch_run(block, 0, 1, 10)
        assert backend.tick(10) == 0
        assert backend.tick(11) == 1
        stats = backend.dcache.stats
        assert stats.loads == 1 and stats.dl1_misses == 0

    def test_miss_rate_matches_probability(self):
        misses = draw_misses(*_loads(2000, 0.25), 0, 0, 0.0)
        assert 0.18 < len(misses) / 2000 < 0.32
        assert all(not misses_l2 for _, misses_l2 in misses)

    def test_l2_miss_statistics(self, hierarchy):
        misses = draw_misses(*_loads(50, 1.0), 0, 0, 1.0)
        assert misses == tuple((offset, True) for offset in range(50))
        model = DataCacheModel(hierarchy, mlp_factor=1.0)
        for _ in misses:
            model.issue_miss(0, True, [NEVER, 1])
        assert model.stats.l2_data_misses == 50

    def test_deterministic_across_instances(self, tiny_workload):
        """Two builds of one profile draw the same outcomes: the draw
        depends only on the seed, the positions and the probabilities."""
        assert (draw_misses(*_loads(100, 0.3), 17, 5, 0.5)
                == draw_misses(*_loads(100, 0.3), 17, 5, 0.5))
        assert (draw_misses(*_loads(100, 0.3), 17, 5, 0.5)
                != draw_misses(*_loads(100, 0.3), 18, 5, 0.5))
        traces = []
        for _ in range(2):
            unit = PredictionUnit(build_workload(tiny_workload.profile))
            trace = unit.new_trace()
            trace.extend(200)
            traces.append(trace.records)
        assert traces[0] == traces[1]
        assert any(record[7] for record in traces[0])

    # -- the timed miss ---------------------------------------------------
    def test_miss_goes_over_bus(self, hierarchy):
        model = DataCacheModel(hierarchy, mlp_factor=1.0)
        segment = [NEVER, 1]
        model.issue_miss(0, False, segment)
        assert segment[0] == NEVER     # waiting for the bus grant
        hierarchy.tick(0)
        assert segment[0] == 17        # L2 latency at 0.09um
        assert model.stats.dl1_misses == 1

    def test_mlp_factor_reduces_exposed_latency(self, hierarchy):
        model = DataCacheModel(hierarchy, mlp_factor=4.0)
        segment = [NEVER, 1]
        model.issue_miss(0, False, segment)
        hierarchy.tick(0)
        assert segment[0] == round(17 / 4)

    def test_invalid_mlp(self, hierarchy):
        with pytest.raises(ValueError):
            DataCacheModel(hierarchy, mlp_factor=0.5)


def _draws_by_position(trace, start, records):
    """``{instruction offset: None (hit) | misses_l2}`` for each
    correct-path load in the trace's first ``records`` records, and the
    offset where they end; the trace starts at ``start``."""
    trace.extend(records - 1)
    draws = {}
    position = start
    for record in trace.records[:records]:
        prefix, loads, misses = record[2], record[6], dict(record[7])
        for offset in loads:
            draws[position + offset] = misses.get(offset)
        position += prefix
    return draws, position


class TestPositionalDraws:
    def test_trace_after_a_skip_draws_what_a_trace_from_zero_draws(
            self, medium_workload):
        """A trace that starts mid-stream after a functional skip and one
        that starts at offset 0 draw the same outcome at every load
        position both cover -- what lets a sampled interval see the full
        run's misses."""
        workload = build_workload(dataclasses.replace(
            medium_workload.profile, dl1_miss_rate=0.3,
            l2_data_miss_rate=0.5))
        config = make_sim_config(max_instructions=1000)
        skip = 2501
        units = []
        for target in (0, skip):
            sim = Simulator(config, workload)
            sim.skip_to(target)
            units.append(sim.prediction)
        from_zero, skipped = units
        assert skipped._skip_partial is not None     # stopped mid-stream
        assert skipped.skipped_loads > 0
        full, full_end = _draws_by_position(from_zero.new_trace(), 0, 1500)
        part, part_end = _draws_by_position(skipped.new_trace(), skip, 500)
        assert skip < part_end < full_end
        overlap = {p: d for p, d in full.items() if skip <= p < part_end}
        assert overlap == part
        outcomes = set(overlap.values())
        assert {None, True, False} <= outcomes
