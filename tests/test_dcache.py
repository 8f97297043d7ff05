"""Tests for the probabilistic data-cache model."""

import pytest

from repro.backend.dcache import DataCacheModel, _hash01
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy


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


class TestAccess:
    def test_hit_latency(self, hierarchy):
        model = DataCacheModel(hierarchy)
        done = []
        assert model.access(10, miss_probability=0.0, l2_miss_probability=0.0,
                            on_miss=done.append) == 11
        assert done == []          # a hit returns its completion directly
        assert model.stats.loads == 1 and model.stats.dl1_misses == 0

    def test_miss_goes_over_bus(self, hierarchy):
        model = DataCacheModel(hierarchy, mlp_factor=1.0)
        done = []
        assert model.access(0, miss_probability=1.0, l2_miss_probability=0.0,
                            on_miss=done.append) is None
        assert not done            # waiting for the bus grant
        hierarchy.tick(0)
        assert done == [17]        # L2 latency at 0.09um
        assert model.stats.dl1_misses == 1

    def test_mlp_factor_reduces_exposed_latency(self, hierarchy):
        model = DataCacheModel(hierarchy, mlp_factor=4.0)
        done = []
        model.access(0, miss_probability=1.0, l2_miss_probability=0.0,
                     on_miss=done.append)
        hierarchy.tick(0)
        assert done == [round(17 / 4)]

    def test_l2_miss_statistics(self, hierarchy):
        model = DataCacheModel(hierarchy, mlp_factor=1.0)
        for _ in range(50):
            model.access(0, miss_probability=1.0, l2_miss_probability=1.0,
                         on_miss=lambda c: None)
        assert model.stats.l2_data_misses == 50

    def test_miss_rate_matches_probability(self, hierarchy):
        model = DataCacheModel(hierarchy)
        for _ in range(2000):
            model.access(0, miss_probability=0.25, l2_miss_probability=0.0,
                         on_miss=lambda c: None)
        assert 0.18 < model.stats.dl1_miss_rate < 0.32

    def test_deterministic_across_instances(self, hierarchy):
        a = DataCacheModel(hierarchy, seed=5)
        b = DataCacheModel(
            MemoryHierarchy(HierarchyConfig(technology="0.09um")), seed=5)
        hits_a = [a.access(0, 0.3, 0.0, lambda c: None) for _ in range(100)]
        hits_b = [b.access(0, 0.3, 0.0, lambda c: None) for _ in range(100)]
        # Hit decisions (which accesses completed immediately) must match.
        assert hits_a == hits_b

    def test_invalid_mlp(self, hierarchy):
        with pytest.raises(ValueError):
            DataCacheModel(hierarchy, mlp_factor=0.5)
