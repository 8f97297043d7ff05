"""Tests for the instruction-side memory hierarchy."""

import pytest

from repro.memory.hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    SOURCE_L1,
    SOURCE_L2,
    SOURCE_MEMORY,
)


def drive(hierarchy, cycles):
    """Advance the bus for a number of cycles."""
    for cycle in range(cycles):
        hierarchy.tick(cycle)


class TestConstruction:
    def test_latencies_from_table3(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.045um", l1_size_bytes=4096))
        assert h.l1_latency == 4
        assert h.l2_latency == 24
        assert h.memory_latency == 200

    def test_latency_override_for_ideal(self):
        h = MemoryHierarchy(HierarchyConfig(
            technology="0.045um", l1_size_bytes=65536, l1_latency_override=1))
        assert h.l1_latency == 1

    def test_l0_optional(self):
        no_l0 = MemoryHierarchy(HierarchyConfig())
        with_l0 = MemoryHierarchy(HierarchyConfig(l0_size_bytes=256))
        assert not no_l0.has_l0 and no_l0.l0 is None
        assert with_l0.has_l0 and with_l0.l0.num_lines == 4

    def test_pipelined_l1_port(self):
        h = MemoryHierarchy(HierarchyConfig(l1_pipelined=True, l1_size_bytes=4096))
        assert h.l1_port.pipelined

    def test_fill_l0_without_l0_raises(self):
        h = MemoryHierarchy(HierarchyConfig())
        with pytest.raises(RuntimeError):
            h.fill_l0(0x1000)


class TestDemandPath:
    def test_l2_hit(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.09um"))
        h.l2.fill(0x4000)
        results = []
        h.demand_instruction_access(0x4000, 0, lambda c, s: results.append((c, s)))
        drive(h, 1)
        assert results == [(0 + 17, SOURCE_L2)]
        assert h.demand_l2_hits == 1

    def test_l2_miss_goes_to_memory_and_fills_l2(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.09um"))
        results = []
        h.demand_instruction_access(0x8000, 0, lambda c, s: results.append((c, s)))
        drive(h, 1)
        assert results == [(17 + 200, SOURCE_MEMORY)]
        assert h.l2.contains(0x8000)
        assert h.demand_memory_accesses == 1

    def test_bus_serialisation_delays_second_request(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.09um"))
        h.l2.fill(0x4000)
        h.l2.fill(0x8000)
        results = []
        h.demand_instruction_access(0x4000, 0, lambda c, s: results.append(c))
        h.demand_instruction_access(0x8000, 0, lambda c, s: results.append(c))
        drive(h, 2)
        assert results == [17, 1 + 17]


class TestPrefetchPath:
    def test_served_by_l1_without_bus(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.045um", l1_size_bytes=4096))
        h.l1.fill(0x2000)
        results = []
        h.prefetch_access(0x2000, 5, lambda c, s: results.append((c, s)), probe_l1=True)
        # No tick needed: served locally.
        assert results == [(5 + h.l1_latency, SOURCE_L1)]
        assert h.bus.pending == 0

    def test_l1_probe_disabled_goes_to_l2(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.045um"))
        h.l1.fill(0x2000)
        h.l2.fill(0x2000)
        results = []
        h.prefetch_access(0x2000, 0, lambda c, s: results.append((c, s)), probe_l1=False)
        drive(h, 1)
        assert results == [(24, SOURCE_L2)]

    def test_prefetch_miss_goes_to_memory(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.045um"))
        results = []
        h.prefetch_access(0x6000, 0, lambda c, s: results.append((c, s)))
        drive(h, 1)
        assert results == [(24 + 200, SOURCE_MEMORY)]
        assert h.prefetch_memory_accesses == 1

    def test_prefetch_loses_arbitration_to_demand(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.09um"))
        h.l2.fill(0x4000)
        h.l2.fill(0x8000)
        order = []
        h.prefetch_access(0x4000, 0, lambda c, s: order.append("prefetch"),
                          probe_l1=False)
        h.demand_instruction_access(0x8000, 0, lambda c, s: order.append("demand"))
        drive(h, 2)
        assert order == ["demand", "prefetch"]


class TestDataPath:
    def test_data_l2_hit_latency(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.09um"))
        results = []
        h.demand_data_access(0, misses_l2=False, on_complete=lambda c, s: results.append(c))
        drive(h, 1)
        assert results == [17]

    def test_data_memory_latency(self):
        h = MemoryHierarchy(HierarchyConfig(technology="0.09um"))
        results = []
        h.demand_data_access(0, misses_l2=True, on_complete=lambda c, s: results.append(c))
        drive(h, 1)
        assert results == [217]


class TestFillHelpers:
    def test_line_address_helper(self):
        h = MemoryHierarchy(HierarchyConfig())
        assert h.line_address(0x1234) == 0x1200 + 0x0  # 64-byte aligned
        assert h.line_address(0x1234) % 64 == 0
