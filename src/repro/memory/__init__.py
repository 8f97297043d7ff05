"""Memory-system substrate: caches, ports, latency model, bus, hierarchy."""

from .area import (
    FrontEndBudget,
    StructureEstimate,
    estimate_structure,
    front_end_budget,
)
from .bus import BusPriority, L2Bus
from .cache import Cache, CacheStats
from .hierarchy import (
    FETCH_SOURCES,
    HierarchyConfig,
    MemoryHierarchy,
    SOURCE_L0,
    SOURCE_L1,
    SOURCE_L2,
    SOURCE_MEMORY,
    SOURCE_PREBUFFER,
)
from .latency import (
    CactiLikeModel,
    L1_SIZES_BYTES,
    L2_SIZE_BYTES,
    MEMORY_LATENCY_CYCLES,
    access_latency,
    l1_latency_table,
    l2_latency,
    one_cycle_prebuffer_entries,
    pipelined_prebuffer_stages,
    table3_rows,
)
from .port import AccessPort

__all__ = [
    "AccessPort",
    "BusPriority",
    "Cache",
    "CacheStats",
    "CactiLikeModel",
    "FrontEndBudget",
    "StructureEstimate",
    "estimate_structure",
    "front_end_budget",
    "FETCH_SOURCES",
    "HierarchyConfig",
    "L1_SIZES_BYTES",
    "L2Bus",
    "L2_SIZE_BYTES",
    "MEMORY_LATENCY_CYCLES",
    "MemoryHierarchy",
    "SOURCE_L0",
    "SOURCE_L1",
    "SOURCE_L2",
    "SOURCE_MEMORY",
    "SOURCE_PREBUFFER",
    "access_latency",
    "l1_latency_table",
    "l2_latency",
    "one_cycle_prebuffer_entries",
    "pipelined_prebuffer_stages",
    "table3_rows",
]
