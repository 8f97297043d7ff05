"""Data-cache behaviour model for the back-end.

The paper fixes the data side (32 KB 2-way L1 D-cache, 1-cycle latency) and
focuses entirely on the instruction side; data accesses matter to the study
only because (a) L1-D misses occupy the shared L2 bus with the highest
priority and (b) long-latency loads lower the attainable IPC, changing how
much fetch latency can hide.

Loads are therefore modelled probabilistically per benchmark: every dynamic
correct-path load draws a deterministic pseudo-random value (a hash of its
dynamic index, identical across simulator configurations) and misses the L1
D-cache with the block's ``load_miss_probability``; misses go over the L2
bus and are served by L2 or main memory.  A memory-level-parallelism factor
models the overlap an out-of-order core achieves between outstanding
misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..memory.hierarchy import MemoryHierarchy


def _hash01(index: int, salt: int) -> float:
    """Deterministic hash of a dynamic-instruction index into [0, 1)."""
    x = (index * 0x9E3779B97F4A7C15 + salt * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 32
    return (x & 0xFFFFFFFF) / 2**32


@dataclass
class DataCacheStats:
    loads: int = 0
    dl1_misses: int = 0
    l2_data_misses: int = 0

    @property
    def dl1_miss_rate(self) -> float:
        return self.dl1_misses / self.loads if self.loads else 0.0


class DataCacheModel:
    """Per-load latency model with deterministic miss decisions."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        dl1_latency: int = 1,
        mlp_factor: float = 4.0,
        seed: int = 0,
    ) -> None:
        if mlp_factor < 1.0:
            raise ValueError("mlp_factor must be >= 1.0")
        self.hierarchy = hierarchy
        self.dl1_latency = dl1_latency
        self.mlp_factor = mlp_factor
        self.seed = seed
        self.stats = DataCacheStats()
        self._load_index = 0

    def skip_loads(self, count: int) -> None:
        """Advance the dynamic load index without issuing accesses.

        Sampled simulation functionally fast-forwards past a correct-path
        prefix; the miss decisions are a pure hash of the load index, so
        advancing the index keeps every subsequent decision identical to
        the full run's decision at the same dynamic position.
        """
        if count < 0:
            raise ValueError("cannot skip a negative number of loads")
        self._load_index += count

    def access(
        self,
        cycle: int,
        miss_probability: float,
        l2_miss_probability: float,
        on_miss: Callable[[int], None],
    ) -> Optional[int]:
        """Issue one correct-path load at ``cycle``.

        Returns the completion cycle of a hit.  A miss returns ``None``
        and calls ``on_miss(completion_cycle)`` when the L2 bus grants it.
        """
        index = self._load_index
        self._load_index += 1
        self.stats.loads += 1

        if _hash01(index, self.seed) >= miss_probability:
            return cycle + self.dl1_latency

        self.stats.dl1_misses += 1
        misses_l2 = _hash01(index, self.seed ^ 0x5A5A5A5A) < l2_miss_probability
        if misses_l2:
            self.stats.l2_data_misses += 1

        def _served(arrival_cycle: int, _source: str) -> None:
            # Out-of-order cores overlap independent misses; divide the
            # exposed latency by the MLP factor.
            exposed = max(1, round((arrival_cycle - cycle) / self.mlp_factor))
            on_miss(cycle + exposed)

        self.hierarchy.demand_data_access(cycle, misses_l2, _served)
        return None
