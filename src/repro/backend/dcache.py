"""Data-cache behaviour model for the back-end.

The paper fixes the data side (32 KB 2-way L1 D-cache, 1-cycle latency) and
focuses entirely on the instruction side; data accesses matter to the study
only because (a) L1-D misses occupy the shared L2 bus with the highest
priority and (b) long-latency loads lower the attainable IPC, changing how
much fetch latency can hide.

Loads are therefore modelled probabilistically per benchmark: every dynamic
correct-path load draws a deterministic pseudo-random value (a hash of its
dynamic index, identical across simulator configurations) and misses the L1
D-cache with the block's ``load_miss_probability``; a miss draws again, with
:data:`L2_SALT` in the seed, to decide whether it also misses the L2.  The
draws depend on no timing, so :func:`draw_misses` makes them once per
prediction-trace record (:mod:`repro.frontend.prediction`), and a hit
completes one cycle after dispatch, like any other instruction.  Only
:meth:`DataCacheModel.issue_miss` happens in the timed loop: the miss goes
over the L2 bus and is served by L2 or main memory, and a
memory-level-parallelism factor models the overlap an out-of-order core
achieves between outstanding misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

from ..memory.hierarchy import MemoryHierarchy

#: Xor-ed into the workload seed for the L2 draw of an L1-D miss.
L2_SALT = 0x5A5A5A5A


def _hash01(index: int, salt: int) -> float:
    """Deterministic hash of a dynamic-instruction index into [0, 1)."""
    x = (index * 0x9E3779B97F4A7C15 + salt * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 32
    return (x & 0xFFFFFFFF) / 2**32


def draw_misses(offsets: tuple, probs: tuple, index: int, seed: int,
                l2_rate: float) -> tuple:
    """The L1-D misses among consecutive dynamic loads.

    ``offsets`` and ``probs`` are the loads' positions and miss
    probabilities (:meth:`~repro.workloads.bbdict.BasicBlockDictionary.loads`),
    and the first of them has dynamic load index ``index``.  Returns one
    ``(offset, misses_l2)`` pair per load that misses, in order.
    """
    misses = ()
    for offset, miss_prob in zip(offsets, probs):
        if _hash01(index, seed) < miss_prob:
            misses += ((offset,
                        _hash01(index, seed ^ L2_SALT) < l2_rate),)
        index += 1
    return misses


@dataclass
class DataCacheStats:
    loads: int = 0
    dl1_misses: int = 0
    l2_data_misses: int = 0

    @property
    def dl1_miss_rate(self) -> float:
        return self.dl1_misses / self.loads if self.loads else 0.0


class DataCacheModel:
    """Issues L1-D misses over the L2 bus and keeps the load counters
    (the back-end counts ``loads`` as it dispatches them)."""

    def __init__(self, hierarchy: MemoryHierarchy,
                 mlp_factor: float = 4.0) -> None:
        if mlp_factor < 1.0:
            raise ValueError("mlp_factor must be >= 1.0")
        self.hierarchy = hierarchy
        self.mlp_factor = mlp_factor
        self.stats = DataCacheStats()

    def issue_miss(self, cycle: int, misses_l2: bool,
                   segment: List[int]) -> None:
        """Send a load that missed the L1-D at ``cycle`` over the bus; its
        grant writes the load's completion cycle into ``segment[0]``."""
        stats = self.stats
        stats.dl1_misses += 1
        if misses_l2:
            stats.l2_data_misses += 1
        self.hierarchy.demand_data_access(
            misses_l2, partial(self._served, cycle, segment))

    def _served(self, cycle: int, segment: List[int], arrival_cycle: int,
                _source: str) -> None:
        """The miss issued at ``cycle`` is served at ``arrival_cycle``.
        Out-of-order cores overlap independent misses, so the exposed
        latency is divided by the MLP factor."""
        segment[0] = cycle + max(
            1, round((arrival_cycle - cycle) / self.mlp_factor))
