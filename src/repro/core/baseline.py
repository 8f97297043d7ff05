"""Baseline fetch engines (no prefetching).

Four baseline flavours appear in the paper's Figure 1 / Figure 5:

* ``base``      -- conventional L1 I-cache, blocking multi-cycle access,
* ``base pipelined`` -- same cache with a pipelined port (one access may
  start every cycle),
* ``base + L0`` -- a small one-cycle filter cache in front of the L1,
  accessed in parallel with it,
* ``ideal``     -- every cache size reachable in one cycle (upper bound).

All of them use the same decoupled stream predictor and FTQ as the
prefetching engines; they simply never prefetch.  The pipelined/ideal
flavours are selected through the hierarchy configuration (pipelined L1
port / L1 latency override), not through engine subclasses.
"""

from __future__ import annotations

from typing import Optional

from ..frontend.fetch_block import FetchBlock, FetchLineRequest
from ..memory.hierarchy import (
    SOURCE_L1,
    SOURCE_MEMORY,
    SOURCE_L2,
    MemoryHierarchy,
)
from ..workloads.bbdict import BasicBlockDictionary
from .engine import FetchEngine, FetchEngineConfig
from .ftq import FetchTargetQueue


class BaselineEngine(FetchEngine):
    """Decoupled fetch without prefetching (optionally with an L0 cache)."""

    name = "base"
    has_prebuffer = False

    def __init__(
        self,
        config: FetchEngineConfig,
        hierarchy: MemoryHierarchy,
        bbdict: BasicBlockDictionary,
    ) -> None:
        super().__init__(config, hierarchy, bbdict)
        self.ftq = FetchTargetQueue(
            capacity_blocks=config.queue_capacity_blocks,
            line_size=hierarchy.line_size,
        )
        if hierarchy.has_l0:
            self.name = "base+L0"

    # -- queue -------------------------------------------------------------
    def can_accept_block(self) -> bool:
        return self.ftq.has_space()

    def enqueue_block(self, block: FetchBlock, cycle: int) -> None:
        self.ftq.push(block)

    def _pop_next_line(self) -> Optional[FetchLineRequest]:
        return self.ftq.pop_line()

    def _peek_next_line(self) -> Optional[FetchLineRequest]:
        return self.ftq.peek_line()

    # -- hooks ----------------------------------------------------------------
    def _on_line_consumed(self, request, source, entry, cycle) -> None:
        # Filter-cache behaviour: every consumed line that did not come from
        # the L0 is installed there so near-term reuse hits in one cycle.
        if self.hierarchy.has_l0 and source in (SOURCE_L1, SOURCE_L2, SOURCE_MEMORY):
            self.hierarchy.fill_l0(request.line_addr)

    def _on_demand_fill(self, line_addr: int, source: str, cycle: int) -> None:
        self.hierarchy.fill_l1(line_addr)

    def flush(self, cycle: int) -> None:
        super().flush(cycle)
        self.ftq.flush()
