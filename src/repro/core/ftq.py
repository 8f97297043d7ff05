"""Fetch Target Queue (FTQ) -- fetch-block granularity (FDP / baseline).

The FTQ decouples the branch predictor from the I-cache: the predictor
deposits fetch blocks, the fetch stage consumes them.  Capacity is counted
in fetch blocks (8 in the paper's Table 2).  The fetch stage works at
cache-line granularity, so the head block is expanded lazily into
:class:`~repro.frontend.fetch_block.FetchLineRequest` objects.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..frontend.fetch_block import FetchBlock, FetchLineRequest


class FetchTargetQueue:
    """Bounded queue of fetch blocks with lazy per-line expansion."""

    def __init__(self, capacity_blocks: int = 8):
        if capacity_blocks < 1:
            raise ValueError("FTQ needs capacity for at least one block")
        self.capacity_blocks = capacity_blocks
        self._blocks: Deque[FetchBlock] = deque()
        self._head_lines: Deque[FetchLineRequest] = deque()
        self.enqueued_blocks = 0
        self.dropped_blocks = 0

    # -- predictor side ----------------------------------------------------
    def has_space(self) -> bool:
        return len(self._blocks) + (1 if self._head_lines else 0) < self.capacity_blocks

    def push(self, block: FetchBlock) -> bool:
        """Insert a fetch block; returns False (and drops it) when full."""
        if not self.has_space():
            self.dropped_blocks += 1
            return False
        self._blocks.append(block)
        self.enqueued_blocks += 1
        return True

    # -- fetch side ---------------------------------------------------------
    def _refill_head(self) -> None:
        if not self._head_lines and self._blocks:
            block = self._blocks.popleft()
            self._head_lines.extend(block.line_requests())

    def peek_line(self) -> Optional[FetchLineRequest]:
        self._refill_head()
        return self._head_lines[0] if self._head_lines else None

    def pop_line(self) -> Optional[FetchLineRequest]:
        self._refill_head()
        return self._head_lines.popleft() if self._head_lines else None

    # -- prefetcher side ------------------------------------------------------
    def pending_blocks(self) -> List[FetchBlock]:
        """Blocks currently queued (head block excluded once expansion
        started); used by FDP to enqueue prefetch candidates."""
        return list(self._blocks)

    # -- global ------------------------------------------------------------
    def flush(self) -> None:
        self._blocks.clear()
        self._head_lines.clear()

    @property
    def occupancy_blocks(self) -> int:
        return len(self._blocks) + (1 if self._head_lines else 0)

    def __len__(self) -> int:
        return self.occupancy_blocks

    def __bool__(self) -> bool:
        return bool(self._blocks or self._head_lines)
