"""Cache Line Target Queue (CLTQ) -- cache-line granularity (CLGP).

"Before entering the fetch queue, fetch blocks are divided into fetch
cache lines, and each fetch cache line is stored in a different fetch
queue entry."  Each entry carries the *prefetched bit* (has CLGP already
processed it?) and the *occupied bit* (does it still hold a line awaiting
fetch?).

Capacity accounting follows the paper: the queue "can hold up to 8 fetch
blocks" -- with CLGP each block occupies several entries, but both FTQ and
CLTQ hold the same amount of predicted control flow so both mechanisms see
the same prefetch opportunities.  We therefore bound the number of
*resident fetch blocks*, not the raw entry count.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from ..frontend.fetch_block import FetchBlock, FetchLineRequest


class CacheLineTargetQueue:
    """Bounded (in fetch blocks) queue of per-line fetch requests."""

    def __init__(self, capacity_blocks: int = 8):
        if capacity_blocks < 1:
            raise ValueError("CLTQ needs capacity for at least one block")
        self.capacity_blocks = capacity_blocks
        self._entries: Deque[FetchLineRequest] = deque()
        #: Scan acceleration for the CLGP prestaging algorithm: entries in
        #: queue order whose 'prefetched bit' may still be unset.  Stale
        #: references (prefetched, or popped by the fetch stage) are lazily
        #: dropped from the front, making the per-cycle scan O(window)
        #: instead of O(queue length).
        self._unprefetched: Deque[FetchLineRequest] = deque()
        self._resident_blocks = 0
        self.enqueued_blocks = 0
        self.enqueued_lines = 0
        self.dropped_blocks = 0

    # -- predictor side ----------------------------------------------------
    def has_space(self) -> bool:
        return self._resident_blocks < self.capacity_blocks

    def push_block(self, block: FetchBlock) -> bool:
        """Split ``block`` into fetch cache lines and append them."""
        if not self.has_space():
            self.dropped_blocks += 1
            return False
        requests = block.line_requests()
        self._entries.extend(requests)
        self._unprefetched.extend(requests)
        self._resident_blocks += 1
        self.enqueued_blocks += 1
        self.enqueued_lines += len(requests)
        # Remember how many entries belong to this block so residency can be
        # decremented when its last line is consumed.
        block.cltq_lines_remaining = len(requests)
        return True

    # -- fetch side ----------------------------------------------------------
    def peek_line(self) -> Optional[FetchLineRequest]:
        return self._entries[0] if self._entries else None

    def pop_line(self) -> Optional[FetchLineRequest]:
        if not self._entries:
            return None
        request = self._entries.popleft()
        request.occupied = False
        block = request.block
        remaining = block.cltq_lines_remaining - 1
        block.cltq_lines_remaining = remaining
        if remaining <= 0:
            self._resident_blocks = max(0, self._resident_blocks - 1)
        return request

    # -- prefetcher (CLGP) side -----------------------------------------------
    def unprefetched_entries(self, limit: Optional[int] = None) -> List[FetchLineRequest]:
        """Entries whose 'prefetched bit' is still unset, in queue order."""
        out: List[FetchLineRequest] = []
        for request in self._entries:
            if not request.prefetched:
                out.append(request)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def iter_entries(self) -> Iterable[FetchLineRequest]:
        return iter(self._entries)

    @staticmethod
    def _is_stale(request: FetchLineRequest) -> bool:
        """A pending-scan reference no longer worth examining: already
        prefetched, or popped by the fetch stage."""
        return request.prefetched or not request.occupied

    def next_unprefetched(self) -> Optional[FetchLineRequest]:
        """Head-most queued entry with an unset 'prefetched bit' (stale
        scan references are dropped along the way)."""
        pending = self._unprefetched
        while pending:
            request = pending[0]
            if self._is_stale(request):
                pending.popleft()
                continue
            return request
        return None

    def peek_unprefetched(self) -> Optional[FetchLineRequest]:
        """Read-only :meth:`next_unprefetched`: same entry the next scan
        would examine, with no side effects (stale references are skipped,
        not dropped).  Used by the event loop's quiescence check."""
        for request in self._unprefetched:
            if not self._is_stale(request):
                return request
        return None

    def mark_scanned(self, request: FetchLineRequest) -> None:
        """The prestaging scan resolved this entry: set its 'prefetched
        bit' and drop it from the pending-scan order."""
        request.prefetched = True
        if self._unprefetched and self._unprefetched[0] is request:
            self._unprefetched.popleft()

    # -- global -----------------------------------------------------------------
    def flush(self) -> None:
        """Branch misprediction: discard every queued line."""
        self._entries.clear()
        self._unprefetched.clear()
        self._resident_blocks = 0

    @property
    def occupancy_lines(self) -> int:
        return len(self._entries)

    @property
    def occupancy_blocks(self) -> int:
        return self._resident_blocks

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
