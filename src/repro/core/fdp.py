"""Fetch Directed Prefetching (FDP) -- the comparison point of the paper.

Reinman, Calder and Austin's FDP uses the decoupled front-end's FTQ to
drive prefetching: fetch blocks entering the FTQ enqueue prefetch requests
(after Enqueue Cache Probe Filtering) into a prefetch instruction queue;
requests are issued, at most one per cycle, into a small fully-associative
prefetch buffer that the fetch stage probes in parallel with the I-cache.

Key FDP behaviours reproduced here (and contrasted by CLGP):

* candidate lines already present in the I-cache are **filtered** and never
  prefetched -- which hurts when the I-cache itself is slow,
* when the fetch unit uses a prefetch-buffer line, the line is **moved into
  the cache** (L1, or the L0 when one is configured) and the buffer entry
  becomes immediately replaceable,
* prefetches are served by the L2 (optionally by the L1 when it holds the
  line), arbitrating for the shared bus at the lowest priority.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..frontend.fetch_block import FetchBlock, FetchLineRequest
from ..memory.hierarchy import (
    SOURCE_L1,
    SOURCE_L2,
    SOURCE_MEMORY,
    SOURCE_PREBUFFER,
    MemoryHierarchy,
)
from .engine import FetchEngine, FetchEngineConfig
from .filtering import make_filter
from .ftq import FetchTargetQueue
from .prefetch_buffer import PrefetchBuffer


class FDPEngine(FetchEngine):
    """Fetch Directed Prefetching with Enqueue Cache Probe Filtering."""

    name = "FDP"
    has_prebuffer = True

    def __init__(
        self,
        config: FetchEngineConfig,
        hierarchy: MemoryHierarchy,
    ) -> None:
        super().__init__(config, hierarchy)
        self.ftq = FetchTargetQueue(config.queue_capacity_blocks)
        self.prefetch_buffer = PrefetchBuffer(
            entries=config.prebuffer_entries,
            latency=config.prebuffer_latency,
            pipelined=config.prebuffer_pipelined,
        )
        self.filter = make_filter(config.prefetch_filter)
        self.piq: Deque[int] = deque()
        self._piq_set: set = set()   # O(1) membership mirror of the PIQ
        self.piq_drops = 0
        if hierarchy.has_l0:
            self.name = "FDP+L0"

    # ------------------------------------------------------------------
    # queue management / prefetch candidate generation
    # ------------------------------------------------------------------
    def can_accept_block(self) -> bool:
        return self.ftq.has_space()

    def enqueue_block(self, block: FetchBlock, cycle: int) -> None:
        self.ftq.push(block)
        for line in block.lines():
            self._consider_prefetch_candidate(line)

    def _consider_prefetch_candidate(self, line_addr: int) -> None:
        """Apply FDP's enqueue-time checks to one candidate line."""
        if self.prefetch_buffer.contains(line_addr):
            # Already prefetched (or being prefetched): the request is
            # satisfied by the prefetch buffer itself.
            self.stats.prefetch_source[SOURCE_PREBUFFER] += 1
            return
        if not self.filter.should_prefetch(line_addr, self.hierarchy):
            # Enqueue Cache Probe Filtering: the line is already in the
            # I-cache (L1 or L0), so no prefetch is performed.
            self.stats.prefetch_source[SOURCE_L1] += 1
            return
        if line_addr in self._piq_set:
            return
        if len(self.piq) >= self.config.piq_entries:
            self.piq_drops += 1
            return
        self.piq.append(line_addr)
        self._piq_set.add(line_addr)

    def _pop_next_line(self) -> Optional[FetchLineRequest]:
        return self.ftq.pop_line()

    def _peek_next_line(self) -> Optional[FetchLineRequest]:
        return self.ftq.peek_line()

    # ------------------------------------------------------------------
    # prefetch issue
    # ------------------------------------------------------------------
    def prefetch_tick(self, cycle: int) -> None:
        issued = 0
        while self.piq and issued < self.config.prefetches_per_cycle:
            line = self.piq[0]
            if self.prefetch_buffer.contains(line):
                self.piq.popleft()
                self._piq_set.discard(line)
                self.stats.prefetch_source[SOURCE_PREBUFFER] += 1
                continue
            entry = self.prefetch_buffer.allocate(line)
            if entry is None:
                self.stats.prefetch_buffer_stalls += 1
                break
            self.piq.popleft()
            self._piq_set.discard(line)
            issued += 1
            self.stats.prefetches_issued += 1

            def _arrived(arrival_cycle: int, source: str, entry=entry) -> None:
                entry.mark_arrived(arrival_cycle, source)
                self.stats.prefetch_source[source] += 1
                self.stats.prefetches_completed += 1

            self.hierarchy.prefetch_access(
                line, cycle, _arrived, probe_l1=self.config.prefetch_probe_l1
            )

    def _prefetch_quiescent(self):
        """Event-driven loop support: ``prefetch_tick`` is a pure wait iff
        the PIQ is empty, or its head is blocked because every prefetch
        buffer entry is still in use (which records one stall per cycle).
        PIQ contents and buffer replaceability only change on fetch-stage /
        flush events, so the verdict holds for every skipped cycle."""
        if self.config.prefetches_per_cycle < 1:
            return 0
        if not self.piq:
            return 0
        line = self.piq[0]
        if self.prefetch_buffer.contains(line):
            return None   # the tick would pop the entry (state change)
        if self.prefetch_buffer.has_free_entry():
            return None   # the tick would allocate and issue
        return 1          # blocked: one prefetch_buffer_stalls per cycle

    # ------------------------------------------------------------------
    # fetch-stage hooks
    # ------------------------------------------------------------------
    def _prebuffer_entry(self, line_addr: int):
        return self.prefetch_buffer.get(line_addr)

    def _prebuffer_port_completion(self, start_cycle: int) -> int:
        return self.prefetch_buffer.port.completion_if_issued(start_cycle)

    def _issue_prebuffer_port(self, start_cycle: int) -> None:
        self.prefetch_buffer.port.issue(start_cycle)

    def _on_line_consumed(self, request, source, entry, cycle) -> None:
        line = request.line_addr
        if source == SOURCE_PREBUFFER and entry is not None:
            # FDP transfers the used line into the I-cache -- into the L0
            # when one is present ("on a prefetch buffer hit, the cache line
            # is moved to the L0 cache, not to the L1") -- and the
            # prefetch-buffer entry becomes available for new prefetches;
            # subsequent accesses to the same line hit in the I-cache.
            self.prefetch_buffer.mark_used(entry)
            self.prefetch_buffer.remove(entry)
            if self.hierarchy.has_l0:
                self.hierarchy.fill_l0(line)
            else:
                self.hierarchy.fill_l1(line)
        elif self.hierarchy.has_l0 and source in (SOURCE_L1, SOURCE_L2, SOURCE_MEMORY):
            # The L0 is a filter cache (Kin et al.): lines fetched from the
            # slower levels are installed in it, exactly as in the
            # baseline+L0 configuration.
            self.hierarchy.fill_l0(line)

    def _on_demand_fill(self, line_addr: int, source: str, cycle: int) -> None:
        self.hierarchy.fill_l1(line_addr)

    # ------------------------------------------------------------------
    def flush(self, cycle: int) -> None:
        """Branch misprediction: FTQ and prefetch-instruction queue are
        flushed; prefetch-buffer contents are retained (they stay useful
        until replaced)."""
        super().flush(cycle)
        self.ftq.flush()
        self.piq.clear()
        self._piq_set.clear()
