"""Cache Line Guided Prestaging (CLGP) -- the paper's contribution.

CLGP turns the prefetch buffer into the *primary* instruction supplier and
demotes the I-cache to an emergency role:

* the decoupling queue (CLTQ) holds individual **fetch cache lines**, each
  with a 'prefetched' bit;
* the CLGP algorithm walks the CLTQ: if a requested line is already in the
  prestage buffer its **consumers counter** is incremented (extending its
  lifetime) and no prefetch is issued; otherwise an entry with a zero
  consumers counter is allocated (LRU among the free ones) and a prefetch
  is launched -- **no filtering** against the I-cache is performed, because
  the whole point is to serve fetches from the one-cycle buffer even when
  the line is cached;
* when the fetch unit consumes a line from the prestage buffer the
  consumers counter is decremented; the line is **not** copied into the
  I-cache and the entry is only replaceable once its counter reaches zero;
* on a branch misprediction the CLTQ is flushed and all consumers counters
  reset; valid lines remain usable until overwritten;
* demand misses (mostly after mispredictions) fill the **emergency cache**:
  the L0 when present, otherwise the L1.

Ablation switches on :class:`~repro.core.engine.FetchEngineConfig` let the
benchmarks turn individual design decisions back into their FDP
counterparts (free-on-use replacement, copy-to-cache, filtering).
"""

from __future__ import annotations

from typing import Optional

from ..frontend.fetch_block import FetchBlock, FetchLineRequest
from ..memory.hierarchy import (
    SOURCE_L1,
    SOURCE_PREBUFFER,
    MemoryHierarchy,
)
from .cltq import CacheLineTargetQueue
from .engine import FetchEngine, FetchEngineConfig
from .filtering import EnqueueCacheProbeFilter
from .prestage_buffer import PrestageBuffer


class CLGPEngine(FetchEngine):
    """Cache Line Guided Prestaging fetch engine."""

    name = "CLGP"
    has_prebuffer = True

    def __init__(
        self,
        config: FetchEngineConfig,
        hierarchy: MemoryHierarchy,
    ) -> None:
        super().__init__(config, hierarchy)
        self.cltq = CacheLineTargetQueue(config.queue_capacity_blocks)
        self.prestage_buffer = PrestageBuffer(
            entries=config.prebuffer_entries,
            latency=config.prebuffer_latency,
            pipelined=config.prebuffer_pipelined,
        )
        # Only used by the 'clgp_use_filtering' ablation.
        self._ablation_filter = EnqueueCacheProbeFilter()
        if hierarchy.has_l0:
            self.name = "CLGP+L0"

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def can_accept_block(self) -> bool:
        return self.cltq.has_space()

    def enqueue_block(self, block: FetchBlock, cycle: int) -> None:
        self.cltq.push_block(block)

    def _pop_next_line(self) -> Optional[FetchLineRequest]:
        return self.cltq.pop_line()

    def _peek_next_line(self) -> Optional[FetchLineRequest]:
        return self.cltq.peek_line()

    # ------------------------------------------------------------------
    # the CLGP prestaging algorithm
    # ------------------------------------------------------------------
    def prefetch_tick(self, cycle: int) -> None:
        cltq = self.cltq
        if not cltq._unprefetched:
            return
        issued = 0
        examined = 0
        while examined < self.config.clgp_scan_per_cycle:
            request = cltq.next_unprefetched()
            if request is None:
                break
            examined += 1
            line = request.line_addr

            entry = self.prestage_buffer.get(line)
            if entry is not None:
                # Already present (or in flight): extend its lifetime.
                self.prestage_buffer.add_consumer(entry)
                cltq.mark_scanned(request)
                self.stats.prefetch_source[SOURCE_PREBUFFER] += 1
                continue

            if self.config.clgp_use_filtering and not self._ablation_filter.should_prefetch(
                line, self.hierarchy
            ):
                cltq.mark_scanned(request)
                self.stats.prefetch_source[SOURCE_L1] += 1
                continue

            if issued >= self.config.prefetches_per_cycle:
                break
            new_entry = self.prestage_buffer.allocate_for_prefetch(line)
            if new_entry is None:
                # Every entry still has outstanding consumers: retry later.
                self.stats.prefetch_buffer_stalls += 1
                break
            cltq.mark_scanned(request)
            issued += 1
            self.stats.prefetches_issued += 1

            def _arrived(arrival_cycle: int, source: str, entry=new_entry) -> None:
                entry.mark_arrived(arrival_cycle, source)
                self.stats.prefetch_source[source] += 1
                self.stats.prefetches_completed += 1

            self.hierarchy.prefetch_access(
                line, cycle, _arrived, probe_l1=self.config.prefetch_probe_l1
            )

    def _prefetch_quiescent(self):
        """Event-driven loop support: the prestaging scan is a pure wait iff
        every CLTQ entry already has its prefetched bit set, or the first
        unprefetched entry needs an allocation that cannot succeed because
        every prestage entry still has outstanding consumers (one stall per
        cycle).  CLTQ contents and consumers counters only change on
        fetch/flush events, so the verdict holds for every skipped cycle."""
        if self.config.clgp_scan_per_cycle < 1:
            return 0   # the scan loop never runs
        # The verdict only depends on the first entry the next scan would
        # examine; peek_unprefetched shares next_unprefetched's staleness
        # rule but has no side effects.
        request = self.cltq.peek_unprefetched()
        if request is None:
            return 0
        if self.config.clgp_use_filtering:
            return None   # the scan would at least update filter state
        if self.prestage_buffer.get(request.line_addr) is not None:
            return None   # the scan would add a consumer
        if self.config.prefetches_per_cycle < 1:
            return 0      # the scan breaks right before allocating
        if self.prestage_buffer.has_free_entry():
            return None   # the scan would allocate and issue
        return 1          # blocked: one prefetch_buffer_stalls per cycle

    # ------------------------------------------------------------------
    # fetch-stage hooks
    # ------------------------------------------------------------------
    def _prebuffer_entry(self, line_addr: int):
        return self.prestage_buffer.get(line_addr)

    def _prebuffer_port_completion(self, start_cycle: int) -> int:
        return self.prestage_buffer.port.completion_if_issued(start_cycle)

    def _issue_prebuffer_port(self, start_cycle: int) -> None:
        self.prestage_buffer.port.issue(start_cycle)

    def _on_line_consumed(self, request, source, entry, cycle) -> None:
        line = request.line_addr
        if source == SOURCE_PREBUFFER and entry is not None:
            if self.config.clgp_free_on_use:
                # Ablation: behave like FDP's replacement (free on first use).
                entry.consumers = 0
                entry.available = True
                self.prestage_buffer.touch(entry)
            elif request.prefetched:
                self.prestage_buffer.consume(entry)
            else:
                # The fetch stage raced ahead of the prestaging scan; no
                # consumer was ever registered for this CLTQ entry.
                self.prestage_buffer.touch(entry)
            if self.config.clgp_copy_to_cache:
                # Ablation: copy the used line back into the cache hierarchy.
                if self.hierarchy.has_l0:
                    self.hierarchy.fill_l0(line)
                else:
                    self.hierarchy.fill_l1(line)
        # Lines served by L0/L1 are left where they are: CLGP never
        # replicates cache contents into other levels.

    def _on_demand_fill(self, line_addr: int, source: str, cycle: int) -> None:
        # The cache hierarchy finally provides the line (typically after a
        # misprediction); it is stored in the lower I-cache level, which acts
        # as the emergency cache (the L0 additionally captures it when
        # present).
        self.hierarchy.fill_l1(line_addr)
        if self.hierarchy.has_l0:
            self.hierarchy.fill_l0(line_addr)

    # ------------------------------------------------------------------
    def flush(self, cycle: int) -> None:
        """Branch misprediction: flush the CLTQ and reset every consumers
        counter; valid prestage lines remain usable until overwritten."""
        super().flush(cycle)
        self.cltq.flush()
        self.prestage_buffer.reset_consumers()
