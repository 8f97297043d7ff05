"""Fetch-engine base class: the fetch stage shared by every configuration.

A fetch engine owns

* the decoupling queue (FTQ at fetch-block granularity, or CLTQ at
  cache-line granularity),
* the pre-buffer (prefetch buffer for FDP, prestage buffer for CLGP,
  nothing for the baselines),
* the fetch stage proper: for each queued cache line it probes, *in
  parallel*, the pre-buffer, the L0 cache (when present) and the L1
  I-cache, picks whichever source can return the line first, and delivers
  up to ``fetch_width`` instructions per cycle to the back-end.  Lines
  absent everywhere become demand requests to L2/memory over the shared
  bus.

Subclasses plug in the queue type, the prefetch algorithm
(:meth:`prefetch_tick`), what happens when a line is consumed
(:meth:`_on_line_consumed` -- e.g. FDP promotes pre-buffer lines into the
cache, CLGP decrements the consumers counter), where demand misses fill
(:meth:`_on_demand_fill`), and what a branch-misprediction flush does
(:meth:`flush`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, Optional

from ..frontend.fetch_block import FetchBlock, FetchLineRequest
from ..memory.hierarchy import (
    SOURCE_L0,
    SOURCE_L1,
    SOURCE_PREBUFFER,
    FETCH_SOURCES,
    MemoryHierarchy,
)
from .prefetch_buffer import PreBufferEntry


@dataclass
class FetchEngineConfig:
    """Structural knobs of the front-end (engine-agnostic subset).

    Attributes largely mirror the paper's Table 2 plus the per-technology
    pre-buffer sizing of Section 5.
    """

    fetch_width: int = 4                 #: instructions delivered per cycle
    queue_capacity_blocks: int = 8       #: FTQ/CLTQ capacity in fetch blocks
    fetch_lookahead: int = 2             #: outstanding line accesses
    prebuffer_entries: int = 4           #: pre-buffer entries (lines)
    prebuffer_latency: int = 1           #: pre-buffer access latency (cycles)
    prebuffer_pipelined: bool = False    #: pipelined pre-buffer (PB:16 configs)
    prefetches_per_cycle: int = 1        #: new prefetches issued per cycle
    prefetch_probe_l1: bool = True       #: prefetches may be served by L1
    #: FDP: prefetch filtering policy ('enqueue-cache-probe' or 'none')
    prefetch_filter: str = "enqueue-cache-probe"
    piq_entries: int = 16                #: FDP prefetch-instruction-queue size
    #: CLGP: CLTQ entries examined per cycle by the prestaging algorithm
    clgp_scan_per_cycle: int = 4
    # --- ablation switches: each reverts one CLGP design choice to its
    # --- FDP counterpart (see repro.core.clgp) ---
    clgp_free_on_use: bool = False       #: replace prestage entries on first use
    clgp_copy_to_cache: bool = False     #: copy consumed lines into the cache
    clgp_use_filtering: bool = False     #: apply enqueue filtering to CLGP


@dataclass
class FetchStats:
    """Counters kept by the fetch engine."""

    lines_fetched: int = 0
    wrong_path_instructions: int = 0
    fetch_source_lines: Dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in FETCH_SOURCES}
    )
    fetch_source_instructions: Dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in FETCH_SOURCES}
    )
    prefetch_source: Dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in FETCH_SOURCES}
    )
    prefetches_issued: int = 0
    prefetch_buffer_stalls: int = 0      #: prefetches delayed: no free entry
    flushes: int = 0
    #: Cycles in which the fetch stage delivered nothing, keyed by cause:
    #: 'empty' (no pending line request), 'PB-wait' (waiting for an
    #: in-flight prefetch), 'backend-full' (RUU back-pressure) or the
    #: source whose access latency the stage was waiting out.
    stall_cycles: Dict[str, int] = field(default_factory=dict)

    def record_stall(self, cause: str) -> None:
        self.stall_cycles[cause] = self.stall_cycles.get(cause, 0) + 1


@dataclass(slots=True)
class _InflightLine:
    """A line access in progress in the fetch stage."""

    request: FetchLineRequest
    ready_cycle: Optional[int] = None
    source: Optional[str] = None
    pb_entry: Optional[PreBufferEntry] = None
    waiting_on_prebuffer: bool = False
    delivered: int = 0


class FetchEngine:
    """Base class for all fetch engines (baseline, FDP, CLGP)."""

    #: Human-readable configuration name, set by subclasses.
    name = "base"
    #: Whether the engine owns a pre-buffer (used by reports).
    has_prebuffer = False

    def __init__(
        self,
        config: FetchEngineConfig,
        hierarchy: MemoryHierarchy,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.stats = FetchStats()
        self._inflight: Deque[_InflightLine] = deque()

    # ==================================================================
    # interface towards the prediction unit (queue management)
    # ==================================================================
    def can_accept_block(self) -> bool:
        raise NotImplementedError

    def enqueue_block(self, block: FetchBlock, cycle: int) -> None:
        raise NotImplementedError

    def _pop_next_line(self) -> Optional[FetchLineRequest]:
        """Next cache-line request from the decoupling queue."""
        raise NotImplementedError

    def _peek_next_line(self) -> Optional[FetchLineRequest]:
        """Next cache-line request without consuming it."""
        raise NotImplementedError

    # ==================================================================
    # engine-specific hooks
    # ==================================================================
    def _prebuffer_entry(self, line_addr: int) -> Optional[PreBufferEntry]:
        """Entry of the pre-buffer holding ``line_addr`` (None: no buffer)."""
        return None

    def _on_line_consumed(
        self, request: FetchLineRequest, source: str,
        entry: Optional[PreBufferEntry], cycle: int,
    ) -> None:
        """Called when the last instruction of a line has been delivered."""

    def _on_demand_fill(self, line_addr: int, source: str, cycle: int) -> None:
        """Called when a demand miss returns from L2/memory.  The default
        fills the L1 I-cache (conventional behaviour)."""
        self.hierarchy.fill_l1(line_addr)

    def prefetch_tick(self, cycle: int) -> None:
        """Issue prefetches for this cycle (no-op for the baselines)."""

    def _prefetch_quiescent(self) -> Optional[int]:
        """Whether :meth:`prefetch_tick` is provably a pure wait right now.

        Used by the simulator's event-driven loop.  Returns ``None`` when
        the next ``prefetch_tick`` could change machine state (so cycles
        must not be skipped); otherwise the number of
        ``prefetch_buffer_stalls`` the tick would record (0 or 1), which the
        loop replays for every skipped cycle.  Engines without a prefetcher
        are always quiescent.
        """
        return 0

    def flush(self, cycle: int) -> None:
        """Branch misprediction: discard queued fetch requests.

        Subclasses extend this (e.g. CLGP resets consumers counters).  The
        in-flight line accesses of the fetch stage are abandoned because
        they belong to the wrong path.
        """
        self.stats.flushes += 1
        self._inflight.clear()

    # ==================================================================
    # the fetch stage
    # ==================================================================
    def fetch_tick(self, cycle: int, backend) -> int:
        """Run the fetch stage for one cycle.

        Returns the number of instructions delivered to the back-end.
        """
        # 1. keep the line-access pipeline full (models fetch run-ahead /
        #    pipelined cache accesses).  A line that is nowhere on the fast
        #    path (a demand miss that must go to L2/memory) is only started
        #    once it reaches the head: the fetch unit has a single
        #    outstanding demand miss, so only the prefetcher can overlap
        #    long-latency instruction fetches.
        inflight = self._inflight
        lookahead = self.config.fetch_lookahead
        while len(inflight) < lookahead:
            upcoming = self._peek_next_line()
            if upcoming is None:
                break
            if inflight and not self._line_on_fast_path(upcoming.line_addr):
                break
            request = self._pop_next_line()
            inflight.append(self._start_line_access(request, cycle))

        if not inflight:
            self.stats.record_stall("empty")
            return 0

        # 2. resolve "waiting on an in-flight prefetch" heads.
        head = inflight[0]
        ready = head.ready_cycle
        if ready is None and head.waiting_on_prebuffer:
            self._poll_prebuffer_wait(head, cycle)
            ready = head.ready_cycle

        # 3. deliver instructions from the head line.
        if ready is None or cycle < ready:
            if head.waiting_on_prebuffer or (
                ready is None and head.pb_entry is not None
            ):
                self.stats.record_stall("PB-wait")
            else:
                self.stats.record_stall(head.source or "demand")
            return 0
        delivered = self._deliver(head, cycle, backend)
        if delivered == 0:
            self.stats.record_stall("backend-full")
        return delivered

    def _line_on_fast_path(self, line_addr: int) -> bool:
        """True when the line can be obtained without a demand request to
        L2/memory: present (or in flight) in the pre-buffer, in the L0, or
        in the L1."""
        if self._prebuffer_entry(line_addr) is not None:
            return True
        hierarchy = self.hierarchy
        if hierarchy.l0 is not None and hierarchy.l0.contains(line_addr):
            return True
        return hierarchy.l1.contains(line_addr)

    # ------------------------------------------------------------------
    def _start_line_access(self, request: FetchLineRequest, cycle: int) -> _InflightLine:
        line = request.line_addr
        infl = _InflightLine(request)
        hierarchy = self.hierarchy

        # Probe the sources in order of closeness and keep the first that
        # returns the line soonest: on a tie the closest structure wins.
        ready = None
        source = None
        pb_entry = self._prebuffer_entry(line)
        if pb_entry is not None and pb_entry.valid:
            start = max(cycle, pb_entry.ready_cycle or cycle)
            ready = self._prebuffer_port_completion(start)
            source = SOURCE_PREBUFFER
        l0 = hierarchy.l0
        if l0 is not None and l0.contains(line):
            completion = hierarchy.l0_port.completion_if_issued(cycle)
            if ready is None or completion < ready:
                ready, source = completion, SOURCE_L0
        if hierarchy.l1.contains(line):
            completion = hierarchy.l1_port.completion_if_issued(cycle)
            if ready is None or completion < ready:
                ready, source = completion, SOURCE_L1

        if source is not None:
            infl.ready_cycle = ready
            infl.source = source
            if source == SOURCE_PREBUFFER:
                infl.pb_entry = pb_entry
                self._issue_prebuffer_port(max(cycle, pb_entry.ready_cycle or cycle))
            elif source == SOURCE_L0:
                hierarchy.l0.lookup(line)
                hierarchy.l0_port.issue(cycle)
            else:
                hierarchy.l1.lookup(line)
                hierarchy.l1_port.issue(cycle)
            return infl

        if pb_entry is not None:
            # The line is being prefetched: wait for it rather than issuing
            # a duplicate request (this is how prefetching hides partial
            # latency even when it is not fully timely).
            infl.pb_entry = pb_entry
            infl.waiting_on_prebuffer = True
            return infl

        # Demand miss: nothing on the fast path has the line.
        hierarchy.l1.lookup(line)  # counts the miss in the L1 statistics
        hierarchy.demand_instruction_access(
            line, partial(self._demand_arrived, infl))
        return infl

    # -- bus completions (bound methods: a snapshot copies them) ----------
    def _demand_arrived(self, infl: _InflightLine, arrival_cycle: int,
                        source: str) -> None:
        """A demand miss's line arrives from L2/memory."""
        infl.ready_cycle = arrival_cycle
        infl.source = source
        self._on_demand_fill(infl.request.line_addr, source, arrival_cycle)

    def _prefetch_arrived(self, entry: PreBufferEntry, arrival_cycle: int,
                          source: str) -> None:
        """A prefetched line arrives in its pre-buffer ``entry``."""
        entry.mark_arrived(arrival_cycle, source)
        self.stats.prefetch_source[source] += 1

    # -- pre-buffer port helpers (subclasses with a buffer override) -------
    def _prebuffer_port_completion(self, start_cycle: int) -> int:
        raise NotImplementedError

    def _issue_prebuffer_port(self, start_cycle: int) -> None:
        raise NotImplementedError

    def _poll_prebuffer_wait(self, infl: _InflightLine, cycle: int) -> None:
        entry = infl.pb_entry
        if entry is None:
            infl.waiting_on_prebuffer = False
            return
        if entry.valid:
            start = max(cycle, entry.ready_cycle or cycle)
            infl.ready_cycle = self._prebuffer_port_completion(start)
            self._issue_prebuffer_port(start)
            infl.source = SOURCE_PREBUFFER
            infl.waiting_on_prebuffer = False
            return
        # The entry may have been replaced while we were waiting (e.g. the
        # consumers counters were reset by a misprediction and the entry was
        # reallocated).  Escalate to a demand request so fetch cannot hang.
        current = self._prebuffer_entry(infl.request.line_addr)
        if current is not entry:
            infl.waiting_on_prebuffer = False
            infl.pb_entry = None
            line = infl.request.line_addr
            self.hierarchy.l1.lookup(line)
            self.hierarchy.demand_instruction_access(
                line, partial(self._demand_arrived, infl))

    # ------------------------------------------------------------------
    def _deliver(self, infl: _InflightLine, cycle: int, backend) -> int:
        """Hand the back-end this cycle's run of the head line: up to
        ``fetch_width`` instructions, bounded by its free RUU slots."""
        request = infl.request
        source = infl.source
        stats = self.stats
        delivered = infl.delivered
        if delivered == 0:
            # First delivery cycle of this line: account the line fetch.
            # A full RUU repeats this every blocked cycle, and the event
            # loop's fast-forward replays exactly that.
            stats.lines_fetched += 1
            stats.fetch_source_lines[source] += 1
        num_instructions = request.num_instructions
        count = num_instructions - delivered
        if count > self.config.fetch_width:
            count = self.config.fetch_width
        free = backend.free_slots()
        if count > free:
            count = free
        if count <= 0:
            return 0
        stats.wrong_path_instructions += backend.dispatch_run(
            request.block, request.first_instr_index + delivered, count,
            cycle)
        stats.fetch_source_instructions[source] += count

        delivered += count
        infl.delivered = delivered
        if delivered >= num_instructions:
            self._on_line_consumed(request, source, infl.pb_entry, cycle)
            self._inflight.popleft()
        return count
