"""Instruction-side memory hierarchy: L0 / L1-I / unified L2 / memory + bus.

Responsibilities:

* own the cache content models (:class:`~repro.memory.cache.Cache`) and
  their port timing (:class:`~repro.memory.port.AccessPort`),
* own the shared L2 bus and its arbitration,
* provide the *demand* path (instruction fetch misses), the *prefetch*
  path, and the *data* path (loads that miss the L1 D-cache) used by the
  back-end model,
* expose latencies from the CACTI-like model so fetch engines can decide
  which of the parallel probe sources returns data first.

Fill policy is deliberately **not** decided here: FDP promotes used
prefetch-buffer lines into the I-cache while CLGP does not, and each
engine decides which levels a demand miss fills -- those choices belong
to the fetch engines, which call :meth:`fill_l1` / :meth:`fill_l0`
explicitly.

A request that goes over the bus is queued as a :func:`functools.partial`
of one of this class's grant methods, and the requester's ``on_complete``
is itself a partial over a bound method of the machine's objects (see
:meth:`L2Bus.submit <repro.memory.bus.L2Bus.submit>`), so a snapshot of
the machine copies its in-flight requests too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .bus import BusPriority, L2Bus
from .cache import Cache
from .latency import MEMORY_LATENCY_CYCLES, CactiLikeModel
from .port import AccessPort
from ..technology import TechnologyNode, resolve_technology

#: Canonical names for instruction fetch / prefetch sources, matching the
#: labels in the paper's Figures 7 and 8.
SOURCE_PREBUFFER = "PB"
SOURCE_L0 = "il0"
SOURCE_L1 = "il1"
SOURCE_L2 = "ul2"
SOURCE_MEMORY = "Mem"

FETCH_SOURCES = (SOURCE_PREBUFFER, SOURCE_L0, SOURCE_L1, SOURCE_L2, SOURCE_MEMORY)


@dataclass
class HierarchyConfig:
    """Structural parameters of the instruction-side hierarchy.

    Defaults follow the paper's Table 2.
    """

    technology: object = "0.09um"
    l1_size_bytes: int = 4096
    l1_associativity: int = 2
    l1_line_size: int = 64
    l1_pipelined: bool = False
    l0_size_bytes: Optional[int] = None     #: None = no L0 cache
    l0_line_size: int = 64
    l2_size_bytes: int = 1 << 20
    l2_associativity: int = 2
    l2_line_size: int = 128
    memory_latency: int = MEMORY_LATENCY_CYCLES
    #: Force the L1 hit latency (e.g. the "ideal" configuration of Figure 1
    #: uses 1 cycle regardless of size).  ``None`` = use the CACTI model.
    l1_latency_override: Optional[int] = None


class MemoryHierarchy:
    """Instruction-path memory system shared by all fetch engines."""

    def __init__(self, config: HierarchyConfig):
        self.config = config
        self.technology: TechnologyNode = resolve_technology(config.technology)
        self.latency_model = CactiLikeModel(self.technology)

        self.l1_latency = (
            config.l1_latency_override
            if config.l1_latency_override is not None
            else self.latency_model.access_latency_cycles(config.l1_size_bytes)
        )
        self.l2_latency = self.latency_model.access_latency_cycles(
            config.l2_size_bytes)
        self.l0_latency = 1
        self.memory_latency = config.memory_latency

        self.l1 = Cache(
            "il1", config.l1_size_bytes, config.l1_line_size,
            config.l1_associativity,
        )
        self.l1_port = AccessPort(self.l1_latency, pipelined=config.l1_pipelined)
        self.l0: Optional[Cache] = None
        self.l0_port: Optional[AccessPort] = None
        if config.l0_size_bytes:
            self.l0 = Cache(
                "il0", config.l0_size_bytes, config.l0_line_size,
                associativity=None,  # fully associative
            )
            self.l0_port = AccessPort(self.l0_latency, pipelined=False)
        self.l2 = Cache(
            "ul2", config.l2_size_bytes, config.l2_line_size,
            config.l2_associativity,
        )
        self.bus = L2Bus()

        # Simple counters for the instruction/prefetch traffic beyond L1.
        self.demand_l2_hits = 0
        self.demand_memory_accesses = 0
        self.prefetch_l2_hits = 0
        self.prefetch_memory_accesses = 0

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    @property
    def line_size(self) -> int:
        return self.config.l1_line_size

    def line_address(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    @property
    def has_l0(self) -> bool:
        return self.l0 is not None

    # ------------------------------------------------------------------
    # fill helpers (fill policy decided by the fetch engines)
    # ------------------------------------------------------------------
    def fill_l1(self, line_addr: int) -> Optional[int]:
        return self.l1.fill(line_addr)

    def fill_l0(self, line_addr: int) -> Optional[int]:
        if self.l0 is None:
            raise RuntimeError("no L0 cache configured")
        return self.l0.fill(line_addr)

    # ------------------------------------------------------------------
    # demand path (instruction fetch miss in PB/L0/L1)
    # ------------------------------------------------------------------
    def demand_instruction_access(
        self,
        line_addr: int,
        cycle: int,
        on_complete: Callable[[int, str], None],
    ) -> None:
        """Fetch ``line_addr`` from L2/memory for a demand miss.

        ``on_complete(arrival_cycle, source)`` fires when the bus grants the
        request, with ``source`` one of ``'ul2'`` / ``'Mem'``.  The returned
        line fills the L2 on a memory access; filling L0/L1 is the caller's
        decision.
        """
        self.bus.submit(BusPriority.INSTRUCTION_DEMAND, cycle,
                        partial(self._line_granted, line_addr, on_complete,
                                True))

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------
    def prefetch_access(
        self,
        line_addr: int,
        cycle: int,
        on_complete: Callable[[int, str], None],
        probe_l1: bool = True,
    ) -> None:
        """Bring ``line_addr`` towards the pre-buffer for a prefetch.

        If ``probe_l1`` and the line is resident in L1, the prefetch is
        satisfied locally (no bus traffic) after the L1 access latency.
        Otherwise the request arbitrates for the L2 bus at the lowest
        priority and is served by L2 or memory.
        """
        if probe_l1 and self.l1.contains(line_addr):
            on_complete(cycle + self.l1_latency, SOURCE_L1)
            return
        self.bus.submit(BusPriority.PREFETCH, cycle,
                        partial(self._line_granted, line_addr, on_complete,
                                False))

    def _line_granted(
        self,
        line_addr: int,
        on_complete: Callable[[int, str], None],
        demand: bool,
        grant_cycle: int,
    ) -> None:
        """The bus granted an instruction line, for a demand miss
        (``demand``) or a prefetch: L2 serves it, or memory does and the
        line fills the L2."""
        if self.l2.lookup(line_addr):
            if demand:
                self.demand_l2_hits += 1
            else:
                self.prefetch_l2_hits += 1
            on_complete(grant_cycle + self.l2_latency, SOURCE_L2)
        else:
            if demand:
                self.demand_memory_accesses += 1
            else:
                self.prefetch_memory_accesses += 1
            self.l2.fill(line_addr)
            on_complete(grant_cycle + self.l2_latency + self.memory_latency,
                        SOURCE_MEMORY)

    # ------------------------------------------------------------------
    # data path (used by the back-end model for L1-D misses)
    # ------------------------------------------------------------------
    def demand_data_access(
        self,
        cycle: int,
        misses_l2: bool,
        on_complete: Callable[[int, str], None],
    ) -> None:
        """A load that missed the L1 data cache contends for the bus with
        the highest priority; ``misses_l2`` selects L2 vs memory service."""
        self.bus.submit(BusPriority.DATA_DEMAND, cycle,
                        partial(self._data_granted, misses_l2, on_complete))

    def _data_granted(
        self,
        misses_l2: bool,
        on_complete: Callable[[int, str], None],
        grant_cycle: int,
    ) -> None:
        """The bus granted a data miss: L2 serves it, or memory does when
        it also ``misses_l2``."""
        if misses_l2:
            on_complete(grant_cycle + self.l2_latency + self.memory_latency,
                        SOURCE_MEMORY)
        else:
            on_complete(grant_cycle + self.l2_latency, SOURCE_L2)

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Advance the bus by one cycle (grants at most one request)."""
        self.bus.tick(cycle)
