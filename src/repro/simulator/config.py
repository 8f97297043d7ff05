"""Simulation configuration (paper Table 2 plus per-experiment knobs).

:class:`SimulationConfig` is the single object users construct to describe
one simulated machine: which fetch engine, which technology node, cache
sizes, pre-buffer organisation, back-end parameters and run length.  It
knows how to derive the structure-level configuration objects used by the
memory hierarchy and the fetch engine, resolving the technology-dependent
defaults the paper uses (pre-buffer and L0 sized to the largest one-cycle
structure; pipelined pre-buffers sized at 16 entries with CACTI-derived
stage counts).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..core.engine import FetchEngineConfig
from ..memory.hierarchy import HierarchyConfig
from ..memory.latency import (
    MEMORY_LATENCY_CYCLES,
    CactiLikeModel,
    one_cycle_prebuffer_entries,
    pipelined_prebuffer_stages,
)
from ..technology import resolve_technology

#: Engines selectable by name.
ENGINE_NAMES = ("baseline", "fdp", "clgp", "next-line", "target-line")

#: Pipelined pre-buffer entry count used by the paper's "PB:16" configs.
PIPELINED_PREBUFFER_ENTRIES = 16


@dataclass
class SimulationConfig:
    """Complete description of one simulated configuration."""

    # -- engine selection -------------------------------------------------
    engine: str = "baseline"
    label: Optional[str] = None

    # -- technology and caches ---------------------------------------------
    technology: object = "0.09um"
    l1_size_bytes: int = 4096
    l1_associativity: int = 2
    line_size: int = 64
    l1_pipelined: bool = False
    ideal_l1: bool = False                 #: force 1-cycle L1 (Figure 1 "ideal")
    l0_enabled: bool = False
    l0_size_bytes: Optional[int] = None    #: None: largest one-cycle capacity
    l2_size_bytes: int = 1 << 20
    l2_associativity: int = 2
    l2_line_size: int = 128
    memory_latency: int = MEMORY_LATENCY_CYCLES

    # -- front end ------------------------------------------------------------
    fetch_width: int = 4
    queue_capacity_blocks: int = 8
    #: Maximum line accesses the fetch stage keeps outstanding.  Two models
    #: a conventional fetch unit (current line being delivered plus the next
    #: access started); pipelined structures raise it automatically so their
    #: single-cycle initiation interval can actually be exploited.
    fetch_lookahead: int = 2
    prebuffer_entries: Optional[int] = None  #: None: one-cycle capacity / line
    prebuffer_pipelined: bool = False        #: the "PB:16" configurations
    prefetches_per_cycle: int = 1
    prefetch_probe_l1: bool = True
    prefetch_filter: str = "enqueue-cache-probe"
    piq_entries: int = 16
    clgp_scan_per_cycle: int = 4
    next_line_degree: int = 2
    # CLGP ablation switches
    clgp_free_on_use: bool = False
    clgp_copy_to_cache: bool = False
    clgp_use_filtering: bool = False

    # -- branch prediction ------------------------------------------------------
    ras_entries: int = 8
    stream_predictor_base_entries: int = 1024
    stream_predictor_history_entries: int = 6144
    max_stream_instructions: int = 64

    # -- back end ----------------------------------------------------------------
    commit_width: int = 4
    ruu_size: int = 64
    pipeline_depth: int = 15
    branch_resolution_latency: int = 8
    mlp_factor: float = 4.0

    # -- run control ----------------------------------------------------------------
    max_instructions: int = 20_000
    max_cycles: Optional[int] = None
    #: Correct-path instructions used to functionally warm the stream
    #: predictor and the instruction caches before timing begins (the paper
    #: measures warmed 300M-instruction slices).  ``None`` selects an
    #: automatic budget; 0 disables warming.
    warmup_instructions: Optional[int] = None

    # ------------------------------------------------------------------
    # validation and derived values
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_NAMES}"
            )
        if self.max_instructions < 1:
            raise ValueError("max_instructions must be positive")

    @property
    def technology_node(self):
        return resolve_technology(self.technology)

    def latency_model(self) -> CactiLikeModel:
        return CactiLikeModel(self.technology_node)

    def resolved_l0_size(self) -> Optional[int]:
        """L0 capacity in bytes (None when the config has no L0)."""
        if not self.l0_enabled:
            return None
        if self.l0_size_bytes is not None:
            return self.l0_size_bytes
        return self.latency_model().one_cycle_capacity_bytes(self.line_size)

    def resolved_prebuffer_entries(self) -> int:
        """Pre-buffer entry count after applying the paper's sizing rules."""
        if self.prebuffer_pipelined:
            return (
                self.prebuffer_entries
                if self.prebuffer_entries is not None
                else PIPELINED_PREBUFFER_ENTRIES
            )
        if self.prebuffer_entries is not None:
            return self.prebuffer_entries
        return one_cycle_prebuffer_entries(self.technology_node, self.line_size)

    def resolved_prebuffer_latency(self) -> int:
        """Pre-buffer access latency (1 cycle, or the pipelined stage count)."""
        if not self.prebuffer_pipelined:
            return 1
        return pipelined_prebuffer_stages(
            self.technology_node,
            entries=self.resolved_prebuffer_entries(),
            line_size=self.line_size,
        )

    def resolved_l1_latency(self) -> int:
        if self.ideal_l1:
            return 1
        return self.latency_model().access_latency_cycles(self.l1_size_bytes)

    def resolved_warmup_instructions(self) -> int:
        """Functional warm-up budget (see ``warmup_instructions``)."""
        if self.warmup_instructions is not None:
            return max(0, self.warmup_instructions)
        return min(200_000, max(80_000, 5 * self.max_instructions))

    # ------------------------------------------------------------------
    # structure-level configuration objects
    # ------------------------------------------------------------------
    def hierarchy_config(self) -> HierarchyConfig:
        return HierarchyConfig(
            technology=self.technology,
            l1_size_bytes=self.l1_size_bytes,
            l1_associativity=self.l1_associativity,
            l1_line_size=self.line_size,
            l1_pipelined=self.l1_pipelined,
            l0_size_bytes=self.resolved_l0_size(),
            l0_line_size=self.line_size,
            l2_size_bytes=self.l2_size_bytes,
            l2_associativity=self.l2_associativity,
            l2_line_size=self.l2_line_size,
            memory_latency=self.memory_latency,
            l1_latency_override=1 if self.ideal_l1 else None,
        )

    def engine_config(self) -> FetchEngineConfig:
        # Pipelined structures only reach single-cycle throughput when the
        # fetch stage keeps at least latency+1 line accesses in flight; a
        # blocking structure gains nothing from extra outstanding accesses.
        lookahead = self.fetch_lookahead
        if self.prebuffer_pipelined:
            lookahead = max(lookahead, self.resolved_prebuffer_latency() + 1)
        if self.l1_pipelined:
            lookahead = max(lookahead, self.resolved_l1_latency() + 1)
        return FetchEngineConfig(
            fetch_width=self.fetch_width,
            queue_capacity_blocks=self.queue_capacity_blocks,
            fetch_lookahead=lookahead,
            prebuffer_entries=self.resolved_prebuffer_entries(),
            prebuffer_latency=self.resolved_prebuffer_latency(),
            prebuffer_pipelined=self.prebuffer_pipelined,
            prefetches_per_cycle=self.prefetches_per_cycle,
            prefetch_probe_l1=self.prefetch_probe_l1,
            prefetch_filter=self.prefetch_filter,
            piq_entries=self.piq_entries,
            clgp_scan_per_cycle=self.clgp_scan_per_cycle,
            clgp_free_on_use=self.clgp_free_on_use,
            clgp_copy_to_cache=self.clgp_copy_to_cache,
            clgp_use_filtering=self.clgp_use_filtering,
        )

    # ------------------------------------------------------------------
    def derived_label(self) -> str:
        """Human-readable configuration name in the paper's style."""
        if self.label:
            return self.label
        parts = []
        if self.engine == "baseline":
            parts.append("base")
            if self.ideal_l1:
                parts[-1] = "ideal"
            elif self.l1_pipelined:
                parts.append("pipelined")
        elif self.engine == "fdp":
            parts.append("FDP")
        elif self.engine == "clgp":
            parts.append("CLGP")
        else:
            parts.append(self.engine)
        if self.l0_enabled and not self.ideal_l1:
            parts.append("+ L0")
        if self.prebuffer_pipelined and self.engine in ("fdp", "clgp"):
            parts.append(f"+ PB:{self.resolved_prebuffer_entries()}")
        return " ".join(parts)

    def with_overrides(self, **overrides) -> "SimulationConfig":
        """Copy of this configuration with selected fields replaced."""
        return replace(self, **overrides)

    def total_fast_budget_bytes(self) -> int:
        """Total 'fast storage' budget: L1 + L0 + pre-buffer (for the
        hardware-budget comparison in Section 5.1)."""
        budget = self.l1_size_bytes
        l0 = self.resolved_l0_size()
        if l0:
            budget += l0
        if self.engine in ("fdp", "clgp", "next-line", "target-line"):
            budget += self.resolved_prebuffer_entries() * self.line_size
        return budget
