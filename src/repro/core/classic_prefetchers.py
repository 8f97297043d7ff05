"""Classic instruction prefetchers from the paper's related-work section.

These are not part of the paper's main evaluation (FDP is used as the
strongest prior scheme), but they are useful as extra baselines and for the
extension benchmarks:

* **Next-N-line prefetching** (Smith): whenever a line is fetched, the next
  ``N`` sequential lines are prefetched.
* **Target-line prefetching** (Smith & Hsu): a target table remembers the
  successor line of each fetched line, so prefetches can follow taken
  branches; combined here with next-line prefetching, as in the original
  proposal.

Both reuse FDP's prefetch buffer and prefetch-instruction-queue machinery;
they differ only in how prefetch candidates are generated (from the fetched
lines themselves rather than from the decoupled FTQ contents).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..memory.hierarchy import MemoryHierarchy
from .engine import FetchEngineConfig
from .fdp import FDPEngine
from ..frontend.fetch_block import FetchBlock


class NextNLineEngine(FDPEngine):
    """Sequential next-N-line prefetching into a prefetch buffer."""

    name = "next-N-line"

    def __init__(
        self,
        config: FetchEngineConfig,
        hierarchy: MemoryHierarchy,
        degree: int = 2,
    ) -> None:
        super().__init__(config, hierarchy)
        if degree < 1:
            raise ValueError("prefetch degree must be >= 1")
        self.degree = degree
        self.name = f"next-{degree}-line"
        if hierarchy.has_l0:
            self.name += "+L0"

    # Candidates come from fetched lines, not from FTQ insertion.
    def enqueue_block(self, block: FetchBlock, cycle: int) -> None:
        self.ftq.push(block)

    def _generate_candidates(self, line_addr: int) -> None:
        for i in range(1, self.degree + 1):
            self._consider_prefetch_candidate(
                line_addr + i * self.hierarchy.line_size
            )

    def _on_line_consumed(self, request, source, entry, cycle) -> None:
        super()._on_line_consumed(request, source, entry, cycle)
        self._generate_candidates(request.line_addr)


class TargetLineEngine(NextNLineEngine):
    """Next-N-line plus target-line prefetching via a successor table."""

    name = "target-line"

    def __init__(
        self,
        config: FetchEngineConfig,
        hierarchy: MemoryHierarchy,
        degree: int = 1,
        table_entries: int = 1024,
    ) -> None:
        super().__init__(config, hierarchy, degree=degree)
        self.table_entries = table_entries
        self._target_table: Dict[int, int] = {}
        self._last_line: Optional[int] = None
        self.name = f"target-line+next-{degree}"
        if hierarchy.has_l0:
            self.name += "+L0"

    def _remember_transition(self, line_addr: int) -> None:
        last = self._last_line
        if last is not None and line_addr not in (
            last, last + self.hierarchy.line_size
        ):
            # Non-sequential transition: record the successor.
            if (
                len(self._target_table) >= self.table_entries
                and last not in self._target_table
            ):
                # Simple capacity handling: drop an arbitrary old mapping.
                self._target_table.pop(next(iter(self._target_table)))
            self._target_table[last] = line_addr
        self._last_line = line_addr

    def _on_line_consumed(self, request, source, entry, cycle) -> None:
        line = request.line_addr
        self._remember_transition(line)
        super()._on_line_consumed(request, source, entry, cycle)
        target = self._target_table.get(line)
        if target is not None:
            self._consider_prefetch_candidate(target)
