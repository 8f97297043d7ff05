"""Shared helpers for driving fetch engines in unit tests.

These tests exercise an engine directly (without the full simulator): a
recording back-end accepts every dispatched run, and ``drive`` advances
the engine + hierarchy cycle by cycle.  Where instructions came from is
read off the engine's own ``fetch_source_instructions``, the counters
``SimulationResult`` reports.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.frontend.fetch_block import FetchBlock


class RecordingBackend:
    """Back-end stand-in that accepts (and records) every dispatched run,
    up to ``capacity`` instructions in total."""

    def __init__(self, capacity: int = 10**9):
        self.capacity = capacity
        #: (block, first index, count, cycle) of each dispatched run
        self.runs: List[Tuple[FetchBlock, int, int, int]] = []
        self.count = 0

    def free_slots(self) -> int:
        return self.capacity - self.count

    def dispatch_run(self, block, first, count, cycle) -> int:
        assert 0 < count <= self.free_slots()
        self.runs.append((block, first, count, cycle))
        self.count += count
        # The instructions at or past correct_prefix are wrong-path.
        return max(0, first + count - max(first, block.correct_prefix))


def delivered_sources(engine) -> Set[str]:
    """The fetch sources that supplied at least one delivered instruction."""
    return {source for source, count
            in engine.stats.fetch_source_instructions.items() if count}


def _fetch_block(workload, static, line_size: int = 64, **kw) -> FetchBlock:
    """A fetch block covering exactly the basic block ``static``, split
    into ``line_size`` lines."""
    return FetchBlock(
        start=static.addr, length=static.size,
        split=workload.bbdict.line_split(static.addr, static.size, line_size),
        **kw)


def block_for(workload, index: int = 0, **kw) -> FetchBlock:
    """A fetch block covering exactly the ``index``-th basic block of the
    workload's CFG."""
    return _fetch_block(workload, workload.cfg.all_blocks()[index], **kw)


def blocks_on_distinct_lines(workload, count: int, line_size: int = 64,
                             min_size: int = 1, **kw) -> List[FetchBlock]:
    """``count`` fetch blocks whose first cache lines are all different
    (useful when a test needs several independent prefetch candidates)."""
    chosen: List[FetchBlock] = []
    seen_lines = set()
    for static in workload.cfg.all_blocks():
        line = static.addr - (static.addr % line_size)
        if line in seen_lines or static.size < min_size:
            continue
        seen_lines.add(line)
        chosen.append(_fetch_block(workload, static, line_size, **kw))
        if len(chosen) == count:
            return chosen
    raise AssertionError(f"workload too small for {count} distinct lines")


def drive(engine, backend, cycles: int, start_cycle: int = 0,
          prefetch: bool = True) -> int:
    """Run ``cycles`` cycles of fetch (+ prefetch + bus).  Returns the total
    number of instructions delivered."""
    delivered = 0
    for cycle in range(start_cycle, start_cycle + cycles):
        delivered += engine.fetch_tick(cycle, backend)
        if prefetch:
            engine.prefetch_tick(cycle)
        engine.hierarchy.tick(cycle)
    return delivered
