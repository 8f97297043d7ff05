"""Fetch entities exchanged between prediction, fetch queues and fetch.

* :class:`FetchBlock` -- what the stream predictor produces: a run of
  sequential instructions plus bookkeeping about whether (and where) the
  run diverges from the correct path.  FTQ entries (FDP) are fetch blocks;
  CLTQ entries (CLGP) are the cache lines of fetch blocks.
* :class:`FetchLineRequest` -- one cache line's worth of a fetch block, the
  granularity at which the fetch stage and the prefetchers operate.  The
  fetch stage hands the back-end runs of a block's instructions
  (:meth:`~repro.backend.pipeline.BackendPipeline.dispatch_run`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..workloads.bbdict import BasicBlockDictionary
from ..workloads.isa import INSTRUCTION_BYTES, InstrClass, span_lines

_block_ids = itertools.count()

#: Memoized block-to-cache-line split geometry: (start, length, line_size)
#: -> tuple of (line_addr, first_instr_index, num_instructions).  Fetch
#: blocks for the same streams recur millions of times across a sweep and
#: the split only depends on addresses, so this is shared globally.
_SPLIT_CACHE: dict = {}


@dataclass(slots=True)
class FetchBlock:
    """A predicted fetch stream (sequential run of instructions).

    Attributes
    ----------
    start:
        Address of the first instruction.
    length:
        Number of sequential instructions predicted.
    wrong_path:
        True if the whole block was generated while the front-end was
        already known to be on a mispredicted path.
    correct_prefix:
        Number of leading instructions that lie on the correct path.  For a
        correctly-predicted block this equals ``length``; for the block
        containing a misprediction it is the distance to (and including)
        the mispredicted branch; for wholly wrong-path blocks it is 0.
    mispredicted:
        True if this block contains the branch whose resolution will
        trigger a front-end redirect.
    redirect_target:
        Correct-path continuation address after that branch (None when not
        mispredicted).  Used for assertions and statistics only -- the
        next correct-path record of the prediction trace starts there.
    """

    start: int
    length: int
    wrong_path: bool = False
    correct_prefix: int = 0
    mispredicted: bool = False
    redirect_target: Optional[int] = None
    block_id: int = field(default_factory=lambda: next(_block_ids))
    _instr_classes: Optional[Tuple[InstrClass, ...]] = field(
        default=None, repr=False, compare=False
    )
    #: CLTQ bookkeeping: line entries of this block still resident in the
    #: queue (maintained by :class:`~repro.core.cltq.CacheLineTargetQueue`).
    cltq_lines_remaining: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("fetch block must contain at least one instruction")
        if self.wrong_path:
            self.correct_prefix = 0
        elif not self.mispredicted and self.correct_prefix == 0:
            self.correct_prefix = self.length
        if self.correct_prefix > self.length:
            raise ValueError("correct_prefix cannot exceed length")

    @property
    def end_addr(self) -> int:
        return self.start + self.length * INSTRUCTION_BYTES

    def instruction_addr(self, index: int) -> int:
        return self.start + index * INSTRUCTION_BYTES

    def _split_geometry(self, line_size: int) -> tuple:
        key = (self.start, self.length, line_size)
        geometry = _SPLIT_CACHE.get(key)
        if geometry is None:
            start, end_addr = self.start, self.end_addr
            segments = []
            for line in span_lines(start, self.length, line_size):
                seg_start = max(start, line)
                seg_end = min(end_addr, line + line_size)
                segments.append((
                    line,
                    (seg_start - start) // INSTRUCTION_BYTES,
                    (seg_end - seg_start) // INSTRUCTION_BYTES,
                ))
            geometry = _SPLIT_CACHE[key] = tuple(segments)
        return geometry

    def lines(self, line_size: int) -> List[int]:
        """Cache-line addresses covered by this block, in fetch order."""
        return [line for line, _, _ in self._split_geometry(line_size)]

    def line_requests(self, line_size: int) -> List["FetchLineRequest"]:
        """Split the block into per-line fetch requests (CLTQ granularity)."""
        return [
            FetchLineRequest(
                line_addr=line,
                block=self,
                first_instr_index=first_index,
                num_instructions=n,
            )
            for line, first_index, n in self._split_geometry(line_size)
        ]

    def instr_classes(self, bbdict: BasicBlockDictionary) -> Tuple[InstrClass, ...]:
        """Instruction classes for the whole block (resolved lazily via the
        basic-block dictionary, which memoizes per (start, length))."""
        if self._instr_classes is None:
            self._instr_classes = bbdict.classes_for(self.start, self.length)
        return self._instr_classes


@dataclass(slots=True)
class FetchLineRequest:
    """One cache line of a fetch block, as queued in the CLTQ or processed
    by the fetch stage."""

    line_addr: int
    block: FetchBlock
    first_instr_index: int      #: index within the parent block
    num_instructions: int
    prefetched: bool = False    #: CLTQ 'prefetched bit'
    occupied: bool = True       #: CLTQ 'occupied bit'

    @property
    def start_addr(self) -> int:
        return self.block.instruction_addr(self.first_instr_index)

    @property
    def wrong_path(self) -> bool:
        return self.block.wrong_path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FetchLineRequest(line={self.line_addr:#x}, n={self.num_instructions}, "
            f"block={self.block.block_id})"
        )
