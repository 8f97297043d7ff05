"""Fetch entities exchanged between prediction, fetch queues and fetch.

* :class:`FetchBlock` -- what the stream predictor produces: a run of
  sequential instructions plus bookkeeping about whether (and where) the
  run diverges from the correct path.  The prediction unit builds one
  from each prediction-trace record, which already holds everything about
  the run that does not depend on timing: its split into cache lines, and
  the positions of its correct-path loads and of those that miss the
  L1-D.  FTQ entries (FDP) are fetch blocks; CLTQ entries (CLGP) are the
  cache lines of fetch blocks.
* :class:`FetchLineRequest` -- one cache line's worth of a fetch block, the
  granularity at which the fetch stage and the prefetchers operate.  The
  fetch stage hands the back-end runs of a block's instructions
  (:meth:`~repro.backend.pipeline.BackendPipeline.dispatch_run`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..workloads.isa import INSTRUCTION_BYTES


@dataclass(slots=True)
class FetchBlock:
    """A predicted fetch stream (sequential run of instructions).

    Attributes
    ----------
    start:
        Address of the first instruction.
    length:
        Number of sequential instructions predicted.
    split:
        The block's cache lines in fetch order, one ``(line address,
        index of its first instruction, instructions in the line)``
        triple each (:func:`~repro.workloads.isa.line_split`).
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
    loads:
        Indices of the correct-path loads, ascending.
    misses:
        ``(index, misses_l2)`` of each of those loads that misses the
        L1-D, ascending.
    """

    start: int
    length: int
    split: tuple
    wrong_path: bool = False
    correct_prefix: int = 0
    mispredicted: bool = False
    redirect_target: Optional[int] = None
    loads: tuple = ()
    misses: tuple = ()
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

    def lines(self) -> List[int]:
        """Cache-line addresses covered by this block, in fetch order."""
        return [line for line, _, _ in self.split]

    def line_requests(self) -> List["FetchLineRequest"]:
        """Split the block into per-line fetch requests (CLTQ granularity)."""
        return [
            FetchLineRequest(line, self, first_index, n)
            for line, first_index, n in self.split
        ]


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
