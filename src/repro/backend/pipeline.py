"""Simplified out-of-order back-end (dispatch / RUU / commit) model.

The paper's processor is a 4-wide, 15-stage out-of-order core with a
64-entry register update unit (RUU).  A full data-flow OoO model is not
needed for an instruction-fetch study; what must be captured is

* instructions can only commit after they have been fetched (so the
  back-end starves when the front-end is slow -- the effect under study),
* commit is in-order and bounded by the commit width,
* a finite RUU back-pressures the front-end,
* long-latency loads delay commit (moderated by a memory-level-parallelism
  factor) and compete for the L2 bus with top priority,
* a mispredicted branch redirects the front-end only when it *resolves*,
  a configurable number of cycles after dispatch (deep pipelines make this
  worse -- the pipelined-cache trade-off in the paper),
* wrong-path instructions occupy RUU entries until the flush.

Nothing here depends on an instruction's class: the prediction trace has
already drawn each correct-path load's D-cache outcome, and a fetch block
carries the offsets of its loads and misses.  So the RUU keeps run-length
segments, and dispatching a run costs one segment plus one per miss
instead of one entry per instruction.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from .dcache import DataCacheModel
from ..frontend.fetch_block import FetchBlock

#: A cycle later than any simulated one: the RUU completion cycle of a load
#: miss until its bus grant fixes it, and "no event" for the event loop.
NEVER = 1 << 62


@dataclass
class BackendStats:
    committed_instructions: int = 0
    dispatched_instructions: int = 0
    wrong_path_dispatched: int = 0
    squashed_instructions: int = 0
    redirects: int = 0
    commit_stall_cycles: int = 0   #: cycles with nothing eligible to commit
    #: Always 0: the fetch stage never offers more than free_slots().
    #: Kept because results report it.
    ruu_full_stalls: int = 0


class BackendPipeline:
    """In-order-commit window model fed by the fetch stage.

    The RUU holds only what commit needs: the correct-path instructions
    in flight, oldest first, as run-length ``[completion cycle, count]``
    segments, plus the number of wrong-path instructions dispatched
    behind them.  Every instruction but a load miss completes one cycle
    after dispatch (the L1-D hits in one cycle), so a dispatched run
    without a miss is one segment, merged into the tail when that
    completes in the same cycle.  A miss is a one-instruction segment
    that holds ``NEVER`` until its bus grant writes its completion cycle.
    Wrong-path instructions always form the tail: the path only turns
    wrong inside a mispredicted block, at its ``correct_prefix``, every
    later block is wrong-path until the redirect, and :meth:`tick`
    squashes on the redirect before that cycle's fetch.
    """

    def __init__(
        self,
        dcache: DataCacheModel,
        commit_width: int = 4,
        ruu_size: int = 64,
        branch_resolution_latency: int = 8,
        on_redirect: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.dcache = dcache
        self.commit_width = commit_width
        self.ruu_size = ruu_size
        self.branch_resolution_latency = branch_resolution_latency
        self.on_redirect = on_redirect
        self.stats = BackendStats()

        #: ``[completion cycle, count]`` segments of the correct-path
        #: instructions in flight, oldest first.
        self._ruu: Deque[List[int]] = deque()
        #: Correct-path instructions in flight (the segments' counts).
        self._correct = 0
        #: Wrong-path instructions behind them, squashed on the redirect.
        self._wrong = 0
        self._pending_redirect_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    # dispatch (called by the fetch stage when instructions are delivered)
    # ------------------------------------------------------------------
    def free_slots(self) -> int:
        return self.ruu_size - self._correct - self._wrong

    def dispatch_run(
        self,
        block: FetchBlock,
        first: int,
        count: int,
        cycle: int,
    ) -> int:
        """Dispatch instructions ``first .. first + count - 1`` of ``block``
        and return how many of them are wrong-path.

        The fetch stage delivers one such run per cycle and never more
        than :meth:`free_slots`.  Index ``i`` is wrong-path when
        ``i >= block.correct_prefix``; dispatching index
        ``correct_prefix - 1`` of a mispredicted block arms the redirect.
        The run's loads and misses come from the block, so the cost is
        one segment plus one per miss.
        """
        stats = self.stats
        stats.dispatched_instructions += count
        end = first + count
        prefix = block.correct_prefix
        wrong = 0
        if end > prefix:
            correct_end = prefix if prefix > first else first
            wrong = end - correct_end
            self._wrong += wrong
            stats.wrong_path_dispatched += wrong
            end = correct_end
        if end <= first:
            return wrong
        self._correct += end - first
        loads = block.loads
        if loads:
            # A run can stop part-way through a line: count by position.
            self.dcache.stats.loads += (bisect_left(loads, end)
                                        - bisect_left(loads, first))
        ruu = self._ruu
        done = cycle + 1
        run_start = first
        for offset, misses_l2 in block.misses:
            if offset < run_start:
                continue
            if offset >= end:
                break
            if offset > run_start:
                self._append(done, offset - run_start)
            segment = [NEVER, 1]
            ruu.append(segment)
            self.dcache.issue_miss(cycle, misses_l2, segment)
            run_start = offset + 1
        if end > run_start:
            self._append(done, end - run_start)
        if end == prefix and block.mispredicted:
            # The redirect fires when the branch resolves in the back-end.
            self._pending_redirect_cycle = (
                cycle + self.branch_resolution_latency
            )
        return wrong

    def _append(self, completion: int, count: int) -> None:
        """Queue ``count`` instructions completing at ``completion``,
        merged into the tail segment when it completes then too (a miss
        waiting for its grant holds ``NEVER``, so it never merges)."""
        ruu = self._ruu
        if ruu and ruu[-1][0] == completion:
            ruu[-1][1] += count
        else:
            ruu.append([completion, count])

    # ------------------------------------------------------------------
    # per-cycle operation
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """Resolve redirects and commit instructions.  Returns the number of
        instructions committed this cycle."""
        pending = self._pending_redirect_cycle
        if pending is not None and cycle >= pending:
            self._redirect(cycle)
        ruu = self._ruu
        committed = 0
        width = self.commit_width
        # Wrong-path instructions wait for the flush, so commit stops
        # where the correct-path segments end.
        while ruu:
            head = ruu[0]
            if head[0] > cycle:
                break
            count = head[1]
            room = width - committed
            if count > room:
                head[1] = count - room
                committed = width
                break
            ruu.popleft()
            committed += count
            if committed == width:
                break
        stats = self.stats
        if committed == 0:
            stats.commit_stall_cycles += 1
        else:
            self._correct -= committed
            stats.committed_instructions += committed
        return committed

    def _redirect(self, cycle: int) -> None:
        """The mispredicted branch resolved: squash every younger
        instruction -- all wrong-path, all at the RUU's tail."""
        self._pending_redirect_cycle = None
        self.stats.squashed_instructions += self._wrong
        self._wrong = 0
        self.stats.redirects += 1
        if self.on_redirect is not None:
            self.on_redirect(cycle)

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._correct + self._wrong

    @property
    def redirect_pending(self) -> bool:
        return self._pending_redirect_cycle is not None

    def next_event_cycle(self, cycle: int) -> int:
        """The first cycle, from ``cycle`` on, at which :meth:`tick` can
        commit or squash (``NEVER``: nothing in flight).

        ``cycle`` itself when that cannot be bounded: a load miss waits
        for its bus grant, or wrong-path instructions wait for a redirect
        not yet armed.  The event-driven loop skips no cycle before it.
        """
        ruu = self._ruu
        redirect = self._pending_redirect_cycle
        if ruu:
            wake = ruu[0][0]
            if wake == NEVER:
                return cycle
        elif self._wrong and redirect is None:
            return cycle
        else:
            wake = NEVER
        if redirect is not None and redirect < wake:
            wake = redirect
        return wake if wake > cycle else cycle
