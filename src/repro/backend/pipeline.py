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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from .dcache import DataCacheModel
from ..frontend.fetch_block import FetchBlock
from ..workloads.bbdict import BasicBlockDictionary
from ..workloads.isa import INSTRUCTION_BYTES, InstrClass

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

    The RUU holds only what commit needs: the completion cycles of the
    correct-path instructions in flight, oldest first, plus the number
    of wrong-path instructions dispatched behind them.  Wrong-path
    instructions always form the tail: the path only turns wrong inside
    a mispredicted block, at its ``correct_prefix``, every later block is
    wrong-path until the redirect, and :meth:`tick` squashes on the
    redirect before that cycle's fetch.
    """

    def __init__(
        self,
        dcache: DataCacheModel,
        bbdict: BasicBlockDictionary,
        commit_width: int = 4,
        ruu_size: int = 64,
        branch_resolution_latency: int = 8,
        on_redirect: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.dcache = dcache
        self.bbdict = bbdict
        self.commit_width = commit_width
        self.ruu_size = ruu_size
        self.branch_resolution_latency = branch_resolution_latency
        self.on_redirect = on_redirect
        self.stats = BackendStats()

        #: Completion cycles of the correct-path instructions in flight.
        #: The one in dispatch slot ``k`` (the ``k``-th correct-path
        #: instruction ever dispatched) sits at ``k - committed``.
        self._ruu: Deque[int] = deque()
        #: Wrong-path instructions behind them, squashed on the redirect.
        self._wrong = 0
        self._pending_redirect_cycle: Optional[int] = None
        #: Memoized per-address load miss probability (the CFG is static, so
        #: the bisect in ``block_containing`` only has to run once per PC).
        self._load_miss_prob: dict = {}

    # ------------------------------------------------------------------
    # dispatch (called by the fetch stage when instructions are delivered)
    # ------------------------------------------------------------------
    def free_slots(self) -> int:
        return self.ruu_size - len(self._ruu) - self._wrong

    def dispatch_run(
        self,
        block: FetchBlock,
        first: int,
        count: int,
        classes: Tuple[InstrClass, ...],
        cycle: int,
    ) -> int:
        """Dispatch instructions ``first .. first + count - 1`` of ``block``
        (``classes`` are the block's instruction classes) and return how
        many of them are wrong-path.

        The fetch stage delivers one such run per cycle and never more
        than :meth:`free_slots`.  Index ``i`` is wrong-path when
        ``i >= block.correct_prefix``; dispatching index
        ``correct_prefix - 1`` of a mispredicted block arms the redirect.
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
        ruu = self._ruu
        done = cycle + 1
        load = InstrClass.LOAD
        for index in range(first, end):
            if classes[index] is load:
                ruu.append(self._issue_load(
                    block.start + index * INSTRUCTION_BYTES, cycle))
            else:
                ruu.append(done)
        if end == prefix and block.mispredicted:
            # The redirect fires when the branch resolves in the back-end.
            self._pending_redirect_cycle = (
                cycle + self.branch_resolution_latency
            )
        return wrong

    def _issue_load(self, addr: int, cycle: int) -> int:
        """Issue the correct-path load about to take the next RUU slot;
        returns its completion cycle (``NEVER`` for a miss)."""
        miss_prob = self._load_miss_prob.get(addr)
        if miss_prob is None:
            block = self.bbdict.cfg.block_containing(addr)
            miss_prob = block.load_miss_probability if block is not None else 0.0
            self._load_miss_prob[addr] = miss_prob
        slot = self.stats.committed_instructions + len(self._ruu)

        def _served(done_cycle: int) -> None:
            self._ruu[slot - self.stats.committed_instructions] = done_cycle

        completion = self.dcache.access(
            cycle, miss_prob, self._l2_data_miss_rate, _served)
        return NEVER if completion is None else completion

    #: Probability that an L1-D miss also misses in L2 (workload-specific;
    #: the simulator overwrites it from the workload profile).
    _l2_data_miss_rate = 0.10

    def set_l2_data_miss_rate(self, rate: float) -> None:
        """Set the probability that an L1-D miss also misses in L2."""
        self._l2_data_miss_rate = rate

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
        # where the correct-path entries end.
        while committed < width and ruu and ruu[0] <= cycle:
            ruu.popleft()
            committed += 1
        stats = self.stats
        if committed == 0:
            stats.commit_stall_cycles += 1
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
        return len(self._ruu) + self._wrong

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
            wake = ruu[0]
            if wake == NEVER:
                return cycle
        elif self._wrong and redirect is None:
            return cycle
        else:
            wake = NEVER
        if redirect is not None and redirect < wake:
            wake = redirect
        return wake if wake > cycle else cycle
