"""Shared bus to the unified L2 cache, with arbitration.

The paper models "a bus to the L2 cache that can only serve one request per
cycle", with the priority order

1. L1 data-cache demand requests,
2. L1 instruction-cache demand requests,
3. prefetch requests (served only when nothing else wants the bus).

Requests are queued by the producers during a cycle and the simulator calls
:meth:`L2Bus.tick` once per cycle; the granted request's callback is
invoked with the grant cycle so the producer can compute when its data
arrives.  A request is never cancelled: once queued it is granted.

A queued request is plain data -- the tuple ``(priority, sequence,
submit cycle, on_grant)``, ordered by priority and then by submission --
so a snapshot of the machine (deepcopy or pickle) carries its in-flight
requests along with everything else.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, List, Tuple


class BusPriority(IntEnum):
    """Arbitration classes, lower value = higher priority."""

    DATA_DEMAND = 0
    INSTRUCTION_DEMAND = 1
    PREFETCH = 2


@dataclass
class BusStats:
    """Counters for bus behaviour, split by requester class."""

    requests: List[int] = field(default_factory=lambda: [0, 0, 0])
    grants: List[int] = field(default_factory=lambda: [0, 0, 0])
    total_wait_cycles: List[int] = field(default_factory=lambda: [0, 0, 0])
    busy_cycles: int = 0

    def record_request(self, priority: BusPriority) -> None:
        self.requests[priority] += 1

    def record_grant(self, priority: BusPriority, waited: int) -> None:
        self.grants[priority] += 1
        self.total_wait_cycles[priority] += waited
        self.busy_cycles += 1

    def average_wait(self, priority: BusPriority) -> float:
        g = self.grants[priority]
        return self.total_wait_cycles[priority] / g if g else 0.0


class L2Bus:
    """One-grant-per-cycle bus with strict priority arbitration (paper
    Table 2: 64 B/cycle with 64-byte lines, i.e. one line transfer per
    cycle).  ``_queue`` is a heap of requests; empty means idle."""

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, int, Callable[[int], None]]] = []
        self._sequence = 0
        self.stats = BusStats()

    # ------------------------------------------------------------------
    def submit(
        self,
        priority: BusPriority,
        cycle: int,
        on_grant: Callable[[int], None],
    ) -> None:
        """Queue a request.  ``on_grant(grant_cycle)`` is called when the bus
        serves it (possibly in the same cycle if nothing of higher priority
        is waiting).

        ``on_grant`` is a bound method or a :func:`functools.partial` over
        machine objects, never a closure: a snapshot copies the queue with
        the machine, and a closure can be neither pickled nor deep-copied
        (its copy would still update the original machine).
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (priority, sequence, cycle, on_grant))
        self.stats.record_request(priority)

    def tick(self, cycle: int) -> int:
        """Grant the oldest request of the highest priority, if any.
        Returns the number of grants issued this cycle (0 or 1)."""
        if not self._queue:
            return 0
        priority, _, submitted, on_grant = heapq.heappop(self._queue)
        self.stats.record_grant(priority, max(0, cycle - submitted))
        on_grant(cycle)
        return 1

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests waiting for a grant."""
        return len(self._queue)
