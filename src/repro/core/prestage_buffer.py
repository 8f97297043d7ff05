"""Prestage buffer: the heart of Cache Line Guided Prestaging.

A prestage buffer entry has four fields (paper section 3.2.2):

* the prefetched I-cache line (tags only in this model),
* a **consumers counter**, initially 0, counting how many CLTQ entries will
  fetch from this line,
* a **valid bit**, set when the line arrives from the cache hierarchy,
* an **LRU field** used for replacement -- here the entry's place in the
  buffer's least-recently-used-first order (:class:`PreBufferBase`).

Replacement differs fundamentally from FDP's prefetch buffer: an entry may
be replaced *only* while its consumers counter is zero, i.e. only when the
front-end knows no in-flight predicted fetch will need it.  Consuming a
line from the buffer decrements the counter instead of freeing the entry,
so hot lines stay resident exactly as long as the predicted path keeps
referencing them, and they are **not** copied back into the I-cache.

On a branch misprediction the CLTQ is flushed and all consumers counters
are reset to zero (every entry becomes replaceable), but valid lines stay
usable until they are actually overwritten by prefetches from the new
path.
"""

from __future__ import annotations

from typing import List, Optional

from .prefetch_buffer import PreBufferBase, PreBufferEntry


class PrestageBuffer(PreBufferBase):
    """Fully-associative buffer with consumers-counter-based replacement."""

    def __init__(self, entries: int, latency: int = 1, pipelined: bool = False):
        super().__init__(entries, latency=latency, pipelined=pipelined)
        self.consumer_increments = 0
        self.consumer_decrements = 0
        self.counter_resets = 0

    # -- replacement ------------------------------------------------------
    def replaceable_entries(self) -> List[PreBufferEntry]:
        """Entries with no outstanding consumers, LRU first.

        Note that an in-flight entry (valid bit unset) whose consumers have
        been reset by a misprediction may be replaced; the late-arriving
        line is simply dropped.
        """
        return [e for e in self._entries.values() if e.consumers == 0]

    def _victim(self) -> Optional[PreBufferEntry]:
        """``replaceable_entries()[0]`` without building the list."""
        for e in self._entries.values():
            if not e.consumers:
                return e
        return None

    # -- CLGP bookkeeping ---------------------------------------------------
    def add_consumer(self, entry: PreBufferEntry) -> None:
        """A CLTQ entry now references this line (prefetch request found the
        line already present: no new prefetch, lifetime extended)."""
        entry.consumers += 1
        self.consumer_increments += 1
        self.touch(entry)

    def allocate_for_prefetch(self, line_addr: int) -> Optional[PreBufferEntry]:
        """Allocate an entry for a new prefetch with one initial consumer.

        Returns ``None`` when every entry still has outstanding consumers.
        """
        entry = self.allocate(line_addr)
        if entry is None:
            return None
        entry.consumers = 1
        entry.available = False
        self.consumer_increments += 1
        return entry

    def consume(self, entry: PreBufferEntry) -> None:
        """The fetch unit consumed this line for one CLTQ entry: decrement
        the consumers counter (never below zero) and refresh LRU."""
        if entry.consumers > 0:
            entry.consumers -= 1
            self.consumer_decrements += 1
        self.touch(entry)

    def reset_consumers(self) -> None:
        """Branch misprediction: every consumers counter drops to zero, so
        all entries become candidates for prefetches along the new path."""
        for entry in self._entries.values():
            if entry.consumers:
                entry.consumers = 0
        self.counter_resets += 1

    # -- invariants (used by the property-based tests) ---------------------
    def total_consumers(self) -> int:
        return sum(e.consumers for e in self._entries.values())

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any structural invariant is violated."""
        assert len(self._entries) <= self.capacity, "capacity exceeded"
        for entry in self._entries.values():
            assert entry.consumers >= 0, "negative consumers counter"
            if entry.valid:
                assert entry.ready_cycle is not None, "valid entry without ready cycle"
