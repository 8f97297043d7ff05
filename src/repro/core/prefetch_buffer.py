"""Fully-associative prefetch buffer (FDP-style) and its base machinery.

The prefetch buffer holds prefetched cache lines next to the fetch unit so
they can be consumed without paying the I-cache latency.  In FDP an entry
becomes *available* (replaceable) as soon as the line is used once, and the
used line is promoted into the I-cache (or the L0 cache when present).

The CLGP *prestage buffer* (:mod:`repro.core.prestage_buffer`) extends this
structure with a consumers counter; both share :class:`PreBufferBase`,
which keeps the entries least recently used first (the same dict-order LRU
as :class:`repro.memory.cache.Cache`'s sets), so each buffer's victim is
the first eligible entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..memory.port import AccessPort


@dataclass(slots=True)
class PreBufferEntry:
    """One line-sized entry of a prefetch / prestage buffer."""

    line_addr: int
    ready_cycle: Optional[int] = None   #: None while the prefetch is in flight
    valid: bool = False                 #: True once the line has arrived
    available: bool = True              #: FDP: replaceable after first use
    consumers: int = 0                  #: CLGP: outstanding CLTQ references
    source: Optional[str] = None        #: where the prefetch was served from

    @property
    def in_flight(self) -> bool:
        return not self.valid

    def mark_arrived(self, cycle: int, source: str) -> None:
        self.ready_cycle = cycle
        self.valid = True
        self.source = source


@dataclass
class PreBufferStats:
    allocations: int = 0
    hits: int = 0                 #: lookups that found the line (valid or not)
    misses: int = 0
    evictions: int = 0
    discarded_unused: int = 0     #: evicted entries that were never consumed


class PreBufferBase:
    """Common storage/lookup/LRU behaviour of prefetch and prestage buffers.

    ``_entries`` maps line addresses to entries, least recently used
    first: an allocation appends, and :meth:`touch` moves an entry to the
    end.  Subclasses pick their victim (``_victim``) by eligibility.
    """

    def __init__(self, entries: int, latency: int = 1, pipelined: bool = False):
        if entries < 1:
            raise ValueError("pre-buffer needs at least one entry")
        self.capacity = entries
        self.latency = latency
        self.pipelined = pipelined
        self.port = AccessPort(latency, pipelined=pipelined)
        self._entries: Dict[int, PreBufferEntry] = {}
        self.stats = PreBufferStats()

    # -- lookup ----------------------------------------------------------
    def get(self, line_addr: int) -> Optional[PreBufferEntry]:
        """Entry for ``line_addr`` (valid or in flight), without LRU update."""
        return self._entries.get(line_addr)

    def lookup(self, line_addr: int) -> Optional[PreBufferEntry]:
        """Entry for ``line_addr``; counts hit/miss statistics."""
        entry = self._entries.get(line_addr)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def touch(self, entry: PreBufferEntry) -> None:
        """Make ``entry`` the most recently used.  An entry the buffer no
        longer holds (removed, or replaced by a newer entry for the same
        line) is left alone: it has no place in the order."""
        entries = self._entries
        line_addr = entry.line_addr
        if entries.get(line_addr) is entry:
            del entries[line_addr]
            entries[line_addr] = entry

    # -- allocation -------------------------------------------------------
    def has_free_entry(self) -> bool:
        return len(self._entries) < self.capacity or self._victim() is not None

    def allocate(self, line_addr: int) -> Optional[PreBufferEntry]:
        """Allocate an entry for a new prefetch of ``line_addr``.

        Returns ``None`` when no entry is replaceable.  The caller is
        responsible for not allocating a line that is already present.
        """
        if line_addr in self._entries:
            raise ValueError(f"line {line_addr:#x} already in the pre-buffer")
        if len(self._entries) >= self.capacity:
            victim = self._victim()
            if victim is None:
                return None
            self._evict(victim)
        entry = PreBufferEntry(line_addr=line_addr, available=False)
        self._entries[line_addr] = entry        # most recently used
        self.stats.allocations += 1
        return entry

    def _evict(self, entry: PreBufferEntry) -> None:
        del self._entries[entry.line_addr]
        self.stats.evictions += 1
        if entry.valid and not entry.available and entry.consumers == 0:
            # The line arrived but was never consumed by the fetch unit
            # (typically a wrong-path prefetch).
            self.stats.discarded_unused += 1

    def remove(self, entry: PreBufferEntry) -> bool:
        """Explicitly remove an entry (e.g. FDP transferring a used line to
        the I-cache).  Returns False if the entry was already gone."""
        current = self._entries.get(entry.line_addr)
        if current is not entry:
            return False
        del self._entries[entry.line_addr]
        return True

    # -- maintenance -------------------------------------------------------
    def clear(self) -> None:
        self._entries.clear()

    def entries(self) -> List[PreBufferEntry]:
        return list(self._entries.values())

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class PrefetchBuffer(PreBufferBase):
    """FDP prefetch buffer.

    "Every entry is marked as replaceable when it is used" -- so used
    (available) entries are preferred victims, oldest first.  Valid entries
    that were never consumed (e.g. wrong-path prefetches) may also be
    replaced, after all used entries, so stale lines cannot clog the buffer
    forever.  In-flight entries are never replaced.
    """

    def replaceable_entries(self) -> List[PreBufferEntry]:
        """Valid entries in replacement order: used ones first, each group
        least recently used first."""
        valid = [e for e in self._entries.values() if e.valid]
        return sorted(valid, key=lambda e: not e.available)

    def _victim(self) -> Optional[PreBufferEntry]:
        """``replaceable_entries()[0]`` without building the list."""
        unused = None
        for e in self._entries.values():
            if e.valid:
                if e.available:
                    return e
                if unused is None:
                    unused = e
        return unused

    def mark_used(self, entry: PreBufferEntry) -> None:
        """Called when the fetch unit consumes the line: the entry becomes
        available for new prefetches."""
        entry.available = True
        self.touch(entry)
