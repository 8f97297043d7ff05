"""Stream predictor (Ramirez et al., "Fetching Instruction Streams").

The paper's front-end uses a *stream predictor* with a 1K-entry first-level
table plus a 6K-entry path-correlated second-level table (Table 2:
"1K+6K-entry stream pred., 1 cycle lat.").  A stream is a run of sequential
instructions that ends at a taken control transfer; the predictor maps the
current fetch address (optionally combined with path history) to the
stream's length and its successor address.

This implementation keeps the same structure:

* a direct-mapped, tagged first-level table indexed by the stream start
  address (1024 entries by default),
* a direct-mapped, tagged second-level table indexed by a hash of the start
  address and a folded path history (6144 entries by default); when it
  hits, it overrides the first level (it captures context-dependent
  streams),
* 2-bit hysteresis on replacement,
* streams ending in RETURN record that fact so the prediction unit can take
  the target from the return address stack instead of the table.

The predictor is trained with the *actual* stream (available to the
trace-driven front-end when the prediction is made) which models an ideal,
immediate update -- the standard simplification in trace-driven fetch
studies.  Mispredictions still occur whenever the tables lack the entry,
the stream's behaviour changed, or the branch is not strongly biased.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import List, Optional

from ..workloads.isa import BranchKind
from ..workloads.trace import ActualStream


@dataclass(slots=True)
class StreamPrediction:
    """Outcome of a predictor lookup."""

    length: int                 #: predicted stream length (instructions)
    next_addr: int              #: predicted successor fetch address
    terminator_kind: BranchKind #: predicted kind of the ending transfer
    hit: bool                   #: True if any table supplied the prediction
    source: str = "none"        #: 'l2' (history table), 'l1' (base) or 'none'
    uses_ras: bool = False      #: True when next_addr should come from RAS


@dataclass(slots=True)
class _Entry:
    tag: int
    length: int
    next_addr: int
    terminator_kind: BranchKind
    confidence: int = 1         #: 2-bit hysteresis counter (0..3)


#: An entry's fields in the order :meth:`_StreamTable.__getstate__`
#: flattens them.
_ENTRY_FIELDS = attrgetter("tag", "length", "next_addr", "terminator_kind",
                           "confidence")
_KINDS = {kind.value: kind for kind in BranchKind}


class _StreamTable:
    """A set-associative, tagged table of stream entries (LRU within set).

    The original next-stream predictor is a set-associative structure; the
    associativity mainly avoids conflict misses between unrelated streams
    that happen to share an index.
    """

    def __init__(self, entries: int, associativity: int = 4):
        if entries < associativity:
            associativity = max(1, entries)
        self.entries = entries
        self.associativity = associativity
        self.num_sets = max(1, entries // associativity)
        self._sets: List[List[_Entry]] = [[] for _ in range(self.num_sets)]

    def _set_for(self, key: int) -> List[_Entry]:
        return self._sets[key % self.num_sets]

    def lookup(self, key: int) -> Optional[_Entry]:
        bucket = self._set_for(key)
        for i, entry in enumerate(bucket):
            if entry.tag == key:
                if i:  # move to MRU position
                    bucket.insert(0, bucket.pop(i))
                return entry
        return None

    def update(self, key: int, length: int, next_addr: int,
               kind: BranchKind) -> None:
        bucket = self._set_for(key)
        for i, entry in enumerate(bucket):
            if entry.tag == key:
                if (entry.length == length and entry.next_addr == next_addr
                        and entry.terminator_kind == kind):
                    entry.confidence = min(3, entry.confidence + 1)
                else:
                    if entry.confidence > 0:
                        entry.confidence -= 1
                    else:
                        entry.length = length
                        entry.next_addr = next_addr
                        entry.terminator_kind = kind
                        entry.confidence = 1
                if i:
                    bucket.insert(0, bucket.pop(i))
                return
        new_entry = _Entry(key, length, next_addr, kind)
        if len(bucket) >= self.associativity:
            # Replace the LRU entry, honouring hysteresis: a confident LRU
            # victim loses one confidence level instead of being evicted.
            victim = bucket[-1]
            if victim.confidence > 0:
                victim.confidence -= 1
                return
            bucket.pop()
        bucket.insert(0, new_entry)

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    # -- pickling: flat int columns, not thousands of entry objects -----
    def __getstate__(self) -> tuple:
        counts = array("B", map(len, self._sets))
        flat = array("q", chain.from_iterable(
            map(_ENTRY_FIELDS, chain.from_iterable(self._sets))))
        return (self.entries, self.associativity, self.num_sets, counts,
                flat)

    def __setstate__(self, state: tuple) -> None:
        self.entries, self.associativity, self.num_sets, counts, flat = state
        entries = [
            _Entry(tag, length, next_addr, _KINDS[kind], confidence)
            for tag, length, next_addr, kind, confidence
            in zip(*(flat[i::5] for i in range(5)))
        ]
        self._sets = []
        start = 0
        for count in counts:
            self._sets.append(entries[start:start + count])
            start += count

    def clone(self) -> "_StreamTable":
        """Independent copy of contents and recency order.

        Orders of magnitude cheaper than ``copy.deepcopy``; used to hand
        each simulation a private copy of the warmed predictor prototype.
        """
        new = _StreamTable.__new__(_StreamTable)
        new.entries = self.entries
        new.associativity = self.associativity
        new.num_sets = self.num_sets
        new._sets = [
            [
                _Entry(e.tag, e.length, e.next_addr, e.terminator_kind,
                       e.confidence)
                for e in bucket
            ]
            for bucket in self._sets
        ]
        return new


class StreamPredictor:
    """Two-level stream predictor with path-history correlation."""

    def __init__(
        self,
        base_entries: int = 1024,
        history_entries: int = 6144,
        default_length: int = 64,
        history_bits: int = 16,
        associativity: int = 4,
    ):
        self.base_table = _StreamTable(base_entries, associativity)
        self.history_table = _StreamTable(history_entries, associativity)
        self.default_length = default_length
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        # statistics
        self.lookups = 0
        self.base_hits = 0
        self.history_hits = 0
        self.table_misses = 0

    # ------------------------------------------------------------------
    def _history_key(self, addr: int, history: int) -> int:
        return (addr >> 2) ^ ((history & self._history_mask) << 7)

    def predict(self, addr: int, history: int) -> StreamPrediction:
        """Predict the stream starting at ``addr`` given ``history``."""
        self.lookups += 1
        hist_entry = self.history_table.lookup(self._history_key(addr, history))
        if hist_entry is not None and hist_entry.confidence >= 2:
            self.history_hits += 1
            return StreamPrediction(
                length=hist_entry.length,
                next_addr=hist_entry.next_addr,
                terminator_kind=hist_entry.terminator_kind,
                hit=True,
                source="l2",
                uses_ras=hist_entry.terminator_kind is BranchKind.RETURN,
            )
        base_entry = self.base_table.lookup(addr >> 2)
        if base_entry is not None:
            self.base_hits += 1
            return StreamPrediction(
                length=base_entry.length,
                next_addr=base_entry.next_addr,
                terminator_kind=base_entry.terminator_kind,
                hit=True,
                source="l1",
                uses_ras=base_entry.terminator_kind is BranchKind.RETURN,
            )
        if hist_entry is not None:
            self.history_hits += 1
            return StreamPrediction(
                length=hist_entry.length,
                next_addr=hist_entry.next_addr,
                terminator_kind=hist_entry.terminator_kind,
                hit=True,
                source="l2",
                uses_ras=hist_entry.terminator_kind is BranchKind.RETURN,
            )
        self.table_misses += 1
        # No information: predict a maximal sequential stream.
        return StreamPrediction(
            length=self.default_length,
            next_addr=addr + 4 * self.default_length,
            terminator_kind=BranchKind.NONE,
            hit=False,
            source="none",
        )

    def predict_pair(self, addr: int, history: int) -> tuple:
        """Lean :meth:`predict` for batched replay: same table lookups --
        including their recency (MRU) side effects, which later victim
        choices depend on -- and the same priority order, returning only
        ``(length, next_addr)``.  Statistics counters are *not* updated;
        the batched proxy base pass runs on a throwaway predictor clone
        whose counters are never read.
        """
        hist_entry = self.history_table.lookup(self._history_key(addr, history))
        if hist_entry is not None and hist_entry.confidence >= 2:
            return hist_entry.length, hist_entry.next_addr
        base_entry = self.base_table.lookup(addr >> 2)
        if base_entry is not None:
            return base_entry.length, base_entry.next_addr
        if hist_entry is not None:
            return hist_entry.length, hist_entry.next_addr
        return self.default_length, addr + 4 * self.default_length

    def train(self, addr: int, history: int, actual: ActualStream) -> None:
        """Train both tables with the actual stream outcome."""
        kind = actual.terminator_kind if actual.ends_taken else BranchKind.NONE
        self.train_parts(addr, history, actual.length, actual.next_addr, kind)

    def train_parts(self, addr: int, history: int, length: int,
                    next_addr: int, kind: BranchKind) -> None:
        """:meth:`train` with the stream already destructured into its
        fields and the *effective* terminator kind (``BranchKind.NONE``
        for streams that do not end taken) pre-resolved -- the form the
        batched passes read straight out of the segment columns."""
        self.base_table.update(addr >> 2, length, next_addr, kind)
        self.history_table.update(
            self._history_key(addr, history), length, next_addr, kind
        )

    # ------------------------------------------------------------------
    def clone(self) -> "StreamPredictor":
        """Independent copy (tables and statistics included)."""
        new = StreamPredictor.__new__(StreamPredictor)
        new.base_table = self.base_table.clone()
        new.history_table = self.history_table.clone()
        new.default_length = self.default_length
        new.history_bits = self.history_bits
        new._history_mask = self._history_mask
        new.lookups = self.lookups
        new.base_hits = self.base_hits
        new.history_hits = self.history_hits
        new.table_misses = self.table_misses
        return new

    def __deepcopy__(self, memo: dict) -> "StreamPredictor":
        """Simulator checkpoints deep-copy the machine; route the predictor
        (thousands of table entries) through :meth:`clone` instead of the
        generic -- much slower -- ``copy.deepcopy`` walk."""
        new = self.clone()
        memo[id(self)] = new
        return new

    # ------------------------------------------------------------------
    @staticmethod
    def fold_history(history: int, next_addr: int, taken: bool,
                     bits: int = 16) -> int:
        """Update a folded path-history register with one stream outcome."""
        mask = (1 << bits) - 1
        return (((history << 3) & mask) ^ ((next_addr >> 4) & mask)
                ^ (1 if taken else 0))

    @property
    def table_hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return (self.base_hits + self.history_hits) / self.lookups
