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

Table entries are immutable tuples ``(tag, length, next_addr, kind,
confidence)``: training puts a new tuple into the set instead of mutating
an entry, so a copy of the predictor (:meth:`StreamPredictor.clone`) is one
list copy per set and shares every entry with its source.  Each
simulation, checkpoint and restore copies the warmed predictor, so those
copies stay cheap; pickles flatten the entries into int columns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
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


_KINDS = {kind.value: kind for kind in BranchKind}


def _hit(entry: tuple, source: str) -> StreamPrediction:
    """The prediction a table entry supplies."""
    _, length, next_addr, kind, _ = entry
    return StreamPrediction(length, next_addr, kind, True, source,
                            kind is BranchKind.RETURN)


class _StreamTable:
    """A set-associative, tagged table of stream entries (LRU within set).

    The original next-stream predictor is a set-associative structure; the
    associativity mainly avoids conflict misses between unrelated streams
    that happen to share an index.  Each set is a list, most recently used
    first, of immutable entries ``(tag, length, next_addr, kind,
    confidence)``; ``confidence`` is a 2-bit hysteresis counter (0..3).
    """

    def __init__(self, entries: int, associativity: int = 4):
        if entries < associativity:
            associativity = max(1, entries)
        self.entries = entries
        self.associativity = associativity
        self.num_sets = max(1, entries // associativity)
        self._sets: List[List[tuple]] = [[] for _ in range(self.num_sets)]

    def lookup(self, key: int) -> Optional[tuple]:
        bucket = self._sets[key % self.num_sets]
        for i, entry in enumerate(bucket):
            if entry[0] == key:
                if i:  # move to MRU position
                    bucket.insert(0, bucket.pop(i))
                return entry
        return None

    def update(self, key: int, length: int, next_addr: int,
               kind: BranchKind) -> None:
        # Entries are shared between clones, so training replaces an
        # entry with a new tuple and never mutates one.
        bucket = self._sets[key % self.num_sets]
        for i, entry in enumerate(bucket):
            if entry[0] == key:
                _, old_length, old_next, old_kind, confidence = entry
                if (old_length == length and old_next == next_addr
                        and old_kind == kind):
                    if confidence < 3:
                        entry = (key, old_length, old_next, old_kind,
                                 confidence + 1)
                elif confidence:
                    entry = (key, old_length, old_next, old_kind,
                             confidence - 1)
                else:
                    entry = (key, length, next_addr, kind, 1)
                if i:
                    del bucket[i]
                    bucket.insert(0, entry)
                else:
                    bucket[0] = entry
                return
        if len(bucket) >= self.associativity:
            # Replace the LRU entry, honouring hysteresis: a confident LRU
            # victim loses one confidence level instead of being evicted.
            tag, old_length, old_next, old_kind, confidence = bucket[-1]
            if confidence:
                bucket[-1] = (tag, old_length, old_next, old_kind,
                              confidence - 1)
                return
            bucket.pop()
        bucket.insert(0, (key, length, next_addr, kind, 1))

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    # -- pickling: flat int columns, not thousands of entry tuples -------
    def __getstate__(self) -> tuple:
        counts = array("B", map(len, self._sets))
        flat = array("q", chain.from_iterable(chain.from_iterable(self._sets)))
        return (self.entries, self.associativity, self.num_sets, counts,
                flat)

    def __setstate__(self, state: tuple) -> None:
        self.entries, self.associativity, self.num_sets, counts, flat = state
        entries = list(zip(flat[0::5], flat[1::5], flat[2::5],
                           map(_KINDS.__getitem__, flat[3::5]), flat[4::5]))
        self._sets = []
        start = 0
        for count in counts:
            self._sets.append(entries[start:start + count])
            start += count

    def clone(self) -> "_StreamTable":
        """Independent copy of contents and recency order.

        One list copy per set: the entries are immutable, so the copy
        shares them.  Used to hand each simulation a private copy of the
        warmed predictor prototype.
        """
        new = _StreamTable.__new__(_StreamTable)
        new.entries = self.entries
        new.associativity = self.associativity
        new.num_sets = self.num_sets
        new._sets = list(map(list.copy, self._sets))
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
        if hist_entry is not None and hist_entry[4] >= 2:
            self.history_hits += 1
            return _hit(hist_entry, "l2")
        base_entry = self.base_table.lookup(addr >> 2)
        if base_entry is not None:
            self.base_hits += 1
            return _hit(base_entry, "l1")
        if hist_entry is not None:
            self.history_hits += 1
            return _hit(hist_entry, "l2")
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
        if hist_entry is not None and hist_entry[4] >= 2:
            return hist_entry[1], hist_entry[2]
        base_entry = self.base_table.lookup(addr >> 2)
        if base_entry is not None:
            return base_entry[1], base_entry[2]
        if hist_entry is not None:
            return hist_entry[1], hist_entry[2]
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
        through :meth:`clone`, which shares the immutable table entries,
        instead of the generic -- much slower -- ``copy.deepcopy`` walk."""
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
