"""Batch kernels over :class:`~repro.workloads.trace.CompiledTrace` columns.

``CompiledTrace`` freezes correct-path walks into flat ``array`` columns
(one entry per basic block), and its stream segmentation extends that
with one entry per *fetch stream*.  This module holds the dependency-free
primitives that consume those columns wholesale instead of block-by-block:

* :func:`grouped_load_miss_counts` -- the deterministic per-load miss
  draws of the proxy base pass, accumulated per interval;
* :func:`interval_block_counts` -- interval-boundary slicing of the block
  columns into per-interval basic-block vectors for BBV profiling;
* :class:`TwoLevelLRUReplay` -- a lean two-level LRU cache replay that is
  count-equivalent to the throwaway ``Cache`` pair the proxy feature pass
  would otherwise build per call.

Each kernel is plain Python and the only implementation of its pass;
profiles and proxy features are persisted and compared across processes,
so ``tests/test_kernels.py`` pins their results to golden digests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .backend.dcache import _hash01

__all__ = [
    "grouped_load_miss_counts",
    "interval_block_counts",
    "TwoLevelLRUReplay",
]

#: Salt of the L2 data-miss draw; must match ``DataCacheModel``.
_L2_SALT = 0x5A5A5A5A


def grouped_load_miss_counts(
    chunks: Sequence[Tuple[int, Tuple[float, ...]]],
    group_count: int,
    start_index: int,
    seed: int,
    l2_rate: float,
) -> Tuple[List[int], List[int]]:
    """Accumulate the proxy base pass's deterministic miss draws per group.

    ``chunks`` is the dynamic-order sequence of ``(group, probs)`` pairs
    -- ``probs`` being the per-LOAD miss probabilities of one contiguous
    chunk -- in dynamic order; the dynamic load index therefore runs ``start_index, start_index+1, ...``
    across the concatenation.  Returns per-group L1-D and L2 miss counts.
    """
    d_out = [0] * group_count
    dm_out = [0] * group_count
    index = start_index
    l2_salt = seed ^ _L2_SALT
    for group, probs in chunks:
        for miss_prob in probs:
            if _hash01(index, seed) < miss_prob:
                d_out[group] += 1
                if _hash01(index, l2_salt) < l2_rate:
                    dm_out[group] += 1
            index += 1
    return d_out, dm_out


def interval_block_counts(
    addrs: Sequence[int],
    sizes: Sequence[int],
    total_instructions: int,
    interval_length: int,
) -> List[Dict[int, int]]:
    """Slice the block columns into per-interval basic-block count vectors.

    One dict per interval, keyed by block start address in
    first-occurrence order (BBV pickles hash the dict ordering, so the
    order is part of the contract).  A block execution that straddles an
    interval boundary is split exactly.  The columns must already cover
    ``total_instructions``.
    """
    out: List[Dict[int, int]] = []
    counts: Dict[int, int] = {}
    emitted = 0
    fill = 0
    index = 0
    while emitted < total_instructions:
        addr = addrs[index]
        size = sizes[index]
        index += 1
        while size > 0 and emitted < total_instructions:
            take = min(size, interval_length - fill, total_instructions - emitted)
            counts[addr] = counts.get(addr, 0) + take
            fill += take
            emitted += take
            size -= take
            if fill == interval_length or emitted == total_instructions:
                out.append(counts)
                counts = {}
                fill = 0
    return out


class TwoLevelLRUReplay:
    """Lean L1-I/L2 miss-count replay for the proxy feature pass.

    ``proxy.functional_profile`` only needs to count the fills that miss
    in a throwaway :class:`Cache` pair, whose stamp-based LRU bookkeeping
    would dominate the loop.  Each cache set here is a plain dict used
    as an ordered LRU (move-to-end on touch, evict the first key):
    because the stamp clock in ``memory.replacement.LRUPolicy`` is
    strictly increasing, insertion order *is* stamp order, so the victim
    choice -- and therefore every hit/miss count -- is identical.  Only
    counts escape this class, never cache state, so the equivalence is
    all that matters.

    The replay mirrors the exact probe/fill sequence of a Cache pair:
    ``contains(l1)`` then ``contains(l2)`` then ``l2.fill`` then
    ``l1.fill`` -- with the hit-path touches that implies.
    """

    __slots__ = (
        "_l1_sets", "_l1_line", "_l1_nsets", "_l1_assoc",
        "_l2_sets", "_l2_line", "_l2_nsets", "_l2_assoc",
    )

    def __init__(self, l1_size, l1_line, l1_assoc, l2_size, l2_line, l2_assoc):
        self._l1_line, self._l1_nsets, self._l1_assoc = self._geometry(
            l1_size, l1_line, l1_assoc
        )
        self._l2_line, self._l2_nsets, self._l2_assoc = self._geometry(
            l2_size, l2_line, l2_assoc
        )
        self._l1_sets: Dict[int, Dict[int, bool]] = {}
        self._l2_sets: Dict[int, Dict[int, bool]] = {}

    @staticmethod
    def _geometry(size, line_size, associativity):
        # Mirrors Cache.__init__'s normalization: associativity None (or
        # larger than the cache) means fully associative.
        num_lines = max(1, size // line_size)
        if associativity is None or associativity >= num_lines:
            associativity = num_lines
        num_sets = max(1, num_lines // associativity)
        return line_size, num_sets, associativity

    @staticmethod
    def _fill(sets, index, line, associativity) -> bool:
        """One LRU fill; returns True when the line was absent (a miss)."""
        cset = sets.get(index)
        if cset is None:
            cset = sets[index] = {}
        if line in cset:
            del cset[line]
            cset[line] = True
            return False
        if len(cset) >= associativity:
            del cset[next(iter(cset))]
        cset[line] = True
        return True

    def warm(self, lines: Iterable[int]) -> None:
        """Replay a warmup line trace (l1-line-aligned) into both levels."""
        l2_line = self._l2_line
        for line in lines:
            l2_tag = line - line % l2_line
            self._fill(self._l2_sets, (l2_tag // l2_line) % self._l2_nsets,
                       l2_tag, self._l2_assoc)
            self._fill(self._l1_sets, (line // self._l1_line) % self._l1_nsets,
                       line, self._l1_assoc)

    def replay(self, lines: Iterable[int]) -> Tuple[int, int]:
        """Replay fetch lines; returns ``(l1_misses, l2_misses)``."""
        i1 = 0
        i2 = 0
        l1_sets = self._l1_sets
        l1_line = self._l1_line
        l1_nsets = self._l1_nsets
        l1_assoc = self._l1_assoc
        l2_line = self._l2_line
        for line in lines:
            index = (line // l1_line) % l1_nsets
            cset = l1_sets.get(index)
            if cset is None:
                cset = l1_sets[index] = {}
            if line in cset:
                # L1 hit: a Cache pair still calls l1.fill -> touch.
                del cset[line]
                cset[line] = True
                continue
            i1 += 1
            l2_tag = line - line % l2_line
            if self._fill(self._l2_sets, (l2_tag // l2_line) % self._l2_nsets,
                          l2_tag, self._l2_assoc):
                i2 += 1
            if len(cset) >= l1_assoc:
                del cset[next(iter(cset))]
            cset[line] = True
        return i1, i2
