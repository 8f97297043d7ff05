"""Batch kernels over :class:`~repro.workloads.trace.CompiledTrace` columns.

``CompiledTrace`` freezes correct-path walks into flat ``array`` columns
(one entry per basic block), and its stream segmentation extends that
with one entry per *fetch stream*.  This module holds the dependency-free
primitives that consume those columns wholesale instead of block-by-block:

* :func:`grouped_load_miss_counts` -- the deterministic per-load miss
  draws of the proxy base pass (:func:`~repro.backend.dcache.draw_misses`),
  accumulated per interval;
* :func:`interval_block_counts` -- interval-boundary slicing of the block
  columns into per-interval basic-block vectors for BBV profiling;
* :class:`TwoLevelLRUReplay` -- the proxy feature pass's L1-I/L2 miss
  counts, replayed through a :class:`~repro.memory.cache.Cache` pair.

Each kernel is plain Python and the only implementation of its pass;
profiles and proxy features are persisted and compared across processes,
so ``tests/test_kernels.py`` pins their results to golden digests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .backend.dcache import draw_misses
from .memory.cache import Cache

__all__ = [
    "grouped_load_miss_counts",
    "interval_block_counts",
    "TwoLevelLRUReplay",
]

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
    for group, probs in chunks:
        misses = draw_misses(range(len(probs)), probs, index, seed, l2_rate)
        d_out[group] += len(misses)
        dm_out[group] += sum(misses_l2 for _, misses_l2 in misses)
        index += len(probs)
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
    """L1-I/L2 miss-count replay for the proxy feature pass.

    ``proxy.functional_profile`` only needs to count, per interval, the
    fetch lines that miss in a warm L1 and, of those, the ones that also
    miss in the L2.  Each level is a plain :class:`Cache`: a line fills
    the L1, and only an L1 miss goes on to fill the L2, so one batched
    :meth:`Cache.fill_span` per level replays a whole line list.
    """

    __slots__ = ("l1", "l2")

    def __init__(self, l1_size, l1_line, l1_assoc, l2_size, l2_line, l2_assoc):
        self.l1 = Cache("il1", l1_size, l1_line, l1_assoc)
        self.l2 = Cache("ul2", l2_size, l2_line, l2_assoc)

    def warm(self, lines: Sequence[int]) -> None:
        """Replay a warmup line trace (l1-line-aligned) into both levels."""
        self.l2.fill_span(lines)
        self.l1.fill_span(lines)

    def replay(self, lines: Iterable[int]) -> Tuple[int, int]:
        """Replay fetch lines; returns ``(l1_misses, l2_misses)``."""
        missed = self.l1.fill_span(lines)
        return len(missed), len(self.l2.fill_span(missed))
