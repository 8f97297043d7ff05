"""Functional warm-up of predictor and cache state before timing.

The paper simulates 300-million-instruction SimPoint slices, so its
structures are measured warm.  Re-running hundreds of millions of
instructions in pure Python is not viable, so before the timed portion the
simulator *functionally* warms

* the stream predictor (trained on the correct-path stream sequence, with
  the same path-history folding the prediction unit uses),
* the L2 and L1 instruction caches (filled with the touched lines in
  execution order so the replacement state is realistic).

The warm-up touches no timing state and is identical in structure for every
fetch engine, so configuration comparisons stay fair.  It replays the
beginning of the same deterministic correct path that the timed run then
measures (the synthetic workloads are statistically stationary, so this is
equivalent to measuring a later, warmed slice).

Because many experiment sweeps run the same benchmark under dozens of
configurations, the expensive part of the warm-up (walking the correct
path and training a predictor) is computed once per (workload, predictor
geometry, budget) and kept on the workload; each simulation then
receives a copy of the trained predictor, and each of its caches the
warm state replayed once per cache geometry (so the L2 of a sweep over
L1 sizes warms once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cache.store import cached
from ..frontend.stream_predictor import StreamPredictor
from ..memory.cache import Cache
from ..memory.hierarchy import MemoryHierarchy
from ..workloads.isa import INSTRUCTION_BYTES, BranchKind, span_lines
from ..workloads.trace import ActualStream, Workload


@dataclass
class WarmupArtifacts:
    """Result of one functional warm-up walk (cacheable, config-independent)."""

    predictor: StreamPredictor          #: trained prototype (cloned per run)
    line_trace: List[int]               #: cache-line addresses in first-touch order
    instructions: int                   #: correct-path instructions replayed
    #: Warmed-cache snapshots keyed by one cache's geometry, filled
    #: lazily by :func:`apply_warmup` so sweeps replay the line trace
    #: once per (workload, cache) -- an L2 shared by every L1 size of a
    #: sweep warms once -- instead of once per run.
    cache_snapshots: Dict[Tuple, tuple] = field(default_factory=dict)

    def __getstate__(self):
        # The snapshots are per-process (cheap to rebuild, geometry-
        # dependent): a persisted artifact starts without them.
        return {**self.__dict__, "cache_snapshots": {}}


def compute_warmup(
    workload: Workload,
    instructions: int,
    base_entries: int = 1024,
    history_entries: int = 6144,
    max_stream_instructions: int = 64,
    line_size: int = 64,
) -> WarmupArtifacts:
    """Walk the correct path for ``instructions`` and build warm-up state."""
    predictor = StreamPredictor(
        base_entries=base_entries,
        history_entries=history_entries,
        default_length=max_stream_instructions,
    )
    oracle = workload.new_oracle()
    history = 0
    replayed = 0
    line_trace: List[int] = []
    seen_last: Optional[int] = None
    while replayed < instructions:
        addr = oracle.current_address()
        actual = oracle.peek_stream(max_stream_instructions)
        predictor.train(addr, history, actual)
        history = StreamPredictor.fold_history(
            history, actual.next_addr, actual.ends_taken
        )
        for line in span_lines(addr, actual.length, line_size):
            if line != seen_last:
                line_trace.append(line)
                seen_last = line
        oracle.advance(actual.length)
        replayed += actual.length
    return WarmupArtifacts(
        predictor=predictor, line_trace=line_trace, instructions=replayed
    )


def get_warmup_artifacts(
    workload: Workload,
    instructions: int,
    base_entries: int = 1024,
    history_entries: int = 6144,
    max_stream_instructions: int = 64,
    line_size: int = 64,
) -> WarmupArtifacts:
    """Cached wrapper around :func:`compute_warmup`.

    The workload keeps what it derived; misses fall through to the
    persistent artifact store (when enabled) before recomputing: the
    warm-up walk is deterministic per key, so a trained predictor and
    its line trace published by any previous process replay
    bit-identically here.
    """
    key = (
        workload.name, workload.profile.seed, instructions,
        base_entries, history_entries, max_stream_instructions, line_size,
    )
    return cached(
        workload, "warmup", key, WarmupArtifacts,
        lambda: compute_warmup(
            workload, instructions,
            base_entries=base_entries,
            history_entries=history_entries,
            max_stream_instructions=max_stream_instructions,
            line_size=line_size,
        ),
    )


def _cache_geometry(cache: Cache) -> Tuple:
    return cache.size_bytes, cache.line_size, cache.associativity


def _cache_is_fresh(cache: Cache) -> bool:
    """True when the cache has never been accessed or filled, so restoring
    a warm snapshot is equivalent to replaying the fills into it."""
    stats = cache.stats
    return not (stats.hits or stats.misses or stats.fills or cache.occupancy())


def apply_warmup(
    artifacts: WarmupArtifacts,
    hierarchy: Optional[MemoryHierarchy],
    warm_caches: bool = True,
) -> StreamPredictor:
    """Produce a private trained predictor and (optionally) warm the caches
    of ``hierarchy`` by replaying the recorded line trace.

    The L2 and the L1 never interact during the replay, so each cache's
    warm state depends only on its own geometry and the line trace: it
    is replayed once per geometry and snapshotted, and later runs
    restore the snapshot (identical contents, LRU order and fill
    statistics).
    """
    predictor = artifacts.predictor.clone()
    if warm_caches and hierarchy is not None:
        for cache in (hierarchy.l2, hierarchy.l1):
            key = _cache_geometry(cache)
            fresh = _cache_is_fresh(cache)
            snap = artifacts.cache_snapshots.get(key) if fresh else None
            if snap is not None:
                cache.restore(snap)
                continue
            cache.fill_span(artifacts.line_trace)
            if fresh:
                # Snapshots describe "warm state from empty"; only record
                # them when the replay indeed started from an empty cache.
                artifacts.cache_snapshots.setdefault(key, cache.snapshot())
    return predictor


def functional_advance(
    prediction,
    hierarchy: MemoryHierarchy,
    target_instructions: int,
) -> int:
    """Functionally fast-forward a prediction unit's correct path.

    Advances ``prediction``'s oracle until ``target_instructions``
    correct-path instructions have been consumed *in total* (the count is
    absolute, not relative), keeping the unit's predictor, RAS and path
    history trained exactly as :func:`compute_warmup` would, and filling
    the instruction caches with every touched line.  No timing state is
    touched, so this is the "skip" part of sampled simulation: position
    the machine at an interval start as if it had executed the prefix.

    The final stream may straddle the target; it is consumed only up to
    the target so the oracle lands exactly on the requested instruction
    (possibly mid-block), which keeps interval boundaries deterministic.
    The cut stream is remembered on the prediction unit
    (``_skip_partial``), and a later skip resuming from exactly that
    position consumes the remainder *without retraining the predictor*
    -- so a skip split at an arbitrary point (e.g. a positioned
    checkpoint taken between two skips) is bit-identical to one
    continuous skip, which is what lets persisted post-skip snapshots be
    restored by runs whose skip targets were never seen before.
    Returns the instructions skipped.  The skipped correct-path loads are
    added to ``prediction.skipped_loads``, which keeps the positional
    D-cache draws of a later trace aligned with a full run's (they are a
    function of the dynamic load index).

    Skips happen only before a timed run (``Simulator.skip_to``), so a
    skip starts at offset 0, on a canonical stream boundary, or exactly
    where its own cut stream stopped; any other start raises
    ``RuntimeError``.
    """
    oracle = prediction.oracle
    start = oracle.consumed_instructions
    loads = 0
    line_size = hierarchy.line_size
    # Resume a stream a previous skip cut short: the predictor already
    # trained on the full stream at its start address, so only consume.
    partial = prediction._skip_partial
    if partial is not None and start < target_instructions:
        position, actual, consumed = partial
        if position != start:
            raise RuntimeError("a functional skip must resume where the "
                               "previous one stopped")
        left = actual.length - consumed
        take = min(left, target_instructions - start)
        addr = oracle.current_address()
        loads += prediction.bbdict.loads_for(addr, take)
        lines = span_lines(addr, take, line_size)
        hierarchy.l2.fill_span(lines)
        hierarchy.l1.fill_span(lines)
        oracle.advance(take)
        if take == left:
            prediction._apply_terminator(actual)
            prediction._skip_partial = None
        else:
            prediction._skip_partial = (
                oracle.consumed_instructions, actual, consumed + take
            )
    # Consume whole pre-segmented streams straight from the segment
    # columns -- no peek_stream re-derivation, no per-block dict work,
    # O(1) cursor jumps.
    if oracle.consumed_instructions < target_instructions:
        segments = oracle.segments(prediction.max_stream)
        index = segments.aligned_index(oracle.consumed_instructions)
        if index is None:
            raise RuntimeError("a functional skip must start on a stream "
                               "boundary")
        loads += _advance_segments(
            prediction, hierarchy, segments, index,
            target_instructions, line_size,
        )
    prediction.skipped_loads += loads
    return oracle.consumed_instructions - start


def _advance_segments(
    prediction,
    hierarchy: MemoryHierarchy,
    segments,
    index: int,
    target_instructions: int,
    line_size: int,
) -> int:
    """Consume canonical streams from segment ``index`` up to the target.

    Does the per-stream work of a correctly-predicted stream --
    predictor training, RAS/history updates, load counting and cache
    fills -- reading every stream from the shared
    :class:`~repro.workloads.trace.StreamSegments` columns and moving the
    oracle cursor once at the end.  Returns the skipped load count;
    always reaches the target (cutting the final stream and recording
    ``_skip_partial``).
    """
    oracle = prediction.oracle
    ras = prediction.ras
    bbdict = prediction.bbdict
    train = prediction.predictor.train_parts
    fold = StreamPredictor.fold_history
    history = prediction.history
    pos = oracle.consumed_instructions
    loads = 0
    l1_span = hierarchy.l1.fill_span
    l2_span = hierarchy.l2.fill_span
    spans = segments.lines(line_size, 0)
    start_a = segments.start_addr
    length_a = segments.length
    next_a = segments.next_addr
    taken_a = segments.ends_taken
    term_a = segments.term_addr
    kind_l = segments.kind
    loads_a = segments.loads
    end_index_a = segments.end_index
    end_offset_a = segments.end_offset
    CALL, RETURN = BranchKind.CALL, BranchKind.RETURN
    #: Derived per-segment data is grown this many segments at a time.
    grow = 128
    i = index
    cursor_index = oracle._index
    cursor_offset = oracle._offset
    while pos < target_instructions:
        if i >= len(length_a):
            segments.ensure_count(i + grow)
        addr = start_a[i]
        length = length_a[i]
        next_addr = next_a[i]
        kind = kind_l[i]
        train(addr, history, length, next_addr, kind)
        remaining = target_instructions - pos
        if length <= remaining:
            if i >= len(loads_a):
                segments.ensure_loads(bbdict, i + grow)
            loads += loads_a[i]
            if i >= len(spans):
                segments.lines(line_size, i + grow)
            lines = spans[i]
            l2_span(lines)
            l1_span(lines)
            if kind is CALL:
                ras.push(term_a[i] + INSTRUCTION_BYTES)
            elif kind is RETURN:
                ras.pop()
            history = fold(history, next_addr, bool(taken_a[i]))
            pos += length
            cursor_index = end_index_a[i]
            cursor_offset = end_offset_a[i]
            i += 1
        else:
            # The stream straddles the target: consume only the prefix
            # and remember the cut stream.
            take = remaining
            loads += bbdict.loads_for(addr, take)
            lines = span_lines(addr, take, line_size)
            l2_span(lines)
            l1_span(lines)
            oracle._set_position(cursor_index, cursor_offset, pos)
            oracle.advance(take)
            prediction.history = history
            prediction._skip_partial = (
                pos + take,
                ActualStream(
                    start=addr, length=length, next_addr=next_addr,
                    ends_taken=bool(taken_a[i]), terminator_kind=kind,
                    terminator_addr=term_a[i],
                ),
                take,
            )
            return loads
    oracle._set_position(cursor_index, cursor_offset, pos)
    prediction.history = history
    return loads

