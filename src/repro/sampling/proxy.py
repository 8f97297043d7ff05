"""Functional per-interval cost proxies (control variates for sampling).

The synthetic SPEC workloads are statistically stationary: interval BBVs
barely differ while interval IPC still fluctuates with the particular
branch outcomes, load misses and I-cache misses each interval happens to
draw.  Pure BBV clustering therefore cannot tell expensive intervals from
cheap ones, and with a handful of measured intervals the sampling error
stays at several percent.

This module closes that gap with a *functional* cost model: one cheap
pass over the correct path (no timing) computes, for **every** interval,
event counts that are exact or near-exact images of what the timed run
will do --

* mispredicted streams: the stream predictor is deterministic and trains
  on the same correct-path sequence in both worlds, so replaying
  predict-then-train gives (almost) the timed run's misprediction
  positions,
* L1-D/L2 data misses: the data-cache model hashes the dynamic load
  index, so its decisions can be reproduced exactly,
* L1-I/L2-I demand misses: approximated by replaying the fetch-line
  stream into warm caches (prefetching effects are absent, but the
  *relative* weight across intervals is what matters).

Folding the counts with configuration-derived latency penalties yields a
per-interval proxy of simulated cycles.  Sampling then (a) stratifies the
intervals by proxy so the measured representatives span the cost range
and (b) scales each stratum's proxy mass by the measured-vs-proxy ratio
of its representative -- a classic ratio estimator whose error depends
only on how well the proxy *ranks* intervals, not on its absolute
calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .. import kernels
from ..frontend.stream_predictor import StreamPredictor
from ..memory.hierarchy import MemoryHierarchy
from ..simulator.config import SimulationConfig
from ..simulator.warming import get_warmup_artifacts
from ..workloads.isa import INSTRUCTION_BYTES, span_lines
from ..workloads.trace import Workload

#: Baseline cycles-per-instruction term of the proxy.  Only the *relative*
#: spread of the proxy across intervals matters (the ratio estimator
#: absorbs global calibration), but a realistic base keeps the event
#: penalties from dominating artificially.
PROXY_BASE_CPI = 0.3


@dataclass(frozen=True, slots=True)
class IntervalFeatures:
    """Functional event counts for one interval of the correct path."""

    length: int                     #: instructions in the interval
    mispredicted_streams: int
    dl1_misses: int
    l2_data_misses: int
    l1i_misses: int
    l2i_misses: int


@dataclass(frozen=True)
class FunctionalProfile:
    """Per-interval functional features for one (workload, geometry)."""

    workload: str
    seed: int
    interval_length: int
    total_instructions: int
    features: Tuple[IntervalFeatures, ...]

    def __len__(self) -> int:
        return len(self.features)


def feature_key(config: SimulationConfig) -> Tuple:
    """The configuration fields the functional features depend on.

    Engine choice, pre-buffer organisation and back-end parameters do not
    enter the functional pass, so every scheme of a sweep that shares
    cache and predictor geometry shares one profile.
    """
    return (
        config.l1_size_bytes, config.l1_associativity, config.line_size,
        config.l2_size_bytes, config.l2_associativity, config.l2_line_size,
        config.stream_predictor_base_entries,
        config.stream_predictor_history_entries,
        config.max_stream_instructions,
        config.resolved_warmup_instructions(),
    )


def _base_key(config: SimulationConfig) -> Tuple:
    """Cache geometry stripped out: what the walk itself depends on."""
    return (
        config.stream_predictor_base_entries,
        config.stream_predictor_history_entries,
        config.max_stream_instructions,
        config.resolved_warmup_instructions(),
        config.line_size,
    )


def _base_pass(
    workload: Workload,
    config: SimulationConfig,
    total_instructions: int,
    interval_length: int,
) -> tuple:
    """The cache-size-independent part of the functional pass.

    Walks the correct path once, replaying predictor training (for
    per-interval mispredicted-stream counts) and the exact load-index
    miss hashes (for per-interval L1-D / L2 data miss counts), and
    records the stream spans per interval so per-size cache replays can
    skip the walk entirely.  Returns ``(rows, spans_per_interval)``.
    """
    artifacts = get_warmup_artifacts(
        workload,
        config.resolved_warmup_instructions(),
        base_entries=config.stream_predictor_base_entries,
        history_entries=config.stream_predictor_history_entries,
        max_stream_instructions=config.max_stream_instructions,
        line_size=config.line_size,
    )
    predictor = artifacts.predictor.clone()
    # The walk strides over the canonical stream segmentation (no
    # ``peek_stream`` re-derivation); the miss-draw loop is deferred
    # entirely -- chunks record their probability tuples in dynamic
    # order, and one call to :func:`repro.kernels.grouped_load_miss_counts`
    # accumulates every interval's L1-D/L2 counts at the end.
    segments = workload._compiled_trace.segments(
        config.max_stream_instructions
    )
    load_miss_probs = workload.bbdict.load_miss_probs
    fold = StreamPredictor.fold_history
    predict_pair = predictor.predict_pair
    train = predictor.train_parts
    history = 0
    consumed = 0
    count = -(-total_instructions // interval_length)      # ceil division
    rows = [dict(m=0, d=0, dm=0) for _ in range(count)]
    spans: List[List[Tuple[int, int]]] = [[] for _ in range(count)]
    chunk_probs: List[Tuple[int, Tuple[float, ...]]] = []
    start_a = segments.start_addr
    length_a = segments.length
    next_a = segments.next_addr
    taken_a = segments.ends_taken
    kind_l = segments.kind
    i = 0
    while consumed < total_instructions:
        if i >= len(length_a):
            segments.ensure_count(i + 128)
        addr = start_a[i]
        length = length_a[i]
        next_addr = next_a[i]
        predicted_length, predicted_next = predict_pair(addr, history)
        train(addr, history, length, next_addr, kind_l[i])
        take = min(length, total_instructions - consumed)
        # A prediction is one event; it belongs to the interval where the
        # stream starts.  Loads and line spans are split exactly at
        # interval boundaries so per-interval counts stay exact even when
        # a stream straddles a boundary.
        if predicted_length != length or predicted_next != next_addr:
            rows[consumed // interval_length]["m"] += 1
        done = 0
        while done < take:
            index = (consumed + done) // interval_length
            boundary = (index + 1) * interval_length
            chunk = min(take - done, boundary - (consumed + done))
            chunk_addr = addr + done * INSTRUCTION_BYTES
            chunk_probs.append((index, load_miss_probs(chunk_addr, chunk)))
            spans[index].append((chunk_addr, chunk))
            done += chunk
        if length <= take:
            history = fold(history, next_addr, bool(taken_a[i]))
        consumed += take
        i += 1
    d_counts, dm_counts = kernels.grouped_load_miss_counts(
        chunk_probs, count, 0,
        workload.profile.seed, workload.profile.l2_data_miss_rate,
    )
    for row, d, dm in zip(rows, d_counts, dm_counts):
        row["d"] = d
        row["dm"] = dm
    return rows, spans


def functional_profile(
    workload: Workload,
    config: SimulationConfig,
    total_instructions: int,
    interval_length: int,
) -> FunctionalProfile:
    """Per-interval functional features for one (workload, geometry).

    The expensive walk (predictor replay, load-miss hashing, stream span
    recording) runs once per workload and predictor geometry
    (:func:`_base_pass`, kept on the workload), so an L1-size sweep
    re-walks nothing; this function only replays the recorded spans into
    caches of this configuration's geometry to count per-interval
    instruction misses.  Both start from the same warmed state a timed
    run starts from.
    """
    if interval_length <= 0:
        raise ValueError("interval_length must be positive")
    rows, spans = workload.derived(
        ("proxy-base", total_instructions, interval_length,
         _base_key(config)),
        lambda: _base_pass(workload, config, total_instructions,
                           interval_length),
    )
    artifacts = get_warmup_artifacts(
        workload,
        config.resolved_warmup_instructions(),
        base_entries=config.stream_predictor_base_entries,
        history_entries=config.stream_predictor_history_entries,
        max_stream_instructions=config.max_stream_instructions,
        line_size=config.line_size,
    )
    replay = kernels.TwoLevelLRUReplay(
        config.l1_size_bytes, config.line_size, config.l1_associativity,
        config.l2_size_bytes, config.l2_line_size, config.l2_associativity,
    )
    replay.warm(artifacts.line_trace)

    line_size = config.line_size
    span_cache: dict = {}    # (addr, take) -> touched cache lines
    counts = []
    for interval_spans in spans:
        lines: List[int] = []
        for span in interval_spans:
            touched = span_cache.get(span)
            if touched is None:
                touched = span_cache[span] = span_lines(*span, line_size)
            lines += touched
        counts.append(replay.replay(lines))

    count = len(rows)
    lengths = [
        min(interval_length, total_instructions - i * interval_length)
        for i in range(count)
    ]
    return FunctionalProfile(
        workload=workload.name,
        seed=workload.profile.seed,
        interval_length=interval_length,
        total_instructions=total_instructions,
        features=tuple(
            IntervalFeatures(
                length=length,
                mispredicted_streams=row["m"],
                dl1_misses=row["d"],
                l2_data_misses=row["dm"],
                l1i_misses=i1,
                l2i_misses=i2,
            )
            for row, length, (i1, i2) in zip(rows, lengths, counts)
        ),
    )


def proxy_cycles(
    profile: FunctionalProfile, config: SimulationConfig
) -> List[float]:
    """Per-interval predicted cycles from the functional event counts.

    Penalties are derived from the configuration: branch-resolution delay
    for mispredicted streams, MLP-moderated L2/memory latency for data
    misses, and L2/memory access latency for instruction misses.  The
    absolute values only need to be plausible -- the sampled estimator
    divides them out per stratum.
    """
    hierarchy = MemoryHierarchy(config.hierarchy_config())
    mlp = config.mlp_factor
    branch_penalty = config.branch_resolution_latency + 4.0
    dl1_penalty = hierarchy.l2_latency / mlp
    l2_data_penalty = config.memory_latency / mlp
    l1i_penalty = float(hierarchy.l2_latency)
    l2i_penalty = float(config.memory_latency)
    return [
        (
            PROXY_BASE_CPI * f.length
            + branch_penalty * f.mispredicted_streams
            + dl1_penalty * f.dl1_misses
            + l2_data_penalty * f.l2_data_misses
            + l1i_penalty * f.l1i_misses
            + l2i_penalty * f.l2i_misses
        )
        for f in profile.features
    ]
