"""Sampled simulation: run K representative intervals instead of everything.

``_execute_sampled`` is the sampled counterpart of the runner's full
simulation path and produces the same
:class:`~repro.simulator.stats.SimulationResult` shape, so figure builders
and reports work unchanged.  The flow per (configuration, benchmark):

1. profile the workload's correct path into basic-block vectors and pick
   K representative intervals with weights (cached per benchmark),
2. cut the selection into contiguous segments and, per segment in start
   order, restore the deepest positioned checkpoint at or before its
   start (the post-skip state an earlier segment or run published, or
   the warm state at offset 0; with none, warm up), functionally
   fast-forward to the segment start (:meth:`Simulator.skip_to` --
   predictor keeps training, caches keep filling), publish the post-skip
   state so the next segment only skips the delta, then run the
   segment's intervals timed,
3. take each interval's counters as the delta over its timed stretch,
4. combine the per-interval results into one weighted estimate
   (:func:`repro.simulator.stats.weighted_aggregate`).

Everything is deterministic: same workload seed, same sampling spec ->
same selection, same per-interval results, same estimate.  That
determinism is also what makes the per-interval measurements themselves
persistable artifacts: with the artifact cache enabled they are
published to disk keyed by (configuration, workload, budget, spec), and
any later invocation replays them through the same aggregation instead
of re-simulating -- bit-identical by construction, and guarded by
``tests/test_artifact_cache.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..cache.keys import content_key, stable_repr
from ..cache.store import active_store
from ..cache.traces import ensure_compiled_trace
from ..simulator.config import SimulationConfig
from ..simulator.simulator import Simulator
from ..simulator.stats import SimulationResult, result_delta, weighted_aggregate
from ..workloads.trace import Workload
from .bbv import DEFAULT_PROJECTION_DIM
from .checkpoint import DEFAULT_STORE, POSITIONED, CheckpointStore
from .proxy import proxy_cycles
from .simpoint import IntervalSelection, select_stratified


@dataclass(frozen=True)
class SamplingSpec:
    """Parameters of a sampled run (hashable, picklable, deterministic).

    ``interval_length=None`` derives the interval size from the run's
    instruction budget so short smoke runs and long sweeps both end up
    with a sensible number of intervals to choose from.

    ``method`` selects how representatives are chosen:

    * ``"stratified"`` (default): functional cost proxies stratify the
      intervals and a per-stratum ratio estimator corrects the cycle
      estimate (accurate even when BBVs barely differ across intervals,
      as with the statistically-stationary synthetic workloads),
    * ``"kmeans"``: classic SimPoint -- k-means over projected BBVs,
      cluster-mass weights, no proxy correction.
    """

    interval_length: Optional[int] = None
    max_intervals: int = 5              #: K representative intervals
    method: str = "stratified"
    projection_dim: int = DEFAULT_PROJECTION_DIM
    seed: int = 1
    kmeans_iterations: int = 30
    #: Floor for derived interval lengths; intervals much shorter than
    #: this are dominated by the per-interval pipeline-fill transient.
    min_interval_length: int = 500
    #: Timed-but-discarded instructions simulated in front of a measured
    #: interval that was *jumped to* (checkpoint restore + functional
    #: skip).  Restoring leaves the pipeline and queues empty, so the
    #: first ~hundreds of instructions run below steady-state IPC;
    #: measuring differentially after this stretch removes that bias.
    #: Intervals measured contiguously need no warm stretch.
    detail_warmup: int = 500

    def __post_init__(self) -> None:
        if self.method not in ("stratified", "kmeans"):
            raise ValueError(
                f"unknown sampling method {self.method!r}; "
                "choose 'stratified' or 'kmeans'"
            )
        if self.max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")
        if self.interval_length is not None and self.interval_length <= 0:
            raise ValueError("interval_length must be positive")

    def resolved_interval_length(self, total_instructions: int) -> int:
        """Interval size for a run of ``total_instructions``."""
        if self.interval_length is not None:
            if self.interval_length <= 0:
                raise ValueError("interval_length must be positive")
            return self.interval_length
        # Aim for ~20 candidate intervals so the selector has spread to
        # work with, while keeping each interval long enough to measure.
        derived = max(self.min_interval_length, total_instructions // 20)
        return min(derived, max(1, total_instructions))


#: Spec used when a sampled task does not carry its own.
DEFAULT_SPEC = SamplingSpec()


def get_selection(
    workload: Workload,
    total_instructions: int,
    spec: SamplingSpec = DEFAULT_SPEC,
    store: CheckpointStore = DEFAULT_STORE,
    config: Optional[SimulationConfig] = None,
) -> IntervalSelection:
    """The (cached) interval selection for a workload under ``spec``.

    The stratified method needs a configuration (its functional features
    depend on cache/predictor geometry); the k-means method is purely a
    property of the workload.
    """
    interval_length = spec.resolved_interval_length(total_instructions)
    if spec.method == "stratified":
        if config is None:
            raise ValueError("stratified selection needs a configuration")
        profile = store.functional_profile(
            config, workload, total_instructions, interval_length
        )
        return select_stratified(
            profile, proxy_cycles(profile, config), spec.max_intervals
        )
    return store.selection(
        workload,
        total_instructions,
        interval_length=interval_length,
        max_intervals=spec.max_intervals,
        projection_dim=spec.projection_dim,
        seed=spec.seed,
        iterations=spec.kmeans_iterations,
    )


def _measure_intervals(
    config: SimulationConfig,
    workload: Workload,
    selection: IntervalSelection,
    spec: SamplingSpec,
    store: CheckpointStore,
):
    """Simulate the selected intervals; returns (interval results,
    weights).

    Each contiguous segment is measured in start order by
    :func:`_measure_segment`, and a jumped segment publishes its
    post-skip state, so the next one resumes from that prefix instead of
    skipping from the warm state.
    """
    segments = _segments(selection.intervals)
    persistent = active_store() is not None
    interval_results: List[SimulationResult] = []
    for n, indices in enumerate(segments):
        # A post-skip snapshot is worth its deep copy only when a later
        # segment -- or, through the store, a later run -- restores it.
        interval_results += _measure_segment(
            config, workload, selection, spec, indices, store,
            publish=persistent or n + 1 < len(segments))
    return interval_results, [interval.weight
                              for interval in selection.intervals]


def _segments(intervals) -> List[Tuple[int, ...]]:
    """Partition a sorted interval selection into maximal contiguous runs.

    Two intervals belong to the same segment exactly when the second
    continues the first (``start == previous start + previous length``):
    within a segment one timed stretch covers every interval, across
    segments the walk restores a checkpoint and functionally skips.  Each
    element is a tuple of indices into ``intervals``.
    """
    segments: List[Tuple[int, ...]] = []
    current = [0]
    for i in range(1, len(intervals)):
        previous = intervals[i - 1]
        if (intervals[i].start_instruction
                == previous.start_instruction + previous.length):
            current.append(i)
        else:
            segments.append(tuple(current))
            current = [i]
    if intervals:
        segments.append(tuple(current))
    return segments


def _measure_segment(
    config: SimulationConfig,
    workload: Workload,
    selection,
    spec: SamplingSpec,
    indices: Sequence[int],
    store: CheckpointStore,
    *,
    publish: bool,
) -> List[SimulationResult]:
    """Measure one contiguous segment of selected intervals.

    The first interval either starts at instruction 0 (plain warm-up,
    like a full run) or is a jump: restore the deepest positioned
    checkpoint at or before the skip target -- a post-skip state
    published by an earlier segment or run, or the warm state at offset
    0 -- else warm up, then functionally skip the remaining delta and
    refill the pipeline with a timed-but-discarded warm stretch.  Every
    subsequent interval continues the one timed run.  Functional skips
    are split-invariant and restore/warm-up states are bit-identical by
    construction, so the returned deltas are the same bit for bit
    whichever prefix was restored.  ``publish`` records the post-skip
    state of a jump as a positioned checkpoint for later segments and
    runs.
    """
    intervals = selection.intervals
    first = intervals[indices[0]]
    simulator = Simulator(config, workload)
    if first.start_instruction == 0:
        simulator.warm_up()
        before: Optional[SimulationResult] = None
        segment_target = 0
    else:
        warm_len = min(spec.detail_warmup, first.start_instruction)
        skip_target = first.start_instruction - warm_len
        found = store.positioned_checkpoint(config, workload, skip_target)
        if found is None:
            restored_offset = 0
            simulator.warm_up()
        else:
            restored_offset, checkpoint = found
            simulator.restore(checkpoint)
        simulator.skip_to(skip_target)
        if publish and restored_offset < skip_target:
            # Publish the post-skip state so later segments (and later
            # runs) resume from this prefix instead of skipping from 0.
            store.publish(POSITIONED, config, workload, skip_target,
                          simulator.snapshot())
        before = simulator.run(warm_len) if warm_len else None
        segment_target = warm_len
    results: List[SimulationResult] = []
    for index in indices:
        segment_target += intervals[index].length
        after = simulator.run(segment_target)
        results.append(result_delta(after, before))
        before = after
    return results


def _execute_sampled(
    config: SimulationConfig,
    workload: Union[Workload, str],
    max_instructions: Optional[int] = None,
    spec: Optional[SamplingSpec] = None,
    store: CheckpointStore = DEFAULT_STORE,
) -> SimulationResult:
    """Sampled run of one configuration on one benchmark (the executor
    primitive behind ``SimTask(sampled=True)``; the public entry point is
    :class:`repro.api.Session` with ``ExecutionOptions(sampled=True)``).

    Returns a :class:`SimulationResult` whose counters estimate the full
    ``max_instructions`` run from the K selected intervals; ``extras``
    records the sampling metadata (``sampled``, ``sampling_intervals``,
    ``sampled_instructions``).
    """
    if spec is None:
        spec = DEFAULT_SPEC
    if isinstance(workload, str):
        # Imported lazily: the runner imports this module for dispatch.
        from ..simulator.runner import get_workload

        workload = get_workload(workload)
    total = max_instructions or config.max_instructions
    ensure_compiled_trace(
        workload, max(total, config.resolved_warmup_instructions())
    )
    selection = get_selection(workload, total, spec, store=store,
                              config=config)

    # Per-interval measurements are deterministic per (configuration,
    # workload, budget, spec) -- the dominant cost of a sampled run, so
    # they are themselves artifacts: any previous invocation's timed
    # intervals replay from disk, leaving only selection + aggregation.
    # The selection fingerprint guards against stale payloads (e.g. an
    # algorithm change that kept the key but moved the intervals), and a
    # payload whose interval results *or* weights disagree with the
    # selection -- a short weights list would silently truncate the
    # ``zip`` in ``weighted_aggregate`` -- is recomputed, not trusted.
    # ``result_cache=False`` (the CLI's ``--no-result-cache``) skips the
    # replay just as it does for full-run results: "force resimulation"
    # means the timed loop actually runs.
    from ..cache.results import result_cache_enabled

    disk = active_store()
    measured = None
    measurement_key = None
    selection_fingerprint = content_key("selection-fp", selection)
    if disk is not None:
        measurement_key = content_key(
            "sampled-measurements", stable_repr(config),
            workload.name, workload.profile.seed, total, stable_repr(spec),
        )
    if measurement_key is not None and result_cache_enabled():
        payload = disk.get("measurement", measurement_key)
        if isinstance(payload, dict) \
                and payload.get("selection") == selection_fingerprint:
            payload_weights = payload.get("weights", ())
            if (len(payload.get("interval_results", ())) == selection.k
                    and len(payload_weights) == selection.k
                    and all(isinstance(w, (int, float))
                            and not isinstance(w, bool)
                            and math.isfinite(w)
                            for w in payload_weights)):
                measured = payload
    if measured is not None:
        interval_results = list(measured["interval_results"])
        weights = list(measured["weights"])
    else:
        interval_results, weights = _measure_intervals(
            config, workload, selection, spec, store
        )
        if measurement_key is not None:
            disk.put("measurement", measurement_key, {
                "selection": selection_fingerprint,
                "interval_results": interval_results,
                "weights": weights,
            })

    result = weighted_aggregate(
        interval_results, weights, total_instructions=total
    )
    if spec.method == "stratified":
        # Ratio-corrected cycle estimate: each stratum's summed proxy,
        # scaled by its representative's measured/proxy cycle ratio.
        # Exact whenever the proxy is proportional to true cycles within
        # a stratum; absolute proxy calibration divides out.
        estimated = sum(
            interval.cluster_proxy_mass
            * measured.cycles / interval.proxy
            for interval, measured in zip(
                selection.intervals, interval_results
            )
            if interval.proxy > 0
        )
        if estimated > 0:
            result.cycles = max(1, round(estimated))
    result.extras.update(
        sampled=1.0,
        sampling_intervals=float(selection.k),
        sampling_interval_length=float(selection.interval_length),
        sampled_instructions=float(selection.sampled_instructions),
        sampling_coverage=selection.coverage(),
    )
    return result
