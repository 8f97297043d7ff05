"""Simulation results and statistics aggregation.

A single run produces a :class:`SimulationResult`; multi-benchmark sweeps
aggregate results with the harmonic mean of IPC, matching the HMEAN bars in
the paper's Figure 6.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from ..memory.hierarchy import FETCH_SOURCES


@dataclass
class SimulationResult:
    """Everything measured in one simulation run."""

    config_label: str
    workload: str
    cycles: int
    committed_instructions: int
    # front end
    fetch_source_lines: Dict[str, int] = field(default_factory=dict)
    fetch_source_instructions: Dict[str, int] = field(default_factory=dict)
    prefetch_source: Dict[str, int] = field(default_factory=dict)
    prefetches_issued: int = 0
    stream_mispredictions: int = 0
    streams_predicted: int = 0
    wrong_path_instructions: int = 0
    flushes: int = 0
    # caches
    l1_hits: int = 0
    l1_misses: int = 0
    l0_hits: int = 0
    l0_misses: int = 0
    l2_instruction_hits: int = 0
    l2_instruction_misses: int = 0
    # back end
    dispatched_instructions: int = 0
    squashed_instructions: int = 0
    loads: int = 0
    dl1_misses: int = 0
    bus_grants: Dict[str, int] = field(default_factory=dict)
    # raw extras for debugging / extended analysis
    extras: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (the paper's main metric)."""
        return self.committed_instructions / self.cycles if self.cycles else 0.0

    @property
    def misprediction_rate(self) -> float:
        if not self.streams_predicted:
            return 0.0
        return self.stream_mispredictions / self.streams_predicted

    def fetch_source_fractions(self, per_instruction: bool = True) -> Dict[str, float]:
        counts = (
            self.fetch_source_instructions if per_instruction
            else self.fetch_source_lines
        )
        total = sum(counts.values())
        if not total:
            return {s: 0.0 for s in FETCH_SOURCES}
        return {s: counts.get(s, 0) / total for s in FETCH_SOURCES}

    def prefetch_source_fractions(self) -> Dict[str, float]:
        total = sum(self.prefetch_source.values())
        if not total:
            return {s: 0.0 for s in FETCH_SOURCES}
        return {s: self.prefetch_source.get(s, 0) / total for s in FETCH_SOURCES}

    def one_cycle_fetch_fraction(self) -> float:
        """Fraction of fetches served by one-cycle sources (pre-buffer + L0),
        the paper's headline 88% / 95% statistic."""
        fractions = self.fetch_source_fractions()
        return fractions.get("PB", 0.0) + fractions.get("il0", 0.0)

    def summary(self) -> str:
        return (
            f"{self.config_label:>18s} | {self.workload:>8s} | "
            f"IPC {self.ipc:5.3f} | cycles {self.cycles:>8d} | "
            f"mispred {self.misprediction_rate:5.1%} | "
            f"1-cycle fetches {self.one_cycle_fetch_fraction():5.1%}"
        )


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean; returns 0.0 for an empty input or any zero value."""
    vals = list(values)
    if not vals or any(v <= 0 for v in vals):
        return 0.0
    return len(vals) / sum(1.0 / v for v in vals)


def harmonic_mean_ipc(results: Iterable[SimulationResult]) -> float:
    """Harmonic-mean IPC over a set of per-benchmark results (paper HMEAN)."""
    return harmonic_mean(r.ipc for r in results)


def aggregate_fetch_sources(results: Iterable[SimulationResult],
                            per_instruction: bool = True) -> Dict[str, float]:
    """Fetch-source distribution summed over several benchmark runs."""
    totals: Dict[str, int] = {s: 0 for s in FETCH_SOURCES}
    for result in results:
        counts = (
            result.fetch_source_instructions if per_instruction
            else result.fetch_source_lines
        )
        for source, count in counts.items():
            totals[source] = totals.get(source, 0) + count
    grand = sum(totals.values())
    if not grand:
        return {s: 0.0 for s in FETCH_SOURCES}
    return {s: totals[s] / grand for s in FETCH_SOURCES}


def aggregate_prefetch_sources(results: Iterable[SimulationResult]) -> Dict[str, float]:
    """Prefetch-source distribution summed over several benchmark runs."""
    totals: Dict[str, int] = {s: 0 for s in FETCH_SOURCES}
    for result in results:
        for source, count in result.prefetch_source.items():
            totals[source] = totals.get(source, 0) + count
    grand = sum(totals.values())
    if not grand:
        return {s: 0.0 for s in FETCH_SOURCES}
    return {s: totals[s] / grand for s in FETCH_SOURCES}


#: ``extras`` entries that describe the configuration rather than count
#: events; a weighted combination keeps them as-is instead of scaling them.
_NON_ADDITIVE_EXTRAS = frozenset(
    {"l1_latency", "l2_latency", "prebuffer_entries"}
)


def weighted_aggregate(
    results: Sequence[SimulationResult],
    weights: Sequence[float],
    total_instructions: Optional[int] = None,
) -> SimulationResult:
    """SimPoint-style weighted combination of per-interval results.

    Each result is one simulated representative interval and ``weights[i]``
    is the fraction of the full run its cluster covers.  The combined
    estimate follows the standard sampled-simulation arithmetic: overall
    CPI is the weight-averaged per-interval CPI (so the reported IPC is
    the weighted harmonic mean of interval IPCs), and every event counter
    is each interval's *rate* (events per committed instruction) averaged
    by weight and scaled to ``total_instructions``.  Counters stay
    integers; ``extras`` entries naming configuration constants (cache
    latencies, buffer sizes) are carried over unscaled.
    """
    results = list(results)
    weights = [float(w) for w in weights]
    if not results:
        raise ValueError("weighted_aggregate needs at least one result")
    if len(results) != len(weights):
        raise ValueError("results and weights differ in length")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ValueError("weights must not all be zero")
    weights = [w / total_weight for w in weights]
    if total_instructions is None:
        total_instructions = sum(r.committed_instructions for r in results)

    # Per-interval scale: instructions the interval stands for, divided by
    # the instructions it actually committed (rate extrapolation).
    scales = [
        w * total_instructions / r.committed_instructions
        if r.committed_instructions else 0.0
        for w, r in zip(weights, results)
    ]
    cpi = sum(
        w * r.cycles / r.committed_instructions
        for w, r in zip(weights, results)
        if r.committed_instructions
    )

    def combine_int(name: str) -> int:
        return round(sum(
            s * getattr(r, name) for s, r in zip(scales, results)
        ))

    def combine_dict(name: str) -> Dict[str, int]:
        out: Dict[str, float] = {}
        for s, r in zip(scales, results):
            for key, value in getattr(r, name).items():
                out[key] = out.get(key, 0.0) + s * value
        return {key: round(value) for key, value in out.items()}

    combined: Dict[str, object] = {
        "config_label": results[0].config_label,
        "workload": results[0].workload,
        "cycles": max(1, round(cpi * total_instructions)),
        "committed_instructions": total_instructions,
    }
    for f in dataclasses.fields(SimulationResult):
        if f.name in combined or f.name == "extras":
            continue
        sample = getattr(results[0], f.name)
        if isinstance(sample, dict):
            combined[f.name] = combine_dict(f.name)
        else:
            combined[f.name] = combine_int(f.name)

    extras: Dict[str, float] = {}
    for s, r in zip(scales, results):
        for key, value in r.extras.items():
            if key in _NON_ADDITIVE_EXTRAS:
                extras[key] = value
            else:
                extras[key] = extras.get(key, 0.0) + s * value
    combined["extras"] = extras
    return SimulationResult(**combined)


def result_delta(
    after: SimulationResult, before: Optional[SimulationResult]
) -> SimulationResult:
    """Counters accumulated between two snapshots of one resumable run.

    ``Simulator.run`` is resumable and its result counters are cumulative,
    so the statistics of a measurement window are the field-wise difference
    of the result at the window's end and the result at its start.  Sampled
    simulation uses this to discard a short timed warm-up stretch in front
    of each measured interval: the pipeline-fill/queue-fill transient lands
    in the discarded prefix instead of biasing the interval's IPC.
    ``before=None`` returns ``after`` unchanged (window starts at reset).
    """
    if before is None:
        return after
    fields: Dict[str, object] = {
        "config_label": after.config_label,
        "workload": after.workload,
    }
    for f in dataclasses.fields(SimulationResult):
        if f.name in fields or f.name == "extras":
            continue
        a, b = getattr(after, f.name), getattr(before, f.name)
        if isinstance(a, dict):
            fields[f.name] = {
                key: a.get(key, 0) - b.get(key, 0)
                for key in set(a) | set(b)
            }
        else:
            fields[f.name] = a - b
    extras: Dict[str, float] = {}
    for key, value in after.extras.items():
        if key in _NON_ADDITIVE_EXTRAS:
            extras[key] = value
        else:
            extras[key] = value - before.extras.get(key, 0)
    fields["extras"] = extras
    return SimulationResult(**fields)


def speedup(new: float, old: float) -> float:
    """Relative speedup of ``new`` over ``old`` (e.g. 0.035 = +3.5%)."""
    if old <= 0:
        return 0.0
    return new / old - 1.0
