"""Metrics helpers: speedups, harmonic means, budget comparisons."""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..simulator.stats import harmonic_mean, speedup

__all__ = [
    "harmonic_mean",
    "sampling_error_report",
    "speedup",
    "speedup_table",
    "crossover_size",
    "budget_equivalent_size",
]


def speedup_table(
    ipc_by_label: Mapping[str, float], baseline_label: str
) -> Dict[str, float]:
    """Speedup of every configuration over ``baseline_label``."""
    if baseline_label not in ipc_by_label:
        raise KeyError(f"baseline {baseline_label!r} missing from results")
    base = ipc_by_label[baseline_label]
    return {label: speedup(ipc, base) for label, ipc in ipc_by_label.items()}


def crossover_size(
    series_a: Mapping[int, float], series_b: Mapping[int, float]
) -> Optional[int]:
    """Smallest size at which series A reaches (or exceeds) series B.

    Both series map cache size -> IPC.  Returns ``None`` when A never
    reaches B on the common sizes.
    """
    common = sorted(set(series_a) & set(series_b))
    for size in common:
        if series_a[size] >= series_b[size]:
            return size
    return None


def sampling_error_report(
    full_series: Mapping[str, Mapping[int, float]],
    sampled_series: Mapping[str, Mapping[int, float]],
) -> Dict[str, Dict[str, float]]:
    """Per-scheme accuracy of a sampled figure sweep versus the full sweep.

    Both inputs are figure-shaped ``{scheme: {l1_size: hmean_ipc}}``
    mappings (e.g. :meth:`repro.api.Session.figure5_series` run with
    and without sampled execution).  For each scheme the report gives the
    signed relative error per common size plus summary statistics::

        {scheme: {"mean_abs_rel_error": ..., "max_abs_rel_error": ...,
                  "per_size": {size: rel_error}}}
    """
    report: Dict[str, Dict[str, float]] = {}
    for scheme, full_row in full_series.items():
        sampled_row = sampled_series.get(scheme, {})
        per_size: Dict[int, float] = {}
        for size, full_ipc in full_row.items():
            if size not in sampled_row or not full_ipc:
                continue
            per_size[size] = sampled_row[size] / full_ipc - 1.0
        if not per_size:
            continue
        abs_errors = [abs(e) for e in per_size.values()]
        report[scheme] = {
            "mean_abs_rel_error": sum(abs_errors) / len(abs_errors),
            "max_abs_rel_error": max(abs_errors),
            "per_size": per_size,
        }
    return report


def budget_equivalent_size(
    target_ipc: float, series: Mapping[int, float]
) -> Optional[int]:
    """Smallest cache size in ``series`` whose IPC reaches ``target_ipc``.

    Used for the paper's "2.5 KB of CLGP budget matches a 16 KB pipelined
    cache" style statements.  Returns ``None`` if no size reaches it.
    """
    for size in sorted(series):
        if series[size] >= target_ipc:
            return size
    return None
