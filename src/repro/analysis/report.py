"""Plain-text report formatting for figure/table data.

The benchmark harness and the CLI print these; the format mirrors the
paper's presentation (sizes across the columns, one row per scheme, and
stacked source-distribution rows for Figures 7/8).
"""

from __future__ import annotations

from typing import Mapping

from ..memory.hierarchy import FETCH_SOURCES


def _size_label(size: int) -> str:
    if size >= 1024 and size % 1024 == 0:
        return f"{size // 1024}KB"
    return f"{size}B"


def format_ipc_sweep(
    series: Mapping[str, Mapping[int, float]], title: str
) -> str:
    """Format ``{scheme: {size: ipc}}`` as a text table."""
    sizes = sorted({size for per in series.values() for size in per})
    header = f"{'configuration':>22s} | " + " ".join(
        f"{_size_label(s):>8s}" for s in sizes
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for scheme, per_size in series.items():
        cells = " ".join(
            f"{per_size.get(size, float('nan')):8.3f}" for size in sizes
        )
        lines.append(f"{scheme:>22s} | {cells}")
    return "\n".join(lines)


def format_per_benchmark(
    series: Mapping[str, Mapping[str, float]], title: str
) -> str:
    """Format ``{benchmark: {scheme: ipc}}`` (Figure 6 style)."""
    schemes = sorted({s for per in series.values() for s in per})
    header = f"{'benchmark':>10s} | " + " ".join(f"{s:>16s}" for s in schemes)
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for benchmark, per_scheme in series.items():
        cells = " ".join(
            f"{per_scheme.get(s, float('nan')):16.3f}" for s in schemes
        )
        lines.append(f"{benchmark:>10s} | {cells}")
    return "\n".join(lines)


def format_source_distribution(
    series: Mapping[str, Mapping[int, Mapping[str, float]]], title: str
) -> str:
    """Format ``{scheme: {size: {source: fraction}}}`` (Figures 7/8 style)."""
    lines = [title, "=" * max(len(title), 40)]
    for scheme, per_size in series.items():
        lines.append(f"\n  {scheme}")
        header = f"    {'size':>8s} | " + " ".join(
            f"{src:>6s}" for src in FETCH_SOURCES
        )
        lines.append(header)
        lines.append("    " + "-" * (len(header) - 4))
        for size in sorted(per_size):
            dist = per_size[size]
            cells = " ".join(
                f"{100 * dist.get(src, 0.0):5.1f}%" for src in FETCH_SOURCES
            )
            lines.append(f"    {_size_label(size):>8s} | {cells}")
    return "\n".join(lines)


def format_key_value_table(rows: Mapping[str, object], title: str) -> str:
    """Format a two-column parameter table (Table 2 style)."""
    width = max(len(str(k)) for k in rows) if rows else 10
    lines = [title, "=" * max(len(title), 30)]
    for key, value in rows.items():
        lines.append(f"  {str(key):<{width}s} : {value}")
    return "\n".join(lines)


def format_latency_table(
    table: Mapping[str, Mapping[int, int]], title: str = "Cache access latencies"
) -> str:
    """Format Table 3: ``{tech: {size: cycles}}``."""
    sizes = sorted({size for row in table.values() for size in row})
    header = f"{'technology':>12s} | " + " ".join(
        f"{_size_label(s):>6s}" for s in sizes
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for tech, row in table.items():
        cells = " ".join(f"{row.get(size, 0):6d}" for size in sizes)
        lines.append(f"{tech:>12s} | {cells}")
    return "\n".join(lines)


def format_sampling_errors(
    report: Mapping[str, Mapping[str, object]],
    title: str = "Sampled-vs-full accuracy (hmean IPC relative error)",
) -> str:
    """Format :func:`repro.analysis.metrics.sampling_error_report` output."""
    sizes = sorted({
        size for row in report.values() for size in row["per_size"]
    })
    header = (f"{'configuration':>22s} | " +
              " ".join(f"{_size_label(s):>8s}" for s in sizes) +
              f" | {'mean':>7s} {'max':>7s}")
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for scheme, row in report.items():
        per_size = row["per_size"]
        cells = " ".join(
            f"{100 * per_size[s]:+7.2f}%" if s in per_size else " " * 8
            for s in sizes
        )
        lines.append(
            f"{scheme:>22s} | {cells} | "
            f"{100 * row['mean_abs_rel_error']:6.2f}% "
            f"{100 * row['max_abs_rel_error']:6.2f}%"
        )
    return "\n".join(lines)


def format_speedups(headline: Mapping[str, Mapping[str, object]]) -> str:
    """Format the headline speedups produced by
    :meth:`repro.api.Session.headline_speedups`."""
    lines = ["Headline speedups (4KB L1, pipelined pre-buffers)", "=" * 50]
    for tech, data in headline.items():
        lines.append(
            f"  {tech}: CLGP vs FDP {100 * data['clgp_over_fdp']:+.1f}%   "
            f"CLGP vs base-pipelined {100 * data['clgp_over_base_pipelined']:+.1f}%"
        )
        ipc = data.get("ipc", {})
        if ipc:
            lines.append(
                "      IPC: " + ", ".join(f"{k}={v:.3f}" for k, v in ipc.items())
            )
    return "\n".join(lines)
