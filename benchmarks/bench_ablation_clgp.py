"""Ablation of CLGP's design decisions (see :mod:`repro.core.clgp`).

Each variant reverts one CLGP design choice back to its FDP counterpart:

* ``free-on-use``    -- prestage entries become replaceable on first use
  instead of when their consumers counter reaches zero,
* ``copy-to-cache``  -- consumed prestage lines are copied into the L0/L1
  (re-introducing the replication CLGP avoids),
* ``with filtering`` -- lines already in the I-cache are not prestaged,
  so their fetches pay the multi-cycle cache latency.

The full CLGP design should be the best (or tied-best) variant, and the
FDP reference should be at or below it.
"""

from conftest import run_once


def test_clgp_design_ablation(benchmark, api_session, report, bench_params):
    data = run_once(
        benchmark, api_session.ablation_series,
        technology="0.045um",
        l1_size_bytes=4096,
        benchmarks=bench_params["benchmarks"],
        max_instructions=bench_params["instructions"],
    )
    lines = ["CLGP design-choice ablation (4KB L1, 0.045um)", "=" * 50]
    full = data["CLGP+L0 (full)"]
    for label, value in data.items():
        delta = (value / full - 1.0) * 100 if full else 0.0
        lines.append(f"  {label:<26s} : {value:.3f} IPC ({delta:+.1f}% vs full)")
    report("ablation_clgp", "\n".join(lines))

    # The decisive design choice in this reproduction is the absence of
    # filtering (prestaging even cache-resident lines); reverting it must
    # hurt, and the full design must beat the FDP reference.  The other two
    # choices (free-on-use, copy-to-cache) are reported but may be close to
    # neutral at this design point -- see EXPERIMENTS.md for the discussion.
    assert full >= data["CLGP+L0 with filtering"], "filtering should hurt CLGP"
    assert full >= data["FDP+L0 (reference)"] * 0.97
    assert data["CLGP+L0 free-on-use"] <= full * 1.05
