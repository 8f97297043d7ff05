"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` file regenerates one table or figure of the paper.
Because the substrate is a pure-Python cycle-level simulator, the default
workload sizes are reduced; they can be scaled with environment variables:

* ``REPRO_BENCH_INSTRUCTIONS`` -- correct-path instructions per run
  (default 6000),
* ``REPRO_BENCH_BENCHMARKS``   -- comma-separated benchmark names or ``all``
  (default: gzip,gcc,eon,mcf),
* ``REPRO_BENCH_SIZES``        -- comma-separated L1 sizes for the sweeps
  (default: 256,1K,4K,16K,64K).

Each benchmark prints the regenerated rows/series (like the paper reports
them) and also writes them to ``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import ExecutionOptions, ExperimentPlan, Session
from repro.simulator.runner import (
    bench_benchmark_names,
    bench_instruction_budget,
    bench_l1_sizes,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Headline performance metrics collected by the throughput benches via
#: the ``bench_metrics`` fixture; flushed to a top-level JSON file at
#: session end so the perf trajectory is tracked per PR.
BENCH_JSON_PATH = Path(__file__).parents[1] / "BENCH_throughput.json"
_BENCH_METRICS: dict = {}

#: Default knobs (kept deliberately small; see module docstring).
DEFAULT_INSTRUCTIONS = 6000
DEFAULT_SIZES = (256, 1024, 4096, 16384, 65536)


@pytest.fixture(scope="session")
def api_session():
    """One :class:`repro.api.Session` shared by every bench of the run
    (the façade the figure/table benches submit their grids through)."""
    with Session() as session:
        yield session


def run_plan(session, config, names, instructions, sampled=False, jobs=1,
             result_cache=None):
    """Run one explicit configuration over several benchmarks through the
    façade.  ``result_cache=False`` forces
    resimulation -- benches that measure the simulator itself must not
    accidentally time a full-run result replay."""
    plan = ExperimentPlan("bench-mix")
    for name in names:
        plan.add(config, name, instructions, sampled=sampled)
    return session.run(plan, options=ExecutionOptions(
        jobs=jobs, result_cache=result_cache)).results


@pytest.fixture(scope="session")
def bench_params():
    """Resolved workload parameters shared by all figure benches."""
    return {
        "instructions": bench_instruction_budget(DEFAULT_INSTRUCTIONS),
        "benchmarks": bench_benchmark_names(),
        "sizes": bench_l1_sizes(DEFAULT_SIZES),
    }


@pytest.fixture(scope="session")
def bench_metrics():
    """Mutable mapping the throughput benches drop headline numbers into
    (instr/s, sampled speedup, cold-vs-warm cache timings)."""
    return _BENCH_METRICS


def pytest_sessionfinish(session, exitstatus):
    """Update ``BENCH_throughput.json`` when any throughput bench ran.

    Merged into the existing file (a session that ran only a subset of
    the benches, like the CI sampled-smoke job, must not discard the
    other dimensions of the trajectory) and skipped entirely on failed
    sessions so a crash never publishes half-measured numbers.
    """
    if not _BENCH_METRICS or exitstatus != 0:
        return
    merged: dict = {}
    try:
        merged = json.loads(BENCH_JSON_PATH.read_text())
    except (OSError, ValueError):
        pass
    for key, value in _BENCH_METRICS.items():
        # One level deep: a session that ran only some parameters of a
        # bench (e.g. one scheme) updates those entries without erasing
        # its siblings.
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    BENCH_JSON_PATH.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n"
    )


@pytest.fixture(scope="session")
def report():
    """Print a reproduction report and persist it under benchmarks/results/."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _report


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive figure-generation function exactly once under
    pytest-benchmark timing (rounds=1, iterations=1)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
