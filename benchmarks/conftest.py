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

from pathlib import Path

import pytest

from repro.api import ExperimentPlan, Session
from repro.simulator.runner import (
    bench_benchmark_names,
    bench_instruction_budget,
    bench_l1_sizes,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Default knobs (kept deliberately small; see module docstring).
DEFAULT_INSTRUCTIONS = 6000
DEFAULT_SIZES = (256, 1024, 4096, 16384, 65536)


@pytest.fixture(scope="session")
def api_session():
    """One :class:`repro.api.Session` shared by every bench of the run
    (the façade the figure/table benches submit their grids through)."""
    with Session() as session:
        yield session


def run_plan(session, config, names, instructions):
    """Run one explicit configuration over several benchmarks through the
    façade."""
    plan = ExperimentPlan("bench-mix")
    for name in names:
        plan.add(config, name, instructions)
    return session.run(plan).results


@pytest.fixture(scope="session")
def bench_params():
    """Resolved workload parameters shared by all figure benches."""
    return {
        "instructions": bench_instruction_budget(DEFAULT_INSTRUCTIONS),
        "benchmarks": bench_benchmark_names(),
        "sizes": bench_l1_sizes(DEFAULT_SIZES),
    }


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
