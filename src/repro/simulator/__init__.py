"""Simulator layer: configuration, presets, cycle loop, runner, results."""

from .config import ENGINE_NAMES, PIPELINED_PREBUFFER_ENTRIES, SimulationConfig
from .presets import (
    FIGURE1_SCHEMES,
    FIGURE5_SCHEMES,
    FIGURE6_SCHEMES,
    SCHEMES,
    configs_for_schemes,
    paper_config,
    scheme_descriptions,
)
from .plan import (
    ExperimentPlan,
    PlanResults,
    SimTask,
    TaskFailure,
    TaskFailureError,
)
from .runner import (
    TaskCompletion,
    bench_benchmark_names,
    bench_instruction_budget,
    bench_l1_sizes,
    get_workload,
    iter_task_results,
    resolve_jobs,
    run_tasks,
    supervisor_stats,
)
from .simulator import Simulator, SimulatorCheckpoint, simulate
from .stats import (
    SimulationResult,
    aggregate_fetch_sources,
    aggregate_prefetch_sources,
    harmonic_mean,
    harmonic_mean_ipc,
    result_delta,
    speedup,
    weighted_aggregate,
)

__all__ = [
    "ENGINE_NAMES",
    "ExperimentPlan",
    "FIGURE1_SCHEMES",
    "FIGURE5_SCHEMES",
    "FIGURE6_SCHEMES",
    "PIPELINED_PREBUFFER_ENTRIES",
    "PlanResults",
    "SCHEMES",
    "SimTask",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SimulatorCheckpoint",
    "TaskCompletion",
    "TaskFailure",
    "TaskFailureError",
    "aggregate_fetch_sources",
    "aggregate_prefetch_sources",
    "bench_benchmark_names",
    "bench_instruction_budget",
    "bench_l1_sizes",
    "configs_for_schemes",
    "get_workload",
    "harmonic_mean",
    "harmonic_mean_ipc",
    "iter_task_results",
    "paper_config",
    "resolve_jobs",
    "result_delta",
    "run_tasks",
    "scheme_descriptions",
    "simulate",
    "speedup",
    "supervisor_stats",
    "weighted_aggregate",
]
