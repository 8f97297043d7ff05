"""``repro.api`` -- the one front door for running anything in this toolkit.

Every experiment -- full, sampled, swept, cached, parallel -- is
submitted, observed and collected through this package:

>>> from repro.api import ExperimentSpec, Session
>>> with Session() as session:                       # doctest: +SKIP
...     result = session.run(ExperimentSpec("CLGP+L0", "gcc",
...                                         max_instructions=5000))
...     print(result.results[0].ipc)

* :class:`Session` owns execution policy (worker processes, the shared
  pool lifecycle, artifact-cache configuration, the workload registry),
* :class:`ExperimentSpec` / :class:`ExecutionOptions` are the typed,
  frozen request models,
* :meth:`Session.submit` returns a :class:`RunHandle` exposing
  ``status()``, streamed :class:`ProgressEvent`\\ s (tasks completed /
  total, per-task timing, artifact-cache hits), blocking ``result()``
  and ``cancel()``,
* ``session.figure1_series(...)`` ... ``figure8_series``,
  ``headline_speedups`` and ``ablation_series`` rebuild every paper
  figure through the same machinery (:mod:`repro.api.experiments`),
* :class:`ExecutionOptions` carries the fault-tolerance policy
  (``task_timeout``, ``max_retries``, deterministic ``faults``
  injection); failed tasks surface as typed :class:`TaskFailure`
  entries in a partial :class:`RunResult` instead of exceptions.

**v1 stability contract**: everything exported below is the supported,
versioned surface of the toolkit.  Names are only added, never removed
or repurposed, within v1; behavioural guarantees (result bit-identity
between ``jobs=1``/``jobs=N`` and sampled replay, eager spec validation,
event ordering) are part of the contract.  The pre-façade free functions
(``run_single`` and friends, ``figureN_series``, ``run_sampled``) have
completed their deprecation cycle and are gone; this façade is the only
entry point.

Re-exported building blocks (``paper_config``, ``Simulator``,
``SamplingSpec``, the report formatters, Tables 1-3, the cache
inspection helpers) are stable supporting API: the façade is also the
single import site the CLI and all ``examples/`` use.
"""

from ..analysis.metrics import (
    budget_equivalent_size,
    crossover_size,
    sampling_error_report,
    speedup_table,
)
from ..analysis.report import (
    format_ipc_sweep,
    format_key_value_table,
    format_latency_table,
    format_per_benchmark,
    format_sampling_errors,
    format_source_distribution,
    format_speedups,
)
from ..analysis.tables import table1, table2, table3
from ..cache.store import cache_enabled, get_store
from ..faults import FaultPlan
from ..memory.hierarchy import FETCH_SOURCES
from ..sampling.sampled import SamplingSpec, get_selection
from ..simulator.config import SimulationConfig
from ..simulator.plan import (
    ExperimentPlan,
    PlanResults,
    SimTask,
    TaskFailure,
    TaskFailureError,
)
from ..simulator.presets import SCHEMES, paper_config, scheme_descriptions
from ..simulator.runner import get_workload, resolve_jobs
from ..simulator.simulator import Simulator
from ..simulator.stats import SimulationResult, harmonic_mean_ipc, speedup
from ..workloads.spec2000 import DEFAULT_MIX, SPECINT2000_NAMES, profile_for
from .experiments import DEFAULT_SWEEP_SIZES
from .session import (
    RUN_STATUSES,
    Progress,
    ProgressEvent,
    RunCancelled,
    RunHandle,
    RunResult,
    Session,
    default_session,
)
from .spec import DEFAULT_OPTIONS, ExecutionOptions, ExperimentSpec

__all__ = [
    # the façade itself
    "Session",
    "ExperimentSpec",
    "ExecutionOptions",
    "DEFAULT_OPTIONS",
    "RunHandle",
    "RunResult",
    "RunCancelled",
    "Progress",
    "ProgressEvent",
    "RUN_STATUSES",
    "default_session",
    # fault tolerance
    "TaskFailure",
    "TaskFailureError",
    "FaultPlan",
    # request/plan building blocks
    "ExperimentPlan",
    "PlanResults",
    "SimTask",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SamplingSpec",
    "get_selection",
    "paper_config",
    "scheme_descriptions",
    "get_workload",
    "resolve_jobs",
    "SCHEMES",
    "DEFAULT_MIX",
    "DEFAULT_SWEEP_SIZES",
    "SPECINT2000_NAMES",
    "FETCH_SOURCES",
    "profile_for",
    # aggregation / reporting
    "harmonic_mean_ipc",
    "speedup",
    "speedup_table",
    "budget_equivalent_size",
    "crossover_size",
    "sampling_error_report",
    "format_ipc_sweep",
    "format_key_value_table",
    "format_latency_table",
    "format_per_benchmark",
    "format_sampling_errors",
    "format_source_distribution",
    "format_speedups",
    "table1",
    "table2",
    "table3",
    # artifact cache inspection
    "cache_enabled",
    "get_store",
]
