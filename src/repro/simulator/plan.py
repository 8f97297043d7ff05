"""Declarative experiment plans: typed simulation tasks, one executor.

Every paper experiment is some grid of (configuration x benchmark), run
either in full or sampled, and then regrouped into a figure-shaped
mapping.  Instead of each figure builder hand-rolling its own nested
loops (which kept ``jobs=N`` from working anywhere but ``repro-clgp
run``), builders append typed :class:`SimTask` entries to an
:class:`ExperimentPlan` and call :meth:`ExperimentPlan.run`; the plan
hands the flat task list to the one executor in
:mod:`repro.simulator.runner`, which runs it inline or on the worker
processes the runner owns.  Results come back in task order regardless of
``jobs`` and are regrouped by each task's ``key``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .config import SimulationConfig
from .stats import SimulationResult, harmonic_mean_ipc


@dataclass(frozen=True)
class SimTask:
    """One simulation to run: a configuration on a benchmark.

    ``key`` is an arbitrary grouping key chosen by the plan builder (for
    example ``(scheme, l1_size)``); :meth:`PlanResults.by_key` groups the
    executed results by it in insertion order.  ``sampled`` selects
    SimPoint-style sampled simulation (see :mod:`repro.sampling`), with
    ``sampling`` optionally overriding the default
    :class:`~repro.sampling.sampled.SamplingSpec`.
    """

    config: SimulationConfig
    benchmark: str
    max_instructions: Optional[int] = None
    sampled: bool = False
    sampling: Optional[object] = None
    key: Tuple = ()


@dataclass(frozen=True)
class TaskFailure:
    """Terminal failure of one task, surfaced in place of its result.

    Produced by the supervised executor when a task exhausts its retry
    budget: ``kind`` says how it died (``"timeout"`` for a deadline
    overrun, ``"worker-lost"`` when the worker process kept dying,
    ``"error"`` for a repeated in-task exception).  Failures occupy the
    task's slot in ``PlanResults.results`` so the run stays aligned and
    partial -- :meth:`PlanResults.by_key` and the IPC aggregations skip
    them; :meth:`PlanResults.require_success` raises if any exist.
    """

    index: int
    benchmark: str
    key: Tuple = ()
    kind: str = "error"     # "timeout" | "worker-lost" | "error"
    message: str = ""
    attempts: int = 1

    def __str__(self) -> str:
        detail = f": {self.message}" if self.message else ""
        return (f"task {self.index} ({self.benchmark}) {self.kind} "
                f"after {self.attempts} attempt(s){detail}")


class TaskFailureError(RuntimeError):
    """Raised by strict surfaces (``run_tasks``, figure builders) when a
    plan finished with failed tasks; carries the typed failures."""

    def __init__(self, failures: List[TaskFailure]):
        self.failures = list(failures)
        lines = "; ".join(str(f) for f in self.failures)
        super().__init__(
            f"{len(self.failures)} task(s) failed after retries: {lines}")


#: What a task slot holds once executed.
TaskOutcome = Union[SimulationResult, TaskFailure]


@dataclass
class PlanResults:
    """Executed plan: tasks and their outcomes, aligned and in task order.

    Outcomes are :class:`SimulationResult`, or :class:`TaskFailure` for
    tasks the supervised executor gave up on (a *partial* result).  The
    grouping/aggregation helpers skip failures so figures degrade to the
    tasks that did finish; callers that need completeness use
    :meth:`require_success` or inspect :attr:`failures`.
    """

    tasks: List[SimTask]
    results: List[TaskOutcome]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def failures(self) -> List[TaskFailure]:
        return [r for r in self.results if isinstance(r, TaskFailure)]

    @property
    def successes(self) -> List[SimulationResult]:
        return [r for r in self.results if not isinstance(r, TaskFailure)]

    def require_success(self) -> "PlanResults":
        """Return self, raising :class:`TaskFailureError` on any failure."""
        failures = self.failures
        if failures:
            raise TaskFailureError(failures)
        return self

    def by_key(self) -> Dict[Tuple, List[SimulationResult]]:
        """Successful results grouped by task key, keys in first-insertion
        order (failed tasks are skipped; their key still appears if any
        sibling succeeded)."""
        grouped: Dict[Tuple, List[SimulationResult]] = {}
        for task, result in zip(self.tasks, self.results):
            if isinstance(result, TaskFailure):
                continue
            grouped.setdefault(task.key, []).append(result)
        return grouped

    def hmean_by_key(self) -> Dict[Tuple, float]:
        """Harmonic-mean IPC per task key (the paper's HMEAN bars)."""
        return {
            key: harmonic_mean_ipc(results)
            for key, results in self.by_key().items()
        }


@dataclass
class ExperimentPlan:
    """A flat, ordered list of :class:`SimTask` plus the run entry point."""

    name: str = ""
    tasks: List[SimTask] = field(default_factory=list)

    def add(
        self,
        config: SimulationConfig,
        benchmark: str,
        max_instructions: Optional[int] = None,
        key: Tuple = (),
        sampled: bool = False,
        sampling: Optional[object] = None,
    ) -> SimTask:
        """Append one task and return it."""
        task = SimTask(
            config=config,
            benchmark=benchmark,
            max_instructions=max_instructions,
            sampled=sampled,
            sampling=sampling,
            key=key,
        )
        self.tasks.append(task)
        return task

    def __len__(self) -> int:
        return len(self.tasks)

    def run(self, jobs: int = 1) -> PlanResults:
        """Execute every task (inline, or fanned out when ``jobs != 1``).

        Result order always matches task order.
        """
        from .runner import run_tasks   # runner imports this module

        return PlanResults(
            tasks=list(self.tasks),
            results=run_tasks(self.tasks, jobs=jobs),
        )
