"""Typed, frozen request models for the :mod:`repro.api` façade.

**v1 stability contract**: the fields and validation behaviour of
:class:`ExperimentSpec` and :class:`ExecutionOptions` are stable -- new
fields may be added with backwards-compatible defaults, existing fields
are never repurposed or removed within v1.

An :class:`ExperimentSpec` says *what* to run: one or more preset schemes
(see :data:`repro.simulator.presets.SCHEMES`), the benchmarks, the
instruction budget, the technology node, and optionally an L1-size sweep
axis.  An :class:`ExecutionOptions` says *how*: worker processes, sampled
vs full simulation, and per-call artifact-cache overrides.  Both are
frozen (hashable, picklable) and validate eagerly -- a bad spec raises
``ValueError`` at construction, not from inside a worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

from ..faults import FaultPlan, resolve_plan
from ..simulator.plan import ExperimentPlan
from ..simulator.presets import SCHEMES, paper_config
from ..workloads.spec2000 import DEFAULT_MIX, SPECINT2000_NAMES, profile_for


#: Default benchmark mix (frozen copy of the workloads layer's default).
DEFAULT_BENCHMARKS: Tuple[str, ...] = tuple(DEFAULT_MIX)


def _normalize_names(value: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    """One name, ``"all"``, or a sequence of names -> validated tuple."""
    if isinstance(value, str):
        if value.strip().lower() == "all":
            return tuple(SPECINT2000_NAMES)
        value = (value,)
    names = tuple(value)
    if not names:
        raise ValueError("at least one benchmark is required")
    for name in names:
        try:
            profile_for(name)
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from exc
    return names


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: a (scheme x L1 size x benchmark) grid.

    ``scheme`` accepts one preset name or a sequence of them;
    ``benchmarks`` accepts one name, a sequence, or ``"all"`` for the
    full SPECint2000 list.  ``l1_sizes`` is the optional sweep axis --
    when ``None`` the single ``l1_size_bytes`` design point is used.
    ``config_overrides`` forwards extra :class:`SimulationConfig` fields
    (e.g. ``warmup_instructions``) to every generated configuration.

    Tasks are keyed ``(scheme, l1_size)`` for sweeps and ``(scheme,)``
    otherwise, so ``RunResult.by_key()``/``hmean_by_key()`` regroup the
    grid without bookkeeping on the caller's side.
    """

    scheme: Union[str, Tuple[str, ...]]
    benchmarks: Union[str, Tuple[str, ...]] = DEFAULT_BENCHMARKS
    max_instructions: int = 20_000
    technology: object = "0.045um"
    l1_sizes: Optional[Tuple[int, ...]] = None
    l1_size_bytes: int = 4096
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        schemes = ((self.scheme,) if isinstance(self.scheme, str)
                   else tuple(self.scheme))
        if not schemes:
            raise ValueError("at least one scheme is required")
        for scheme in schemes:
            if scheme not in SCHEMES:
                raise ValueError(
                    f"unknown scheme {scheme!r}; choose from {SCHEMES}")
        object.__setattr__(self, "scheme", schemes)
        object.__setattr__(self, "benchmarks",
                           _normalize_names(self.benchmarks))
        if not isinstance(self.max_instructions, int) \
                or self.max_instructions < 1:
            raise ValueError("max_instructions must be a positive integer")
        if self.l1_sizes is not None:
            sizes = tuple(self.l1_sizes)
            if not sizes or any(
                    not isinstance(s, int) or s < 1 for s in sizes):
                raise ValueError("l1_sizes must be positive integers")
            object.__setattr__(self, "l1_sizes", sizes)
        if not isinstance(self.l1_size_bytes, int) or self.l1_size_bytes < 1:
            raise ValueError("l1_size_bytes must be a positive integer")
        if isinstance(self.config_overrides, Mapping):
            object.__setattr__(
                self, "config_overrides",
                tuple(sorted(self.config_overrides.items())))
        else:
            object.__setattr__(
                self, "config_overrides", tuple(self.config_overrides))

    @property
    def schemes(self) -> Tuple[str, ...]:
        """The normalized scheme tuple (``scheme`` accepts one or many)."""
        return self.scheme  # normalized to a tuple in __post_init__

    def to_plan(self, sampled: bool = False,
                sampling: Optional[object] = None) -> ExperimentPlan:
        """Expand the grid into a flat, typed :class:`ExperimentPlan`."""
        plan = ExperimentPlan(self.name or "experiment-spec")
        overrides = dict(self.config_overrides)
        sweep = self.l1_sizes is not None
        for scheme in self.schemes:
            for size in (self.l1_sizes if sweep else (self.l1_size_bytes,)):
                config = paper_config(
                    scheme,
                    l1_size_bytes=size,
                    technology=self.technology,
                    max_instructions=self.max_instructions,
                    **overrides,
                )
                key = (scheme, size) if sweep else (scheme,)
                for benchmark in self.benchmarks:
                    plan.add(config, benchmark, self.max_instructions,
                             key=key, sampled=sampled, sampling=sampling)
        return plan


@dataclass(frozen=True)
class ExecutionOptions:
    """How to run a submitted spec/plan.

    ``jobs=None`` inherits the session's worker count (``0`` = all
    cores); ``sampled=True`` estimates every run from representative
    intervals (:mod:`repro.sampling`), with ``sampling`` optionally
    overriding the default :class:`~repro.sampling.sampled.SamplingSpec`.
    ``cache_dir``/``cache`` override the artifact-cache configuration
    for this submission only (``None`` inherits the ambient setting).
    ``result_cache=False`` (the CLI's ``--no-result-cache``) forces every
    run, full or sampled, to simulate instead of replaying its persisted
    ``SimulationResult``; ``True`` forces replay on even under
    ``REPRO_RESULT_CACHE_DISABLE``; ``None`` inherits.

    Fault-tolerance knobs: ``task_timeout`` (seconds) is a per-task
    deadline -- a task that overruns it is killed and completes as a
    typed :class:`~repro.simulator.plan.TaskFailure` in the (partial)
    ``RunResult``; ``max_retries`` bounds per-task re-dispatches after
    worker loss or in-task errors (``None`` inherits
    ``REPRO_MAX_RETRIES``/2); ``faults`` injects deterministic chaos for
    this submission only -- a :class:`~repro.faults.FaultPlan` or a spec
    string such as ``"worker_kill:0.1,artifact_corrupt:0.05,seed:7"``
    (``None`` inherits the submitting thread's execution context, then
    ``REPRO_FAULTS``).
    """

    jobs: Optional[int] = None
    sampled: bool = False
    sampling: Optional[object] = None
    cache_dir: Optional[str] = None
    cache: Optional[bool] = None
    result_cache: Optional[bool] = None
    task_timeout: Optional[float] = None
    max_retries: Optional[int] = None
    faults: Optional[Union[str, FaultPlan]] = None

    def __post_init__(self) -> None:
        if self.jobs is not None:
            if not isinstance(self.jobs, int):
                raise ValueError("jobs must be an integer, None, or 0")
            if self.jobs < 0:
                raise ValueError(
                    "jobs must be >= 1 (or None/0 for all cores)")
        if self.task_timeout is not None:
            if not isinstance(self.task_timeout, (int, float)) \
                    or self.task_timeout <= 0:
                raise ValueError("task_timeout must be a positive number "
                                 "of seconds (or None)")
        if self.max_retries is not None:
            if not isinstance(self.max_retries, int) or self.max_retries < 0:
                raise ValueError("max_retries must be >= 0 (or None)")
        if self.faults is not None:
            # Validate eagerly (and normalise to a FaultPlan): a typo in
            # a chaos spec should fail here, not inside a worker.
            object.__setattr__(self, "faults", resolve_plan(self.faults))


#: Options used when a submission does not carry its own.
DEFAULT_OPTIONS = ExecutionOptions()
