"""The :class:`Session` façade: submit experiments, observe run handles.

**v1 stability contract**: ``Session`` construction arguments, the
``submit``/``run`` entry points, the :class:`RunHandle` surface
(``status``/``progress``/``events``/``result``/``cancel``) and the
:class:`ProgressEvent` fields are stable.  New methods and event fields
may be added; none of the above is repurposed or removed within v1.

A session owns execution policy -- worker-process count, the shared pool
lifecycle, artifact-cache directory/enable, and the workload registry --
so callers describe experiments (:class:`~repro.api.spec.ExperimentSpec`)
instead of re-wiring jobs/cache/pool plumbing per call:

>>> from repro.api import ExperimentSpec, Session
>>> with Session(jobs=0) as session:            # doctest: +SKIP
...     handle = session.submit(ExperimentSpec("CLGP+L0", "gcc",
...                                            max_instructions=5000))
...     for event in handle.events():
...         print(event.completed, "/", event.total)
...     result = handle.result()

Submissions execute on a background thread over the one task executor
(:func:`repro.simulator.runner.iter_task_results`); handles stream
per-task progress events (count, benchmark, wall-clock seconds, artifact
cache hits), block on :meth:`RunHandle.result`, and can be cancelled.
Each submission runs under its own execution context
(:mod:`repro.context`): the submitting thread's context, overridden by
the session's ``cache_dir``/``cache``, overridden by the submission's
:class:`~repro.api.spec.ExecutionOptions`.  Nothing process-wide is
configured, so submissions of any policy run concurrently (the shared
pool and the workers' in-memory caches are reused across them).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..context import ExecutionContext, current_context, use_context
from ..simulator.plan import ExperimentPlan, PlanResults, TaskFailure
from ..simulator.runner import (
    get_workload,
    iter_task_results,
    resolve_jobs,
    shutdown_idle_pool,
)
from ..workloads.spec2000 import SPECINT2000_NAMES
from ..workloads.trace import Workload
from .spec import DEFAULT_OPTIONS, ExecutionOptions, ExperimentSpec

#: Handle states; ``done``/``failed``/``cancelled`` are terminal.
RUN_STATUSES = ("queued", "running", "done", "failed", "cancelled")


class RunCancelled(RuntimeError):
    """Raised by :meth:`RunHandle.result` after a successful cancel."""


@dataclass(frozen=True)
class ProgressEvent:
    """One observation of a run's progress.

    ``kind`` is ``"submitted"``, ``"started"``, ``"task"`` (one finished
    simulation; carries ``benchmark``/``key``/``seconds``/``cache_hits``/
    ``result_cache_hits``), ``"task-failed"`` (a task the supervised
    executor gave up on; carries ``error`` and counts toward
    ``completed``), or the terminal ``"done"``/``"failed"``/
    ``"cancelled"``.  ``completed`` counts finished tasks and is
    monotonically non-decreasing across a handle's event stream.
    ``cache_hits`` counts ordinary artifact-store reads (traces,
    warm-ups, checkpoints, ...); ``result_cache_hits`` counts full-run
    **result replays** -- tasks whose complete ``SimulationResult`` came
    off disk with no simulation at all -- and is reported distinctly so
    consumers can tell "warm artifacts" from "did not simulate".
    ``retries`` is how many times the task had to be re-dispatched
    (worker loss, in-task error) before this completion.
    ``tasks_per_second``/``eta_seconds`` are the run-rate estimate and
    remaining-time projection derived from completed-task timings
    (``None`` until the first task finishes); the experiment service
    streams them over SSE so clients can render progress bars without
    their own bookkeeping.
    """

    kind: str
    completed: int
    total: int
    benchmark: Optional[str] = None
    key: Optional[tuple] = None
    seconds: Optional[float] = None
    cache_hits: Optional[int] = None
    result_cache_hits: Optional[int] = None
    retries: Optional[int] = None
    error: Optional[str] = None
    tasks_per_second: Optional[float] = None
    eta_seconds: Optional[float] = None


class Progress(tuple):
    """``(completed, total)`` plus run-rate estimates.

    Unpacks and compares exactly like the plain 2-tuple
    :meth:`RunHandle.progress` has always returned;
    :attr:`tasks_per_second` and :attr:`eta_seconds` ride along as
    attributes (``None`` until the first task completes).
    """

    def __new__(cls, completed: int, total: int,
                tasks_per_second: Optional[float] = None,
                eta_seconds: Optional[float] = None) -> "Progress":
        self = tuple.__new__(cls, (completed, total))
        self.tasks_per_second = tasks_per_second
        self.eta_seconds = eta_seconds
        return self

    @property
    def completed(self) -> int:
        return self[0]

    @property
    def total(self) -> int:
        return self[1]


@dataclass
class RunResult(PlanResults):
    """An executed submission: aligned tasks/results plus run metadata.

    Inherits the regrouping helpers (``by_key``, ``hmean_by_key``,
    iteration in task order) from :class:`PlanResults`.  A run whose
    tasks exhausted their retry budget is **partial**, not an error:
    failed slots hold typed :class:`TaskFailure` values (also listed by
    :attr:`failed_tasks`), and the aggregation helpers skip them.
    """

    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    #: Tasks answered by a full-run result replay (no simulation ran).
    result_cache_hits: int = 0
    #: Total task re-dispatches the supervisor performed (worker loss,
    #: in-task errors) across the whole run.
    task_retries: int = 0

    @property
    def failed_tasks(self) -> List[TaskFailure]:
        """Tasks that exhausted the retry budget (alias of ``failures``)."""
        return self.failures


class RunHandle:
    """Observable handle for one submitted experiment plan.

    Returned by :meth:`Session.submit`; thread-safe.  ``events()`` is a
    single-consumer stream (each event is delivered once); the complete
    log remains available as :attr:`event_log` afterwards.
    """

    def __init__(self, session: "Session", plan: ExperimentPlan,
                 options: ExecutionOptions, jobs: int,
                 context: ExecutionContext) -> None:
        self._session = session
        self._plan = plan
        self._options = options
        self._jobs = jobs
        self._context = context
        self._status = "queued"
        self._completed = 0
        self._total = len(plan)
        self._tasks_per_second: Optional[float] = None
        self._eta_seconds: Optional[float] = None
        self._result: Optional[RunResult] = None
        self._error: Optional[BaseException] = None
        # Reentrant: listeners run under the lock (so late attachers can
        # replay the log without missing or duplicating events) and may
        # themselves call cancel(), which takes the lock again.
        self._lock = threading.RLock()
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._queue: "queue.Queue[Optional[ProgressEvent]]" = queue.Queue()
        self._listeners: List[Callable[[ProgressEvent], None]] = []
        #: Every event emitted so far, in emission order.
        self.event_log: List[ProgressEvent] = []

    # -- observation ------------------------------------------------------
    @property
    def plan(self) -> ExperimentPlan:
        return self._plan

    def status(self) -> str:
        """One of :data:`RUN_STATUSES`."""
        return self._status

    def progress(self) -> "Progress":
        """``(tasks completed, tasks total)``, as a :class:`Progress`
        carrying ``tasks_per_second``/``eta_seconds`` estimates."""
        return Progress(self._completed, self._total,
                        self._tasks_per_second, self._eta_seconds)

    def add_listener(self, listener: Callable[[ProgressEvent], None]) -> None:
        """Invoke ``listener(event)`` for every event of the run.

        Events emitted before the listener attached are replayed to it
        immediately (in order), so late attachers see the complete
        stream exactly once; subsequent events are delivered from the
        executor thread, synchronously between tasks.
        """
        with self._lock:
            for event in self.event_log:
                listener(event)
            self._listeners.append(listener)

    def events(self) -> Iterator[ProgressEvent]:
        """Yield progress events as they arrive, ending after the
        terminal event.  Single consumer; see :attr:`event_log` for the
        full history."""
        while True:
            event = self._queue.get()
            if event is None:
                return
            yield event

    # -- completion -------------------------------------------------------
    def result(self, timeout: Optional[float] = None) -> RunResult:
        """Block until the run finishes and return its :class:`RunResult`.

        Raises :class:`TimeoutError` if ``timeout`` elapses first,
        :class:`RunCancelled` if the run was cancelled, or the original
        exception if the run failed.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"run {self._plan.name!r} still {self._status} "
                f"after {timeout}s")
        if self._status == "cancelled":
            raise RunCancelled(f"run {self._plan.name!r} was cancelled")
        if self._error is not None:
            raise self._error
        return self._result

    def cancel(self) -> bool:
        """Request cancellation; returns ``False`` if already finished.

        Queued runs never start; running ones stop at the next task
        boundary (pool runs additionally tear down outstanding chunks).
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._cancel.set()
            return True

    # -- executor side ----------------------------------------------------
    def _emit(self, kind: str, **fields) -> None:
        event = ProgressEvent(kind=kind, completed=self._completed,
                              total=self._total, **fields)
        with self._lock:
            self.event_log.append(event)
            self._queue.put(event)
            listeners = list(self._listeners)
        for listener in listeners:
            listener(event)
        if kind in ("done", "failed", "cancelled"):
            self._queue.put(None)   # wake events() consumers

    def _finish(self, status: str) -> None:
        with self._lock:
            self._status = status
            self._done.set()
        self._emit(status)


class Session:
    """One front door for running experiments; usable as a context manager.

    Owns the execution policy every submission inherits:

    * ``jobs`` -- worker processes for the simulation grid (``0``/``None``
      = all cores, ``1`` = inline).  The shared multiprocessing pool is
      reused across submissions and torn down by :meth:`close` /
      ``__exit__``.
    * ``cache_dir`` / ``cache`` -- artifact-cache root and enable flag
      for the session's own submissions (``None`` inherits the
      submitting thread's context, then environment/defaults); the
      caller's context is never changed -- :meth:`context` runs a block
      under the session's settings.
    * the workload registry -- :meth:`workload` builds (once per process)
      and returns any registered synthetic benchmark.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None,
                 cache: Optional[bool] = None) -> None:
        resolve_jobs(jobs)   # validate eagerly (0/None = all cores)
        self._jobs = jobs
        self._closed = False
        self._used_pool = False
        self._cache_dir = cache_dir
        self._cache = cache
        #: Executor threads of submissions not yet joined by close().
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def jobs(self) -> int:
        return self._jobs

    def close(self) -> None:
        """Finish this session's outstanding submissions, then shut the
        shared pool down if this session fanned out and no run of any
        session is fanned out on it (atexit reaps a pool left alive)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join()
        if self._used_pool:
            shutdown_idle_pool()

    def context(self):
        """Context manager running the block under the calling thread's
        execution context overridden by this session's ``cache_dir``/
        ``cache``, resolved (the CLI runs each command in one, so
        ``cache ls --cache-dir X`` addresses X)."""
        return use_context(current_context().override(
            cache_dir=self._cache_dir, cache=self._cache).resolved())

    # -- observability ------------------------------------------------------
    def cache_counters(self) -> Dict[str, object]:
        """This process's cache/supervision counters as a JSON-able dict.

        One machine-readable surface (the CLI's ``cache stats --json``)
        over the artifact store (:class:`~repro.cache.store.StoreStats`,
        plus the store's location, per-kind contents and last ``fsck``
        report when one ran), result replay and the supervised
        executor -- so CI jobs and service probes can assert on counters
        instead of scraping human-formatted output.
        """
        import dataclasses

        from ..cache.results import RESULT_CACHE_STATS
        from ..cache.store import cache_enabled, get_store
        from ..simulator.runner import supervisor_stats

        with self.context():
            store = get_store()
            enabled = cache_enabled()
        return {
            "store": {
                "root": str(store.root),
                "schema_version": store.version,
                "enabled": enabled,
                "read_only": store.read_only(),
                "total_bytes": store.total_size(),
                "kinds": {kind: {"files": count, "bytes": size}
                          for kind, (count, size)
                          in sorted(store.describe().items())},
                **dataclasses.asdict(store.stats),
            },
            "result_cache": dataclasses.asdict(RESULT_CACHE_STATS),
            "supervision": dataclasses.asdict(supervisor_stats()),
            "fsck": (store.last_fsck.as_dict()
                     if store.last_fsck is not None else None),
        }

    # -- workload registry --------------------------------------------------
    def workloads(self) -> Tuple[str, ...]:
        """Names of every registered synthetic benchmark."""
        return tuple(SPECINT2000_NAMES)

    def workload(self, name: str) -> Workload:
        """Build (or fetch from the per-process cache) one benchmark."""
        return get_workload(name)

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        spec: Union[ExperimentSpec, ExperimentPlan],
        options: Optional[ExecutionOptions] = None,
    ) -> RunHandle:
        """Submit a spec (or a hand-built plan) for execution.

        Returns immediately with a :class:`RunHandle`; execution happens
        on a background thread, concurrently with every other submission,
        under this submission's resolved execution context.
        """
        if options is None:
            options = DEFAULT_OPTIONS
        if isinstance(spec, ExperimentSpec):
            plan = spec.to_plan(sampled=options.sampled,
                                sampling=options.sampling)
        elif isinstance(spec, ExperimentPlan):
            plan = spec
        else:
            raise TypeError(
                "submit() takes an ExperimentSpec or an ExperimentPlan, "
                f"not {type(spec).__name__}")
        jobs = resolve_jobs(self._jobs if options.jobs is None
                            else options.jobs)
        # A task deadline needs a killable process, so a run with one
        # reaches the pool whatever its size (see iter_task_results).
        if (jobs > 1 and len(plan) > 1) or options.task_timeout is not None:
            self._used_pool = True
        context = current_context().override(
            cache_dir=self._cache_dir, cache=self._cache,
        ).override(
            cache_dir=options.cache_dir, cache=options.cache,
            result_cache=options.result_cache, faults=options.faults,
        ).resolved()
        handle = RunHandle(self, plan, options, jobs, context)
        thread = threading.Thread(
            target=self._execute, args=(handle,),
            name=f"repro-api-{plan.name or 'run'}", daemon=True,
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            self._threads = [alive for alive in self._threads
                             if alive.is_alive()]
            self._threads.append(thread)
            handle._emit("submitted")
            thread.start()
        return handle

    def run(
        self,
        spec: Union[ExperimentSpec, ExperimentPlan],
        options: Optional[ExecutionOptions] = None,
    ) -> RunResult:
        """Submit and block: ``submit(spec, options).result()``."""
        return self.submit(spec, options=options).result()

    # -- paper experiments (see repro.api.experiments for shapes) ---------
    def figure1_series(self, **kwargs) -> Dict[str, Dict[int, float]]:
        from . import experiments
        return experiments.figure1_series(self, **kwargs)

    def figure2_series(self, **kwargs) -> Dict[str, Dict[int, float]]:
        from . import experiments
        return experiments.figure2_series(self, **kwargs)

    def figure4_series(self, **kwargs) -> Dict[str, Dict[int, float]]:
        from . import experiments
        return experiments.figure4_series(self, **kwargs)

    def figure5_series(self, **kwargs) -> Dict[str, Dict[int, float]]:
        from . import experiments
        return experiments.figure5_series(self, **kwargs)

    def figure6_series(self, **kwargs) -> Dict[str, Dict[str, float]]:
        from . import experiments
        return experiments.figure6_series(self, **kwargs)

    def figure7_series(self, with_l0: bool, **kwargs):
        from . import experiments
        return experiments.figure7_series(self, with_l0, **kwargs)

    def figure8_series(self, **kwargs):
        from . import experiments
        return experiments.figure8_series(self, **kwargs)

    def headline_speedups(self, **kwargs) -> Dict[str, Dict[str, float]]:
        from . import experiments
        return experiments.headline_speedups(self, **kwargs)

    def ablation_series(self, **kwargs) -> Dict[str, float]:
        from . import experiments
        return experiments.ablation_series(self, **kwargs)

    # -- executor -----------------------------------------------------------
    def _execute(self, handle: RunHandle) -> None:
        import time

        options = handle._options
        with use_context(handle._context):
            if handle._cancel.is_set():
                handle._finish("cancelled")
                return
            handle._status = "running"
            handle._emit("started")
            tasks = handle._plan.tasks
            results = [None] * len(tasks)
            start = time.perf_counter()
            hits = 0
            result_hits = 0
            retries = 0
            try:
                for completion in iter_task_results(
                        tasks, jobs=handle._jobs, cancel=handle._cancel,
                        task_timeout=options.task_timeout,
                        max_retries=options.max_retries):
                    results[completion.index] = completion.result
                    hits += completion.cache_hits
                    result_hits += completion.result_cache_hits
                    retries += completion.retries
                    handle._completed += 1
                    elapsed = time.perf_counter() - start
                    if elapsed > 0:
                        rate = handle._completed / elapsed
                        handle._tasks_per_second = rate
                        handle._eta_seconds = \
                            (handle._total - handle._completed) / rate
                    task = tasks[completion.index]
                    if completion.failed:
                        failure = completion.result
                        handle._emit(
                            "task-failed",
                            benchmark=failure.benchmark,
                            key=failure.key,
                            retries=completion.retries,
                            error=f"{failure.kind}: {failure.message}",
                            tasks_per_second=handle._tasks_per_second,
                            eta_seconds=handle._eta_seconds,
                        )
                        continue
                    handle._emit(
                        "task",
                        benchmark=task.benchmark,
                        key=task.key,
                        seconds=completion.seconds,
                        cache_hits=completion.cache_hits,
                        result_cache_hits=completion.result_cache_hits,
                        retries=completion.retries,
                        tasks_per_second=handle._tasks_per_second,
                        eta_seconds=handle._eta_seconds,
                    )
                if handle._cancel.is_set():
                    handle._finish("cancelled")
                    return
                handle._eta_seconds = 0.0
                handle._result = RunResult(
                    tasks=list(tasks),
                    results=results,
                    elapsed_seconds=time.perf_counter() - start,
                    cache_hits=hits,
                    result_cache_hits=result_hits,
                    task_retries=retries,
                )
                handle._finish("done")
            except BaseException as exc:   # surfaced via handle.result()
                handle._error = exc
                handle._finish("failed")


# ----------------------------------------------------------------------
# the default session
# ----------------------------------------------------------------------
_DEFAULT: Optional[Session] = None
_DEFAULT_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide default :class:`Session` (inline execution, no
    cache overrides) for callers that do not manage a session of their
    own."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None or _DEFAULT.closed:
            _DEFAULT = Session()
        return _DEFAULT
