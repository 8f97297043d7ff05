"""Experiment runner: the one executor behind every sweep.

The paper's figures are produced by sweeping a set of configurations over
a set of benchmarks (and usually over L1 cache sizes).  Those sweeps are
declared as flat lists of typed :class:`~repro.simulator.plan.SimTask`
(see :mod:`repro.simulator.plan`); this module provides the executor that
runs them -- inline or on worker processes it owns -- plus a workload
cache so each synthetic program is built only once per process, and the
environment-controlled defaults used by the benchmark harness.

Sweeps are embarrassingly parallel (one process per simulation), so
``run_tasks`` accepts ``jobs=N`` to fan out over worker processes.
Scheduling is **workload-affine**: tasks are grouped by benchmark and
the groups -- not individual tasks -- are placed onto the workers, so
one worker compiles/loads each benchmark's synthetic program, compiled
trace and sampling artifacts exactly once and serves every configuration
of that benchmark; artifacts missing from the persistent store
(:mod:`repro.cache`) are therefore computed by exactly one worker and
published for every later process.  The workers are shared across
``run_tasks`` calls (and hence across every ``ExperimentPlan.run`` of a
CLI invocation such as ``repro-clgp figure all``), so they keep their
in-memory caches between sweeps.  ``jobs=1`` (the default) runs inline
with identical results and identical ordering.  Tasks flagged
``sampled=True`` dispatch to the sampled-simulation runner in
:mod:`repro.sampling` instead of a full run.

The parallel drive loop is **supervised**, and each worker reads chunks
from its own pipe, fed by one driver thread in this process, so the
runner always knows which run's chunk each worker holds.  When a worker
process dies (OOM kill, crash, injected chaos -- see
:mod:`repro.faults`) its pipe reads end-of-file: exactly that chunk is
lost, and only its tasks are re-dispatched, with exponential backoff, on
a fresh worker -- a sweep survives worker loss instead of hanging on a
result that will never arrive.  A deadline or a cancel kills exactly the
workers that hold the run's chunks.  Each task has a bounded retry budget
(``max_retries``, env ``REPRO_MAX_RETRIES``) and an optional per-task
deadline (``task_timeout``); a task that exhausts either surfaces a
typed :class:`~repro.simulator.plan.TaskFailure` in its result slot and
the rest of the sweep completes normally.

Workers and the parent all publish through the artifact store's
advisory cross-process locking (see :mod:`repro.cache.store`), so many
*runner processes* -- not just many workers of one runner -- may share
one ``.repro-cache/`` while ``cache gc``/``fsck`` run against it.
"""

from __future__ import annotations

import atexit
import collections
import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import faults
from ..cache.traces import ensure_compiled_trace
from ..context import ExecutionContext, current_context, use_context
from ..workloads.spec2000 import DEFAULT_MIX, SPECINT2000_NAMES, profile_for
from ..workloads.trace import Workload, build_workload
from .config import SimulationConfig
from .plan import SimTask, TaskFailure, TaskFailureError, TaskOutcome
from .simulator import _DEFAULT_MAX_CPI, Simulator
from .stats import SimulationResult

#: Cache of built workloads, keyed by (benchmark name, seed).
_WORKLOAD_CACHE: Dict[tuple, Workload] = {}


def get_workload(name: str) -> Workload:
    """Build (or fetch from cache) the synthetic workload for a benchmark."""
    profile = profile_for(name)
    key = (profile.name, profile.seed)
    if key not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[key] = build_workload(profile)
    return _WORKLOAD_CACHE[key]


def clear_process_caches() -> None:
    """Drop the built workloads, and with them everything this process
    derived from them (compiled and prediction traces, warm-up
    artifacts, sampling profiles and selections, checkpoints: each lives
    on its workload).

    Leaves the persistent artifact store untouched: afterwards the
    process behaves like a fresh CLI invocation, which is exactly what
    the cold-vs-warm cache tests need to isolate the on-disk tier.
    """
    _WORKLOAD_CACHE.clear()


# ----------------------------------------------------------------------
# environment-controlled defaults for the benchmark harness
# ----------------------------------------------------------------------
def bench_instruction_budget(default: int = 20_000) -> int:
    """Dynamic instructions per run (env: ``REPRO_BENCH_INSTRUCTIONS``)."""
    try:
        return max(1000, int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", default)))
    except ValueError:
        return default


def bench_benchmark_names(default: Optional[Sequence[str]] = None) -> List[str]:
    """Benchmarks to run (env: ``REPRO_BENCH_BENCHMARKS``, ``all`` for the
    full SPECint2000 list)."""
    raw = os.environ.get("REPRO_BENCH_BENCHMARKS", "")
    if not raw:
        return list(default if default is not None else DEFAULT_MIX)
    if raw.strip().lower() == "all":
        return list(SPECINT2000_NAMES)
    names = [n.strip() for n in raw.split(",") if n.strip()]
    for name in names:
        profile_for(name)  # validate early
    return names


def bench_l1_sizes(default: Optional[Sequence[int]] = None) -> List[int]:
    """L1 sizes for sweeps (env: ``REPRO_BENCH_SIZES``, comma-separated,
    suffixes ``K`` allowed)."""
    raw = os.environ.get("REPRO_BENCH_SIZES", "")
    if not raw:
        return list(default) if default is not None else [256, 1024, 4096, 16384, 65536]

    def parse(token: str) -> int:
        token = token.strip().upper()
        if token.endswith("KB"):
            return int(float(token[:-2]) * 1024)
        if token.endswith("K"):
            return int(float(token[:-1]) * 1024)
        if token.endswith("B"):
            return int(token[:-1])
        return int(token)

    return [parse(t) for t in raw.split(",") if t.strip()]


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def _execute_single(
    config: SimulationConfig,
    benchmark: str,
    max_instructions: Optional[int] = None,
) -> SimulationResult:
    """Run one configuration on one benchmark in full (the executor
    primitive behind ``SimTask(sampled=False)``; the public entry point
    is :class:`repro.api.Session`)."""
    total = max_instructions or config.max_instructions
    workload = get_workload(benchmark)
    # With the artifact cache enabled the compiled trace is persisted
    # once per workload and loaded by every later process; disabled, the
    # workload's own trace compiles the same walk in memory.
    ensure_compiled_trace(
        workload, max(total, config.resolved_warmup_instructions())
    )
    # Imported lazily: repro.sampling imports this module.
    from ..sampling.checkpoint import DEFAULT_STORE, FRONTIER

    simulator = Simulator(config, workload)
    if total:
        # A completed smaller-budget run of the same configuration left
        # its end state as a frontier checkpoint: resume the timed loop
        # from there instead of resimulating the shared prefix
        # (bit-identical -- the budget only decides when to stop).
        # Strictly below the budget: an equal-budget rerun must
        # resimulate, or ``--no-result-cache`` would silently replay.
        restored = DEFAULT_STORE.deepest(FRONTIER, config, workload,
                                         1, total - 1)
        if restored is not None:
            simulator.restore(restored[1])
    result = simulator.run(max_instructions)
    if total:
        committed = result.committed_instructions
        limit = config.max_cycles or total * _DEFAULT_MAX_CPI
        if (committed >= total and result.cycles < limit
                and not DEFAULT_STORE.published(FRONTIER, config, workload,
                                                committed)):
            # Completed without hitting the cycle clamp: the end state is
            # exact mid-run state, safe for any larger budget to resume.
            DEFAULT_STORE.publish(FRONTIER, config, workload, committed,
                                  simulator.snapshot())
    return result


def _run_task(task: SimTask) -> SimulationResult:
    """Run one :class:`SimTask`, in a worker process or inline.

    Every run is deterministic, so with the artifact cache enabled the
    complete :class:`SimulationResult` of an earlier invocation of the
    same task -- full or sampled -- replays byte-identically from the
    store (``--no-result-cache`` / ``ExecutionOptions(result_cache=
    False)`` forces simulation); a hit needs only the workload's
    *identity*, not the built program.  Otherwise full tasks run here
    and sampled ones in :mod:`repro.sampling`, on the workload the
    process's registry builds at most once however many tasks share it,
    so everything derived from it is reused too.
    """
    # Imported lazily: repro.sampling imports this module.
    from ..cache.results import load_cached_result, store_result
    from ..sampling.sampled import DEFAULT_SPEC, _execute_sampled

    profile = profile_for(task.benchmark)
    total = task.max_instructions or task.config.max_instructions
    sampling = (task.sampling or DEFAULT_SPEC) if task.sampled else None
    result = load_cached_result(task.config, profile.name, profile.seed,
                                total, sampling)
    if result is not None:
        return result
    if task.sampled:
        result = _execute_sampled(task.config, task.benchmark,
                                  max_instructions=task.max_instructions,
                                  spec=sampling)
    else:
        result = _execute_single(task.config, task.benchmark,
                                 task.max_instructions)
    store_result(task.config, profile.name, profile.seed, total, sampling,
                 result)
    return result


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a cpuset-limited container sees its own share, not every
    host core), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/0 -> every usable CPU,
    negative -> ValueError, otherwise the value itself."""
    if jobs is None or jobs == 0:
        return max(1, _usable_cpus())
    if jobs < 0:
        raise ValueError("jobs must be >= 1 (or None/0 for all cores)")
    return jobs


# ----------------------------------------------------------------------
# the worker processes (shared by every run, so workers keep their
# in-memory caches between sweeps)
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Worker process: run each chunk of (index, attempt, task) items the
    parent sends, under the run's execution context that rides with it
    (so one worker serves runs of any policy), and send back per-task
    outcomes; return when the parent closes the pipe.

    All tasks of a chunk share one benchmark, so the worker builds (or
    loads from the artifact store) that benchmark's program, compiled
    trace, warm-up artifacts and sampling artifacts once and serves
    every configuration from them.  Per-task timing and store-hit deltas
    ride along so progress consumers (:class:`repro.api.RunHandle`) can
    stream them without a second channel.  A task that raises becomes an
    ``("err", ...)`` outcome rather than poisoning the chunk: its
    chunk-mates' finished work still returns.
    """
    faults.mark_worker()
    while True:
        try:
            context, items = conn.recv()
        except EOFError:
            return
        with use_context(context):
            faults.maybe_kill_worker(items[0][0], items[0][1])
            outcomes = []
            for index, _attempt, task in items:
                try:
                    outcomes.append(("ok", _timed_task(index, task)))
                except Exception as exc:
                    outcomes.append(("err", index,
                                     f"{type(exc).__name__}: {exc}"))
        conn.send(outcomes)


#: Held from ``Pipe()`` until the parent closes the child's end: a worker
#: forked in between would inherit that end, and the first worker's
#: death would then never read as end-of-file.
_SPAWN_LOCK = threading.Lock()


def _spawn_worker():
    """Start one worker process; returns it and the parent's pipe end."""
    with _SPAWN_LOCK:
        conn, child = multiprocessing.Pipe()
        process = multiprocessing.Process(target=_worker_main,
                                          args=(child,), daemon=True)
        process.start()
        child.close()
    return process, conn


def _reap(process, conn) -> None:
    """Kill one worker if it still runs, join it and close its pipe."""
    if process is not None:
        conn.close()
        process.kill()
        process.join()


@dataclass(eq=False)
class _Run:
    """One supervised run as the drivers see it: its chunks' context and
    deadline, its event queue, and whether it has ended."""

    context: ExecutionContext
    task_timeout: Optional[float]
    events: queue.Queue = field(default_factory=queue.Queue)
    ended: bool = False


#: Failure message of the chunks a shutdown takes from a live run.
_SHUT_DOWN = "worker processes shut down mid-run"


class _WorkerSet:
    """The worker processes the runner owns, one driver thread each.

    Every run's chunks go into one FIFO.  A driver takes the next chunk
    of a run that has not ended, sends it down its worker's pipe and
    waits there, so it always knows which run's chunk its worker holds.
    It reports the chunk's fate to that run alone as a ``(kind, payload,
    detail)`` event -- ``done`` with the outcomes, ``worker-lost`` on
    end-of-file or a shutdown, ``timeout`` past the deadline -- or
    nothing once the run has ended.  Anything but ``done`` kills the
    worker, joined before the driver takes another chunk; a worker that
    died idle is replaced at the next chunk, costing no run a retry.
    The set only grows: a busy worker is never replaced.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._fifo: collections.deque = collections.deque()
        #: Runs whose chunk a driver currently holds (one entry per chunk).
        self._held: List[_Run] = []
        self._drivers: List[threading.Thread] = []
        #: Bumped by :meth:`stop`; a driver of an older generation exits.
        self._generation = 0

    def submit(self, run: _Run, payload: list, workers: int) -> None:
        """Queue one chunk, first growing the set to ``workers``."""
        with self._cond:
            while len(self._drivers) < workers:
                driver = threading.Thread(
                    target=self._drive, args=(self._generation,),
                    daemon=True, name="repro-worker-driver")
                driver.start()
                self._drivers.append(driver)
            self._fifo.append((run, payload))
            self._cond.notify()

    def stop(self, unless_busy: bool = False) -> None:
        """Stop every driver and its worker (see :func:`shutdown_pool`),
        unless ``unless_busy`` and a live run has a chunk held or queued."""
        with self._cond:
            held_or_queued = self._held + [run for run, _ in self._fifo]
            if unless_busy and any(not run.ended for run in held_or_queued):
                return
            self._generation += 1
            queued = list(self._fifo)
            self._fifo.clear()
            drivers, self._drivers = self._drivers, []
            self._cond.notify_all()
        for run, payload in queued:
            run.events.put(("worker-lost", payload, _SHUT_DOWN))
        for driver in drivers:
            driver.join()

    def _take(self, generation: int):
        """Block for the next chunk of a live run (``None`` once stopped)."""
        with self._cond:
            while True:
                while not self._fifo and generation == self._generation:
                    self._cond.wait()
                if generation != self._generation:
                    return None
                run, payload = self._fifo.popleft()
                if not run.ended:
                    self._held.append(run)
                    return run, payload

    def _drive(self, generation: int) -> None:
        process = conn = None
        while True:
            taken = self._take(generation)
            if taken is None:
                break
            run, payload = taken
            try:
                if process is None or not process.is_alive():
                    _reap(process, conn)   # died idle: no chunk was lost
                    process, conn = _spawn_worker()
                event = self._run_chunk(run, payload, conn, generation)
            except EOFError:
                event = ("worker-lost", payload,
                         "worker process died mid-chunk")
            except Exception as exc:
                # A failed fork, pipe or pickle loses the chunk too: the
                # run retries it, then fails it typed, instead of hanging.
                event = ("worker-lost", payload,
                         f"{type(exc).__name__}: {exc}")
            if event is None or event[0] != "done":
                _reap(process, conn)
                process = conn = None
            with self._cond:
                self._held.remove(run)
            if event is not None:
                run.events.put(event)
        _reap(process, conn)

    def _run_chunk(self, run: _Run, payload: list, conn,
                   generation: int) -> Optional[tuple]:
        """Send one chunk and wait for its fate: the event for its run,
        or ``None`` if the run ended first."""
        deadline = (None if run.task_timeout is None
                    else time.monotonic() + run.task_timeout)
        conn.send((run.context, payload))
        while not conn.poll(SUPERVISION_TICK):
            if run.ended:
                return None
            if deadline is not None and time.monotonic() > deadline:
                return ("timeout", payload,
                        f"exceeded task deadline of {run.task_timeout}s")
            if generation != self._generation:
                return ("worker-lost", payload, _SHUT_DOWN)
        return ("done", payload, conn.recv())


#: The worker set every run shares.
_WORKERS = _WorkerSet()


def shutdown_pool() -> None:
    """Stop the shared worker processes (atexit, tests).

    Never waits for a simulation to finish: a worker holding a chunk is
    killed within one supervision tick, and a run still supervised gets
    its held and queued chunks back as worker losses and retries them on
    fresh workers.
    """
    _WORKERS.stop()


def shutdown_idle_pool() -> None:
    """Stop the shared workers unless a live run has a chunk on them
    (``Session.close``: another session's run may still be using them)."""
    _WORKERS.stop(unless_busy=True)


atexit.register(shutdown_pool)


def _task_weight(task: SimTask) -> int:
    """Scheduling weight of one task: its instruction budget.

    Mixed-budget plans balance far better weighted by instructions than
    by task count (a 100k-instruction run is ~100x a 1k one); sampled
    tasks still carry the full budget -- their fixed profile/warm-up cost
    tracks the budget too, so the budget stays the best available proxy.
    """
    budget = task.max_instructions or task.config.max_instructions
    return max(1, int(budget or 1))


def _store_hits() -> int:
    """Current artifact-store hit counter (0 when caching is disabled)."""
    from ..cache.store import active_store

    store = active_store()
    return store.stats.hits if store is not None else 0


def _result_hits() -> int:
    """Current result-cache hit counter (see repro.cache.results)."""
    from ..cache.results import result_cache_hits

    return result_cache_hits()


def _timed_task(
    index: int, task: SimTask
) -> Tuple[int, SimulationResult, float, int, int]:
    """Run one task, measuring wall-clock seconds, store hits and result
    replays (reported distinctly: a result replay skips the simulation
    entirely, an ordinary store hit only skips rebuilding one
    artifact)."""
    hits_before = _store_hits()
    result_hits_before = _result_hits()
    start = time.perf_counter()
    result = _run_task(task)
    return (index, result, time.perf_counter() - start,
            _store_hits() - hits_before,
            _result_hits() - result_hits_before)


def _affine_chunks(
    tasks: Sequence[SimTask], jobs: int
) -> List[List[Tuple[int, SimTask]]]:
    """Workload-affine schedule: tasks grouped by benchmark, groups split
    only as far as keeping ``jobs`` workers busy requires.

    Each chunk is single-benchmark (the affinity that makes per-workload
    artifacts a per-worker one-time cost); when there are fewer
    benchmarks than workers the heaviest groups are split so parallelism
    never drops below ``jobs``.  Chunks are balanced by summed
    *instruction budget*, not task count, so plans mixing short and long
    runs split where the work actually is -- but never below
    ``_MIN_CHUNK_WEIGHT`` instructions per chunk: dispatching a chunk
    costs real wall-clock (pickling, queueing, result marshalling), so
    slicing a tiny plan into many sub-millisecond chunks buys overhead,
    not parallelism.  Deterministic for a given task list.
    """
    groups: Dict[str, List[int]] = {}
    total_weight = 0
    for index, task in enumerate(tasks):
        groups.setdefault(task.benchmark, []).append(index)
        total_weight += _task_weight(task)
    # Per-chunk weight budget that still yields >= max(jobs, #groups)
    # chunks overall.
    target_chunks = max(jobs, len(groups))
    weight_cap = max(_MIN_CHUNK_WEIGHT, -(-total_weight // target_chunks))
    weighted_chunks: List[Tuple[int, List[Tuple[int, SimTask]]]] = []
    for indices in groups.values():
        current: List[Tuple[int, SimTask]] = []
        current_weight = 0
        for index in indices:
            weight = _task_weight(tasks[index])
            if current and current_weight + weight > weight_cap:
                weighted_chunks.append((current_weight, current))
                current, current_weight = [], 0
            current.append((index, tasks[index]))
            current_weight += weight
        if current:
            weighted_chunks.append((current_weight, current))
    # Heaviest chunks first so stragglers start early (load balance);
    # sort() is stable, so equal weights keep group order.
    weighted_chunks.sort(key=lambda entry: entry[0], reverse=True)
    return [chunk for _weight, chunk in weighted_chunks]


# ----------------------------------------------------------------------
# overhead-aware inline fallback for small parallel plans
# ----------------------------------------------------------------------
#: Never split a benchmark's tasks into chunks lighter than this many
#: instructions: below it, per-chunk dispatch overhead exceeds the work.
_MIN_CHUNK_WEIGHT = 2000

#: Measured per-chunk dispatch cost on warm workers (pickle + pipe +
#: result marshalling) and the one-time cost of starting cold workers.
_CHUNK_OVERHEAD_S = 0.004
_SPAWN_S = 0.35

#: EWMA of observed full-simulation throughput (instructions/second),
#: fed by real (non-replayed) task completions so the inline-vs-workers
#: estimate tracks the machine it is running on.
_DEFAULT_TASK_RATE = 80_000.0
_task_rate_ewma = _DEFAULT_TASK_RATE


def _observe_task_rate(weight: int, seconds: float,
                       result_cache_hits: int) -> None:
    """Fold one completed task into the throughput EWMA.

    Result-cache replays and sub-millisecond completions are skipped:
    they measure cache latency, not simulation throughput, and would
    inflate the estimate until the planner routed real work inline.
    """
    global _task_rate_ewma
    if result_cache_hits or seconds < 0.0005:
        return
    rate = min(1e9, max(1e3, weight / seconds))
    _task_rate_ewma += 0.2 * (rate - _task_rate_ewma)


def _effective_parallelism(jobs: int) -> int:
    """How many tasks can actually run at once: ``jobs`` capped by the
    CPUs this process may schedule on (in a one-core container
    ``jobs=2`` buys context switches, not concurrency)."""
    return max(1, min(jobs, _usable_cpus()))


def _plan_prefers_inline(
    tasks: Sequence[SimTask], jobs: int
) -> bool:
    """Whether running this plan inline beats fanning it over the workers.

    The workers only pay off when the parallel saving (serial estimate
    from the throughput EWMA, scaled by the parallelism actually
    available) exceeds dispatch overhead plus -- when no workers exist
    yet -- the spawn cost.  Small sweeps at small budgets therefore run
    inline even with ``jobs>1`` and start no worker, so ``jobs=2``
    cannot lose to ``jobs=1`` on them, nor on a single-CPU host.
    Disabled whenever a fault plan is active: chaos must exercise the
    real supervised worker path it is designed to test.
    """
    if faults.active_plan() is not faults.NO_FAULTS:
        return False
    effective = _effective_parallelism(jobs)
    if effective <= 1:
        return True
    total_weight = sum(_task_weight(task) for task in tasks)
    est_serial = total_weight / max(1.0, _task_rate_ewma)
    savings = est_serial * (1.0 - 1.0 / effective)
    overhead = len(_affine_chunks(tasks, jobs)) * _CHUNK_OVERHEAD_S
    if not _WORKERS._drivers:
        overhead += _SPAWN_S
    return savings <= overhead


# ----------------------------------------------------------------------
# the supervised drive loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskCompletion:
    """One finished task as yielded by :func:`iter_task_results`.

    ``result`` is the :class:`SimulationResult`, or a typed
    :class:`~repro.simulator.plan.TaskFailure` when the task exhausted
    its retry budget or deadline.  ``attempts`` counts dispatches
    (1 = first try succeeded); ``cache_hits``/``result_cache_hits`` are
    the store-hit deltas attributable to this task.
    """

    index: int
    result: TaskOutcome
    seconds: float
    cache_hits: int
    result_cache_hits: int
    attempts: int = 1

    @property
    def failed(self) -> bool:
        return isinstance(self.result, TaskFailure)

    @property
    def retries(self) -> int:
        return self.attempts - 1


@dataclass
class SupervisorStats:
    """Process-wide counters kept by the supervised drive loop.

    Chaos tests and the CLI's retry report read these; they accumulate
    across runs until :func:`reset_supervisor_stats`.
    """

    retries: int = 0          #: task re-dispatches, any cause
    worker_losses: int = 0    #: chunks lost to a dead worker process
    timeouts: int = 0         #: per-task deadline overruns
    task_errors: int = 0      #: in-task exceptions caught by a worker


SUPERVISOR_STATS = SupervisorStats()


def supervisor_stats() -> SupervisorStats:
    return SUPERVISOR_STATS


def reset_supervisor_stats() -> None:
    SUPERVISOR_STATS.__init__()


#: Default per-task retry budget (env: ``REPRO_MAX_RETRIES``).
DEFAULT_MAX_RETRIES = 2

#: How long a supervisor blocks on its run's events, and a driver on its
#: worker's pipe, before checking for a cancel, deferred retries, an
#: ended run, a deadline or a shutdown.
SUPERVISION_TICK = 0.2

#: Exponential-backoff base/cap for task re-dispatch, in seconds.
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_CAP = 2.0

def default_max_retries() -> int:
    """Per-task retry budget (env: ``REPRO_MAX_RETRIES``, default 2)."""
    try:
        return max(0, int(os.environ.get("REPRO_MAX_RETRIES",
                                         DEFAULT_MAX_RETRIES)))
    except ValueError:
        return DEFAULT_MAX_RETRIES


def _backoff(attempt: int) -> float:
    return min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * (2 ** max(0, attempt - 1)))


def _failure(index: int, task: SimTask, kind: str,
             message: str, attempts: int) -> TaskCompletion:
    failure = TaskFailure(index=index, benchmark=task.benchmark,
                          key=task.key, kind=kind,
                          message=message, attempts=attempts)
    return TaskCompletion(index, failure, 0.0, 0, 0, attempts)


def _run_inline(tasks, cancel, max_retries) -> Iterator[TaskCompletion]:
    """The ``jobs=1`` executor: in task order, with the same retry budget
    as the parallel path (an in-task exception is retried with backoff, then
    surfaces as a :class:`TaskFailure` rather than aborting the sweep)."""
    for index, task in enumerate(tasks):
        if cancel is not None and cancel.is_set():
            return
        attempt = 0
        while True:
            attempt += 1
            try:
                _index, result, seconds, hits, result_hits = \
                    _timed_task(index, task)
            except Exception as exc:
                SUPERVISOR_STATS.task_errors += 1
                if attempt > max_retries:
                    yield _failure(index, task, "error",
                                   f"{type(exc).__name__}: {exc}", attempt)
                    break
                SUPERVISOR_STATS.retries += 1
                time.sleep(_backoff(attempt))
                continue
            _observe_task_rate(_task_weight(task), seconds, result_hits)
            yield TaskCompletion(index, result, seconds, hits, result_hits,
                                 attempt)
            break


def _run_supervised(tasks, jobs, cancel, task_timeout,
                    max_retries) -> Iterator[TaskCompletion]:
    """The parallel executor: dispatch workload-affine chunks to the
    shared workers, re-dispatch what a worker loss took, yield
    completions.

    The drivers report each chunk's fate on this run's own event queue
    (see :class:`_WorkerSet`); the loop blocks on it for up to
    ``SUPERVISION_TICK``, then checks for a cancel and fires deferred
    (backed-off) re-dispatches.  A lost chunk's tasks are re-dispatched
    while their retry budget lasts.  Every chunk carries the caller's
    execution context, resolved once here, so the workers read the
    caller's store, replay policy and faults.  With ``task_timeout``
    chunks are singletons, so a deadline kills exactly one task's
    worker; an overrun is terminal (a deterministic simulation that blew
    its deadline once will blow it again) and yields a
    ``TaskFailure(kind="timeout")``.  However the run ends -- finished,
    cancelled, or its consumer stopped iterating -- its workers are
    freed within one tick and its queued chunks dropped.
    """
    if task_timeout is not None:
        chunks = [[pair] for chunk in _affine_chunks(tasks, jobs)
                  for pair in chunk]
    else:
        chunks = _affine_chunks(tasks, jobs)
    run = _Run(current_context().resolved(), task_timeout)
    workers = min(jobs, len(chunks))
    attempts = {index: 0 for index in range(len(tasks))}
    deferred: List[Tuple[float, list]] = []   # (eligible_at, items)
    remaining = len(tasks)

    def dispatch(items) -> None:
        payload = []
        for index, task in items:
            attempts[index] += 1
            payload.append((index, attempts[index], task))
        _WORKERS.submit(run, payload, workers)

    def defer(items) -> None:
        SUPERVISOR_STATS.retries += len(items)
        delay = _backoff(max(attempts[index] for index, _task in items))
        deferred.append((time.monotonic() + delay, items))

    try:
        for chunk in chunks:
            dispatch(chunk)
        while remaining:
            if cancel is not None and cancel.is_set():
                return
            now = time.monotonic()
            ready = [items for eligible_at, items in deferred
                     if eligible_at <= now]
            deferred[:] = [(eligible_at, items) for eligible_at, items
                           in deferred if eligible_at > now]
            for items in ready:
                dispatch(items)
            tick = SUPERVISION_TICK
            if deferred:
                tick = min(tick, max(0.01, min(
                    eligible_at for eligible_at, _ in deferred) - now))
            try:
                kind, payload, detail = run.events.get(timeout=tick)
            except queue.Empty:
                continue
            if kind == "done":
                for outcome in detail:
                    if outcome[0] == "ok":
                        index, result, seconds, hits, result_hits = \
                            outcome[1]
                        remaining -= 1
                        _observe_task_rate(_task_weight(tasks[index]),
                                           seconds, result_hits)
                        yield TaskCompletion(index, result, seconds, hits,
                                             result_hits, attempts[index])
                    else:
                        _tag, index, error = outcome
                        SUPERVISOR_STATS.task_errors += 1
                        if attempts[index] <= max_retries:
                            defer([(index, tasks[index])])
                        else:
                            remaining -= 1
                            yield _failure(index, tasks[index], "error",
                                           error, attempts[index])
                continue
            if kind == "worker-lost":
                SUPERVISOR_STATS.worker_losses += 1
            else:
                SUPERVISOR_STATS.timeouts += 1
            retry = []
            for index, _attempt, task in payload:
                if kind == "worker-lost" and attempts[index] <= max_retries:
                    retry.append((index, task))
                else:
                    remaining -= 1
                    yield _failure(index, task, kind, detail,
                                   attempts[index])
            if retry:
                defer(retry)
    finally:
        run.ended = True


def iter_task_results(
    tasks: Sequence[SimTask],
    jobs: int = 1,
    cancel=None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> Iterator[TaskCompletion]:
    """Yield a :class:`TaskCompletion` per task as tasks finish.

    The incremental counterpart of :func:`run_tasks` and the channel
    :class:`repro.api.RunHandle` streams progress from.  ``jobs=1`` runs
    inline in task order; ``jobs>1`` fans workload-affine chunks over the
    shared worker processes under the supervisor (see
    :func:`_run_supervised`) and yields completions unordered (consumers
    reassemble by index) -- unless the plan is small enough that
    dispatch overhead would exceed the parallel saving (see :func:`_plan_prefers_inline`), in
    which case it runs inline with identical results.

    ``max_retries`` bounds re-dispatches per task (default: env
    ``REPRO_MAX_RETRIES`` or 2); a task that exhausts it completes with
    a :class:`~repro.simulator.plan.TaskFailure` result instead of
    raising, so the rest of the sweep still finishes.  ``task_timeout``
    (seconds) adds a per-task deadline; deadlines need a killable
    process, so a timeout forces the worker path even for ``jobs=1``.
    ``cancel`` is an optional ``threading.Event``: once set, no further
    task is started -- inline runs stop between tasks, parallel runs
    stop at the next supervision tick, drop their queued chunks and kill
    the workers that hold their chunks.
    """
    jobs = resolve_jobs(jobs)
    if max_retries is None:
        max_retries = default_max_retries()
    if task_timeout is None and (jobs == 1 or len(tasks) <= 1
                                 or _plan_prefers_inline(tasks, jobs)):
        yield from _run_inline(tasks, cancel, max_retries)
        return
    if not tasks:
        return
    yield from _run_supervised(tasks, max(jobs, 1), cancel, task_timeout,
                               max_retries)


def run_tasks(
    tasks: Sequence[SimTask],
    jobs: int = 1,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> List[SimulationResult]:
    """Run :class:`SimTask` entries, optionally on the shared worker
    processes.  Results keep task order regardless of ``jobs``.

    This is the strict surface: tasks that still failed after the retry
    budget raise :class:`~repro.simulator.plan.TaskFailureError` (the
    partial-result surface is :class:`repro.api.Session`, which reports
    failures in ``RunResult.failed_tasks`` instead).
    """
    results: List[Optional[TaskOutcome]] = [None] * len(tasks)
    failures: List[TaskFailure] = []
    for completion in iter_task_results(tasks, jobs=jobs,
                                        task_timeout=task_timeout,
                                        max_retries=max_retries):
        results[completion.index] = completion.result
        if completion.failed:
            failures.append(completion.result)
    if failures:
        raise TaskFailureError(failures)
    return results

