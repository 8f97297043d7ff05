"""Experiment runner: the one executor behind every sweep.

The paper's figures are produced by sweeping a set of configurations over
a set of benchmarks (and usually over L1 cache sizes).  Those sweeps are
declared as flat lists of typed :class:`~repro.simulator.plan.SimTask`
(see :mod:`repro.simulator.plan`); this module provides the executor that
runs them -- inline or over a ``multiprocessing`` pool -- plus a workload
cache so each synthetic program is built only once per process, and the
environment-controlled defaults used by the benchmark harness.

Sweeps are embarrassingly parallel (one process per simulation), so
``run_tasks`` accepts ``jobs=N`` to fan out over a pool.  Scheduling is
**workload-affine**: tasks are grouped by benchmark and the groups --
not individual tasks -- are placed onto the pool, so one worker
compiles/loads each benchmark's synthetic program, compiled trace and
sampling artifacts exactly once and serves every configuration of that
benchmark; artifacts missing from the persistent store
(:mod:`repro.cache`) are therefore computed by exactly one worker and
published for every later process.  The pool itself is shared across
``run_tasks`` calls (and hence across every ``ExperimentPlan.run`` of a
CLI invocation such as ``repro-clgp figure all``), so workers keep their
in-memory caches between sweeps.  ``jobs=1`` (the default) runs inline
with identical results and identical ordering.  Tasks flagged
``sampled=True`` dispatch to the sampled-simulation runner in
:mod:`repro.sampling` instead of a full run.

The pool drive loop is **supervised**: workers announce each chunk they
pick up over a sentinel queue before running it, so when a worker
process dies (OOM kill, crash, injected chaos -- see
:mod:`repro.faults`) the supervisor attributes the loss to exactly the
chunks that were on it, re-dispatches only their unfinished tasks with
exponential backoff, and lets ``multiprocessing.Pool`` respawn the
worker -- a sweep survives worker loss instead of hanging on a result
that will never arrive.  Each task has a bounded retry budget
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
import multiprocessing
import itertools
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import faults
from ..cache.traces import ensure_compiled_trace
from ..context import current_context, use_context
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


def clear_workload_cache() -> None:
    _WORKLOAD_CACHE.clear()


def clear_process_caches() -> None:
    """Drop every per-process in-memory cache (workloads, warm-up
    artifacts, functional base passes, checkpoints, compiled traces).

    Leaves the persistent artifact store untouched: afterwards the
    process behaves like a fresh CLI invocation, which is exactly what
    the cold-vs-warm cache benchmarks and tests need to isolate the
    on-disk tier.
    """
    from ..cache.traces import clear_trace_cache
    from ..sampling.checkpoint import clear_checkpoint_store
    from ..sampling.proxy import clear_base_profile_cache
    from .warming import clear_warmup_cache

    clear_workload_cache()
    clear_trace_cache()
    clear_checkpoint_store()
    clear_base_profile_cache()
    clear_warmup_cache()


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
    """Run one configuration on one benchmark (the executor primitive
    behind every task; the public entry point is :class:`repro.api.Session`).

    Full runs are deterministic, so with the artifact cache enabled the
    complete :class:`SimulationResult` of an earlier invocation replays
    byte-identically from the store (``--no-result-cache`` /
    ``ExecutionOptions(result_cache=False)`` forces resimulation); a hit
    needs only the workload's *identity*, not the built program.
    """
    from ..cache.results import load_cached_result, store_result

    profile = profile_for(benchmark)
    total = max_instructions or config.max_instructions
    cached = load_cached_result(config, profile.name, profile.seed, total)
    if cached is not None:
        return cached
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
    store_result(config, profile.name, profile.seed, total, result)
    return result


def _run_task(task: SimTask) -> SimulationResult:
    """Pool worker: run one :class:`SimTask`.

    Top-level function so it pickles; the workload cache is the worker
    process's own module-global, so each worker builds a given synthetic
    program at most once no matter how many tasks it serves.  Sampled
    tasks dispatch to the sampled-simulation runner in
    :mod:`repro.sampling`, whose per-process checkpoint/selection caches
    play the same role for the warm-up and profiling passes.
    """
    if task.sampled:
        # Imported lazily: repro.sampling imports this module.
        from ..sampling.sampled import _execute_sampled

        return _execute_sampled(
            task.config, task.benchmark,
            max_instructions=task.max_instructions,
            spec=task.sampling,
        )
    return _execute_single(task.config, task.benchmark,
                           task.max_instructions)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/0 -> all cores, negative ->
    ValueError, otherwise the value itself."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError("jobs must be >= 1 (or None/0 for all cores)")
    return jobs


# ----------------------------------------------------------------------
# the shared worker pool (reused across run_tasks / ExperimentPlan.run
# calls so workers keep their in-memory caches between sweeps)
# ----------------------------------------------------------------------
_POOL: Optional[multiprocessing.pool.Pool] = None
_POOL_PROCESSES = 0
#: Parent-side handle of the worker start-event queue (one per pool).
_POOL_EVENTS = None
#: Worker-side handle of the same queue, installed by ``_worker_init``.
_WORKER_EVENTS = None
#: Serializes pool build/teardown and the user count below; reentrant
#: because ``_shared_pool`` may call ``shutdown_pool`` while holding it.
_POOL_GUARD = threading.RLock()
#: Supervisors currently fanned out over the shared pool.  A cancelled
#: run only tears the pool down when it is the sole user -- runs of any
#: session may be in flight concurrently on the same workers.
_POOL_USERS = 0

#: chunk_id -> the dispatching supervisor's in-flight entry.  Worker
#: pickup sentinels arrive on one queue shared by every concurrent
#: supervisor; this registry routes each event to the supervisor that
#: owns the chunk instead of letting whichever supervisor drains the
#: queue first silently drop its siblings' attributions.
_PICKUP_LOCK = threading.Lock()
_PICKUP_ENTRIES: Dict[int, dict] = {}
#: pid -> entry of the last chunk that worker announced (``None`` if
#: already retired), whichever supervisor owns it: a death one supervisor
#: sees may be another's loss.  Dropped with the pool.
_PID_CHUNKS: Dict[int, Optional[dict]] = {}


def _worker_init(events) -> None:
    """Mark a new pool worker and hand it the sentinel queue it announces
    chunk pickups on.  Policy does not live here: every chunk carries the
    dispatching run's resolved execution context (cache, result replay,
    faults), so one pool serves runs of any policy."""
    global _WORKER_EVENTS
    faults.mark_worker()
    _WORKER_EVENTS = events


def _shared_pool(processes: int) -> multiprocessing.pool.Pool:
    global _POOL, _POOL_PROCESSES, _POOL_EVENTS
    with _POOL_GUARD:
        if _POOL is not None and _POOL_PROCESSES != processes \
                and _POOL_USERS == 0:
            # Only an *idle* pool resizes: ``processes`` is just an upper
            # bound (min(jobs, len(chunks)) differs per run), and tearing
            # the pool down while a sibling is fanned out would kill its
            # chunks mid-sweep -- its respawn would then kill ours in
            # turn, ping-ponging until retry budgets burn out.
            shutdown_pool()
        if _POOL is None:
            _POOL_EVENTS = multiprocessing.SimpleQueue()
            _POOL = multiprocessing.Pool(
                processes=processes,
                initializer=_worker_init,
                initargs=(_POOL_EVENTS,),
            )
            _POOL_PROCESSES = processes
        return _POOL


def shutdown_pool() -> None:
    """Tear down the shared worker pool (atexit, tests).

    ``terminate`` rather than ``close``: shutdown only happens between
    sweeps, so any still-queued chunks are leftovers of a sweep that
    raised -- draining them would block process exit for as long as the
    abandoned simulations take (the behaviour ``with Pool(...)`` used to
    provide via its ``__exit__``).
    """
    global _POOL, _POOL_PROCESSES, _POOL_EVENTS
    with _POOL_GUARD:
        if _POOL is not None:
            _POOL.terminate()
            _POOL.join()
            _POOL = None
            _POOL_PROCESSES = 0
        if _POOL_EVENTS is not None:
            _POOL_EVENTS.close()
            _POOL_EVENTS = None
        _PID_CHUNKS.clear()


def shutdown_idle_pool() -> None:
    """Tear the shared pool down unless a supervisor is fanned out on it
    (``Session.close``: another session's run may still be using it)."""
    with _POOL_GUARD:
        if _POOL_USERS == 0:
            shutdown_pool()


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
    """Current full-run result-cache hit counter (see repro.cache.results)."""
    from ..cache.results import result_cache_hits

    return result_cache_hits()


def _timed_task(
    index: int, task: SimTask
) -> Tuple[int, SimulationResult, float, int, int]:
    """Run one task, measuring wall-clock seconds, store hits and
    full-run result replays (reported distinctly: a result replay skips
    the simulation entirely, an ordinary store hit only skips rebuilding
    one artifact)."""
    hits_before = _store_hits()
    result_hits_before = _result_hits()
    start = time.perf_counter()
    result = _run_task(task)
    return (index, result, time.perf_counter() - start,
            _store_hits() - hits_before,
            _result_hits() - result_hits_before)


def _run_supervised_chunk(payload) -> tuple:
    """Pool worker: run one dispatched chunk of (index, attempt, task)
    items under the dispatching run's execution context and return
    per-task outcomes.

    All tasks of a chunk share one benchmark, so the worker builds (or
    loads from the artifact store) that benchmark's program, compiled
    trace, warm-up artifacts and sampling artifacts once and serves
    every configuration from them.  Per-task timing and store-hit deltas
    ride along so progress consumers (:class:`repro.api.RunHandle`) can
    stream them without a second channel.

    The worker announces the pickup on the sentinel queue *before* doing
    anything that can die (including the injected ``worker_kill`` site),
    so the supervisor can attribute a worker loss to exactly this chunk.
    A task that raises becomes an ``("err", ...)`` outcome rather than
    poisoning the chunk: its chunk-mates' finished work still returns.
    """
    chunk_id, context, items = payload
    if _WORKER_EVENTS is not None:
        _WORKER_EVENTS.put((chunk_id, os.getpid()))
    with use_context(context):
        faults.maybe_kill_worker(items[0][0], items[0][1])
        outcomes = []
        for index, _attempt, task in items:
            try:
                outcomes.append(("ok", _timed_task(index, task)))
            except Exception as exc:
                outcomes.append(("err", index,
                                 f"{type(exc).__name__}: {exc}"))
    return chunk_id, outcomes


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

#: Measured per-chunk dispatch cost on a warm pool (pickle + queue +
#: result marshalling) and the one-time cost of spawning a cold pool.
_CHUNK_OVERHEAD_S = 0.004
_POOL_SPAWN_S = 0.35

#: EWMA of observed full-simulation throughput (instructions/second),
#: fed by real (non-replayed) task completions so the inline-vs-pool
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
    CPUs this process may schedule on (affinity-aware -- in a one-core
    container ``jobs=2`` buys context switches, not concurrency)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    return max(1, min(jobs, cores))


def _plan_prefers_inline(
    tasks: Sequence[SimTask], jobs: int
) -> bool:
    """Whether running this plan inline beats fanning it over the pool.

    The pool only pays off when the parallel saving (serial estimate
    from the throughput EWMA, scaled by the parallelism actually
    available) exceeds dispatch overhead plus -- when no pool exists
    yet -- the spawn cost.  Small sweeps at small budgets therefore run
    inline even with ``jobs>1``, which is also the only way ``jobs=2``
    can avoid losing to ``jobs=1`` on a single-CPU host.  Disabled
    whenever a fault plan is active: chaos must exercise the real
    supervised pool path it is designed to test.
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
    if _POOL is None:
        overhead += _POOL_SPAWN_S
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
    pool_respawns: int = 0    #: full pool rebuilds after brokenness


SUPERVISOR_STATS = SupervisorStats()


def supervisor_stats() -> SupervisorStats:
    return SUPERVISOR_STATS


def reset_supervisor_stats() -> None:
    SUPERVISOR_STATS.__init__()


#: Default per-task retry budget (env: ``REPRO_MAX_RETRIES``).
DEFAULT_MAX_RETRIES = 2

#: How long the supervisor blocks for a completion before running its
#: housekeeping pass (deadlines, dead-worker scan, deferred retries).
SUPERVISION_TICK = 0.2

#: Exponential-backoff base/cap for task re-dispatch, in seconds.
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_CAP = 2.0

#: Chunk ids must be unique across every run sharing the pool (stale
#: sentinel events from a previous sweep must never attribute to a new
#: chunk), so the counter is module-level.
_CHUNK_IDS = itertools.count()


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
    as the pool path (an in-task exception is retried with backoff, then
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
    """The pool executor: dispatch workload-affine chunks, supervise the
    workers, survive their deaths.

    Chunks are submitted with ``apply_async`` and completions funnel into
    a local queue the supervisor *blocks* on (no polling); every
    ``SUPERVISION_TICK`` it additionally enforces deadlines, scans for
    vanished worker pids, and fires deferred (backed-off) re-dispatches.
    Worker-loss attribution comes from the sentinel pickup events: a
    chunk whose worker died is re-dispatched (its already-yielded tasks
    excluded) while ``multiprocessing.Pool`` replaces the worker; a
    death is charged to the run owning the worker's last announced
    chunk, so one run's lost workers cost a concurrent run no retries.
    Every chunk carries the caller's execution context, resolved once
    here, so the workers read the caller's store, replay policy and
    faults.  With ``task_timeout`` chunks are singletons, so cancelling
    a stuck task is exactly one ``SIGKILL`` of its worker; a deadline
    overrun is terminal (a deterministic simulation that blew its
    deadline once will blow it again) and yields a
    ``TaskFailure(kind="timeout")``.
    """
    if task_timeout is not None:
        chunks = [[pair] for chunk in _affine_chunks(tasks, jobs)
                  for pair in chunk]
    else:
        chunks = _affine_chunks(tasks, jobs)
    global _POOL_USERS
    context = current_context().resolved()
    processes = min(jobs, len(chunks))
    with _POOL_GUARD:
        pool = _shared_pool(processes)
        _POOL_USERS += 1
    completions: queue.Queue = queue.Queue()
    attempts = {index: 0 for index in range(len(tasks))}
    #: chunk_id -> {items, pid, started, finished, lost}
    inflight: Dict[int, dict] = {}
    deferred: List[Tuple[float, list]] = []   # (eligible_at, items)
    done = set()
    known_pids: set = set()
    expected_deaths: set = set()     # pids we SIGKILLed on a deadline
    #: Vanished pids whose last chunk is another run's, still running.
    pending_deaths: set = set()

    def dispatch(items) -> None:
        nonlocal pool
        chunk_id = next(_CHUNK_IDS)
        payload = []
        for index, task in items:
            attempts[index] += 1
            payload.append((index, attempts[index], task))
        entry = {"items": list(items), "pid": None, "started": None,
                 "finished": False, "lost": False}
        # Registered before submission, so the pickup always finds it.
        with _PICKUP_LOCK:
            _PICKUP_ENTRIES[chunk_id] = entry

        # The pool's result thread runs these even after this run's
        # supervisor has gone, so ``finished`` never goes stale.
        def on_done(result):
            entry["finished"] = True
            completions.put(("done", result))

        def on_error(exc, cid=chunk_id):
            entry["finished"] = True
            completions.put(("chunk-error", cid, exc))

        for resubmission in (False, True):
            try:
                pool.apply_async(_run_supervised_chunk,
                                 ((chunk_id, context, payload),),
                                 callback=on_done, error_callback=on_error)
                break
            except Exception:
                # The pool died under us (terminated/broken): rebuild it,
                # requeue its in-flight chunks, resubmit this one once.
                if resubmission:
                    raise
                respawn_pool()
        inflight[chunk_id] = entry

    def resolve_chunk(chunk_id: int, kind: str, message: str,
                      retry: bool = True) -> None:
        """Retire a lost/expired chunk: unfinished tasks go back to the
        deferred queue if budget (and ``retry``) allow, else fail."""
        entry = inflight.pop(chunk_id, None)
        with _PICKUP_LOCK:
            _PICKUP_ENTRIES.pop(chunk_id, None)
        if entry is None:
            return
        entry["lost"] = True
        retry_items = []
        for index, task in entry["items"]:
            if index in done:
                continue
            if retry and attempts[index] <= max_retries:
                retry_items.append((index, task))
            else:
                completions.put(("failed", index, kind, message))
        if retry_items:
            SUPERVISOR_STATS.retries += len(retry_items)
            delay = _backoff(max(attempts[index] for index, _ in retry_items))
            deferred.append((time.monotonic() + delay, retry_items))

    def respawn_pool() -> None:
        nonlocal pool
        SUPERVISOR_STATS.pool_respawns += 1
        shutdown_pool()
        pool = _shared_pool(processes)
        known_pids.clear()
        pending_deaths.clear()
        for chunk_id in list(inflight):
            SUPERVISOR_STATS.worker_losses += 1
            resolve_chunk(chunk_id, "worker-lost", "worker pool respawned")

    def drain_pickup_events() -> None:
        events = _POOL_EVENTS
        if events is None:
            return
        try:
            # The lock makes the empty()/get() pair atomic across
            # concurrent supervisors: SimpleQueue.get() has no timeout,
            # so two drainers both observing a single queued event
            # would leave the loser blocked forever once the winner
            # consumes it (and with it that run's completion handling
            # and deadline enforcement).
            with _PICKUP_LOCK:
                while not events.empty():
                    chunk_id, pid = events.get()
                    # Route through the shared registry: this
                    # supervisor may drain a pickup that belongs to a
                    # concurrent sibling's chunk, and the attribution
                    # must land on *their* entry.
                    entry = _PICKUP_ENTRIES.get(chunk_id)
                    _PID_CHUNKS[pid] = entry
                    if entry is not None:
                        entry["pid"] = pid
                        entry["started"] = time.monotonic()
        except (EOFError, OSError):
            # A sibling tore the pool (and its queue) down mid-drain.
            return

    def enforce_deadlines() -> None:
        if task_timeout is None:
            return
        now = time.monotonic()
        for chunk_id in list(inflight):
            entry = inflight[chunk_id]
            if entry["started"] is None \
                    or now - entry["started"] <= task_timeout:
                continue
            SUPERVISOR_STATS.timeouts += 1
            pid = entry["pid"]
            if pid is not None:
                expected_deaths.add(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
            resolve_chunk(
                chunk_id, "timeout",
                f"exceeded task deadline of {task_timeout}s", retry=False)

    def scan_for_dead_workers() -> None:
        workers = getattr(pool, "_pool", None)
        if workers is None:
            return
        current = {worker.pid for worker in workers
                   if worker.pid is not None}
        vanished = (known_pids - current) - expected_deaths
        expected_deaths.intersection_update(known_pids - current)
        known_pids.clear()
        known_pids.update(current)
        # An attributed pid that is no longer a live pool worker is a
        # loss even if the pid-set diff missed it: a worker can pick up
        # a chunk, die, and be replaced between two scans (the pool
        # respawns workers on its own), so the dead pid may never have
        # been observed in ``known_pids`` at all.
        lost = [chunk_id for chunk_id, entry in inflight.items()
                if entry["pid"] is not None
                and entry["pid"] not in current
                and entry["pid"] not in expected_deaths]
        for chunk_id in lost:
            SUPERVISOR_STATS.worker_losses += 1
            resolve_chunk(chunk_id, "worker-lost",
                          "worker process died mid-chunk")
        # A vanished pid is explained once its last announced chunk was
        # lost (ours just above, or another run's); while that chunk is
        # still running it is another run's loss not yet seen: recheck.
        pending_deaths.update(vanished)
        unexplained = False
        with _PICKUP_LOCK:
            for pid in list(pending_deaths):
                entry = _PID_CHUNKS.get(pid)
                if entry is None or entry["finished"]:
                    unexplained = True
                elif not entry["lost"]:
                    continue
                pending_deaths.discard(pid)
        if unexplained:
            # The worker announced nothing, or its last chunk finished,
            # so it may have died holding one of our chunks before its
            # pickup could attribute it: conservatively requeue every
            # unattributed chunk -- duplicate completions dedupe on the
            # ``done`` set, a hang would not.
            for chunk_id in [chunk_id for chunk_id, entry in inflight.items()
                             if entry["pid"] is None]:
                SUPERVISOR_STATS.worker_losses += 1
                resolve_chunk(chunk_id, "worker-lost",
                              "worker process died mid-chunk")

    try:
        yield from _supervise(tasks, chunks, cancel, task_timeout,
                              max_retries, dispatch, resolve_chunk,
                              drain_pickup_events, enforce_deadlines,
                              scan_for_dead_workers, completions,
                              inflight, deferred, done, attempts)
    finally:
        with _POOL_GUARD:
            _POOL_USERS -= 1
        with _PICKUP_LOCK:
            for chunk_id in list(inflight):
                _PICKUP_ENTRIES.pop(chunk_id, None)


def _supervise(tasks, chunks, cancel, task_timeout, max_retries,
               dispatch, resolve_chunk, drain_pickup_events,
               enforce_deadlines, scan_for_dead_workers, completions,
               inflight, deferred, done, attempts) -> Iterator[TaskCompletion]:
    """The supervision loop of :func:`_run_supervised` (split out so the
    caller can bracket it with pool-user bookkeeping in a ``finally``)."""
    for chunk in chunks:
        dispatch(chunk)
    while len(done) < len(tasks):
        if cancel is not None and cancel.is_set():
            with _POOL_GUARD:
                if _POOL_USERS == 1:
                    # Sole user: kill outstanding chunks with the pool.
                    # With concurrent supervisors the pool stays up for
                    # the others; this run's chunks finish as no-ops
                    # (completions are simply not consumed).
                    shutdown_pool()
            return
        now = time.monotonic()
        ready = [items for eligible_at, items in deferred
                 if eligible_at <= now]
        deferred[:] = [(eligible_at, items) for eligible_at, items
                       in deferred if eligible_at > now]
        for items in ready:
            dispatch(items)
        drain_pickup_events()
        enforce_deadlines()
        scan_for_dead_workers()
        tick = SUPERVISION_TICK
        if deferred:
            tick = min(tick, max(0.01, min(
                eligible_at for eligible_at, _ in deferred) - now))
        try:
            message = completions.get(timeout=tick)
        except queue.Empty:
            continue
        while message is not None:
            if message[0] == "done":
                chunk_id, outcomes = message[1]
                inflight.pop(chunk_id, None)
                with _PICKUP_LOCK:
                    _PICKUP_ENTRIES.pop(chunk_id, None)
                for outcome in outcomes:
                    if outcome[0] == "ok":
                        index, result, seconds, hits, result_hits = \
                            outcome[1]
                        if index in done:
                            continue
                        done.add(index)
                        _observe_task_rate(_task_weight(tasks[index]),
                                           seconds, result_hits)
                        yield TaskCompletion(index, result, seconds, hits,
                                             result_hits, attempts[index])
                    else:
                        _tag, index, error = outcome
                        if index in done:
                            continue
                        SUPERVISOR_STATS.task_errors += 1
                        if attempts[index] <= max_retries:
                            SUPERVISOR_STATS.retries += 1
                            deferred.append((
                                time.monotonic() + _backoff(attempts[index]),
                                [(index, tasks[index])]))
                        else:
                            done.add(index)
                            yield _failure(index, tasks[index], "error",
                                           error, attempts[index])
            elif message[0] == "chunk-error":
                _tag, chunk_id, exc = message
                SUPERVISOR_STATS.worker_losses += 1
                resolve_chunk(chunk_id, "worker-lost",
                              f"{type(exc).__name__}: {exc}")
            elif message[0] == "failed":
                _tag, index, kind, error = message
                if index not in done:
                    done.add(index)
                    yield _failure(index, tasks[index], kind, error,
                                   attempts[index])
            try:
                message = completions.get_nowait()
            except queue.Empty:
                message = None


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
    shared pool under the supervisor (see :func:`_run_supervised`) and
    yields completions unordered (consumers reassemble by index) --
    unless the plan is small enough that pool dispatch overhead would
    exceed the parallel saving (see :func:`_plan_prefers_inline`), in
    which case it runs inline with identical results.

    ``max_retries`` bounds re-dispatches per task (default: env
    ``REPRO_MAX_RETRIES`` or 2); a task that exhausts it completes with
    a :class:`~repro.simulator.plan.TaskFailure` result instead of
    raising, so the rest of the sweep still finishes.  ``task_timeout``
    (seconds) adds a per-task deadline; deadlines need a killable
    process, so a timeout forces the pool path even for ``jobs=1``.
    ``cancel`` is an optional ``threading.Event``: once set, no further
    task is started -- inline runs stop between tasks, pool runs stop at
    the next supervision tick and tear the pool down so outstanding
    chunks die with it.
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
    """Run :class:`SimTask` entries, optionally on the shared process
    pool.  Results keep task order regardless of ``jobs``.

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

