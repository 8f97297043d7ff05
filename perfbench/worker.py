"""One fresh process of the benchmark: a sweep, a store fill or a server.

``run.py`` starts this file with a pinned environment and an empty
artifact store; nothing in it is meant to be started by hand.  Modes:

``setup``    import, open a session on the empty store, print ``ready``;
``sweep``    the same, then run the Figure-5 grid once (full or sampled)
             in a seeded task order and write what it measured;
``populate`` fill the store with the service grid's full runs;
``serve``    run ``repro-clgp serve`` on the store until SIGTERM, and
             time a probe for each line read from stdin.

With ``--trace FILE`` the process wraps the layer boundaries first
(:mod:`tracing`), writes its spans to ``FILE`` as Chrome trace-event
JSON and adds the per-layer totals to its ``--out`` record.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import resource
import sys
import threading
from time import perf_counter

import grid


#: Iterations of :func:`probe`: about 4 ms on an unloaded 2-core host.
PROBE_ITERATIONS = 20_000


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now, on this thread.

    The loop does what the simulator's timed loop does most -- dict
    lookups and stores, list appends and pops, integer arithmetic -- so
    the host's current speed for that kind of work can be divided out of
    a timing taken next to it (see ``run.py``).
    """
    table: dict = {}
    window: list = []
    total = 0
    start = perf_counter()
    for i in range(PROBE_ITERATIONS):
        key = (i * 7919) & 1023
        total = (total + table.get(key, i)) & 0xFFFFFF
        table[key] = total
        window.append(key)
        if len(window) > 64:
            window.pop()
    return perf_counter() - start


def _answer_probes() -> None:
    """Serve mode: time one probe for each line ``run.py`` writes."""
    for _ in sys.stdin:
        print(f"probe {probe()!r}", flush=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _point_record(task, result) -> dict:
    """What ``run.py`` needs of one finished grid point."""
    from repro.api import TaskFailure

    scheme, l1_size = task.key
    point = grid.point_id(scheme, l1_size, task.benchmark)
    if isinstance(result, TaskFailure):
        return {"point": point, "error": f"{result.kind}: {result.message}"}
    data = dataclasses.asdict(result)
    return {
        "point": point,
        "digest": grid.result_digest(data),
        "ipc": grid.result_ipc(data),
        "prefetches_issued": result.prefetches_issued,
        "streams_predicted": result.streams_predicted,
        "l1_misses": result.l1_misses,
        "bus_grants": sum(result.bus_grants.values()),
    }


def run_grid(session, spec, sampled: bool, seed, result_cache) -> dict:
    """Run ``spec`` once, timing each task from the caller's side.

    ``seed`` shuffles the benchmarks inside each (scheme, L1 size) block
    of the spec's scheme-major order (``None`` keeps the order).  Whole
    tasks are not shuffled: the first task of each benchmark pays for its
    trace and warm-up, and keeping that on the same configuration for
    every seed keeps the latency percentiles comparable across seeds.

    The sweeps pass ``result_cache=False`` so every point simulates; the
    store fill leaves it on, because that is what publishes the results
    the service later replays."""
    from repro.api import ExecutionOptions, ExperimentPlan

    plan = spec.to_plan(sampled=sampled)
    blocks: dict = {}
    for task in plan.tasks:
        blocks.setdefault(task.key, []).append(task)
    rng = random.Random(seed) if seed is not None else None
    tasks = []
    for block in blocks.values():
        if rng is not None:
            rng.shuffle(block)
        tasks.extend(block)
    options = ExecutionOptions(jobs=1, sampled=sampled,
                               result_cache=result_cache)
    # Between tasks, on the executor thread, the listener times a probe,
    # so every task is bracketed by two probes of the host's speed.
    ends: list = []
    probes = [probe()]
    starts = [perf_counter()]

    def between_tasks(event) -> None:
        if event.kind in ("task", "task-failed"):
            ends.append(perf_counter())
            probes.append(probe())
            starts.append(perf_counter())

    handle = session.submit(ExperimentPlan(plan.name, tasks), options)
    handle.add_listener(between_tasks)
    result = handle.result()
    wall = perf_counter() - starts[0]
    return {
        "wall_s": wall,
        "task_s": [end - start for start, end in zip(starts, ends)],
        "probe_s": [(a + b) / 2 for a, b in zip(probes, probes[1:])],
        "points": [_point_record(task, outcome)
                   for task, outcome in zip(result.tasks, result.results)],
    }


def sweep_spec(sampled: bool):
    from repro.api import ExperimentSpec

    return ExperimentSpec(
        grid.SCHEMES, grid.SWEEP_BENCHMARKS,
        max_instructions=grid.SWEEP_BUDGET, technology=grid.TECHNOLOGY,
        l1_sizes=grid.SWEEP_L1_SIZES,
        name="sampled-sweep" if sampled else "full-sweep")


def service_spec(schemes=grid.SCHEMES, benchmarks=grid.SERVICE_BENCHMARKS,
                 name: str = "service-grid"):
    """The service grid, or (the clients' requests) one point of it."""
    from repro.api import ExperimentSpec

    return ExperimentSpec(
        schemes, benchmarks, max_instructions=grid.SERVICE_BUDGET,
        technology=grid.TECHNOLOGY, l1_sizes=(grid.SERVICE_L1_SIZE,),
        config_overrides={"warmup_instructions": grid.SERVICE_WARMUP},
        name=name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode",
                        choices=("setup", "sweep", "populate", "serve"))
    parser.add_argument("--store", required=True)
    parser.add_argument("--out")
    parser.add_argument("--sampled", action="store_true")
    parser.add_argument("--order-seed")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    record: dict = {}
    if args.mode == "serve":
        from repro import cli

        threading.Thread(target=_answer_probes, daemon=True).start()
        status = cli.main(["serve", "--host", "127.0.0.1", "--port", "0",
                           "--parallel", "2", "--cache-dir", args.store])
        if status:
            return status
    else:
        from repro.api import Session

        with Session(jobs=1, cache_dir=args.store) as session:
            print("ready", flush=True)
            record["setup_probe_s"] = probe()
            if args.mode == "sweep":
                record.update(run_grid(session, sweep_spec(args.sampled),
                                        args.sampled, args.order_seed,
                                        False))
            elif args.mode == "populate":
                record.update(run_grid(session, service_spec(), False,
                                        None, None))
    record["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write_chrome(args.trace, f"{args.mode} {args.store}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
