"""Command-line interface (``repro-clgp``).

A thin shell over the :mod:`repro.api` façade -- every subcommand builds
an :class:`~repro.api.ExperimentSpec` (or calls a ``Session`` experiment
method) and runs it through one :class:`~repro.api.Session`, which owns
the worker pool and artifact-cache policy for the whole invocation.

Subcommands:

* ``run``      -- simulate one configuration on one or more benchmarks,
* ``figure``   -- regenerate the data of a paper figure (1, 2, 4, 5, 6,
  7, 8, or ``all`` for every figure in sequence),
* ``tables``   -- print Tables 1, 2 and 3,
* ``speedups`` -- print the headline CLGP-vs-FDP / CLGP-vs-baseline speedups,
* ``sample``   -- profile a benchmark, select representative intervals, and
  (optionally) compare a sampled run against the full run,
* ``cache``    -- inspect (``ls``), locate (``path``), empty (``clear``),
  size-cap (``gc --max-size``) or audit/repair (``fsck [--repair]``)
  the persistent artifact cache, or print this process's
  cache/supervision counters (``stats``, ``--json`` for machines).

``run``, ``figure`` and ``speedups`` accept ``--jobs N`` (0 = all cores)
-- the session plans each sweep as a flat task list, so the whole grid
fans out over one workload-affine process pool that is reused across the
figures of a ``figure all`` invocation.  ``figure`` and ``speedups``
also accept ``--sampled`` to run every simulation in SimPoint-style
sampled mode.  Simulation commands accept ``--cache-dir`` (default
``.repro-cache/``, env ``REPRO_CACHE_DIR``) and ``--no-cache``
(env ``REPRO_CACHE_DISABLE=1``) to steer the artifact cache, plus
``--no-result-cache`` (env ``REPRO_RESULT_CACHE_DISABLE=1``) to force
full runs to resimulate instead of replaying persisted
``SimulationResult`` artifacts -- with it off (the default), a repeated
``figure``/``speedups`` invocation without ``--sampled`` returns
byte-identical results straight from the store.

Fault tolerance: simulation commands accept ``--task-timeout SECONDS``
(per-task deadline; an overrunning task is killed and reported as a
failure), ``--max-retries N`` (re-dispatch budget after worker loss or
in-task errors; env ``REPRO_MAX_RETRIES``) and ``--faults SPEC`` (the
deterministic chaos injector, e.g.
``worker_kill:0.1,artifact_corrupt:0.05,io_delay:20ms,seed:7``; env
``REPRO_FAULTS``).  Failed tasks and retry counts are reported on
stderr -- stdout stays byte-comparable with a fault-free run -- and a
run with failures exits with status 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import List, Optional

from .api import (
    DEFAULT_MIX,
    RunResult,
    SCHEMES,
    SPECINT2000_NAMES,
    ExecutionOptions,
    ExperimentSpec,
    SamplingSpec,
    Session,
    TaskFailureError,
    cache_enabled,
    format_ipc_sweep,
    format_key_value_table,
    format_latency_table,
    format_per_benchmark,
    format_source_distribution,
    format_speedups,
    get_selection,
    get_store,
    harmonic_mean_ipc,
    paper_config,
    profile_for,
    table1,
    table2,
    table3,
)


class _CliError(Exception):
    """Bad command-line input; reported as ``error: ...`` with exit 2."""


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="persistent artifact cache directory "
                             "(default: .repro-cache/, or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent artifact cache "
                             "(recompute everything in-process)")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="always resimulate full runs instead of "
                             "replaying persisted SimulationResults "
                             "(other artifact kinds still replay; env: "
                             "REPRO_RESULT_CACHE_DISABLE=1)")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--technology", default="0.045um",
                        help="technology node (0.09um or 0.045um)")
    parser.add_argument("--l1-size", type=int, default=4096,
                        help="L1 I-cache size in bytes")
    parser.add_argument("--instructions", type=int, default=20000,
                        help="correct-path instructions to simulate per run")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_config_args(parser)
    _add_cache_args(parser)
    parser.add_argument("--benchmarks", default=",".join(DEFAULT_MIX),
                        help="comma-separated benchmark names, or 'all'")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation grid "
                             "(0 = all cores)")
    _add_fault_args(parser)


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task deadline; a task that overruns it "
                             "is killed and reported as a failure")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="re-dispatch budget per task after worker "
                             "loss or in-task errors "
                             "(default: $REPRO_MAX_RETRIES or 2)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault injection, e.g. "
                             "'worker_kill:0.1,artifact_corrupt:0.05,"
                             "io_delay:20ms,seed:7' (env: REPRO_FAULTS)")


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sampled", action="store_true",
                        help="estimate every run from representative "
                             "intervals instead of simulating in full")


def _validate_benchmark(name: str) -> str:
    try:
        profile_for(name)
    except KeyError as exc:
        raise _CliError(exc.args[0]) from exc
    return name


def _benchmarks(arg: str) -> List[str]:
    if arg.strip().lower() == "all":
        return list(SPECINT2000_NAMES)
    return [_validate_benchmark(b.strip())
            for b in arg.split(",") if b.strip()]


def _options(args: argparse.Namespace) -> ExecutionOptions:
    """Per-call execution options from the parsed flags (``--jobs`` is
    session-level policy, validated where the Session is built)."""
    try:
        return ExecutionOptions(
            sampled=getattr(args, "sampled", False),
            result_cache=(False if getattr(args, "no_result_cache", False)
                          else None),
            task_timeout=getattr(args, "task_timeout", None),
            max_retries=getattr(args, "max_retries", None),
            faults=getattr(args, "faults", None),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _retry_note(retries: int) -> None:
    if retries:
        print(f"note: {retries} task retr"
              f"{'y' if retries == 1 else 'ies'} "
              "(worker loss / transient errors)", file=sys.stderr)


def _report_failures(failures, total: Optional[int] = None) -> int:
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if failures:
        of_total = f" of {total}" if total is not None else ""
        print(f"error: {len(failures)}{of_total} task(s) failed; "
              "results above are partial", file=sys.stderr)
        return 1
    return 0


def _report_faults(result: RunResult) -> int:
    """Failures and retry totals -> stderr (stdout stays byte-comparable
    with a fault-free run); returns the process exit code."""
    _retry_note(result.task_retries)
    return _report_failures(result.failed_tasks, len(result.results))


def _cmd_run(session: Session, args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        scheme=args.scheme,
        benchmarks=tuple(_benchmarks(args.benchmarks)),
        max_instructions=args.instructions,
        technology=args.technology,
        l1_size_bytes=args.l1_size,
        name="cli-run",
    )
    run = session.run(spec, options=_options(args))
    succeeded = run.successes
    for result in succeeded:
        print(result.summary())
    if succeeded:
        print(f"{'HMEAN IPC':>18s} : {harmonic_mean_ipc(succeeded):.3f}")
    return _report_faults(run)


#: Figures renderable by ``repro-clgp figure`` (``all`` runs them all).
FIGURE_NUMBERS = ("1", "2", "4", "5", "6", "7", "8")


def _aggregate_faults(fn) -> int:
    """Run an aggregate command (figure/speedups) under fault reporting.

    Aggregate builders refuse to render from partial results -- they
    raise :class:`TaskFailureError` -- so the command reports the typed
    failures on stderr and exits 1; either way retries observed by the
    supervisor are noted (stdout stays byte-comparable with a fault-free
    run)."""
    from .simulator.runner import supervisor_stats

    try:
        code = fn()
    except TaskFailureError as exc:
        _retry_note(supervisor_stats().retries)
        return _report_failures(exc.failures) or 1
    _retry_note(supervisor_stats().retries)
    return code


def _cmd_figure(session: Session, args: argparse.Namespace) -> int:
    def render() -> int:
        if args.number == "all":
            # One invocation, one session, one worker pool, one artifact
            # cache: later figures reuse every workload/trace/profile
            # artifact the earlier ones computed (in memory with jobs=1,
            # in the pool workers' caches with jobs>1).
            for number in FIGURE_NUMBERS:
                code = _render_figure(session, number, args)
                if code:
                    return code
                print()
            return 0
        return _render_figure(session, args.number, args)

    return _aggregate_faults(render)


def _render_figure(session: Session, fig: str,
                   args: argparse.Namespace) -> int:
    names = _benchmarks(args.benchmarks)
    options = _options(args)
    kwargs = dict(
        technology=args.technology,
        benchmarks=names,
        max_instructions=args.instructions,
        options=options,
    )
    suffix = " [sampled]" if args.sampled else ""
    if fig == "1":
        print(format_ipc_sweep(session.figure1_series(**kwargs),
                               f"Figure 1: IPC vs L1 size{suffix}"))
    elif fig == "2":
        print(format_ipc_sweep(session.figure2_series(**kwargs),
                               f"Figure 2(b): FDP vs FDP+L0{suffix}"))
    elif fig == "4":
        print(format_ipc_sweep(session.figure4_series(**kwargs),
                               f"Figure 4(b): CLGP vs CLGP+L0{suffix}"))
    elif fig == "5":
        print(format_ipc_sweep(session.figure5_series(**kwargs),
                               f"Figure 5: main comparison{suffix}"))
    elif fig == "6":
        series = session.figure6_series(
            technology=args.technology, l1_size_bytes=args.l1_size,
            benchmarks=names if names != list(DEFAULT_MIX) else None,
            max_instructions=args.instructions,
            options=options,
        )
        print(format_per_benchmark(series,
                                   f"Figure 6: per-benchmark IPC{suffix}"))
    elif fig == "7":
        for with_l0 in (False, True):
            series = session.figure7_series(with_l0=with_l0, **kwargs)
            label = "with L0" if with_l0 else "without L0"
            print(format_source_distribution(
                series,
                f"Figure 7: fetch source distribution ({label}){suffix}"
            ))
    elif fig == "8":
        print(format_source_distribution(
            session.figure8_series(**kwargs),
            f"Figure 8: prefetch source distribution{suffix}"
        ))
    else:
        print(f"unknown figure {fig!r}", file=sys.stderr)
        return 2
    return 0


def _parse_size(token: str) -> int:
    """``--max-size`` values: plain bytes or K/M/G (binary) suffixes."""
    text = token.strip().upper()
    multiplier = 1
    for suffix, factor in (("KB", 1024), ("K", 1024),
                           ("MB", 1024 ** 2), ("M", 1024 ** 2),
                           ("GB", 1024 ** 3), ("G", 1024 ** 3),
                           ("B", 1)):
        if text.endswith(suffix):
            text = text[:-len(suffix)]
            multiplier = factor
            break
    try:
        value = int(float(text) * multiplier)
    except ValueError as exc:
        raise _CliError(f"invalid size {token!r} "
                        "(expected bytes, optionally with K/M/G)") from exc
    if value < 0:
        raise _CliError("size must be >= 0")
    return value


def _cmd_cache(session: Session, args: argparse.Namespace) -> int:
    store = get_store()
    if args.action == "path":
        print(store.root)
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifact file(s) from {store.root}")
        return 0
    if args.action == "stats":
        if args.json:
            print(json.dumps(session.cache_counters(), indent=2,
                             sort_keys=True))
            return 0
        from .cache.results import RESULT_CACHE_STATS
        from .simulator.runner import supervisor_stats

        stats = store.stats
        print("artifact store (this process)")
        print(f"  hits {stats.hits}  misses {stats.misses}  "
              f"stores {stats.stores}  corrupt {stats.corrupt}")
        print(f"  io_retries {stats.io_retries}  "
              f"read_errors {stats.read_errors}  "
              f"write_errors {stats.write_errors}")
        print(f"  crashed_writes {stats.crashed_writes}  "
              f"skipped_writes {stats.skipped_writes}  "
              f"reprobes {stats.reprobes}  "
              f"recoveries {stats.recoveries}")
        print("result replay (this process)")
        print(f"  hits {RESULT_CACHE_STATS.hits}  "
              f"misses {RESULT_CACHE_STATS.misses}  "
              f"stores {RESULT_CACHE_STATS.stores}  "
              f"invalid {RESULT_CACHE_STATS.invalid}")
        sup = supervisor_stats()
        print("supervision (this process)")
        print(f"  retries {sup.retries}  worker_losses {sup.worker_losses}  "
              f"timeouts {sup.timeouts}  task_errors {sup.task_errors}  "
              f"pool_respawns {sup.pool_respawns}")
        return 0
    if args.action == "gc":
        if args.max_size is None:
            raise _CliError("cache gc requires --max-size")
        limit = _parse_size(args.max_size)
        report = store.gc(limit)
        print(f"evicted {report.files_removed} artifact file(s) "
              f"({report.bytes_removed / 1024:.1f} KiB) from {store.root}")
        print(f"reaped {report.tmp_files_removed} orphaned temp file(s) "
              f"({report.tmp_bytes_removed / 1024:.1f} KiB)")
        print(f"store now holds {store.total_size() / 1024:.1f} KiB "
              f"(limit {limit / 1024:.1f} KiB)")
        return 0
    if args.action == "fsck":
        report = store.fsck(repair=args.repair)
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        else:
            action = "repaired" if args.repair else "found"
            print(f"fsck of {store.root} (schema v{store.version})")
            for kind in sorted(report.per_kind):
                ok, corrupt = report.per_kind[kind]
                note = f"  {corrupt} corrupt ({action})" if corrupt else ""
                print(f"  {kind:>12s} : {ok:>5d} ok{note}")
            if report.tmp_files:
                print(f"  {report.tmp_files} orphaned temp file(s) "
                      f"({report.tmp_bytes / 1024:.1f} KiB) {action}")
            if report.other_version_files:
                print(f"  plus {report.other_version_files} file(s) from "
                      f"other schema versions (reclaim with `repro-clgp "
                      f"cache clear`)")
            verdict = "clean" if report.clean() else (
                "repaired" if args.repair else "damaged")
            print(f"  store is {verdict}: {report.ok} ok, "
                  f"{report.corrupt} corrupt, {report.tmp_files} orphaned "
                  f"temp file(s)")
        # Damage that was only *reported* is an error exit; a repair pass
        # (or an already-clean store) exits 0 so scripted
        # `fsck --repair && fsck` pipelines read naturally.
        return 0 if (report.clean() or args.repair) else 1
    # ls
    status = "enabled" if cache_enabled() else "disabled"
    print(f"artifact cache at {store.root} "
          f"(schema v{store.version}, {status})")
    summary = store.describe()
    orphaned_files, orphaned_bytes = store.orphaned()
    if not summary and not orphaned_files:
        print("  (empty)")
        return 0
    total_files = total_bytes = 0
    for kind in sorted(summary):
        count, size = summary[kind]
        total_files += count
        total_bytes += size
        print(f"  {kind:>12s} : {count:>5d} file(s) {size / 1024:>10.1f} KiB")
    print(f"  {'total':>12s} : {total_files:>5d} file(s) "
          f"{total_bytes / 1024:>10.1f} KiB")
    if orphaned_files:
        print(f"  plus {orphaned_files} file(s) "
              f"({orphaned_bytes / 1024:.1f} KiB) from other schema "
              f"versions (reclaim with `repro-clgp cache clear`)")
    return 0


def _cmd_tables(session: Session, args: argparse.Namespace) -> int:
    rows1 = {f"{r['year']}": f"{r['technology_um']}um, {r['clock_ghz']}GHz, "
             f"{r['cycle_time_ns']}ns" for r in table1()}
    print(format_key_value_table(rows1, "Table 1: SIA technology roadmap"))
    print()
    print(format_key_value_table(table2(), "Table 2: simulation parameters"))
    print()
    print(format_latency_table(table3(), "Table 3: cache access latencies (cycles)"))
    return 0


def _cmd_speedups(session: Session, args: argparse.Namespace) -> int:
    names = _benchmarks(args.benchmarks)

    def render() -> int:
        data = session.headline_speedups(
            l1_size_bytes=args.l1_size, benchmarks=names,
            max_instructions=args.instructions,
            options=_options(args),
        )
        print(format_speedups(data))
        return 0

    return _aggregate_faults(render)


def _cmd_sample(session: Session, args: argparse.Namespace) -> int:
    try:
        spec = SamplingSpec(
            interval_length=args.interval_length,
            max_intervals=args.intervals,
            method=args.method,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    config = paper_config(
        args.scheme, l1_size_bytes=args.l1_size, technology=args.technology,
        max_instructions=args.instructions,
    )
    workload = session.workload(_validate_benchmark(args.benchmark))
    selection = get_selection(workload, args.instructions, spec,
                              config=config)
    print(f"Interval selection for {args.benchmark} "
          f"({args.instructions} instructions, "
          f"interval {selection.interval_length}, method {args.method})")
    header = (f"{'idx':>5s} {'start':>8s} {'length':>7s} {'weight':>7s} "
              f"{'cluster':>7s} {'proxy':>9s}")
    print(header)
    print("-" * len(header))
    for interval in selection.intervals:
        proxy = f"{interval.proxy:9.0f}" if interval.proxy else f"{'-':>9s}"
        print(f"{interval.index:>5d} {interval.start_instruction:>8d} "
              f"{interval.length:>7d} {interval.weight:>6.1%} "
              f"{interval.cluster_size:>7d} {proxy}")
    print(f"coverage: {selection.coverage():.1%} "
          f"({selection.sampled_instructions} of "
          f"{selection.total_instructions} instructions)")

    run_spec = ExperimentSpec(
        scheme=args.scheme,
        benchmarks=args.benchmark,
        max_instructions=args.instructions,
        technology=args.technology,
        l1_size_bytes=args.l1_size,
        name="cli-sample",
    )
    start = time.perf_counter()
    sampled_run = session.run(run_spec, options=dataclasses.replace(
        _options(args), sampled=True, sampling=spec))
    if sampled_run.failed_tasks:
        return _report_faults(sampled_run)
    sampled = sampled_run.results[0]
    sampled_seconds = time.perf_counter() - start
    print(f"\nSampled run ({args.scheme}): IPC {sampled.ipc:.3f} "
          f"[{sampled_seconds:.2f}s]")
    if args.compare:
        start = time.perf_counter()
        # result_cache=False: the point of --compare is timing the full
        # simulation against the sampled estimate; replaying a persisted
        # result would report a meaningless ~0s baseline.
        full_run = session.run(
            run_spec, options=ExecutionOptions(result_cache=False))
        if full_run.failed_tasks:
            return _report_faults(full_run)
        full = full_run.results[0]
        full_seconds = time.perf_counter() - start
        error = sampled.ipc / full.ipc - 1.0 if full.ipc else 0.0
        ratio = full_seconds / sampled_seconds if sampled_seconds else 0.0
        print(f"Full run    ({args.scheme}): IPC {full.ipc:.3f} "
              f"[{full_seconds:.2f}s]")
        print(f"relative IPC error {error:+.2%}, speedup {ratio:.1f}x")
    return 0


def _cmd_serve(session: Session, args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from .context import current_context, use_context
    from .service.server import ExperimentServer

    try:
        # The server's whole event loop runs under this context (asyncio
        # tasks copy it): serve is the one command where chaos must also
        # cover the HTTP boundary, where the request_drop site fires
        # before any submission exists.
        context = current_context().override(
            result_cache=False if args.no_result_cache else None,
            faults=args.faults or None)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc

    async def run() -> int:
        server = ExperimentServer(
            session, host=args.host, port=args.port,
            parallel=args.parallel, quota=args.quota,
            max_queue_depth=args.max_queue, max_jobs=args.max_jobs)
        await server.start()
        # Parseable by wrappers (CI smoke, tests): port 0 binds an
        # ephemeral port and this line is where it is announced.
        print(f"listening on http://{args.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        serving.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serving
        await server.stop()
        print("service stopped", flush=True)
        return 0

    try:
        with use_context(context):
            return asyncio.run(run())
    except KeyboardInterrupt:   # signal handlers unavailable (rare)
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-clgp",
        description="Cache Line Guided Prestaging reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    p_run.add_argument("scheme", choices=SCHEMES)
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure's data")
    p_fig.add_argument("number", choices=list(FIGURE_NUMBERS) + ["all"])
    _add_common(p_fig)
    _add_sampling(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_tab = sub.add_parser("tables", help="print Tables 1-3")
    p_tab.set_defaults(func=_cmd_tables)

    p_speed = sub.add_parser("speedups", help="print the headline speedups")
    _add_common(p_speed)
    _add_sampling(p_speed)
    p_speed.set_defaults(func=_cmd_speedups)

    p_sample = sub.add_parser(
        "sample",
        help="profile a benchmark and select representative intervals",
    )
    p_sample.add_argument("benchmark")
    p_sample.add_argument("--scheme", default="CLGP+L0", choices=SCHEMES)
    p_sample.add_argument("--intervals", type=int, default=4,
                          help="representative intervals to select (K)")
    p_sample.add_argument("--interval-length", type=int, default=None,
                          help="instructions per interval "
                               "(default: derived from the budget)")
    p_sample.add_argument("--method", default="stratified",
                          choices=["stratified", "kmeans"],
                          help="interval selection method")
    p_sample.add_argument("--compare", action="store_true",
                          help="also run the full simulation and report "
                               "the sampled run's error and speedup")
    _add_config_args(p_sample)
    _add_cache_args(p_sample)
    p_sample.set_defaults(func=_cmd_sample)

    p_cache = sub.add_parser(
        "cache", help="inspect, clear, size-cap or fsck the artifact cache")
    p_cache.add_argument("action",
                         choices=["ls", "clear", "path", "gc", "stats",
                                  "fsck"],
                         nargs="?", default="ls")
    p_cache.add_argument("--repair", action="store_true",
                         help="fsck: unlink corrupt artifacts and reap "
                              "orphaned temp files (default: report only)")
    p_cache.add_argument("--json", action="store_true",
                         help="stats/fsck: machine-readable JSON output")
    p_cache.add_argument("--max-size", default=None, metavar="BYTES",
                         help="gc: evict least-recently-used artifacts "
                              "until the store fits this size "
                              "(suffixes K/M/G allowed)")
    _add_cache_args(p_cache)
    p_cache.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="run the experiment service (HTTP + SSE front end: "
             "concurrent clients, request dedup, fair scheduling)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8177,
                         help="listen port (0 = ephemeral; the bound "
                              "port is announced on stdout)")
    p_serve.add_argument("--parallel", type=int, default=2,
                         help="experiment runs in flight at once")
    p_serve.add_argument("--quota", type=int, default=8,
                         help="max jobs queued or running per client")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="global queue depth before 429 backpressure")
    p_serve.add_argument("--max-jobs", type=int, default=512,
                         help="retained jobs before the oldest terminal "
                              "unwatched ones are evicted (re-submits "
                              "replay from the result cache)")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="worker processes per experiment run "
                              "(0 = all cores)")
    p_serve.add_argument("--faults", default=None, metavar="SPEC",
                         help="deterministic chaos for the whole service, "
                              "e.g. 'worker_kill:0.2,request_drop:0.2,"
                              "seed:7' (env: REPRO_FAULTS)")
    _add_cache_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            session = Session(
                jobs=getattr(args, "jobs", 1),
                cache_dir=getattr(args, "cache_dir", None),
                cache=False if getattr(args, "no_cache", False) else None,
            )
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        with session, session.context():
            return args.func(session, args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
