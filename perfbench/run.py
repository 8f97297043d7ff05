"""The repo benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload full-sweep --seed 1 \\
        --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``full-sweep``      the Figure-5 grid, full simulation, cold store;
``sampled-sweep``   the same grid, sampled simulation, cold store;
``service-replay``  ``repro-clgp serve`` answering two closed-loop clients
                    from a store filled during set-up.

Every sweep, store fill and server is a fresh process with a pinned
environment (no ``REPRO_*`` variable leaks in) and its own empty artifact
store under ``.perfbench/``.  Outputs are checked against
``perfbench/reference.json``; a mismatch counts as a failed operation.
Host times are scaled to a reference host speed by probes timed next to
them (see :func:`scaled` and the README), because the host's own speed
drifts by tens of percent.

With ``--trace 0`` the last line holds the end-to-end metrics, measured
untraced.  With ``--trace 1`` it holds the per-layer metrics from a traced
pass, next to one untraced pass that gives the tracing overhead; the
traced processes also write Chrome trace-event files to
``.perfbench/traces/``.  The line is always
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import grid
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("full-sweep", "sampled-sweep", "service-replay")

#: Extra set-up-only processes per sweep run, so ``setup_s`` is a median
#: of several fresh starts even when only one or two sweeps fit.
SETUP_PROBES = 3
#: Full service set-ups (store fill + server start) per untraced run.
SERVICE_SETUPS = 3
#: Longest any one child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150
#: How long ``worker.probe`` takes on an unloaded 2-core x86-64 host.
#: Sweep timings are scaled by this over the probes taken next to them.
PROBE_REFERENCE_S = 0.004
#: How a sweep task's time follows the probe's on this kind of host: the
#: slope of log task time on log probe time, fitted per grid point over
#: six sets of ten runs, was 0.50 to 0.78.  The probe, a tight
#: interpreter loop, slows more under contention than the simulator
#: does, so scaling tasks by the full probe ratio over-corrects.  Of the
#: exponents tried on nine such sets, this one gave the lowest worst
#: spread of the sweep metrics (see the README).
TASK_ELASTICITY = 0.75
#: The service replay runs in bursts this long, probed in between.
BURST_S = 1.0
#: Longest a client or the main thread waits for the others between bursts.
BARRIER_TIMEOUT_S = 60

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("instr_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("ipc_err_max", "ratio"),
    ("hmean_ipc_err_max", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: The five component ticks of the timed loop.
TICKS = ("core.fetch_tick", "core.prefetch_tick", "frontend.tick",
         "backend.tick", "memory.bus_tick")
#: Layers whose self time is reported (``service`` has no in-process
#: spans yet; its split is measured on the client).
SELF_TIME_LAYERS = ("workloads", "cache", "simulator", "core", "frontend",
                    "backend", "memory", "kernels", "sampling", "api")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.build_s", "s"), ("workloads.build_calls", "count"),
    ("workloads.compile_trace_s", "s"), ("workloads.trace_instr", "count"),
    ("cache.get_s", "s"), ("cache.get_calls", "count"),
    ("cache.bytes_read", "B"), ("cache.put_s", "s"),
    ("cache.put_calls", "count"), ("cache.bytes_written", "B"),
    ("cache.hit_ratio", "ratio"), ("cache.io_retries", "count"),
    ("cache.corrupt", "count"),
    ("simulator.warm_up_s", "s"), ("simulator.warm_up_calls", "count"),
    ("simulator.run_s", "s"), ("simulator.run_calls", "count"),
    ("simulator.cycles", "count"), ("simulator.committed_instr", "count"),
    ("simulator.run_instr_per_s", "1/s"),
    ("simulator.ticked_cycle_ratio", "ratio"),
    ("simulator.skip_s", "s"), ("simulator.skipped_instr", "count"),
    ("simulator.snapshot_s", "s"), ("simulator.snapshot_calls", "count"),
    ("simulator.restore_s", "s"), ("simulator.restore_calls", "count"),
    ("simulator.loop_other_s", "s"),
    ("core.fetch_tick_s", "s"), ("core.fetch_tick_calls", "count"),
    ("core.prefetch_tick_s", "s"), ("core.prefetch_tick_calls", "count"),
    ("frontend.tick_s", "s"), ("frontend.tick_calls", "count"),
    ("backend.tick_s", "s"), ("backend.tick_calls", "count"),
    ("memory.bus_tick_s", "s"), ("memory.bus_tick_calls", "count"),
    ("core.prefetches_issued", "count"),
    ("frontend.streams_predicted", "count"),
    ("memory.l1_misses", "count"), ("memory.bus_grants", "count"),
    ("kernels.batch_s", "s"), ("kernels.batch_calls", "count"),
    ("kernels.replay_s", "s"), ("kernels.replay_calls", "count"),
    ("sampling.bbv_s", "s"), ("sampling.proxy_s", "s"),
    ("sampling.selection_s", "s"), ("sampling.intervals", "count"),
    ("sampling.timed_instr_ratio", "ratio"),
    ("sampling.positioned_reuse", "count"),
    ("api.run_s", "s"), ("runner.task_s", "s"), ("api.overhead_s", "s"),
    ("runner.task_retries", "count"), ("runner.result_replays", "count"),
    ("service.submit_ms_p50", "ms"), ("service.result_ms_p50", "ms"),
    ("service.dedup_ratio", "ratio"), ("service.runs_started", "count"),
    ("service.rejected", "count"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"{layer}.self_s", "s") for layer in SELF_TIME_LAYERS)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# ----------------------------------------------------------------------
# environment and child processes
# ----------------------------------------------------------------------
def pinned_env() -> Dict[str, str]:
    """The environment every child runs with: no ``REPRO_*`` setting from
    the caller (cache location, cache/result-cache disables, faults,
    batch/inline switches, retry budget, ``BENCH_*`` sizes), sources from
    this checkout, single-threaded numeric libraries, fixed hash seed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SOURCE), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def use_program() -> None:
    """Import the program from this checkout in this process too (the
    service clients need it), with no ``REPRO_*`` setting of the
    caller's."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SOURCE))


class Children:
    """Every process this run starts; :meth:`close` stops the survivors."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.env = pinned_env()
        self._procs: List[subprocess.Popen] = []
        self._stores = 0

    def new_store(self) -> str:
        """A path for a new, empty artifact store."""
        self._stores += 1
        return str(self.scratch / f"store-{self._stores}")

    def start(self, *args: str) -> Tuple[subprocess.Popen, float]:
        """Start ``worker.py args``; returns it and the seconds until it
        printed its first line (``ready`` or the server's address)."""
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._procs.append(proc)
        line = proc.stdout.readline()
        ready = perf_counter() - start
        if not line:
            self.finish(proc)
            raise BenchError(f"worker {args[0]} exited before it was ready")
        proc.first_line = line.strip()
        return proc, ready

    def finish(self, proc: subprocess.Popen, stop: bool = False) -> None:
        proc.stdin.close()
        if stop:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("a worker process timed out")
        finally:
            proc.stdout.close()
        if proc.returncode and not stop:
            raise BenchError(f"a worker process failed ({proc.returncode})")

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if not stream.closed:
                    stream.close()


def read_record(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"a worker left no record: {exc}") from exc


def environment(seed: int) -> Dict[str, str]:
    """What the numbers were measured on."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": str(os.cpu_count()),
            "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit,
            "source_sha256": digest.hexdigest()[:16], "seed": str(seed)}


# ----------------------------------------------------------------------
# the sweeps
# ----------------------------------------------------------------------
def run_worker(children: Children, *args: str) -> dict:
    """One fresh worker process to the end; returns its record, plus its
    start-to-ready time as ``setup_s``."""
    store = children.new_store()
    out = Path(f"{store}.json")
    proc, ready = children.start(*args, "--store", store, "--out", str(out))
    children.finish(proc)
    record = read_record(out)
    record["setup_s"] = ready
    return record


def run_sweep(children: Children, sampled: bool, order_seed: str,
              trace: Optional[Path] = None) -> dict:
    """One cold sweep in a fresh process; returns its record."""
    args = ["sweep", "--order-seed", order_seed]
    if sampled:
        args.append("--sampled")
    if trace is not None:
        args += ["--trace", str(trace)]
    return run_worker(children, *args)


def check_points(points: List[dict], expected: Dict) -> Tuple[int, int]:
    """(attempted, failed): a point fails on an error or a digest that
    differs from the reference."""
    failed = sum(1 for p in points if "digest" not in p)
    measured = {p["point"]: p["digest"] for p in points if "digest" in p}
    failed += len(grid.mismatches(measured, expected))
    return len(points), failed


def sweep_errors(points: List[dict], sampled: bool,
                 reference: Dict) -> Tuple[float, float]:
    """``ipc_err_*`` of the grid: one side measured in this run, the
    other taken from the reference's full or sampled runs."""
    measured = {p["point"]: p["ipc"] for p in points if "ipc" in p}
    other = {point: entry["ipc"] for point, entry
             in reference["sweep"]["full" if sampled else "sampled"].items()}
    return (grid.ipc_errors(measured, other) if sampled
            else grid.ipc_errors(other, measured))


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` at the reference host speed, given a probe timed next
    to it on the same thread."""
    return seconds * PROBE_REFERENCE_S / probe_s


def scaled_task(seconds: float, probe_s: float) -> float:
    """A sweep task's time at the reference host speed: like
    :func:`scaled`, but by the probe ratio to the power
    :data:`TASK_ELASTICITY`."""
    return seconds * (PROBE_REFERENCE_S / probe_s) ** TASK_ELASTICITY


def scaled_sweep_s(record: dict) -> float:
    """A sweep's scaled time: the sum of its scaled point times."""
    return sum(map(scaled_task, record["task_s"], record["probe_s"]))


def sweep_end_to_end(records: List[dict], setups: List[dict],
                     sampled: bool, reference: Dict) -> Tuple[dict, dict]:
    """The sweep's metrics, and the details (sample counts, raw times)
    for the record.

    The host is shared: its speed swings by tens of percent within
    seconds, and the share of slow spells drifts over minutes, so a
    sweep's wall time mostly measures the neighbours.  Each point's time
    is therefore scaled by the probes that bracket it, and averaged over
    the run's sweeps.  A request is one Figure-5 data point: one scheme
    at one L1 size, over the four benchmarks.  (Single points make a
    poor latency sample: their times form two clusters with the median
    between them.)
    """
    times: Dict[str, List[float]] = {}
    for record in records:
        for point, seconds, probe_s in zip(record["points"],
                                           record["task_s"],
                                           record["probe_s"]):
            times.setdefault(point["point"], []).append(
                scaled_task(seconds, probe_s))
    request_s: Dict[Tuple[str, int], float] = {}
    for point, point_times in times.items():
        scheme, l1_size, _ = grid.split_point(point)
        request_s[scheme, l1_size] = request_s.get((scheme, l1_size), 0.0) \
            + statistics.mean(point_times)
    sweep_s = statistics.mean(map(scaled_sweep_s, records))
    ipc_err, hmean_err = sweep_errors(records[-1]["points"], sampled,
                                      reference)
    return {
        "setup_s": statistics.median(
            scaled(r["setup_s"], r["setup_probe_s"]) for r in setups),
        "instr_per_s": len(times) * grid.SWEEP_BUDGET / sweep_s,
        "req_per_s": len(request_s) / sweep_s,
        "req_p50_ms": grid.quantile(request_s.values(), 0.50) * 1e3,
        "req_p99_ms": grid.quantile(request_s.values(), 0.99) * 1e3,
        "ipc_err_max": ipc_err,
        "hmean_ipc_err_max": hmean_err,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }, {
        "samples": {"sweeps": len(records), "requests": len(request_s),
                    "setups": len(setups),
                    "sweep_wall_s": [round(r["wall_s"], 3)
                                     for r in records]},
        "raw": [{"wall_s": r["wall_s"],
                 "task_s": {p["point"]: [t, q] for p, t, q in zip(
                     r["points"], r["task_s"], r["probe_s"])}}
                for r in records],
    }


def sweep_workload(children: Children, sampled: bool, seed: int,
                   seconds: float, traced: bool, reference: Dict,
                   traces: Path) -> Tuple[dict, dict, int, int]:
    expected = reference["sweep"]["sampled" if sampled else "full"]
    name = "sampled-sweep" if sampled else "full-sweep"
    records: List[dict] = []
    if traced:
        plain = run_sweep(children, sampled, f"{seed}:0")
        traced_record = run_sweep(
            children, sampled, f"{seed}:1",
            trace=traces / f"{name}-seed{seed}.json")
        records = [plain, traced_record]
        overhead = scaled_sweep_s(traced_record) / scaled_sweep_s(plain)
        metrics, details = layer_metrics(
            traced_record["trace"], traced_record["points"],
            len(traced_record["points"]) * grid.SWEEP_BUDGET, overhead)
    else:
        setups = [run_worker(children, "setup")
                  for _ in range(SETUP_PROBES)]
        # As many sweeps as fit in the time, and at least one.
        records.append(run_sweep(children, sampled, f"{seed}:0"))
        sweeps = max(1, int(seconds / records[0]["wall_s"]))
        while len(records) < sweeps:
            records.append(run_sweep(children, sampled,
                                     f"{seed}:{len(records)}"))
        setups += records
        metrics, details = sweep_end_to_end(records, setups, sampled,
                                            reference)
    attempted = failed = 0
    for record in records:
        a, f = check_points(record["points"], expected)
        attempted += a
        failed += f
    return metrics, details, attempted, failed


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class Server:
    """A filled store and a ``repro-clgp serve`` process on it."""

    def __init__(self, children: Children, trace_dir: Optional[Path],
                 label: str) -> None:
        self.children = children
        store = children.new_store()
        self.fill_out = children.scratch / f"fill-{label}.json"
        self.serve_out = children.scratch / f"serve-{label}.json"
        fill = ["populate", "--store", store, "--out", str(self.fill_out)]
        serve = ["serve", "--store", store, "--out", str(self.serve_out)]
        if trace_dir is not None:
            fill += ["--trace", str(trace_dir / f"{label}-fill.json")]
            serve += ["--trace", str(trace_dir / f"{label}-server.json")]
        from repro.service.client import ServiceClient

        start = perf_counter()
        proc, _ = children.start(*fill)
        children.finish(proc)
        self.proc, _ = children.start(*serve)
        address = self.proc.first_line.rsplit(":", 1)
        if not self.proc.first_line.startswith("listening on") \
                or len(address) != 2:
            raise BenchError(f"unexpected server output "
                             f"{self.proc.first_line!r}")
        self.port = int(address[1])
        # Ready means answering: the server installs its SIGTERM handler
        # after announcing the port, before it serves the first request.
        ServiceClient(port=self.port, retries=5).health()
        # The fill's simulations, most of the set-up, are scaled task by
        # task like a sweep's; the rest by a probe taken now.
        total_s = perf_counter() - start
        filled = read_record(self.fill_out)
        self.setup_s = scaled_sweep_s(filled) + scaled(
            total_s - sum(filled["task_s"]), self.probe())

    def probe(self) -> float:
        """The host's speed now: a probe timed in the server process and
        one timed here, while no request is in flight."""
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "probe":
            raise BenchError(f"unexpected probe answer {line!r}")
        return (float(line[1]) + worker.probe()) / 2

    def stop(self) -> Tuple[dict, dict]:
        """Stop the server; returns (store fill record, server record)."""
        self.children.finish(self.proc, stop=True)
        return read_record(self.fill_out), read_record(self.serve_out)


class Request(NamedTuple):
    point: str
    submit_s: float
    result_s: float
    ok: bool
    ipc: Optional[float]
    burst: int


def client_loop(port: int, client: int, seed: int, barrier: threading.Barrier,
                burst: dict, expected: Dict, out: List[Request]) -> None:
    """One closed-loop client: submit, fetch the result, check it, repeat
    until the burst's deadline; then wait at ``barrier`` for the next."""
    from repro.service.client import ServiceClient, ServiceError

    service = ServiceClient(port=port, client_id=f"perfbench-{client}",
                            retries=0, timeout=30.0)
    requests = grid.request_sequence(seed, client)
    while True:
        barrier.wait(BARRIER_TIMEOUT_S)
        if burst["stop"]:
            return
        while perf_counter() < burst["deadline"]:
            point, name = next(requests)
            scheme, _, benchmark = grid.split_point(point)
            spec = worker.service_spec(scheme, benchmark, name)
            start = perf_counter()
            try:
                job = service.submit(spec)["job"]
                submitted = perf_counter()
                body = service.result_bytes(job)
                done = perf_counter()
                result = json.loads(body)["results"][0]
            except (ServiceError, ValueError, LookupError):
                # refused (429), failed, or an unreadable answer
                out.append(Request(point, perf_counter() - start, 0.0,
                                   False, None, burst["index"]))
                continue
            ok = grid.result_digest(result) == expected[point]["digest"]
            out.append(Request(point, submitted - start, done - submitted,
                               ok, grid.result_ipc(result), burst["index"]))
        barrier.wait(BARRIER_TIMEOUT_S)


def replay(server: "Server", seed: int, seconds: float,
           expected: Dict) -> Tuple[List[Request], List[float], List[float]]:
    """Drive the server with the clients, in bursts of ``BURST_S``.

    Between bursts the clients wait while :meth:`Server.probe` times the
    host.  Returns the requests (which carry their burst's index), each
    burst's wall time, and each burst's probe time: the mean of the probes
    on either side of it.
    """
    clients = grid.SERVICE_CLIENTS
    barrier = threading.Barrier(clients + 1)
    burst = {"index": 0, "deadline": 0.0, "stop": False}
    outs: List[List[Request]] = [[] for _ in range(clients)]
    threads = [threading.Thread(
        target=client_loop,
        args=(server.port, client, seed, barrier, burst, expected,
              outs[client]))
        for client in range(clients)]
    for thread in threads:
        thread.start()
    probes = [server.probe()]
    walls: List[float] = []
    start = perf_counter()
    try:
        while perf_counter() - start < seconds:
            burst["deadline"] = perf_counter() + BURST_S
            barrier.wait(BARRIER_TIMEOUT_S)     # the clients start
            began = perf_counter()
            barrier.wait(BARRIER_TIMEOUT_S)     # the clients are idle
            walls.append(perf_counter() - began)
            probes.append(server.probe())
            burst["index"] += 1
        burst["stop"] = True
        barrier.wait(BARRIER_TIMEOUT_S)
    except BaseException as exc:
        barrier.abort()     # release the clients, whatever went wrong
        if isinstance(exc, threading.BrokenBarrierError):
            raise BenchError("a service client stopped") from exc
        raise
    finally:
        for thread in threads:
            thread.join()
    requests = [request for out in outs for request in out]
    return requests, walls, [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def burst_quantiles(requests: List[Request], probes: List[float],
                    q: float) -> List[float]:
    """Each burst's ``q`` latency quantile, in scaled seconds."""
    latencies: Dict[int, List[float]] = {}
    for r in requests:
        if r.ok:
            latencies.setdefault(r.burst, []).append(
                scaled(r.submit_s + r.result_s, probes[r.burst]))
    return [grid.quantile(latencies[burst], q) for burst in sorted(latencies)]


def service_end_to_end(requests: List[Request], walls: List[float],
                       probes: List[float], setups: List[float],
                       server_record: dict,
                       reference: Dict) -> Tuple[dict, dict]:
    """The replay's metrics, every time scaled by its burst's probes,
    and the details for the record.

    The latency percentiles are taken per burst and reported as the
    median over the bursts.  A pooled p99 sits at the scale of a
    scheduler time slice, so the few bursts in which a neighbour holds
    a core set it; the median burst does not depend on them.
    """
    p50s = burst_quantiles(requests, probes, 0.50)
    p99s = burst_quantiles(requests, probes, 0.99)
    served = {r.point: r.ipc for r in requests if r.ok}
    sampled = {point: entry["ipc"] for point, entry
               in reference["service"]["sampled"].items()}
    ipc_err, hmean_err = grid.ipc_errors(sampled, served)
    rate = len(requests) / sum(map(scaled, walls, probes))
    return {
        "setup_s": statistics.median(setups),
        "instr_per_s": rate * grid.SERVICE_BUDGET,
        "req_per_s": rate,
        "req_p50_ms": grid.quantile(p50s, 0.5) * 1e3,
        "req_p99_ms": grid.quantile(p99s, 0.5) * 1e3,
        "ipc_err_max": ipc_err,
        "hmean_ipc_err_max": hmean_err,
        "peak_rss_mb": server_record["peak_rss_mb"],
    }, {
        "samples": {"requests": sum(1 for r in requests if r.ok),
                    "setups": len(setups), "bursts": len(walls)},
        "raw": {"burst_wall_s": walls, "burst_probe_s": probes,
                "burst_p50_s": p50s, "burst_p99_s": p99s},
    }


def service_stats(port: int) -> dict:
    from repro.service.client import ServiceClient

    return ServiceClient(port=port, retries=2).stats()


def service_workload(children: Children, seed: int, seconds: float,
                     traced: bool, reference: Dict,
                     traces: Path) -> Tuple[dict, dict, int, int]:
    expected = reference["service"]["full"]
    fills: List[dict] = []
    if traced:
        # Half the time untraced (the overhead baseline), half traced.
        plain = Server(children, None, "plain")
        plain_requests, plain_walls, plain_probes = replay(
            plain, seed, seconds / 2, expected)
        fills.append(plain.stop()[0])
        server = Server(children, traces, f"service-replay-seed{seed}")
        requests, walls, probes = replay(server, seed, seconds / 2,
                                         expected)
        stats = service_stats(server.port)
        fill, served = server.stop()
        fills.append(fill)
        overhead = (len(plain_requests)
                    / sum(map(scaled, plain_walls, plain_probes))) \
            / (len(requests) / sum(map(scaled, walls, probes)))
        trace = merge_traces([fill["trace"], served["trace"]])
        metrics, details = layer_metrics(
            trace, fill["points"], len(fill["points"]) * grid.SERVICE_BUDGET,
            overhead, requests, stats)
        requests = plain_requests + requests
    else:
        setups = []
        for index in range(SERVICE_SETUPS):
            server = Server(children, None, f"setup{index}")
            setups.append(server.setup_s)
            if index < SERVICE_SETUPS - 1:
                fills.append(server.stop()[0])
        requests, walls, probes = replay(server, seed, seconds, expected)
        fill, served = server.stop()
        fills.append(fill)
        metrics, details = service_end_to_end(requests, walls, probes,
                                              setups, served, reference)
    attempted = len(requests)
    failed = sum(1 for r in requests if not r.ok)
    for fill in fills:
        a, f = check_points(fill["points"], expected)
        attempted += a
        failed += f
    return metrics, details, attempted, failed


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def merge_traces(traces: List[dict]) -> dict:
    """Sum the per-layer records of several traced processes."""
    merged: dict = {"stats": {}, "counters": {}, "nested": {}, "store": {}}
    for trace in traces:
        for name, stat in trace["stats"].items():
            into = merged["stats"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in stat.items():
                into[key] += value
        for section in ("counters", "nested", "store"):
            for name, value in trace[section].items():
                merged[section][name] = merged[section].get(name, 0) + value
    return merged


def layer_metrics(trace: dict, points: List[dict], budget_instr: int,
                  overhead: float, requests: Optional[List[tuple]] = None,
                  stats: Optional[dict] = None) -> Tuple[dict, dict]:
    """The per-layer metrics of one traced pass, and the details.

    ``points`` are the simulated grid points of that pass (their modelled
    counts), ``budget_instr`` their summed instruction budget.  For the
    service, ``requests`` are the traced pass's client records and
    ``stats`` the server's ``/v1/stats``.
    """
    stat, counters, store = trace["stats"], trace["counters"], trace["store"]

    def total(name: str) -> float:
        return stat.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return stat.get(name, {}).get("calls", 0)

    run_s = total("simulator.run") - trace["nested"].get(
        "simulator.run>simulator.warm_up", 0.0)
    committed = counters.get("simulator.committed_instr", 0)
    cycles = counters.get("simulator.cycles", 0)
    lookups = store.get("hits", 0) + store.get("misses", 0)
    task_s = counters.get("runner.task_s", 0.0)
    metrics = {
        "workloads.build_s": total("workloads.build"),
        "workloads.build_calls": calls("workloads.build"),
        "workloads.compile_trace_s": total("workloads.compile_trace"),
        "workloads.trace_instr": counters.get("workloads.trace_instr", 0),
        "cache.get_s": total("cache.get"),
        "cache.get_calls": calls("cache.get"),
        "cache.bytes_read": counters.get("cache.bytes_read", 0),
        "cache.put_s": total("cache.put"),
        "cache.put_calls": calls("cache.put"),
        "cache.bytes_written": counters.get("cache.bytes_written", 0),
        "cache.hit_ratio": store.get("hits", 0) / lookups if lookups else 0.0,
        "cache.io_retries": store.get("io_retries", 0),
        "cache.corrupt": store.get("corrupt", 0),
        "simulator.warm_up_s": total("simulator.warm_up"),
        "simulator.warm_up_calls": calls("simulator.warm_up"),
        "simulator.run_s": run_s,
        "simulator.run_calls": calls("simulator.run"),
        "simulator.cycles": cycles,
        "simulator.committed_instr": committed,
        "simulator.run_instr_per_s": committed / run_s if run_s else 0.0,
        "simulator.ticked_cycle_ratio":
            calls("backend.tick") / cycles if cycles else 0.0,
        "simulator.skip_s": total("simulator.skip"),
        "simulator.skipped_instr": counters.get("simulator.skipped_instr", 0),
        "simulator.snapshot_s": total("simulator.snapshot"),
        "simulator.snapshot_calls": calls("simulator.snapshot"),
        "simulator.restore_s": total("simulator.restore"),
        "simulator.restore_calls": calls("simulator.restore"),
        "simulator.loop_other_s":
            stat.get("simulator.run", {}).get("self_s", 0.0),
        "core.prefetches_issued": sum(p.get("prefetches_issued", 0)
                                      for p in points),
        "frontend.streams_predicted": sum(p.get("streams_predicted", 0)
                                          for p in points),
        "memory.l1_misses": sum(p.get("l1_misses", 0) for p in points),
        "memory.bus_grants": sum(p.get("bus_grants", 0) for p in points),
        "kernels.batch_s": total("kernels.batch"),
        "kernels.batch_calls": calls("kernels.batch"),
        "kernels.replay_s": total("kernels.replay"),
        "kernels.replay_calls": calls("kernels.replay"),
        "sampling.bbv_s": total("sampling.bbv"),
        "sampling.proxy_s": total("sampling.proxy"),
        "sampling.selection_s":
            stat.get("sampling.selection", {}).get("self_s", 0.0),
        "sampling.intervals": counters.get("sampling.intervals", 0),
        "sampling.timed_instr_ratio": committed / budget_instr,
        "sampling.positioned_reuse":
            counters.get("sampling.positioned_reuse", 0),
        "api.run_s": total("api.run"),
        "runner.task_s": task_s,
        "api.overhead_s": total("api.run") - task_s,
        "runner.task_retries": counters.get("runner.task_retries", 0),
        "runner.result_replays": counters.get("runner.result_replays", 0),
        "trace.overhead_ratio": overhead,
    }
    for tick in TICKS:
        metrics[f"{tick}_s"] = total(tick)
        metrics[f"{tick}_calls"] = calls(tick)
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in stat.items()
            if name.split(".")[0] == layer)
    service = (stats or {}).get("service", {})
    ok = [r for r in requests or () if r.ok]
    metrics.update({
        "service.submit_ms_p50":
            grid.quantile([r.submit_s for r in ok], 0.5) * 1e3,
        "service.result_ms_p50":
            grid.quantile([r.result_s for r in ok], 0.5) * 1e3,
        "service.dedup_ratio": (service.get("deduplicated", 0)
                                / service["submitted"]
                                if service.get("submitted") else 0.0),
        "service.runs_started": service.get("runs_started", 0),
        "service.rejected": (service.get("rejected_quota", 0)
                             + service.get("rejected_backpressure", 0)),
    })
    accounted = sum(total(t) for t in TICKS) + metrics[
        "simulator.loop_other_s"]
    return metrics, {"samples": {
        "run_s_accounted_by_ticks_and_loop_other":
            accounted / run_s if run_s else None}}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float,
            traced: bool) -> Tuple[dict, dict, int, int]:
    reference = grid.load_reference()
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    children = Children(scratch)
    try:
        if workload == "service-replay":
            return service_workload(children, seed, seconds, traced,
                                    reference, traces)
        return sweep_workload(children, workload == "sampled-sweep", seed,
                              seconds, traced, reference, traces)
    finally:
        children.close()
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    use_program()

    env = environment(args.seed)
    try:
        metrics, details, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples = details["samples"]
    names = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{key}={value}" for key, value in env.items()))
    print(f"# samples {json.dumps(samples)} attempted={attempted} "
          f"failed={failed} failed_frac={failed / max(1, attempted):.6f}")
    for name, unit in names:
        print(f"{name:36s} {metrics[name]:>16.6g} {unit}")
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              **details, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    with open(runs / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
