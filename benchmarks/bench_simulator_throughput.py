"""Micro-benchmarks of simulator throughput (simulated instructions/second).

Not a paper experiment -- these keep an eye on the cost of the pure-Python
cycle loop for the three main engines so performance regressions in the
simulator itself are visible.  pytest-benchmark runs these with its normal
statistics (multiple rounds) because a single run is fast.

Five dimensions are tracked (each also lands in the session-level
``bench_metrics`` mapping, flushed to the top-level
``BENCH_throughput.json`` so the perf trajectory is recorded per PR):

* per-engine single-run throughput (the event-driven loop is the default;
  ``simulated_instructions_per_second`` is recorded in ``extra_info`` so
  the bench trajectory captures the headline metric directly),
* multi-benchmark sweep throughput with the parallel executor
  (a façade ``Session.run`` with ``ExecutionOptions(jobs=N)``), which is
  how the figure sweeps actually consume the simulator,
* sampled-vs-full comparison: the SimPoint-style sampled runner against
  the full run at the REPRO_BENCH instruction budget, recording the
  wall-clock speedup and the IPC relative error in ``extra_info`` so the
  accuracy/speed trade-off of the sampling subsystem stays on the bench
  trajectory (run with the persistent cache disabled, so it measures the
  sampling subsystem itself, not artifact replay),
* cold-vs-warm artifact cache: the same sampled mix against an empty and
  a populated ``repro.cache`` store, with in-memory caches cleared
  between runs so the warm number models a fresh CLI invocation, and
  result replay off so the warm runs still simulate,
* cold-vs-warm full-run result cache: the non-sampled counterpart --
  warm rounds replay complete persisted ``SimulationResult``\\ s with no
  simulation at all.
"""

import os
import time

import pytest

from repro.api import Simulator, paper_config
from repro.cache import temporary_cache_dir
from repro.cache.traces import ensure_compiled_trace
from repro.sampling import proxy as proxy_module
from repro.sampling.bbv import profile_workload
from repro.simulator.runner import (
    bench_instruction_budget,
    clear_process_caches,
    get_workload,
)
from repro.workloads.trace import Workload

from conftest import run_plan

INSTRUCTIONS = 2000

#: Worker count for the parallel-sweep benchmark (env override for CI and
#: bigger machines; 2 keeps the smoke run meaningful on small containers).
SWEEP_JOBS = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "2")))
SWEEP_BENCHMARKS = ("gzip", "gcc", "eon", "mcf")


@pytest.mark.parametrize("scheme", ["base-pipelined", "FDP+L0", "CLGP+L0"])
def test_simulation_throughput(benchmark, scheme, bench_metrics):
    workload = get_workload("gcc")
    config = paper_config(scheme, l1_size_bytes=4096, technology="0.045um",
                          max_instructions=INSTRUCTIONS,
                          warmup_instructions=20_000)

    def run_once_():
        return Simulator(config, workload).run(INSTRUCTIONS)

    # rounds=5: single-digit-ms runs on shared CI boxes are noisy; the
    # recorded min is the honest throughput number.
    result = benchmark.pedantic(run_once_, rounds=5, iterations=1,
                                warmup_rounds=1)
    assert result.committed_instructions >= INSTRUCTIONS
    instructions_per_second = (
        result.committed_instructions / benchmark.stats.stats.min
    )
    benchmark.extra_info["simulated_instructions_per_second"] = (
        instructions_per_second
    )
    benchmark.extra_info["sim_loop"] = config.sim_loop
    bench_metrics.setdefault("instructions_per_second", {})[scheme] = round(
        instructions_per_second
    )
    if scheme == "CLGP+L0":
        # The timed cycle loop is one of the per-pass entries tracked
        # alongside the batched functional passes (see the per-pass
        # benches below); record it under the same umbrella.
        bench_metrics.setdefault("per_pass", {})["timed_loop"] = {
            "instructions_per_second": round(instructions_per_second),
        }
        # Sanity floor: far below any measured rate, so only a real
        # regression of the timed loop trips it.
        assert instructions_per_second >= 30_000, (
            f"timed-loop throughput {instructions_per_second:.0f} fell "
            f"below 30k instr/s")


@pytest.mark.parametrize("jobs", [1, SWEEP_JOBS])
def test_sweep_throughput(benchmark, api_session, jobs, bench_metrics):
    """Multi-benchmark sweep throughput with the `jobs=` execution knob."""
    config = paper_config("CLGP+L0", l1_size_bytes=4096, technology="0.045um",
                          max_instructions=INSTRUCTIONS,
                          warmup_instructions=20_000)
    # Pre-build workloads so the sweep itself (not program generation) is
    # measured in the serial case; worker processes inherit nothing and
    # keep their own caches.
    for name in SWEEP_BENCHMARKS:
        get_workload(name)

    def run_sweep():
        # result_cache=False: later rounds must measure the sweep's
        # simulations, not full-run result replays from round one.
        return run_plan(api_session, config, SWEEP_BENCHMARKS, INSTRUCTIONS,
                        jobs=jobs, result_cache=False)

    results = benchmark.pedantic(run_sweep, rounds=2, iterations=1,
                                 warmup_rounds=1)
    simulated = sum(r.committed_instructions for r in results)
    assert simulated >= INSTRUCTIONS * len(SWEEP_BENCHMARKS)
    instructions_per_second = simulated / benchmark.stats.stats.min
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["simulated_instructions_per_second"] = (
        instructions_per_second
    )
    bench_metrics.setdefault("sweep_instructions_per_second", {})[
        f"jobs={jobs}"
    ] = round(instructions_per_second)
    sweep = bench_metrics["sweep_instructions_per_second"]
    if jobs != 1 and "jobs=1" in sweep:
        # Regression guard: asking for parallelism must never *cost*
        # throughput.  At this budget the overhead-aware planner runs
        # the jobs=N sweep inline, so the two legs execute the same
        # code and only measurement noise separates them.
        assert sweep[f"jobs={jobs}"] >= 0.9 * sweep["jobs=1"], (
            f"jobs={jobs} sweep throughput regressed below jobs=1: "
            f"{sweep}"
        )


# ----------------------------------------------------------------------
# per-pass throughput of the batched functional passes
# ----------------------------------------------------------------------
PASS_INSTRUCTIONS = 30_000
PASS_INTERVAL = 1000


def _record_pass(bench_metrics, benchmark, name, instructions):
    ips = instructions / benchmark.stats.stats.min
    benchmark.extra_info["simulated_instructions_per_second"] = ips
    bench_metrics.setdefault("per_pass", {})[name] = {
        "instructions_per_second": round(ips),
    }


def test_bbv_profile_throughput(benchmark, bench_metrics):
    """BBV profiling sliced from compiled trace columns."""
    workload = get_workload("gcc")
    ensure_compiled_trace(workload, PASS_INSTRUCTIONS)
    benchmark.pedantic(
        lambda: profile_workload(workload, PASS_INSTRUCTIONS, PASS_INTERVAL),
        rounds=5, iterations=1, warmup_rounds=1,
    )
    _record_pass(bench_metrics, benchmark, "bbv_profile", PASS_INSTRUCTIONS)


def test_functional_skip_throughput(benchmark, bench_metrics):
    """Functional skip striding over canonical stream segments."""
    config = paper_config("CLGP+L0", l1_size_bytes=4096,
                          technology="0.045um",
                          max_instructions=PASS_INSTRUCTIONS,
                          warmup_instructions=20_000)
    workload = get_workload("gcc")
    ensure_compiled_trace(workload, PASS_INSTRUCTIONS + 20_000)

    def setup():
        simulator = Simulator(config, workload)
        simulator.warm_up()
        return (simulator,), {}

    benchmark.pedantic(
        lambda simulator: simulator.skip_to(PASS_INSTRUCTIONS),
        setup=setup, rounds=5, iterations=1, warmup_rounds=1,
    )
    _record_pass(bench_metrics, benchmark, "functional_skip",
                 PASS_INSTRUCTIONS)


def test_proxy_profile_throughput(benchmark, bench_metrics):
    """Proxy base pass over stream segments plus the LRU replay."""
    config = paper_config("CLGP+L0", l1_size_bytes=4096,
                          technology="0.045um",
                          max_instructions=PASS_INSTRUCTIONS,
                          warmup_instructions=20_000)
    workload = get_workload("gcc")
    trace = ensure_compiled_trace(workload, PASS_INSTRUCTIONS + 20_000)

    def fresh_workload():
        # The base pass is kept on its workload and would answer every
        # later round for free, so each round profiles a fresh workload
        # object; it shares the built program and the compiled trace,
        # and warms up here, outside the timed call.
        fresh = Workload(profile=workload.profile, cfg=workload.cfg,
                         bbdict=workload.bbdict)
        fresh.attach_compiled_trace(trace)
        Simulator(config, fresh).warm_up()
        return (fresh,), {}

    def profile_once(fresh):
        return proxy_module.functional_profile(
            fresh, config, PASS_INSTRUCTIONS, PASS_INTERVAL
        )

    benchmark.pedantic(profile_once, setup=fresh_workload, rounds=5,
                       iterations=1, warmup_rounds=1)
    _record_pass(bench_metrics, benchmark, "proxy_profile", PASS_INSTRUCTIONS)


@pytest.mark.parametrize("scheme", ["CLGP+L0", "base-pipelined"])
def test_sampled_vs_full(benchmark, api_session, scheme, bench_metrics,
                         tmp_path_factory):
    """Sampled-run speedup and IPC error versus the full run.

    Uses the REPRO_BENCH instruction budget (default 20k -- sampling is
    pointless below a few thousand instructions) over the default mix.
    The benchmark measures the *sampled* runs; the full-run baseline is
    timed once alongside and both the wall-clock ratio and the
    per-benchmark worst IPC relative error land in ``extra_info``.
    The persistent artifact cache is disabled for the whole test: with it
    enabled the sampled rounds would replay their results instead of
    simulating, and this bench tracks the sampling subsystem itself
    (the cache's own effect is tracked by
    :func:`test_artifact_cache_cold_vs_warm`).
    """
    instructions = bench_instruction_budget()
    names = SWEEP_BENCHMARKS
    config = paper_config(scheme, l1_size_bytes=4096, technology="0.045um",
                          max_instructions=instructions)
    with temporary_cache_dir(tmp_path_factory.mktemp("unused"),
                             enabled=False):
        # Drop per-process caches first: earlier tests may have attached
        # stored traces to the cached workloads, and this comparison must
        # measure the store-off regime regardless of test order.
        clear_process_caches()
        # Prime every per-process cache (workloads, warm-up artifacts)
        # with an untimed full pass so the full baseline is measured as
        # warm as the sampled rounds (whose own one-time costs land in
        # the discarded pedantic warm-up round).
        for name in names:
            get_workload(name)
            run_plan(api_session, config, [name], instructions)

        full_seconds = 0.0
        full_results = {}
        for name in names:
            start = time.perf_counter()
            full_results[name] = run_plan(api_session, config, [name],
                                          instructions)[0]
            full_seconds += time.perf_counter() - start

        def run_sampled_mix():
            # Per-process caches (selections, functional profiles)
            # persist between rounds -- exactly how a sweep uses the
            # sampled runner.
            return dict(zip(names, run_plan(api_session, config, names,
                                            instructions, sampled=True)))

        clear_process_caches()
        sampled = benchmark.pedantic(run_sampled_mix, rounds=2, iterations=1,
                                     warmup_rounds=1)
    sampled_seconds = benchmark.stats.stats.min
    errors = {
        name: sampled[name].ipc / full_results[name].ipc - 1.0
        for name in names
    }
    sampled_speedup = (
        round(full_seconds / sampled_seconds, 3) if sampled_seconds else 0.0
    )
    worst_abs_error = round(max(abs(e) for e in errors.values()), 5)
    benchmark.extra_info["instructions"] = instructions
    benchmark.extra_info["full_seconds"] = round(full_seconds, 4)
    benchmark.extra_info["sampled_speedup"] = sampled_speedup
    benchmark.extra_info["ipc_relative_error"] = {
        name: round(err, 5) for name, err in errors.items()
    }
    benchmark.extra_info["worst_abs_ipc_error"] = worst_abs_error
    bench_metrics.setdefault("sampled", {})[scheme] = {
        "instructions": instructions,
        "speedup": sampled_speedup,
        "worst_abs_ipc_error": worst_abs_error,
    }


def test_artifact_cache_cold_vs_warm(benchmark, api_session, bench_metrics,
                                     tmp_path_factory):
    """Cold-vs-warm persistent-cache timings for a sampled mix.

    Cold: empty artifact store, empty in-memory caches -- every compiled
    trace, profile, selection and checkpoint is computed and published.
    Warm: the same work with in-memory caches cleared before every
    round, so all reuse comes from the on-disk store alone (the
    fresh-CLI-invocation model).  Result replay is off in both, so each
    warm task still simulates its intervals from the stored traces,
    warm-ups, profiles, selections and checkpoints;
    ``test_result_cache_cold_vs_warm`` times the replay.  Results must be
    bit-identical.
    """
    instructions = bench_instruction_budget()
    names = SWEEP_BENCHMARKS
    config = paper_config("CLGP+L0", l1_size_bytes=4096,
                          technology="0.045um",
                          max_instructions=instructions)

    def sampled_mix():
        return dict(zip(names, run_plan(api_session, config, names,
                                        instructions, sampled=True,
                                        result_cache=False)))

    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    with temporary_cache_dir(cache_dir):
        clear_process_caches()
        start = time.perf_counter()
        cold = sampled_mix()
        cold_seconds = time.perf_counter() - start

        def warm_run():
            clear_process_caches()
            return sampled_mix()

        warm = benchmark.pedantic(warm_run, rounds=3, iterations=1,
                                  warmup_rounds=0)
    clear_process_caches()
    assert warm == cold, "warm-cache results diverged from cold"
    warm_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    benchmark.extra_info["instructions"] = instructions
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["cache_speedup"] = round(speedup, 2)
    bench_metrics["artifact_cache"] = {
        "instructions": instructions,
        "benchmarks": len(names),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(speedup, 2),
    }


def test_result_cache_cold_vs_warm(benchmark, api_session, bench_metrics,
                                   tmp_path_factory):
    """Cold-vs-warm **full-run result cache** timings for a non-sampled mix.

    Cold: empty store -- every run simulates and publishes its complete
    ``SimulationResult``.  Warm: in-memory caches cleared before every
    round, so each task is answered by a result replay off disk (the
    fresh-CLI-invocation model: no simulation at all, not even a
    workload build).  Results must be bit-identical; CI separately
    asserts the >=5x wall-clock floor on the non-sampled `figure 5`
    warm replay.
    """
    instructions = bench_instruction_budget()
    names = SWEEP_BENCHMARKS
    config = paper_config("CLGP+L0", l1_size_bytes=4096,
                          technology="0.045um",
                          max_instructions=instructions)

    def full_mix():
        return dict(zip(names, run_plan(api_session, config, names,
                                        instructions)))

    cache_dir = tmp_path_factory.mktemp("result-cache")
    with temporary_cache_dir(cache_dir):
        clear_process_caches()
        start = time.perf_counter()
        cold = full_mix()
        cold_seconds = time.perf_counter() - start

        def warm_run():
            clear_process_caches()
            return full_mix()

        warm = benchmark.pedantic(warm_run, rounds=3, iterations=1,
                                  warmup_rounds=0)
    clear_process_caches()
    assert warm == cold, "warm result replay diverged from cold"
    warm_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    benchmark.extra_info["instructions"] = instructions
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["result_cache_speedup"] = round(speedup, 2)
    bench_metrics["result_cache"] = {
        "instructions": instructions,
        "benchmarks": len(names),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(speedup, 2),
    }
