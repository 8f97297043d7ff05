"""Tests for the experiment runner and its environment knobs."""

import multiprocessing
import os
import time

import pytest

from repro.simulator.config import SimulationConfig
from repro.simulator.plan import ExperimentPlan, SimTask
from repro.simulator.runner import (
    bench_benchmark_names,
    bench_instruction_budget,
    bench_l1_sizes,
    clear_process_caches,
    get_workload,
    resolve_jobs,
    run_tasks,
)


def fast_config(**kw):
    base = dict(engine="baseline", technology="0.045um", l1_size_bytes=4096,
                max_instructions=800, warmup_instructions=2000)
    base.update(kw)
    return SimulationConfig(**base)


def run_plan(config, benchmarks, instructions, jobs=1, key=None):
    plan = ExperimentPlan("t")
    for name in benchmarks:
        plan.add(config, name, instructions,
                 key=key if key is not None else ())
    return plan.run(jobs=jobs)


class TestWorkloadCache:
    def test_same_object_returned(self):
        clear_process_caches()
        assert get_workload("gzip") is get_workload("gzip")

    def test_clear(self):
        a = get_workload("gzip")
        clear_process_caches()
        assert get_workload("gzip") is not a


class TestEnvironmentKnobs:
    def test_instruction_budget_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_INSTRUCTIONS", raising=False)
        assert bench_instruction_budget(12345) == 12345

    def test_instruction_budget_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "5000")
        assert bench_instruction_budget() == 5000

    def test_instruction_budget_floor_and_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "10")
        assert bench_instruction_budget() == 1000
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "lots")
        assert bench_instruction_budget(777) == 777

    def test_benchmarks_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_BENCHMARKS", raising=False)
        assert bench_benchmark_names(["gcc"]) == ["gcc"]

    def test_benchmarks_env_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BENCHMARKS", "gzip, mcf")
        assert bench_benchmark_names() == ["gzip", "mcf"]

    def test_benchmarks_env_all(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BENCHMARKS", "all")
        assert len(bench_benchmark_names()) == 12

    def test_benchmarks_env_invalid_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BENCHMARKS", "quake")
        with pytest.raises(KeyError):
            bench_benchmark_names()

    def test_sizes_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SIZES", raising=False)
        assert bench_l1_sizes([1024]) == [1024]
        monkeypatch.setenv("REPRO_BENCH_SIZES", "256,4K,64KB")
        assert bench_l1_sizes() == [256, 4096, 65536]


class TestRunning:
    def test_single_task(self):
        (result,) = run_tasks([SimTask(config=fast_config(), benchmark="gzip",
                                       max_instructions=800)])
        assert result.workload == "gzip"
        assert result.committed_instructions >= 800

    def test_results_keep_task_order(self):
        results = run_tasks([SimTask(config=fast_config(), benchmark=name,
                                     max_instructions=600)
                             for name in ("mcf", "gzip")])
        assert [r.workload for r in results] == ["mcf", "gzip"]

    def test_plan_hmean_aggregates(self):
        out = run_plan(fast_config(), ["gzip", "mcf"], 600, key=("mix",))
        assert len(out.results) == 2
        assert out.hmean_by_key()[("mix",)] > 0


class TestResolveJobs:
    def test_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == resolve_jobs(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_zero_counts_only_the_cpus_this_process_may_use(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(0) == resolve_jobs(None) == 1


class TestExperimentPlan:
    def test_tasks_keep_insertion_order_and_keys(self):
        plan = ExperimentPlan("t")
        config = fast_config()
        plan.add(config, "gzip", 500, key=("a",))
        plan.add(config, "mcf", 500, key=("b",))
        results = plan.run()
        assert [r.workload for r in results] == ["gzip", "mcf"]
        grouped = results.by_key()
        assert list(grouped) == [("a",), ("b",)]
        assert grouped[("a",)][0].workload == "gzip"

    def test_hmean_by_key(self):
        plan = ExperimentPlan("t")
        config = fast_config()
        for name in ("gzip", "mcf"):
            plan.add(config, name, 500, key=("mix",))
        hmeans = plan.run().hmean_by_key()
        assert set(hmeans) == {("mix",)}
        assert hmeans[("mix",)] > 0

    def test_sampled_task_dispatches_to_sampled_runner(self):
        config = fast_config(max_instructions=4000)
        task = SimTask(config=config, benchmark="gzip",
                       max_instructions=4000, sampled=True)
        (result,) = run_tasks([task])
        assert result.extras.get("sampled") == 1.0


class TestParallelOrdering:
    def test_sweep_results_identical_to_serial(self):
        """jobs>1 must reproduce the serial run exactly: same keys, same
        per-benchmark result ordering, same numbers."""
        def sweep(jobs):
            plan = ExperimentPlan("sweep")
            for size, engine in ((1024, "baseline"), (1024, "fdp"),
                                 (4096, "baseline")):
                config = fast_config(l1_size_bytes=size, engine=engine)
                for name in ("gzip", "mcf"):
                    plan.add(config, name, 500, key=(engine, size))
            return plan.run(jobs=jobs)

        serial, parallel = sweep(1), sweep(2)
        assert serial.results == parallel.results
        assert serial.hmean_by_key() == parallel.hmean_by_key()
        assert list(serial.by_key()) == list(parallel.by_key())

    def test_parallel_results_keep_task_order(self):
        results = run_tasks([SimTask(config=fast_config(), benchmark=name,
                                     max_instructions=500)
                             for name in ("mcf", "gzip", "eon")], jobs=2)
        assert [r.workload for r in results] == ["mcf", "gzip", "eon"]


class TestSharedWorkers:
    def test_a_wider_run_adds_a_worker_beside_a_busy_one(self, monkeypatch):
        """A run asking for more workers than exist gets them at once,
        even while another run holds the only worker on a long task."""
        from repro.api import ExecutionOptions, Session
        from repro.simulator import runner

        monkeypatch.setattr(runner, "_plan_prefers_inline",
                            lambda tasks, jobs: False)
        runner.shutdown_pool()
        slow = ExperimentPlan("slow")
        slow.add(fast_config(max_instructions=50_000_000), "gzip",
                 50_000_000, key=("slow",))
        short = ExperimentPlan("short")
        for name in ("mcf", "eon"):
            short.add(fast_config(), name, 800, key=(name,))
        with Session(jobs=1, cache=False) as narrow, \
                Session(jobs=2, cache=False) as wide:
            held = narrow.submit(slow, ExecutionOptions(task_timeout=120))
            deadline = time.monotonic() + 30
            while not multiprocessing.active_children():
                assert time.monotonic() < deadline, "no worker started"
                time.sleep(0.02)
            queued = wide.submit(short)
            try:
                result = queued.result(timeout=10)
                assert len(multiprocessing.active_children()) == 2
            finally:
                queued.cancel()
                held.cancel()
        assert not result.failed_tasks
        assert [r.workload for r in result.results] == ["mcf", "eon"]
