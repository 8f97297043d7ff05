"""Tests for the ``repro.api`` Session/Experiment façade.

Covers the v1 surface: session lifecycle (shared-worker shutdown on
``__exit__``), eager spec validation, sampled-vs-full parity through
``submit()``, progress-event ordering and payloads, and cancellation.
"""

import multiprocessing
import threading

import pytest

from repro.api import (
    ExecutionOptions,
    ExperimentPlan,
    ExperimentSpec,
    ProgressEvent,
    RunCancelled,
    Session,
    default_session,
    paper_config,
)
from repro.simulator import runner as runner_module
from repro.simulator.config import SimulationConfig


def fast_config(**kw):
    base = dict(engine="baseline", technology="0.045um", l1_size_bytes=4096,
                max_instructions=800, warmup_instructions=2000)
    base.update(kw)
    return SimulationConfig(**base)


def fast_spec(**kw):
    base = dict(scheme="base", benchmarks=("gzip",), max_instructions=800)
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            ExperimentSpec(scheme="NOPE")

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="quake"):
            ExperimentSpec(scheme="base", benchmarks=("quake",))

    def test_empty_benchmarks(self):
        with pytest.raises(ValueError, match="at least one benchmark"):
            ExperimentSpec(scheme="base", benchmarks=())

    def test_bad_instruction_budget(self):
        with pytest.raises(ValueError, match="max_instructions"):
            ExperimentSpec(scheme="base", max_instructions=0)

    def test_bad_l1_sizes(self):
        with pytest.raises(ValueError, match="l1_sizes"):
            ExperimentSpec(scheme="base", l1_sizes=(0,))

    def test_negative_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ExecutionOptions(jobs=-2)

    def test_session_rejects_negative_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            Session(jobs=-1)

    def test_all_benchmarks_keyword(self):
        spec = ExperimentSpec(scheme="base", benchmarks="all")
        assert len(spec.benchmarks) == 12

    def test_single_strings_normalized(self):
        spec = fast_spec()
        assert spec.schemes == ("base",)
        assert spec.benchmarks == ("gzip",)

    def test_submit_rejects_other_types(self):
        with Session() as session:
            with pytest.raises(TypeError):
                session.submit(object())


class TestSpecPlans:
    def test_sweep_keys(self):
        spec = fast_spec(scheme=("base", "FDP"), benchmarks=("gzip", "mcf"),
                         l1_sizes=(1024, 4096))
        plan = spec.to_plan()
        assert len(plan) == 8
        assert plan.tasks[0].key == ("base", 1024)
        assert plan.tasks[-1].key == ("FDP", 4096)

    def test_point_keys_and_overrides(self):
        spec = fast_spec(config_overrides={"warmup_instructions": 1234})
        plan = spec.to_plan()
        assert plan.tasks[0].key == ("base",)
        assert plan.tasks[0].config.warmup_instructions == 1234

    def test_sampled_flag_rides_tasks(self):
        plan = fast_spec().to_plan(sampled=True)
        assert all(task.sampled for task in plan.tasks)


class TestSessionLifecycle:
    def test_context_manager_shuts_down_pool(self, monkeypatch):
        # Force the worker path: this fast plan is small enough that the
        # overhead-aware planner would otherwise run it inline.
        monkeypatch.setattr(runner_module, "_plan_prefers_inline",
                            lambda tasks, jobs: False)
        with Session(jobs=2) as session:
            session.run(fast_spec(benchmarks=("gzip", "mcf")))
            assert multiprocessing.active_children()
        assert not multiprocessing.active_children()
        assert session.closed

    def test_close_shuts_down_the_pool_of_a_deadline_run(self):
        # A task deadline sends even a one-task jobs=1 run to a worker.
        runner_module.shutdown_pool()
        with Session(jobs=1, cache=False) as session:
            result = session.run(fast_spec(),
                                 ExecutionOptions(task_timeout=60))
            assert not result.failed_tasks
            assert multiprocessing.active_children()
        assert not multiprocessing.active_children()

    def test_submit_after_close_raises(self):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(fast_spec())

    def test_close_is_idempotent(self):
        session = Session()
        session.close()
        session.close()

    def test_session_never_changes_the_callers_context(self, tmp_path):
        from repro.cache import cache_enabled, get_store
        from repro.context import current_context

        before = current_context()
        before_root = str(get_store().root)
        with Session(cache_dir=str(tmp_path / "api-cache"),
                     cache=False) as session:
            session.run(fast_spec())
            assert current_context() is before
            assert str(get_store().root) == before_root
            assert cache_enabled()
            with session.context():
                assert str(get_store().root) == str(tmp_path / "api-cache")
                assert not cache_enabled()
            assert current_context() is before
        assert current_context() is before
        assert not (tmp_path / "api-cache").exists()

    def test_workload_registry(self):
        with Session() as session:
            assert "gzip" in session.workloads()
            assert session.workload("gzip") is session.workload("gzip")


class TestRunHandle:
    def test_run_matches_legacy_inline_result(self):
        config = fast_config()
        plan = ExperimentPlan("t")
        plan.add(config, "gzip", 800)
        with Session() as session:
            facade = session.run(plan).results[0]
        legacy = runner_module._execute_single(config, "gzip", 800)
        assert facade == legacy

    def test_progress_event_ordering(self):
        spec = fast_spec(benchmarks=("gzip", "mcf", "eon"))
        with Session() as session:
            handle = session.submit(spec)
            streamed = list(handle.events())
        kinds = [event.kind for event in handle.event_log]
        assert kinds[0] == "submitted"
        assert kinds[1] == "started"
        assert kinds[2:-1] == ["task"] * 3
        assert kinds[-1] == "done"
        # completed counts are monotonically non-decreasing and end at total
        completed = [event.completed for event in handle.event_log]
        assert completed == sorted(completed)
        assert handle.event_log[-1].completed == 3
        assert handle.progress() == (3, 3)
        # the streamed view saw every event, in order
        assert streamed == handle.event_log

    def test_task_events_carry_payload(self):
        with Session() as session:
            handle = session.submit(fast_spec())
            handle.result()
        task_events = [e for e in handle.event_log if e.kind == "task"]
        assert len(task_events) == 1
        event = task_events[0]
        assert event.benchmark == "gzip"
        assert event.key == ("base",)
        assert event.seconds > 0
        assert event.cache_hits is not None

    def test_listener_callbacks(self):
        seen = []
        with Session() as session:
            handle = session.submit(fast_spec())
            handle.add_listener(seen.append)
            handle.result()
        assert any(event.kind == "done" for event in seen)
        assert all(isinstance(event, ProgressEvent) for event in seen)

    def test_parallel_results_identical_to_inline(self):
        spec = fast_spec(scheme=("base", "FDP"), benchmarks=("gzip", "mcf"))
        with Session() as inline:
            serial = inline.run(spec)
        with Session(jobs=2) as parallel:
            fanned = parallel.run(spec)
        assert serial.results == fanned.results
        assert list(serial.by_key()) == list(fanned.by_key())

    def test_result_timeout(self):
        with Session() as session:
            handle = session.submit(fast_spec())
            handle.result()   # make sure it finishes
            assert handle.result(timeout=0.001).results

    def test_run_result_metadata(self):
        with Session() as session:
            result = session.run(fast_spec())
        assert result.elapsed_seconds > 0
        assert len(result) == 1


@pytest.fixture
def held_runs(monkeypatch):
    """An event that holds every submission before its first task: the
    executor's task stream waits on it, so a test can observe or cancel
    a run that has not started working yet."""
    from repro.api import session as session_module

    release = threading.Event()
    real = session_module.iter_task_results

    def held(*args, **kwargs):
        assert release.wait(30), "held run never released"
        yield from real(*args, **kwargs)

    monkeypatch.setattr(session_module, "iter_task_results", held)
    yield release
    release.set()


class TestCancellation:
    def test_cancel_mid_run_stops_remaining_tasks(self, held_runs):
        spec = fast_spec(benchmarks=("gzip", "mcf", "eon", "gcc"))
        with Session() as session:
            # Attach the listener while the run is held: with warm result
            # replay a task can finish in microseconds, so attaching after
            # an unheld submit() would race the whole run.  Cancel then
            # fires from the executor thread after the first finished
            # task, deterministically (listeners run synchronously
            # between tasks).
            handle = session.submit(spec)
            handle.add_listener(
                lambda event: handle.cancel()
                if event.kind == "task" else None)
            held_runs.set()
            with pytest.raises(RunCancelled):
                handle.result()
        assert handle.status() == "cancelled"
        completed, total = handle.progress()
        assert completed < total
        assert handle.event_log[-1].kind == "cancelled"
        assert handle.cancel() is False   # already finished

    def test_cancel_before_start(self, held_runs):
        with Session() as session:
            handle = session.submit(fast_spec())
            assert handle.cancel() is True
            held_runs.set()
            with pytest.raises(RunCancelled):
                handle.result()
        assert handle.status() == "cancelled"


class TestSampledParity:
    BUDGET = 4000

    def test_sampled_submit_matches_legacy_run_sampled(self):
        from repro.sampling.sampled import _execute_sampled

        config = fast_config(max_instructions=self.BUDGET)
        plan = ExperimentPlan("t")
        plan.add(config, "gzip", self.BUDGET, sampled=True)
        with Session() as session:
            facade = session.run(plan).results[0]
        legacy = _execute_sampled(config, "gzip",
                                  max_instructions=self.BUDGET)
        assert facade == legacy
        assert facade.extras.get("sampled") == 1.0

    def test_sampled_vs_full_through_submit(self):
        spec = fast_spec(scheme="base-pipelined",
                         max_instructions=self.BUDGET)
        with Session() as session:
            full = session.run(spec).results[0]
            sampled = session.run(
                spec, options=ExecutionOptions(sampled=True)).results[0]
        assert full.extras.get("sampled") is None
        assert sampled.extras.get("sampled") == 1.0
        # The sampled estimate is normalized to the requested budget; the
        # full run may commit a handful of instructions past it.
        assert sampled.committed_instructions == self.BUDGET
        assert full.committed_instructions >= self.BUDGET
        # The sampled estimate tracks the full run closely at this budget.
        assert sampled.ipc == pytest.approx(full.ipc, rel=0.25)


class TestFigure5SampledParity:
    def test_sampled_figure5_byte_identical_across_jobs(self, tmp_path):
        """Acceptance: `figure 5 --sampled` output is byte-identical
        whether the grid runs inline or fanned out over workers."""
        from repro.api import format_ipc_sweep
        from repro.cache import temporary_cache_dir

        kwargs = dict(benchmarks=["gzip"], l1_sizes=[1024],
                      max_instructions=4000,
                      options=ExecutionOptions(sampled=True))
        with temporary_cache_dir(tmp_path / "fig5-parity"):
            with Session() as inline:
                serial = inline.figure5_series(**kwargs)
            with Session(jobs=2) as parallel:
                fanned = parallel.figure5_series(**kwargs)
        title = "Figure 5: main comparison [sampled]"
        assert (format_ipc_sweep(serial, title)
                == format_ipc_sweep(fanned, title))


class TestResultCacheReporting:
    """Result replays, of full and sampled runs alike, are reported
    distinctly from ordinary artifact-store hits, and
    ``result_cache=False`` forces resimulation."""

    @staticmethod
    def _task_events(handle):
        return [e for e in handle.event_log if e.kind == "task"]

    def test_events_report_result_replays_distinctly(self, tmp_path):
        from repro.simulator.runner import clear_process_caches

        spec = fast_spec(benchmarks=("gzip", "mcf"))
        with Session(cache_dir=str(tmp_path / "rc")) as session:
            cold = session.submit(spec)
            cold_result = cold.result()
            assert all(e.result_cache_hits == 0
                       for e in self._task_events(cold))
            assert cold_result.result_cache_hits == 0

            clear_process_caches()
            warm = session.submit(spec)
            warm_result = warm.result()
        warm_events = self._task_events(warm)
        # Every task replayed its complete SimulationResult from disk --
        # exactly one result replay each, reported on its own field, and
        # counted separately from the store hit the replay itself causes.
        assert [e.result_cache_hits for e in warm_events] == [1, 1]
        assert all(e.cache_hits >= 1 for e in warm_events)
        assert warm_result.result_cache_hits == 2
        assert warm_result.results == cold_result.results

    def test_result_cache_false_forces_resimulation(self, tmp_path,
                                                    monkeypatch):
        from repro.simulator import runner as runner_mod
        from repro.simulator.runner import clear_process_caches

        spec = fast_spec()
        with Session(cache_dir=str(tmp_path / "rc-off")) as session:
            cold = session.run(spec)

            runs = []
            real_simulator = runner_mod.Simulator

            class SpySimulator(real_simulator):
                def run(self, *args, **kwargs):
                    runs.append(1)
                    return super().run(*args, **kwargs)

            monkeypatch.setattr(runner_mod, "Simulator", SpySimulator)
            clear_process_caches()
            warm = session.run(spec)
            assert not runs          # replayed: no simulation ran at all

            clear_process_caches()
            forced_handle = session.submit(
                spec, options=ExecutionOptions(result_cache=False))
            forced = forced_handle.result()
            assert runs              # --no-result-cache resimulated
        assert all(e.result_cache_hits == 0
                   for e in self._task_events(forced_handle))
        assert forced.result_cache_hits == 0
        assert warm.results == cold.results == forced.results

    def test_warm_sampled_run_replays_every_task(self, tmp_path):
        from repro.simulator.runner import clear_process_caches

        spec = fast_spec(benchmarks=("gzip", "mcf"), max_instructions=4000)
        options = ExecutionOptions(sampled=True)
        with Session(cache_dir=str(tmp_path / "rc-sampled")) as session:
            cold = session.run(spec, options=options)
            clear_process_caches()
            warm = session.run(spec, options=options)
            # Replay off: the tasks simulate again, from the traces,
            # warm-ups, profiles, selections and checkpoints in the store.
            clear_process_caches()
            reused = session.run(spec, options=ExecutionOptions(
                sampled=True, result_cache=False))
        assert cold.result_cache_hits == 0
        assert warm.result_cache_hits == len(warm.tasks) == 2
        assert warm.results == cold.results
        assert reused.result_cache_hits == 0
        assert reused.cache_hits >= 1
        assert reused.results == cold.results

    def test_result_cache_override_is_scoped_to_the_submission(self,
                                                               tmp_path):
        from repro.cache.results import result_cache_enabled

        assert result_cache_enabled()
        with Session(cache_dir=str(tmp_path / "rc-scope")) as session:
            session.run(fast_spec(),
                        options=ExecutionOptions(result_cache=False))
            assert result_cache_enabled()   # restored after the run


class TestDefaultSession:
    def test_default_session_is_cached_and_reopened(self):
        session = default_session()
        assert default_session() is session
        session.close()
        reopened = default_session()
        assert reopened is not session
        assert not reopened.closed


class TestWeightedAffineChunks:
    """_affine_chunks balances by instruction budget, not task count."""

    def test_mixed_budgets_split_where_the_work_is(self):
        config = fast_config()
        # One benchmark with one huge task, another with many small ones:
        # count-based chunking would pair the huge task with small ones.
        tasks = [runner_module.SimTask(config=config, benchmark="gzip",
                                       max_instructions=100_000)]
        tasks += [runner_module.SimTask(config=config, benchmark="mcf",
                                        max_instructions=1000)
                  for _ in range(10)]
        chunks = runner_module._affine_chunks(tasks, jobs=2)
        weights = [
            sum(runner_module._task_weight(task) for _idx, task in chunk)
            for chunk in chunks
        ]
        # Heaviest chunk first, and the huge task is alone in its chunk.
        assert weights == sorted(weights, reverse=True)
        heaviest = chunks[0]
        assert len(heaviest) == 1
        assert heaviest[0][1].benchmark == "gzip"

    def test_single_benchmark_still_splits_for_parallelism(self):
        config = fast_config()
        tasks = [runner_module.SimTask(config=config, benchmark="gzip",
                                       max_instructions=1000)
                 for _ in range(8)]
        chunks = runner_module._affine_chunks(tasks, jobs=4)
        assert len(chunks) >= 4
        covered = sorted(index for chunk in chunks for index, _t in chunk)
        assert covered == list(range(8))

    def test_chunks_stay_single_benchmark(self):
        config = fast_config()
        tasks = []
        for name in ("gzip", "mcf", "eon"):
            for _ in range(3):
                tasks.append(runner_module.SimTask(
                    config=config, benchmark=name, max_instructions=1000))
        for chunk in runner_module._affine_chunks(tasks, jobs=2):
            assert len({task.benchmark for _idx, task in chunk}) == 1
