"""Tests for fault-tolerant execution: the deterministic fault injector,
the supervised runner (worker loss, retry with backoff, deadlines), the
resilient artifact store, and the typed-failure surfaces of the façade
and the CLI.

The chaos tests are the point of the subsystem: with a fixed fault seed,
runs under injected worker kills and artifact corruption must complete
without hanging and produce results bit-identical to a fault-free run.
"""

import errno
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.cache import ArtifactStore, temporary_cache_dir
from repro.cache.store import frame_digest, unframe_digest
from repro.context import current_context, use_context
from repro.faults import (
    NO_FAULTS,
    FaultPlan,
    active_plan,
    corrupt_artifact,
    maybe_kill_worker,
    resolve_plan,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.plan import (
    ExperimentPlan,
    SimTask,
    TaskFailure,
    TaskFailureError,
)
from repro.simulator.runner import (
    _execute_single,
    clear_process_caches,
    reset_supervisor_stats,
    run_tasks,
    shutdown_pool,
    supervisor_stats,
)


def fast_config(**kw):
    base = dict(engine="baseline", technology="0.045um", l1_size_bytes=4096,
                max_instructions=800, warmup_instructions=2000)
    base.update(kw)
    return SimulationConfig(**base)


def chaos(spec: str):
    """Run the block under the fault plan ``spec``."""
    return use_context(current_context().override(faults=spec))


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Supervisor counters, the pool and the in-memory caches are
    process-wide; never let a chaos test leak them into the next one."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    yield
    reset_supervisor_stats()
    shutdown_pool()
    clear_process_caches()


# ----------------------------------------------------------------------
# plan parsing and resolution
# ----------------------------------------------------------------------
class TestFaultPlanParsing:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "worker_kill:0.1,artifact_corrupt:0.05,io_error:0.02,"
            "write_crash:0.03,io_delay:20ms,seed:7")
        assert plan == FaultPlan(worker_kill=0.1, artifact_corrupt=0.05,
                                 io_error=0.02, write_crash=0.03,
                                 io_delay=0.02, seed=7)

    @pytest.mark.parametrize("token,seconds", [
        ("20ms", 0.02), ("1.5s", 1.5), ("0.25", 0.25), ("0", 0.0),
    ])
    def test_io_delay_units(self, token, seconds):
        assert FaultPlan.parse(f"io_delay:{token}").io_delay == seconds

    def test_empty_spec_is_no_faults(self):
        assert FaultPlan.parse("") == NO_FAULTS
        assert not NO_FAULTS.active()

    def test_describe_round_trips(self):
        plan = FaultPlan(worker_kill=0.25, artifact_corrupt=0.5,
                         io_error=0.125, write_crash=0.75,
                         io_delay=0.01, seed=42)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_store_fault_sites_activate_the_plan(self):
        assert FaultPlan.parse("io_error:0.1").active()
        assert FaultPlan.parse("write_crash:0.1").active()

    @pytest.mark.parametrize("spec", [
        "worker_kill:2.0",          # probability out of range
        "worker_kill:lots",         # not a number
        "explode:0.5",              # unknown fault
        "worker_kill",              # missing value
        "seed:7.5",                 # non-integer seed
        "io_delay:-5ms",            # negative duration
        "io_error:1.5",             # probability out of range
        "write_crash:nope",         # not a number
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_resolve_plan(self):
        assert resolve_plan(None) is None
        plan = FaultPlan(worker_kill=0.1)
        assert resolve_plan(plan) is plan
        assert resolve_plan("worker_kill:0.1") == plan


class TestPlanResolution:
    def test_environment_activates_and_tracks_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:0.3")
        assert active_plan().worker_kill == 0.3
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:0.6")
        assert active_plan().worker_kill == 0.6
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_plan() == NO_FAULTS

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:0.3")
        with chaos("worker_kill:0.9"):
            assert active_plan().worker_kill == 0.9
        assert active_plan().worker_kill == 0.3

    def test_snapshot_restore(self):
        with chaos("io_delay:5ms"):
            assert active_plan().io_delay == 0.005
        assert active_plan() == NO_FAULTS


# ----------------------------------------------------------------------
# deterministic decisions
# ----------------------------------------------------------------------
class TestDecisions:
    def test_decisions_are_pure_and_distinct(self):
        a = faults._decision(7, "worker_kill", 3, 1)
        assert a == faults._decision(7, "worker_kill", 3, 1)
        assert 0.0 <= a < 1.0
        assert a != faults._decision(7, "worker_kill", 3, 2)
        assert a != faults._decision(8, "worker_kill", 3, 1)
        assert a != faults._decision(7, "artifact_corrupt", 3, 1)

    def test_corrupt_artifact_is_deterministic_per_key(self):
        payload = bytes(range(256)) * 8
        with chaos("artifact_corrupt:1.0,seed:3"):
            once = corrupt_artifact("trace", "k1", payload)
            assert once == corrupt_artifact("trace", "k1", payload)
            assert once != payload
            assert corrupt_artifact("trace", "k2", payload) != payload

    def test_corrupt_artifact_noop_without_plan(self):
        payload = b"untouched"
        assert corrupt_artifact("trace", "k1", payload) == payload

    def test_kill_is_noop_outside_workers(self):
        with chaos("worker_kill:1.0"):
            maybe_kill_worker(0, 1)   # would os._exit if worker-gated wrongly


# ----------------------------------------------------------------------
# chaos execution: the acceptance criteria
# ----------------------------------------------------------------------
class TestChaosExecution:
    def _tasks(self, count=4, instructions=600):
        names = ("gzip", "mcf", "eon", "gcc")
        return [SimTask(config=fast_config(), benchmark=names[i % len(names)],
                        max_instructions=instructions)
                for i in range(count)]

    def test_worker_kills_retry_to_bit_identical_results(self):
        """A chaos run under heavy worker kills completes, retries at
        least once, and matches the fault-free results exactly."""
        baseline = run_tasks(self._tasks(), jobs=2)
        shutdown_pool()
        reset_supervisor_stats()
        with chaos("worker_kill:0.7,seed:1"):
            chaotic = run_tasks(self._tasks(), jobs=2, max_retries=10)
        assert chaotic == baseline
        stats = supervisor_stats()
        assert stats.retries > 0
        assert stats.worker_losses > 0

    def test_certain_kills_exhaust_retries_without_hanging(self):
        with chaos("worker_kill:1.0,seed:1"), \
                pytest.raises(TaskFailureError) as excinfo:
            run_tasks(self._tasks(count=2), jobs=2, max_retries=1)
        failures = excinfo.value.failures
        assert failures
        assert all(f.kind == "worker-lost" for f in failures)
        assert all(f.attempts == 2 for f in failures)

    def test_env_chaos_is_reproducible_end_to_end(self, monkeypatch):
        """REPRO_FAULTS with a fixed seed: two chaos runs agree with each
        other and with the fault-free run (decisions are pure functions,
        not RNG state)."""
        baseline = run_tasks(self._tasks(count=3), jobs=2)
        shutdown_pool()
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:0.5,seed:9")
        first = run_tasks(self._tasks(count=3), jobs=2, max_retries=10)
        shutdown_pool()
        second = run_tasks(self._tasks(count=3), jobs=2, max_retries=10)
        assert first == second == baseline

    def test_in_task_errors_are_typed_failures(self):
        bad = SimulationConfig(engine="baseline", technology="0.045um",
                               l1_size_bytes=4096, max_instructions=800)
        tasks = [SimTask(config=bad, benchmark="no-such-benchmark",
                         max_instructions=800)]
        with pytest.raises(TaskFailureError) as excinfo:
            run_tasks(tasks, jobs=1, max_retries=0)
        (failure,) = excinfo.value.failures
        assert failure.kind == "error"
        assert failure.benchmark == "no-such-benchmark"
        assert "no-such-benchmark" in str(failure)


class TestConcurrentChaosIsolation:
    """Worker kills of one run must not cost a concurrent run that shares
    the pool any retries: a dead worker is charged to the run whose chunk
    it last announced, not to every run with chunks still queued."""

    @staticmethod
    def _plan(name):
        plan = ExperimentPlan(name)
        for engine in ("baseline", "fdp"):
            for benchmark in ("gzip", "mcf", "eon", "gcc"):
                plan.add(fast_config(engine=engine, max_instructions=3000),
                         benchmark, 3000, key=(engine, benchmark))
        return plan

    def test_chaos_run_costs_a_concurrent_clean_run_nothing(
            self, monkeypatch):
        from repro.api import ExecutionOptions, Session
        from repro.simulator import runner

        # Small plans would otherwise run inline instead of sharing the
        # pool with the chaos run.
        monkeypatch.setattr(runner, "_plan_prefers_inline",
                            lambda tasks, jobs: False)
        with Session(jobs=1, cache=False) as session:
            solo = session.run(self._plan("clean")).results
        # The race is timing-dependent: a few seeds, bounded in time.
        deadline = time.monotonic() + 20.0
        for seed in range(8):
            with Session(jobs=2, cache=False) as chaotic, \
                    Session(jobs=2, cache=False) as clean:
                killed = chaotic.submit(
                    self._plan("chaos"),
                    ExecutionOptions(faults=f"worker_kill:0.5,seed:{seed}",
                                     max_retries=3))
                result = clean.submit(self._plan("clean")).result(timeout=60)
                killed.result(timeout=60)
            assert result.task_retries == 0, f"seed {seed}"
            assert not result.failed_tasks, f"seed {seed}"
            assert result.results == solo, f"seed {seed}"
            if seed >= 2 and time.monotonic() > deadline:
                break


class TestDeadlines:
    def test_overrunning_task_fails_typed_and_siblings_succeed(self):
        """A task past its deadline is killed and completes as a typed
        TaskFailure while the other task's result still arrives."""
        from repro.api import ExecutionOptions, Session

        plan = ExperimentPlan("deadline")
        plan.add(fast_config(max_instructions=50_000_000), "gzip",
                 50_000_000, key=("slow",))
        plan.add(fast_config(), "mcf", 600, key=("fast",))
        with Session(cache=False) as session:
            handle = session.submit(
                plan, options=ExecutionOptions(task_timeout=1.0))
            result = handle.result()
        (failure,) = result.failed_tasks
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout"
        assert failure.benchmark == "gzip"
        assert len(result.successes) == 1
        assert result.successes[0].workload == "mcf"
        kinds = [e.kind for e in handle.event_log]
        assert "task-failed" in kinds
        assert kinds[-1] == "done"
        failed_events = [e for e in handle.event_log
                         if e.kind == "task-failed"]
        assert failed_events[0].error.startswith("timeout")
        stats = supervisor_stats()
        assert stats.timeouts >= 1

    def test_strict_surface_raises_on_timeout(self):
        with pytest.raises(TaskFailureError):
            run_tasks([SimTask(config=fast_config(max_instructions=50_000_000),
                               benchmark="gzip",
                               max_instructions=50_000_000)],
                      jobs=1, task_timeout=1.0)


class TestArtifactCorruptionChaos:
    def test_full_corruption_still_produces_correct_results(self, tmp_path):
        """artifact_corrupt:1.0 -- every write is damaged; every read must
        detect it and recompute, so results match the fault-free run."""
        config = fast_config(engine="clgp", max_instructions=1500)
        with temporary_cache_dir(tmp_path / "clean"):
            clear_process_caches()
            clean = _execute_single(config, "gzip", 1500)
        with chaos("artifact_corrupt:1.0,seed:5"), \
                temporary_cache_dir(tmp_path / "chaos") as disk:
            clear_process_caches()
            first = _execute_single(config, "gzip", 1500)
            clear_process_caches()
            second = _execute_single(config, "gzip", 1500)
            assert disk.stats.corrupt > 0
        assert first == second == clean

    def test_io_delay_only_slows_io(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        with chaos("io_delay:1ms"):
            store.put("kindA", "key", [1, 2, 3])
            assert store.get("kindA", "key") == [1, 2, 3]


# ----------------------------------------------------------------------
# store resilience
# ----------------------------------------------------------------------
class TestStoreIoResilience:
    @staticmethod
    def _flaky_replace(fail_times):
        real_replace = os.replace
        remaining = {"n": fail_times}

        def replace(src, dst):
            if remaining["n"] > 0:
                remaining["n"] -= 1
                raise OSError(errno.EIO, "injected I/O error")
            return real_replace(src, dst)

        return replace

    def test_transient_write_error_is_retried(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        monkeypatch.setattr(os, "replace", self._flaky_replace(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a retried write must not warn
            store.put("kindA", "key", [1, 2])
        assert store.stats.io_retries == 1
        assert store.stats.write_errors == 0
        assert store.get("kindA", "key") == [1, 2]

    def test_persistent_write_failure_degrades_and_warns_once(
            self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        monkeypatch.setattr(os, "replace", self._flaky_replace(10 ** 9))
        with pytest.warns(RuntimeWarning, match="cache stats"):
            store.put("kindA", "key", [1, 2])
        assert store.stats.write_errors == 1
        assert store.stats.stores == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # second failure stays quiet
            store.put("kindA", "key2", [3])
        assert store.stats.write_errors == 2
        # No temp litter, and reads degrade to ordinary misses.
        assert not list((tmp_path / "cache").rglob("*.tmp"))
        assert store.get("kindA", "key") is None

    def test_transient_read_error_is_retried(self, tmp_path, monkeypatch):
        from pathlib import Path

        store = ArtifactStore(tmp_path / "cache")
        store.put("kindA", "key", [1, 2])
        real_read = Path.read_bytes
        remaining = {"n": 1}

        def flaky_read(self):
            if remaining["n"] > 0:
                remaining["n"] -= 1
                raise OSError(errno.EIO, "injected I/O error")
            return real_read(self)

        monkeypatch.setattr(Path, "read_bytes", flaky_read)
        assert store.get("kindA", "key") == [1, 2]
        assert store.stats.io_retries == 1
        assert store.stats.read_errors == 0


class TestStoreFaultSites:
    """The storage-layer chaos sites: injected I/O errors and simulated
    writer death between the temp write and the atomic rename."""

    def test_write_crash_leaves_tmp_without_publishing(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        with chaos("write_crash:1.0,seed:3"):
            store.put("kindA", "key", [1, 2])
        assert store.stats.crashed_writes == 1
        assert store.stats.stores == 0
        assert not store.path_for("kindA", "key").exists()
        assert len(list((tmp_path / "cache").rglob(".*.tmp"))) == 1
        # The next gc pass reaps (and reports) the stranded temp file.
        report = store.gc(10 ** 9)
        assert report.tmp_files_removed == 1
        assert not list((tmp_path / "cache").rglob(".*.tmp"))

    def test_io_error_site_fails_reads_and_degrades_writes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.put("kindA", "key", [1])
        with chaos("io_error:1.0,seed:1"):
            with pytest.warns(RuntimeWarning, match="cache stats"):
                assert store.get("kindA", "key") is None
            assert store.stats.read_errors == 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                store.put("kindA", "other", [2])
            assert store.stats.write_errors == 1
            assert store.read_only()        # write faults raise ENOSPC
        # A read fault is not corruption: the artifact itself is intact.
        assert store.get("kindA", "key") == [1]

    def test_enospc_degrades_immediately_then_reprobes(
            self, tmp_path, monkeypatch):
        import time

        store = ArtifactStore(tmp_path / "cache")
        monkeypatch.setattr(store, "DEGRADE_BACKOFF", 0.05)
        real_replace = os.replace
        disk_full = {"on": True}

        def replace(src, dst):
            if disk_full["on"]:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.warns(RuntimeWarning, match="cache stats"):
            store.put("kindA", "k1", [1])
        assert store.stats.write_errors == 1
        assert store.stats.io_retries == 0      # ENOSPC is never retried
        assert store.read_only()
        store.put("kindA", "k2", [2])           # inside the backoff window
        assert store.stats.skipped_writes == 1
        # The disk frees up; after the backoff the next write re-probes
        # and restores cached operation instead of staying degraded for
        # the process lifetime.
        disk_full["on"] = False
        time.sleep(0.06)
        store.put("kindA", "k3", [3])
        assert store.stats.reprobes == 1
        assert store.stats.recoveries == 1
        assert store.stats.stores == 1
        assert not store.read_only()
        assert store.get("kindA", "k3") == [3]
        # Degrading again warns again: recovery re-armed the warning.
        disk_full["on"] = True
        with pytest.warns(RuntimeWarning, match="cache stats"):
            store.put("kindA", "k4", [4])


class TestDigestFraming:
    def test_round_trip(self):
        payload = b"simulator state" * 100
        assert unframe_digest(frame_digest(payload)) == payload

    def test_tampered_payload_is_rejected(self):
        framed = bytearray(frame_digest(b"simulator state" * 100))
        framed[40] ^= 0x01
        assert unframe_digest(bytes(framed)) is None

    def test_short_or_missing_frames_are_rejected(self):
        assert unframe_digest(None) is None
        assert unframe_digest(b"short") is None
        assert unframe_digest(b"\x00" * 32) is None


# ----------------------------------------------------------------------
# façade and CLI surfaces
# ----------------------------------------------------------------------
class TestFacadeFaultSurface:
    def test_execution_options_validate_fault_knobs(self):
        from repro.api import ExecutionOptions

        with pytest.raises(ValueError, match="task_timeout"):
            ExecutionOptions(task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            ExecutionOptions(max_retries=-1)
        with pytest.raises(ValueError, match="unknown fault"):
            ExecutionOptions(faults="explode:0.5")
        options = ExecutionOptions(faults="worker_kill:0.1")
        assert isinstance(options.faults, FaultPlan)

    def test_session_scopes_faults_to_the_submission(self):
        from repro.api import ExecutionOptions, ExperimentSpec, Session

        spec = ExperimentSpec("base", benchmarks=("gzip",),
                              max_instructions=600)
        with Session(jobs=2, cache=False) as session:
            result = session.run(spec, options=ExecutionOptions(
                faults="worker_kill:0.7,seed:1", max_retries=10))
            assert active_plan() == NO_FAULTS   # restored after the run
        assert not result.failed_tasks
        assert result.task_retries >= 0

    def test_run_events_report_retries(self):
        from repro.api import ExecutionOptions, ExperimentSpec, Session

        spec = ExperimentSpec("base", benchmarks=("gzip", "mcf", "eon"),
                              max_instructions=600)
        with Session(jobs=2, cache=False) as session:
            baseline = session.run(spec)
            handle = session.submit(spec, options=ExecutionOptions(
                faults="worker_kill:0.7,seed:1", max_retries=10))
            chaotic = handle.result()
        assert chaotic.results == baseline.results
        assert chaotic.task_retries > 0
        task_events = [e for e in handle.event_log if e.kind == "task"]
        assert sum(e.retries for e in task_events) == chaotic.task_retries


class TestCliFaults:
    RUN_ARGS = ["run", "base", "--benchmarks", "gzip,mcf",
                "--instructions", "800", "--no-cache"]

    def test_chaos_stdout_matches_fault_free_run(self, capsys):
        from repro.cli import main

        assert main(self.RUN_ARGS + ["--jobs", "1"]) == 0
        clean = capsys.readouterr()
        clear_process_caches()
        assert main(self.RUN_ARGS + [
            "--jobs", "2", "--faults", "worker_kill:0.7,seed:1",
            "--max-retries", "10"]) == 0
        chaos = capsys.readouterr()
        assert chaos.out == clean.out          # stdout is byte-comparable
        assert "retr" in chaos.err             # retries reported on stderr

    def test_invalid_faults_spec_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(self.RUN_ARGS + ["--faults", "explode:1"]) == 2
        assert "unknown fault" in capsys.readouterr().err

    def test_exhausted_retries_exit_nonzero_with_partial_output(
            self, capsys):
        from repro.cli import main

        assert main(self.RUN_ARGS + [
            "--jobs", "2", "--faults", "worker_kill:1.0,seed:1",
            "--max-retries", "1"]) == 1
        captured = capsys.readouterr()
        assert "worker-lost" in captured.err
        assert "failed" in captured.err


class TestChaosSweep:
    """The chaos invariant end to end, in fresh processes that read the
    plan from ``REPRO_FAULTS``: a figure sweep under seeded worker kills,
    artifact corruption, store I/O errors and mid-publish writer crashes
    prints the fault-free stdout byte for byte, reports its retries on
    stderr, and leaves a store that ``cache fsck --repair`` returns to
    clean."""

    FIGURE = ["figure", "5", "--instructions", "4000",
              "--benchmarks", "gzip,mcf", "--jobs", "2", "--max-retries", "10"]
    FAULTS = ("worker_kill:0.2,artifact_corrupt:0.1,io_error:0.1,"
              "write_crash:0.2,seed:7")

    @staticmethod
    def _figure(args, fault_spec=""):
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_FAULTS"] = fault_spec
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            env=env, capture_output=True, text=True, timeout=120)

    def test_chaos_sweep_matches_fault_free_and_repairs_clean(
            self, tmp_path):
        from repro.cli import main

        clean = self._figure(
            self.FIGURE + ["--cache-dir", str(tmp_path / "clean")])
        assert clean.returncode == 0, clean.stderr
        store = str(tmp_path / "chaos")
        chaos = self._figure(self.FIGURE + ["--cache-dir", store],
                             self.FAULTS)
        assert chaos.returncode == 0, chaos.stderr
        assert chaos.stdout == clean.stdout
        assert "task retr" in chaos.stderr
        assert main(["cache", "fsck", "--repair", "--cache-dir", store]) == 0
        assert main(["cache", "fsck", "--cache-dir", store]) == 0
