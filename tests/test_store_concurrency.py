"""Cross-process artifact-store safety: locking, crash litter, stress.

The intra-process gc races in ``tests/test_artifact_cache.py`` exercise
the scan/evict interleavings inside one process; this module puts the
store under *separate processes* -- the shape the ROADMAP's shared
fleet-wide cache tier requires:

* a reader, a writer and a gc loop in three ``multiprocessing``
  processes against one root must never surface a torn or wrong value,
* ``write_crash:1.0`` (every publish dies between the temp write and
  the rename) must leave the store fsck-clean after repair while every
  result recomputes bit-identically,
* the full CLI stress harness: concurrent ``repro-clgp`` invocations
  share one cache under ``write_crash``+``io_error``+gc churn and their
  stdout must stay byte-identical with a fault-free run, with
  ``cache fsck`` exiting 0 afterwards.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cache.store import ArtifactStore, get_store, temporary_cache_dir
from repro.context import current_context, use_context
from repro.simulator.testing import make_sim_config

_SRC = str(Path(repro.__file__).parents[1])

#: One value per key so concurrent writers keep the store's contract
#: (all writers of a key publish identical content).
_KEYS = [f"key{i}" for i in range(8)]


def _value_for(key: str) -> bytes:
    return (key.encode("ascii") + b"-payload") * 64


def _writer_proc(root: str, iterations: int, failures) -> None:
    store = ArtifactStore(root)
    for index in range(iterations):
        key = _KEYS[index % len(_KEYS)]
        store.put("kindA", key, _value_for(key))


def _reader_proc(root: str, iterations: int, failures) -> None:
    store = ArtifactStore(root)
    for index in range(iterations):
        key = _KEYS[index % len(_KEYS)]
        value = store.get("kindA", key)
        # Eviction makes misses routine; a *wrong* value never is.
        if value is not None and value != _value_for(key):
            failures.put(f"reader saw a torn value for {key}")
            return


def _gc_proc(root: str, rounds: int, failures) -> None:
    store = ArtifactStore(root)
    for _ in range(rounds):
        store.gc(0)      # evict everything the lock lets it see
        time.sleep(0.002)


class TestCrossProcessRaces:
    def test_concurrent_reader_writer_gc_processes(self, tmp_path):
        """gc in one process must never hand a concurrent reader a torn
        artifact, and the store must come out fsck-clean."""
        root = str(tmp_path / "shared-cache")
        ctx = multiprocessing.get_context()
        failures = ctx.Queue()
        procs = [
            ctx.Process(target=_writer_proc, args=(root, 150, failures)),
            ctx.Process(target=_reader_proc, args=(root, 300, failures)),
            ctx.Process(target=_gc_proc, args=(root, 40, failures)),
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert not proc.is_alive(), "store process wedged (deadlock?)"
            assert proc.exitcode == 0
        assert failures.empty(), failures.get()
        report = ArtifactStore(root).fsck()
        assert report.clean()

    def test_write_crash_everywhere_recomputes_bit_identically(
            self, tmp_path):
        """With every publish dying pre-rename, nothing is ever cached --
        runs must still agree bit-for-bit, and the stranded temp files
        must leave the store fsck-clean after repair."""
        from repro.simulator.runner import _execute_single, clear_process_caches

        config = make_sim_config(engine="fdp", max_instructions=1500)
        with temporary_cache_dir(tmp_path / "cache") as disk:
            with use_context(current_context().override(
                    faults="write_crash:1.0,seed:5")):
                clear_process_caches()
                first = _execute_single(config, "gzip", 1500)
                clear_process_caches()
                second = _execute_single(config, "gzip", 1500)
            assert first == second
            assert disk.stats.crashed_writes > 0
            assert disk.stats.stores == 0
            assert len(disk) == 0            # nothing ever published
            report = disk.fsck()
            assert report.tmp_files > 0      # the litter is visible...
            assert disk.fsck(repair=True).tmp_files == report.tmp_files
            assert disk.fsck().clean()       # ...and reaped

            # A fault-free rerun on the repaired store agrees too.
            clear_process_caches()
            assert _execute_single(config, "gzip", 1500) == first


class TestThreadContexts:
    def test_threads_resolve_their_own_store_and_share_one_per_root(
            self, tmp_path):
        """More threads than cores, each under its own execution context,
        race to resolve fresh store roots with a tiny switch interval:
        every thread sees its own root, and a root never gets two
        instances."""
        threads_per_root, rounds = 4, 40
        barrier = threading.Barrier(3 * threads_per_root, timeout=30)
        seen = {}
        wrong = []
        lock = threading.Lock()

        def resolve(n: int) -> None:
            for round_ in range(rounds):
                root = str(tmp_path / f"round{round_}-root{n % 3}")
                barrier.wait()
                with use_context(current_context().override(cache_dir=root)):
                    store = get_store()
                with lock:
                    seen.setdefault(root, set()).add(id(store))
                    if str(store.root) != root:
                        wrong.append((root, str(store.root)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=resolve, args=(n,))
                       for n in range(3 * threads_per_root)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(seen) == 3 * rounds
        assert all(len(ids) == 1 for ids in seen.values())


class TestMultiProcessStress:
    """N concurrent CLI invocations share one cache under injected
    crashes, I/O errors and gc churn: stdout must stay byte-identical
    with a fault-free run and ``cache fsck`` must exit 0 afterwards.

    Each case is overlapping figure sweeps (two processes race on the
    same figure, a third shares the benchmarks' traces/profiles from
    another figure) plus the store size ``gc`` keeps evicting down to.
    Budgets are small: the point is contention, not scale.  The
    processes race to publish each benchmark's one trace artifact, so
    the cases also cover concurrent writers of one key under crashes
    and gc.
    """

    CASES = {
        "gzip": ((
            ("figure", "4", "--benchmarks", "gzip", "--instructions", "1500"),
            ("figure", "4", "--benchmarks", "gzip", "--instructions", "1500"),
            ("figure", "5", "--benchmarks", "gzip", "--instructions", "1500"),
        ), 64 * 1024),
        "gzip-mcf": ((
            ("figure", "4", "--benchmarks", "gzip,mcf",
             "--instructions", "3000"),
            ("figure", "4", "--benchmarks", "gzip,mcf",
             "--instructions", "3000"),
            ("figure", "5", "--benchmarks", "gzip,mcf",
             "--instructions", "3000"),
        ), 256 * 1024),
    }
    FAULT_SPEC = "write_crash:0.4,io_error:0.2,seed:7"

    @staticmethod
    def _env(cache_dir: str, fault_spec: str = "") -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = cache_dir
        env["REPRO_FAULTS"] = fault_spec
        env.pop("REPRO_CACHE_DISABLE", None)
        env.pop("REPRO_RESULT_CACHE_DISABLE", None)
        return env

    @classmethod
    def _run_cli(cls, command, env):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *command],
            env=env, capture_output=True, text=True, timeout=150,
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_shared_cache_stress_is_byte_identical_and_fsck_clean(
            self, tmp_path, case):
        commands, gc_size = self.CASES[case]
        # Fault-free reference stdout, in an isolated cache.
        reference_env = self._env(str(tmp_path / "reference-cache"))
        expected = {}
        for command in dict.fromkeys(commands):
            proc = self._run_cli(command, reference_env)
            assert proc.returncode == 0, proc.stderr
            expected[command] = proc.stdout

        # The chaos run: concurrent processes on one shared cache while
        # this process churns gc against the same root.
        shared = str(tmp_path / "shared-cache")
        chaos_env = self._env(shared, self.FAULT_SPEC)
        children = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *command],
                env=chaos_env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            for command in commands
        ]
        gc_store = ArtifactStore(shared)
        deadline = time.monotonic() + 150
        while any(child.poll() is None for child in children):
            assert time.monotonic() < deadline, "stress children wedged"
            gc_store.gc(gc_size)      # keep evicting under the sweeps
            time.sleep(0.05)

        for command, child in zip(commands, children):
            stdout, stderr = child.communicate(timeout=10)
            assert child.returncode == 0, stderr
            assert stdout == expected[command], (
                f"{command}: stdout diverged under faults")

        # The store survives an audit: repair reaps the crash litter,
        # after which a plain fsck exits clean.
        from repro.cli import main

        assert main(["cache", "fsck", "--repair", "--cache-dir", shared]) == 0
        assert main(["cache", "fsck", "--cache-dir", shared]) == 0
