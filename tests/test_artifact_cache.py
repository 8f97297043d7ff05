"""Tests for the persistent artifact cache (store, keys, reuse semantics).

Four contracts:

* **Stable keys** -- content keys are identical across processes (no
  hash-randomization dependence), independent of dataclass field order,
  and sensitive to every field value.
* **Robust store** -- corrupted artifacts and schema-version mismatches
  degrade to recompute-and-republish, never to wrong results.
* **Reuse** -- a second (cold-process) run of the same work loads every
  artifact from disk instead of recomputing (asserted via store
  counters), ``--no-cache``/disabled stores never touch disk, and
  ``cache clear`` empties the store.
* **Bit identity** -- cached-path results (compiled-trace oracles,
  persisted warm checkpoints, replayed measurements) equal the uncached
  path's results field for field.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cache import (
    SCHEMA_VERSION,
    ArtifactStore,
    content_key,
    ensure_compiled_trace,
    stable_repr,
    temporary_cache_dir,
)
from repro.cache.shared import dumps_with_workload, loads_with_workload
from repro.cache.traces import TRACE_MARGIN
from repro.context import current_context, use_context
from repro.sampling import SamplingSpec
from repro.sampling.sampled import _execute_sampled
from repro.sampling.checkpoint import POSITIONED, CheckpointStore
from repro.simulator.runner import _execute_single, clear_process_caches
from repro.simulator.simulator import Simulator
from repro.simulator.testing import make_sim_config
from repro.workloads.generator import WorkloadProfile
from repro.workloads.isa import BranchKind
from repro.workloads.spec2000 import profile_for
from repro.workloads.trace import (
    ActualStream,
    CompiledPathOracle,
    ProgramWalker,
    build_workload,
    compile_trace,
)

#: Private medium-sized profile (distinct name keeps this module's
#: artifacts disjoint from every other test's).
MEDIUM_PROFILE = WorkloadProfile(
    name="cache-medium",
    footprint_kb=48.0,
    num_functions=32,
    avg_block_size=5.0,
    hard_branch_fraction=0.10,
    loop_fraction=0.10,
    avg_loop_iterations=5.0,
    call_fraction=0.08,
    dl1_miss_rate=0.03,
    seed=11,
)


@pytest.fixture(autouse=True)
def _reset_process_caches():
    """Store-routed runs attach compiled traces to the per-process
    workload cache; make sure that never leaks across tests."""
    yield
    clear_process_caches()


# ----------------------------------------------------------------------
# stable keys
# ----------------------------------------------------------------------
class TestStableKeys:
    def test_equal_content_equal_key(self):
        a = make_sim_config(engine="clgp", max_instructions=4000)
        b = make_sim_config(engine="clgp", max_instructions=4000)
        assert a is not b
        assert stable_repr(a) == stable_repr(b)
        assert content_key("x", a) == content_key("x", b)

    def test_any_field_change_changes_key(self):
        base = make_sim_config(engine="clgp", max_instructions=4000)
        for override in (dict(engine="fdp"), dict(l1_size_bytes=1024),
                         dict(mlp_factor=2.0), dict(l0_enabled=True)):
            assert (stable_repr(base.with_overrides(**override))
                    != stable_repr(base))

    def test_mapping_order_is_irrelevant(self):
        assert stable_repr({"a": 1, "b": 2}) == stable_repr({"b": 2, "a": 1})
        assert stable_repr({1, 2, 3}) == stable_repr({3, 2, 1})

    def test_unstable_values_are_rejected(self):
        with pytest.raises(TypeError):
            stable_repr(object())

    def test_key_stable_across_processes(self):
        """The digest must not depend on this process's hash seed."""
        config = make_sim_config(engine="clgp", max_instructions=4000)
        expected = content_key("warm-checkpoint", config, "gcc", 7)
        src = str(Path(repro.__file__).parents[1])
        code = (
            "from repro.cache.keys import content_key\n"
            "from repro.simulator.testing import make_sim_config\n"
            "config = make_sim_config(engine='clgp', max_instructions=4000)\n"
            "print(content_key('warm-checkpoint', config, 'gcc', 7))\n"
        )
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = subprocess.run(
                [sys.executable, "-c", code], env=env,
                capture_output=True, text=True, check=True,
            )
            assert out.stdout.strip() == expected


# ----------------------------------------------------------------------
# store robustness
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.put("kindA", "k" * 8, {"payload": [1, 2, 3]})
        assert store.get("kindA", "k" * 8) == {"payload": [1, 2, 3]}
        assert store.stats.stores == 1 and store.stats.hits == 1

    def test_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        assert store.get("kindA", "nothere") is None
        assert store.stats.misses == 1

    def test_corrupted_artifact_is_dropped_and_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.put("kindA", "key1", [1, 2, 3])
        path = store.path_for("kindA", "key1")
        path.write_bytes(b"\x00garbage\xff")
        assert store.get("kindA", "key1") is None
        assert store.stats.corrupt == 1
        assert not path.exists()
        # Recompute-and-republish works on the same key.
        store.put("kindA", "key1", [4, 5])
        assert store.get("kindA", "key1") == [4, 5]

    def test_truncated_pickle_is_corrupt(self, tmp_path):
        import zlib

        store = ArtifactStore(tmp_path / "cache")
        store.put("kindA", "key2", list(range(100)))
        path = store.path_for("kindA", "key2")
        # Valid zlib stream around an invalid pickle.
        path.write_bytes(zlib.compress(b"not a pickle"))
        assert store.get("kindA", "key2") is None
        assert store.stats.corrupt == 1
        assert not path.exists()

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        current = ArtifactStore(tmp_path / "cache")
        current.put("kindA", "key1", "value")
        future = ArtifactStore(tmp_path / "cache", version=SCHEMA_VERSION + 1)
        assert future.get("kindA", "key1") is None
        # Both schemas coexist; clear removes every version.
        future.put("kindA", "key1", "newer")
        assert current.get("kindA", "key1") == "value"
        assert current.clear() == 2
        assert len(current) == 0
        assert future.get("kindA", "key1") is None

    def test_describe_and_len(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.put("a", "k1", 1)
        store.put("a", "k2", 2)
        store.put("b", "k3", 3)
        summary = store.describe()
        assert summary["a"][0] == 2 and summary["b"][0] == 1
        assert len(store) == 3


# ----------------------------------------------------------------------
# compiled traces
# ----------------------------------------------------------------------
class TestCompiledTrace:
    def test_replay_is_bit_identical_to_the_walk(self):
        compiled = build_workload(MEDIUM_PROFILE)
        # Small prefix on purpose: forces the tail-walker extension path.
        compiled.attach_compiled_trace(compile_trace(compiled, 2000))
        replayed = compiled.new_oracle()
        assert isinstance(replayed, CompiledPathOracle)
        walker = ProgramWalker(compiled.cfg, seed=MEDIUM_PROFILE.seed)
        while walker.instructions_executed < 6000:
            block = walker.next_block()
            assert replayed.current_address() == block.addr
            assert replayed.peek_stream(block.size) == ActualStream(
                start=block.addr, length=block.size,
                next_addr=block.next_addr, ends_taken=block.taken,
                terminator_kind=(block.kind if block.taken
                                 else BranchKind.NONE),
                terminator_addr=block.terminator_addr,
            )
            replayed.advance(block.size)
        # A trace that started empty replays the stored prefix exactly.
        fresh = build_workload(MEDIUM_PROFILE).new_oracle()
        stored = compiled.new_oracle()
        for cap in (None, 1, 7, 64, 64, 13, None, 128):
            assert fresh.current_address() == stored.current_address()
            a, b = fresh.peek_stream(cap), stored.peek_stream(cap)
            assert a == b
            fresh.advance(a.length)
            stored.advance(a.length)

    def test_simulation_results_identical(self):
        config = make_sim_config(engine="clgp", max_instructions=2000)
        plain = build_workload(MEDIUM_PROFILE)
        compiled = build_workload(MEDIUM_PROFILE)
        compiled.attach_compiled_trace(
            compile_trace(compiled, config.resolved_warmup_instructions())
        )
        assert (Simulator(config, plain).run()
                == Simulator(config, compiled).run())

    def test_pickle_round_trip_replays_identically(self):
        source = build_workload(MEDIUM_PROFILE)
        trace = compile_trace(source, 4000)
        loaded = pickle.loads(pickle.dumps(trace))
        target = build_workload(MEDIUM_PROFILE)
        target.attach_compiled_trace(loaded)
        config = make_sim_config(max_instructions=1500)
        assert (Simulator(config, target).run()
                == Simulator(config, build_workload(MEDIUM_PROFILE)).run())

    def test_attach_rejects_foreign_trace(self, tiny_workload):
        trace = compile_trace(build_workload(MEDIUM_PROFILE), 1000)
        with pytest.raises(ValueError):
            tiny_workload.attach_compiled_trace(trace)

    def test_ensure_compiled_trace_publishes_and_reloads(self, tmp_path):
        with temporary_cache_dir(tmp_path / "cache") as store:
            clear_process_caches()
            first = build_workload(MEDIUM_PROFILE)
            trace = ensure_compiled_trace(first, 5000)
            assert trace is not None
            assert store.stats.stores == 1
            clear_process_caches()
            second = build_workload(MEDIUM_PROFILE)
            reloaded = ensure_compiled_trace(second, 5000)
            assert store.stats.hits >= 1
            assert reloaded is not trace
            assert list(reloaded.addr[:100]) == list(trace.addr[:100])

    def test_trace_artifact_holds_what_runs_read(self, tmp_path,
                                                 monkeypatch):
        """One trace per workload, compiled to the budget plus the margin
        and grown, not recompiled, when a later run needs more."""
        from repro.cache import traces

        compiled = []

        def counting_compile(workload, instructions):
            compiled.append(instructions)
            return compile_trace(workload, instructions)

        monkeypatch.setattr(traces, "compile_trace", counting_compile)
        small = make_sim_config(engine="clgp", max_instructions=3000,
                                warmup_instructions=3000)
        large = small.with_overrides(max_instructions=20_000)
        disk_key = content_key("trace", "gzip",
                               profile_for("gzip").seed)

        with temporary_cache_dir(tmp_path / "off", enabled=False):
            clear_process_caches()
            expected = [_execute_single(small, "gzip")]
            clear_process_caches()
            expected.append(_execute_single(large, "gzip"))
        with temporary_cache_dir(tmp_path / "cache") as store:
            clear_process_caches()
            results = [_execute_single(small, "gzip")]
            stored = store.get("trace", disk_key)
            assert compiled == [3000 + TRACE_MARGIN]
            blocks = max(stored.size)
            assert (3000 + TRACE_MARGIN <= stored.compiled_instructions
                    < 3000 + TRACE_MARGIN + blocks)
            clear_process_caches()
            hits = store.stats.hits
            results.append(_execute_single(large, "gzip"))
            assert compiled == [3000 + TRACE_MARGIN]   # grown, not compiled
            assert store.stats.hits > hits
            grown = store.get("trace", disk_key)
            assert grown.compiled_instructions >= 20_000 + TRACE_MARGIN
            assert grown.addr[:len(stored.addr)] == stored.addr
        assert results == expected

    def test_disabled_cache_attaches_nothing(self, tmp_path):
        with temporary_cache_dir(tmp_path / "cache", enabled=False):
            workload = build_workload(MEDIUM_PROFILE)
            own = workload._compiled_trace
            assert ensure_compiled_trace(workload, 5000) is own
            assert workload._compiled_trace is own
            assert not (tmp_path / "cache").exists()

    def test_store_off_runs_match_store_on(self, tmp_path):
        """Without a store the oracle still replays a compiled trace (grown
        in memory), and full and sampled runs are byte-identical to the
        same runs through a store."""
        config = make_sim_config(engine="clgp", max_instructions=6000)
        spec = SamplingSpec(max_intervals=4)

        def runs():
            clear_process_caches()
            full = _execute_single(config, "gcc")
            sampled = _sampled_once(config, spec)
            return [json.dumps(dataclasses.asdict(result), sort_keys=True)
                    for result in (full, sampled)]

        with temporary_cache_dir(tmp_path / "off", enabled=False):
            workload = build_workload(MEDIUM_PROFILE)
            assert isinstance(workload.new_oracle(), CompiledPathOracle)
            store_off = runs()
        with temporary_cache_dir(tmp_path / "on"):
            store_on = runs()
        assert store_off == store_on
        assert not (tmp_path / "off").exists()


# ----------------------------------------------------------------------
# warm checkpoints across processes (workload-shared pickling)
# ----------------------------------------------------------------------
class TestPersistentCheckpoints:
    def test_shared_pickling_keeps_workload_objects_live(self):
        workload = build_workload(MEDIUM_PROFILE)
        config = make_sim_config(max_instructions=1200)
        simulator = Simulator(config, workload)
        simulator.warm_up()
        state = simulator.snapshot()._state
        data = dumps_with_workload(state, workload)
        loaded = loads_with_workload(data, workload)
        assert loaded["prediction"].workload is workload
        assert loaded["prediction"].bbdict is workload.bbdict

    def test_persisted_checkpoint_restores_bit_identically(self, tmp_path):
        config = make_sim_config(engine="fdp", max_instructions=1500)
        with temporary_cache_dir(tmp_path / "cache") as disk:
            clear_process_caches()
            producer_workload = build_workload(MEDIUM_PROFILE)
            producer = CheckpointStore()
            producer.warm_checkpoint(config, producer_workload)
            # The warm state is the positioned checkpoint at offset 0.
            assert disk.describe().get("positioned", (0, 0))[0] == 1

            # "New process": fresh workload, fresh store, same disk.
            clear_process_caches()
            consumer_workload = build_workload(MEDIUM_PROFILE)
            consumer = CheckpointStore()
            stores_before = disk.stats.stores
            checkpoint = consumer.warm_checkpoint(config, consumer_workload)
            assert disk.stats.stores == stores_before   # loaded, not rebuilt

            restored = Simulator(config, consumer_workload)
            restored.restore(checkpoint)
            fresh = Simulator(config, build_workload(MEDIUM_PROFILE))
            fresh.warm_up()
            assert restored.run(1500) == fresh.run(1500)

    def test_positioned_publish_reaches_a_later_enabled_store(self, tmp_path):
        """A positioned checkpoint memoized while caching was disabled must
        still be persisted when the same store later publishes it with a
        live artifact store (memo presence alone proves nothing about
        disk), and republishing to the same store is a no-op."""
        from repro.sampling.checkpoint import CheckpointStore

        config = make_sim_config(max_instructions=2000)
        workload = build_workload(MEDIUM_PROFILE)
        simulator = Simulator(config, workload)
        simulator.warm_up()
        simulator.skip_to(1500)
        checkpoint = simulator.snapshot()
        store = CheckpointStore()
        with temporary_cache_dir(tmp_path / "off", enabled=False):
            store.publish(POSITIONED, config, workload, 1500, checkpoint)
        with temporary_cache_dir(tmp_path / "on") as disk:
            store.publish(POSITIONED, config, workload, 1500, checkpoint)
            assert disk.describe().get("positioned", (0, 0))[0] == 1
            stores_before = disk.stats.stores
            store.publish(POSITIONED, config, workload, 1500, checkpoint)
            assert disk.stats.stores == stores_before   # already on disk
            loaded = CheckpointStore().positioned_checkpoint(
                config, workload, 2000)
            assert loaded is not None and loaded[0] == 1500


# ----------------------------------------------------------------------
# end-to-end reuse semantics
# ----------------------------------------------------------------------
def _sampled_once(config, spec):
    """One sampled run in a 'fresh process' (cleared in-memory caches)."""
    clear_process_caches()
    workload = build_workload(MEDIUM_PROFILE)
    return _execute_sampled(config, workload, spec=spec,
                            store=CheckpointStore())


class TestCacheReuse:
    CONFIG = make_sim_config(engine="clgp", max_instructions=6000)
    SPEC = SamplingSpec(max_intervals=4)

    def test_second_run_replays_artifacts(self, tmp_path, monkeypatch):
        with temporary_cache_dir(tmp_path / "cache") as disk:
            cold = _sampled_once(self.CONFIG, self.SPEC)
            assert disk.stats.stores > 0
            cold_stores = disk.stats.stores

            # Warm run: everything must come from disk -- no new
            # artifacts, and no timed simulation at all (the measurement
            # payload short-circuits _measure_intervals).
            import repro.sampling.sampled as sampled_mod

            def no_simulation(*args, **kwargs):
                raise AssertionError(
                    "warm run re-simulated intervals despite cached "
                    "measurements")

            monkeypatch.setattr(sampled_mod, "_measure_intervals",
                                no_simulation)
            warm = _sampled_once(self.CONFIG, self.SPEC)
            assert disk.stats.stores == cold_stores
            assert disk.stats.hits > 0
            assert warm == cold

    def test_cached_and_uncached_results_are_bit_identical(self, tmp_path):
        with temporary_cache_dir(tmp_path / "cache-a"):
            cold = _sampled_once(self.CONFIG, self.SPEC)
            warm = _sampled_once(self.CONFIG, self.SPEC)
        with temporary_cache_dir(tmp_path / "cache-b", enabled=False):
            uncached = _sampled_once(self.CONFIG, self.SPEC)
        clear_process_caches()
        assert cold == warm == uncached

    def test_disabled_cache_touches_no_disk(self, tmp_path):
        target = tmp_path / "cache-disabled"
        with temporary_cache_dir(target, enabled=False):
            _sampled_once(self.CONFIG, self.SPEC)
        assert not target.exists()

    def test_stale_measurements_are_recomputed(self, tmp_path):
        """A measurement payload whose selection fingerprint no longer
        matches (simulating an algorithm change) must be ignored."""
        with temporary_cache_dir(tmp_path / "cache") as disk:
            cold = _sampled_once(self.CONFIG, self.SPEC)
            (kind, path), = (
                (k, p) for k, p in disk.entries() if k == "measurement"
            )
            import zlib

            from repro.cache.store import frame_digest, unframe_digest

            payload = pickle.loads(
                zlib.decompress(unframe_digest(path.read_bytes())))
            payload["selection"] = "0" * 64
            # Re-frame: the rewrite simulates a *valid* artifact from an
            # older algorithm, not on-disk corruption.
            path.write_bytes(
                frame_digest(zlib.compress(pickle.dumps(payload))))
            warm = _sampled_once(self.CONFIG, self.SPEC)
            assert warm == cold


# ----------------------------------------------------------------------
# full-run result caching
# ----------------------------------------------------------------------
class TestResultCache:
    """Persisted complete ``SimulationResult``\\ s: replay policy, keys,
    robustness (the property-based differential guard lives in
    ``tests/test_replay_properties.py``)."""

    CONFIG = make_sim_config(engine="fdp", max_instructions=1500)

    @staticmethod
    def _run_once():
        from repro.simulator.runner import _execute_single, clear_process_caches

        clear_process_caches()
        return _execute_single(TestResultCache.CONFIG, "gzip", 1500)

    def test_warm_run_replays_the_result_without_simulating(
            self, tmp_path, monkeypatch):
        from repro.cache.results import RESULT_CACHE_STATS
        from repro.simulator import runner as runner_mod

        with temporary_cache_dir(tmp_path / "cache") as disk:
            cold = self._run_once()
            assert disk.describe().get("result", (0, 0))[0] == 1

            def no_simulation(*args, **kwargs):
                raise AssertionError("warm run resimulated despite a "
                                     "persisted result")

            monkeypatch.setattr(runner_mod, "Simulator", no_simulation)
            hits_before = RESULT_CACHE_STATS.hits
            warm = self._run_once()
            assert RESULT_CACHE_STATS.hits == hits_before + 1
            assert warm == cold

    def test_disabled_result_cache_stores_and_replays_nothing(self, tmp_path):
        from repro.context import current_context, use_context

        with temporary_cache_dir(tmp_path / "cache") as disk:
            with use_context(current_context().override(result_cache=False)):
                self._run_once()
            assert disk.describe().get("result", (0, 0))[0] == 0

    def test_result_key_binds_config_workload_and_budget(self):
        from repro.cache.results import result_key

        base = result_key(self.CONFIG, "gzip", 3, 1500)
        assert result_key(self.CONFIG, "gzip", 3, 1500) == base
        assert result_key(self.CONFIG, "gzip", 3, 2000) != base
        assert result_key(self.CONFIG, "gzip", 4, 1500) != base
        assert result_key(self.CONFIG, "mcf", 3, 1500) != base
        assert result_key(self.CONFIG.with_overrides(l1_size_bytes=1024),
                          "gzip", 3, 1500) != base

    def test_corrupted_result_degrades_to_resimulate(self, tmp_path):
        with temporary_cache_dir(tmp_path / "cache") as disk:
            cold = self._run_once()
            (_, path), = ((k, p) for k, p in disk.entries()
                          if k == "result")
            path.write_bytes(b"\x00torn\xff")
            assert self._run_once() == cold
            assert disk.stats.corrupt >= 1

    def test_foreign_payload_under_the_result_key_is_ignored(self, tmp_path):
        from repro.cache.results import result_key

        with temporary_cache_dir(tmp_path / "cache") as disk:
            from repro.workloads.spec2000 import profile_for

            profile = profile_for("gzip")
            disk.put("result", result_key(self.CONFIG, profile.name,
                                          profile.seed, 1500),
                     {"not": "a result"})
            result = self._run_once()
            assert result.committed_instructions >= 1500


# ----------------------------------------------------------------------
# corruption across every artifact kind
# ----------------------------------------------------------------------
class TestEveryKindSurvivesCorruption:
    """Corrupting every persisted artifact of every kind -- torn writes
    (truncation) and rotted bits (bit flips) alike -- must degrade to
    recompute-and-republish with bit-identical final results, never to a
    crash or a silently wrong result."""

    SAMPLED_CONFIG = make_sim_config(engine="clgp", max_instructions=6000)
    FULL_CONFIG = make_sim_config(engine="fdp", max_instructions=1500)

    #: Every kind the toolkit persists; the producer below must create
    #: all of them, so a new kind fails this test until it is covered.
    EXPECTED_KINDS = {
        "trace", "warmup", "bbv", "fprofile", "selection",
        "positioned", "positioned-index", "frontier", "frontier-index",
        "measurement", "result",
    }

    @classmethod
    def _produce_everything(cls):
        """Cold 'fresh process' runs touching every artifact kind, and
        restoring a warm state and a frontier from the store."""
        from repro.simulator.runner import _execute_single

        stratified = _sampled_once(cls.SAMPLED_CONFIG,
                                   SamplingSpec(max_intervals=4))
        kmeans = _sampled_once(cls.SAMPLED_CONFIG,
                               SamplingSpec(max_intervals=4,
                                            method="kmeans"))
        # No run publishes the warm state (the positioned checkpoint at
        # offset 0) on its own; publish it explicitly and run from it,
        # so a corrupted warm state is covered too.
        clear_process_caches()
        workload = build_workload(MEDIUM_PROFILE)
        warm = Simulator(cls.SAMPLED_CONFIG, workload)
        warm.restore(CheckpointStore().warm_checkpoint(cls.SAMPLED_CONFIG,
                                                       workload))
        from_warm = warm.run(1500)
        clear_process_caches()
        full = _execute_single(cls.FULL_CONFIG, "gzip", 1500)
        # A larger budget resumes the 1500-instruction frontier (result
        # replay off, so a corrupted frontier is read, not bypassed).
        clear_process_caches()
        with use_context(current_context().override(result_cache=False)):
            resumed = _execute_single(cls.FULL_CONFIG, "gzip", 3000)
        return (stratified, kmeans, from_warm, full, resumed)

    @staticmethod
    def _corrupt(path, mode):
        data = path.read_bytes()
        if mode == "truncate":
            path.write_bytes(data[:len(data) // 2])
        else:   # flip one bit in the middle of the payload
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0x40
            path.write_bytes(bytes(flipped))

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupting_all_artifacts_degrades_to_recompute(
            self, tmp_path, mode):
        with temporary_cache_dir(tmp_path / "cache") as disk:
            cold = self._produce_everything()
            kinds_on_disk = {kind for kind, _path in disk.entries()}
            assert kinds_on_disk == self.EXPECTED_KINDS
            for _kind, path in disk.entries():
                self._corrupt(path, mode)
            rerun = self._produce_everything()
            assert rerun == cold
            assert disk.stats.corrupt > 0

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_detection_happens_at_the_framing_layer(
            self, tmp_path, mode, monkeypatch):
        """Every kind's on-disk payload is digest-framed (schema v4), and
        corruption is rejected by the frame check -- before zlib or
        pickle ever see the bytes -- not by an incidental
        decompress/unpickle failure."""
        import zlib

        from repro.cache.store import unframe_digest

        with temporary_cache_dir(tmp_path / "cache") as disk:
            self._produce_everything()
            entries = list(disk.entries())
            assert {kind for kind, _ in entries} == self.EXPECTED_KINDS
            for kind, path in entries:
                assert unframe_digest(path.read_bytes()) is not None, (
                    f"{kind} artifact is not digest-framed")
                self._corrupt(path, mode)
                assert unframe_digest(path.read_bytes()) is None

            def no_decompress(*_a, **_k):
                raise AssertionError(
                    "zlib ran on a payload the frame should have rejected")

            def no_loads(*_a, **_k):
                raise AssertionError(
                    "pickle ran on a payload the frame should have rejected")

            monkeypatch.setattr(zlib, "decompress", no_decompress)
            monkeypatch.setattr(pickle, "loads", no_loads)
            before = disk.stats.corrupt
            for kind, path in entries:
                assert disk.get_bytes(kind, path.stem) is None
                assert not path.exists()        # discarded for recompute
            assert disk.stats.corrupt == before + len(entries)

    @pytest.mark.parametrize("kind", sorted(EXPECTED_KINDS))
    def test_single_kind_bitflip_is_contained(self, tmp_path, kind):
        """Corrupting only one kind must recompute just that kind's data
        and still reproduce the cold results exactly."""
        with temporary_cache_dir(tmp_path / "cache") as disk:
            cold = self._produce_everything()
            targets = [path for k, path in disk.entries() if k == kind]
            assert targets, f"producer never persisted kind {kind!r}"
            for path in targets:
                self._corrupt(path, "bitflip")
            assert self._produce_everything() == cold


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCacheCli:
    def test_cache_path_ls_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cli-cache"
        assert main(["cache", "path", "--cache-dir", str(cache_dir)]) == 0
        assert str(cache_dir) in capsys.readouterr().out

        assert main(["run", "base", "--benchmarks", "gzip",
                     "--instructions", "1000",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "warmup" in out

        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_cache_fsck_reports_then_repairs(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cli-fsck"
        store = ArtifactStore(cache_dir)
        store.put("kindA", "good", b"g" * 500)
        store.put("kindA", "bad", b"b" * 500)
        bad = store.path_for("kindA", "bad")
        rotted = bytearray(bad.read_bytes())
        rotted[40] ^= 0x01
        bad.write_bytes(bytes(rotted))
        (store.versioned_root / "kindA" / ".orphan.1.tmp").write_bytes(b"x")

        # Report-only: damage means a non-zero exit and nothing removed.
        assert main(["cache", "fsck", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "orphaned temp" in out
        assert bad.exists()

        assert main(["cache", "fsck", "--repair",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert not bad.exists()
        assert not list(cache_dir.rglob("*.tmp"))
        assert store.path_for("kindA", "good").exists()

        assert main(["cache", "fsck", "--cache-dir", str(cache_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cache_fsck_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        cache_dir = tmp_path / "cli-fsck-json"
        ArtifactStore(cache_dir).put("kindA", "k", b"x" * 100)
        assert main(["cache", "fsck", "--json",
                     "--cache-dir", str(cache_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert report["per_kind"]["kindA"] == {"ok": 1, "corrupt": 0}

    def test_cache_stats_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        cache_dir = tmp_path / "cli-stats-json"
        ArtifactStore(cache_dir).put("kindA", "k", b"x" * 100)
        assert main(["cache", "stats", "--json",
                     "--cache-dir", str(cache_dir)]) == 0
        counters = json.loads(capsys.readouterr().out)
        assert counters["store"]["schema_version"] == SCHEMA_VERSION
        assert counters["store"]["root"] == str(cache_dir)
        assert counters["store"]["kinds"]["kindA"]["files"] == 1
        for section in ("store", "result_cache", "supervision", "fsck"):
            assert section in counters
        assert "hits" in counters["store"]
        assert "retries" in counters["supervision"]

    def test_no_cache_flag_bypasses_disk(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cli-nocache"
        assert main(["run", "base", "--benchmarks", "gzip",
                     "--instructions", "1000",
                     "--cache-dir", str(cache_dir), "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_figure_all_renders_every_figure(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["figure", "all", "--benchmarks", "gzip",
                     "--instructions", "600", "--sampled",
                     "--cache-dir", str(tmp_path / "cli-figall")])
        assert code == 0
        out = capsys.readouterr().out
        for figure in ("Figure 1", "Figure 2", "Figure 4", "Figure 5",
                       "Figure 6", "Figure 7", "Figure 8"):
            assert figure in out


class TestColdWarmFigure:
    """The cold-vs-warm invariant end to end, in fresh processes: a
    second ``figure 5`` against the same fresh store prints byte-identical
    stdout and does the work much faster -- at least 2x sampled
    (profiles, selections and interval measurements replay), at least 5x
    full (whole results replay) -- and ``--no-result-cache`` resimulates
    yet prints the same stdout.  Interpreter and import startup is the
    same in every run and not what the cache accelerates, so it is
    measured with a no-op subcommand and subtracted."""

    FIGURE = ["figure", "5", "--instructions", "8000",
              "--benchmarks", "gzip,mcf"]

    @staticmethod
    def _timed(args):
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            env=env, capture_output=True, text=True, timeout=600)
        seconds = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        return seconds, proc.stdout

    @pytest.mark.parametrize("mode, speedup", [("sampled", 2), ("full", 5)],
                             ids=["sampled", "full"])
    def test_cold_warm_figure(self, tmp_path, mode, speedup):
        store = ["--cache-dir", str(tmp_path / "store")]
        startup, _ = self._timed(["cache", "path", *store])
        figure = self.FIGURE + store
        if mode == "sampled":
            figure.append("--sampled")
        cold_seconds, cold = self._timed(figure)
        warm_seconds, warm = self._timed(figure)
        cold_work = max(cold_seconds - startup, 1e-9)
        warm_work = max(warm_seconds - startup, 1e-9)
        timings = (f"startup {startup:.2f}s, cold {cold_seconds:.2f}s, "
                   f"warm {warm_seconds:.2f}s")
        assert warm == cold, "warm-cache output differs from cold"
        assert warm_work * speedup < cold_work, timings
        if mode == "full":
            forced_seconds, forced = self._timed(
                figure + ["--no-result-cache"])
            assert forced == cold, "--no-result-cache output differs"
            assert forced_seconds - startup > warm_work, (
                f"--no-result-cache did not resimulate: {timings}, "
                f"forced {forced_seconds:.2f}s")


class TestCacheGc:
    """LRU-by-mtime eviction: `ArtifactStore.gc(max_size)` and the CLI."""

    @staticmethod
    def _populated(tmp_path):
        store = ArtifactStore(tmp_path / "gc-cache")
        for index in range(4):
            store.put("kindA", f"key{index}", b"x" * 2000)
        paths = [store.path_for("kindA", f"key{index}") for index in range(4)]
        # Deterministic mtimes: key0 oldest ... key3 newest.
        for age, path in enumerate(paths):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        return store, paths

    def test_evicts_oldest_first_down_to_limit(self, tmp_path):
        store, paths = self._populated(tmp_path)
        total = store.total_size()
        per_file = paths[0].stat().st_size
        report = store.gc(total - per_file)
        assert report.files_removed == 1
        assert report.bytes_removed == per_file
        assert not paths[0].exists()            # oldest went first
        assert all(path.exists() for path in paths[1:])
        assert store.total_size() <= total - per_file

    def test_generous_limit_removes_nothing(self, tmp_path):
        store, paths = self._populated(tmp_path)
        report = store.gc(store.total_size())
        assert report.files_removed == 0 and report.bytes_removed == 0
        assert all(path.exists() for path in paths)

    def test_zero_limit_empties_the_store(self, tmp_path):
        store, paths = self._populated(tmp_path)
        assert store.gc(0).files_removed == 4
        assert store.total_size() == 0

    def test_negative_limit_rejected(self, tmp_path):
        store, _ = self._populated(tmp_path)
        with pytest.raises(ValueError):
            store.gc(-1)

    def test_reads_refresh_lru_order(self, tmp_path):
        store, paths = self._populated(tmp_path)
        # Read the oldest artifact: it becomes most recently used, so the
        # next-oldest (key1) is evicted instead.
        assert store.get("kindA", "key0") is not None
        per_file = paths[0].stat().st_size
        store.gc(store.total_size() - per_file)
        assert paths[0].exists()
        assert not paths[1].exists()

    def test_concurrent_read_refresh_wins_over_eviction(self, tmp_path):
        """An artifact whose mtime a concurrent reader refreshed *between*
        gc's scan and its eviction turn must survive: it just became the
        most recently used file, so unlinking it would evict exactly the
        wrong artifact (regression for the scan/evict race)."""
        store, paths = self._populated(tmp_path)
        entries, total = store._gc_scan()
        # Interleaved read: key0 (scanned as oldest) is refreshed before
        # the eviction pass reaches it.
        assert store.get("kindA", "key0") is not None
        per_file = paths[0].stat().st_size
        removed_files, removed_bytes = store._gc_evict(
            entries, total, total - per_file)
        assert paths[0].exists()                # refreshed: spared
        assert not paths[1].exists()            # next-oldest went instead
        assert removed_files == 1
        assert removed_bytes == per_file

    def test_gc_skips_files_already_removed(self, tmp_path):
        """A file another process evicted between scan and unlink counts
        toward the size target without being credited to this pass."""
        store, paths = self._populated(tmp_path)
        entries, total = store._gc_scan()
        per_file = paths[0].stat().st_size
        paths[0].unlink()
        removed_files, removed_bytes = store._gc_evict(
            entries, total, total - per_file)
        assert removed_files == 0 and removed_bytes == 0
        assert all(path.exists() for path in paths[1:])

    def test_other_schema_versions_are_candidates(self, tmp_path):
        store, paths = self._populated(tmp_path)
        orphan = ArtifactStore(tmp_path / "gc-cache", version=store.version + 1)
        orphan.put("kindB", "old", b"y" * 2000)
        orphan_path = orphan.path_for("kindB", "old")
        os.utime(orphan_path, (999_000, 999_000))   # older than everything
        report = store.gc(store.total_size() - orphan_path.stat().st_size)
        assert report.files_removed == 1
        assert not orphan_path.exists()
        assert all(path.exists() for path in paths)

    def test_gc_reaps_orphaned_temp_files(self, tmp_path):
        """A `.tmp` stranded by a killed writer is counted by
        `total_size` and reaped (and reported) by the next gc pass."""
        store, paths = self._populated(tmp_path)
        pkl_size = store.total_size()
        stranded = store.versioned_root / "kindA" / ".stranded.4242.tmp"
        stranded.write_bytes(b"t" * 321)
        assert store.total_size() == pkl_size + 321
        report = store.gc(pkl_size)             # generous for the .pkl set
        assert report.tmp_files_removed == 1
        assert report.tmp_bytes_removed == 321
        assert report.files_removed == 0        # no artifact was evicted
        assert not stranded.exists()
        assert all(path.exists() for path in paths)
        assert store.total_size() == pkl_size

    def test_cli_gc_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cli-gc"
        store = ArtifactStore(cache_dir)
        for index in range(3):
            store.put("kindA", f"key{index}", b"x" * 5000)
        assert main(["cache", "gc", "--max-size", "0",
                     "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "evicted 3 artifact file(s)" in out
        assert store.total_size() == 0

    def test_cli_gc_accepts_size_suffixes(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cli-gc-suffix"
        store = ArtifactStore(cache_dir)
        store.put("kindA", "key", b"x" * 100)
        assert main(["cache", "gc", "--max-size", "1M",
                     "--cache-dir", str(cache_dir)]) == 0
        assert "evicted 0 artifact file(s)" in capsys.readouterr().out
        assert store.total_size() > 0

    def test_cli_gc_requires_max_size(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "gc",
                     "--cache-dir", str(tmp_path / "cli-gc-req")]) == 2
        assert "--max-size" in capsys.readouterr().err
