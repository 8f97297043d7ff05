"""Frontier checkpoints: budget increases fast-forward, reruns don't.

A completed full run publishes its end state ("frontier") keyed by
configuration identity and committed-instruction offset.  A later run of
the same configuration with a **larger** budget restores the frontier
and resumes the timed loop -- bit-identical to a continuous run, because
the budget only decides when the loop stops.  An **equal** budget must
keep resimulating (strictly-smaller reuse): ``--no-result-cache`` means
"do the work again", and frontier reuse at the same offset would quietly
turn it back into a replay.
"""

import pytest

from repro.cache.keys import content_key
from repro.cache.shared import dumps_with_workload, loads_with_workload
from repro.cache.store import temporary_cache_dir
from repro.context import current_context, use_context
from repro.sampling.checkpoint import DEFAULT_STORE, FRONTIER, frontier_key
from repro.simulator.config import SimulationConfig
from repro.simulator.presets import paper_config
from repro.simulator.runner import (
    _execute_single, clear_process_caches, get_workload)
from repro.simulator.simulator import Simulator, SimulatorCheckpoint
from repro.workloads.spec2000 import profile_for
from repro.workloads.trace import build_workload


def fast_config(**overrides):
    params = dict(engine="clgp", technology="0.045um", l1_size_bytes=4096,
                  max_instructions=1500, warmup_instructions=2000)
    params.update(overrides)
    return SimulationConfig(**params)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_process_caches()
    yield
    clear_process_caches()


class TestFrontierKey:
    def test_budget_is_neutralized_but_cycles_are_not(self):
        base = fast_config()
        assert frontier_key(base) == frontier_key(
            fast_config(max_instructions=9999)
        )
        assert frontier_key(base) != frontier_key(
            fast_config(max_cycles=10_000)
        )
        assert frontier_key(base) != frontier_key(
            fast_config(l1_size_bytes=1024)
        )

    def test_derived_warmup_stays_distinct(self):
        # warmup defaults from max_instructions, so two budgets with
        # *different resolved warm-ups* must not share frontiers.
        a = fast_config(warmup_instructions=None, max_instructions=20_000)
        b = fast_config(warmup_instructions=None, max_instructions=40_000)
        assert a.resolved_warmup_instructions() \
            != b.resolved_warmup_instructions()
        assert frontier_key(a) != frontier_key(b)


class TestFrontierFastForward:
    def test_budget_increase_resumes_and_matches_continuous(self, tmp_path):
        config = fast_config()
        with temporary_cache_dir(tmp_path / "off", enabled=False):
            # Continuous reference at the large budget, from cold caches.
            reference = _execute_single(config, "gzip", 3000)
            clear_process_caches()

            publishes = DEFAULT_STORE.counts[FRONTIER, "publish"]
            small = _execute_single(config, "gzip", 1500)
            assert small.committed_instructions >= 1500
            assert DEFAULT_STORE.counts[FRONTIER, "publish"] == publishes + 1

            hits = DEFAULT_STORE.counts[FRONTIER, "hit"]
            resumed = _execute_single(config, "gzip", 3000)
            assert DEFAULT_STORE.counts[FRONTIER, "hit"] == hits + 1
            assert resumed == reference

    def test_equal_budget_rerun_resimulates(self, tmp_path):
        config = fast_config()
        with temporary_cache_dir(tmp_path / "off", enabled=False):
            first = _execute_single(config, "gzip", 1500)
            hits = DEFAULT_STORE.counts[FRONTIER, "hit"]
            publishes = DEFAULT_STORE.counts[FRONTIER, "publish"]
            second = _execute_single(config, "gzip", 1500)
            assert second == first
            # Reuse is strictly-smaller-offset only, and the end state is
            # already published, so the rerun neither restores nor
            # re-snapshots.
            assert DEFAULT_STORE.counts[FRONTIER, "hit"] == hits
            assert DEFAULT_STORE.counts[FRONTIER, "publish"] == publishes

    def test_frontier_persists_through_the_artifact_store(self, tmp_path):
        config = fast_config()
        with temporary_cache_dir(tmp_path / "ref", enabled=False):
            reference = _execute_single(config, "gzip", 3000)
        clear_process_caches()
        with temporary_cache_dir(tmp_path / "disk"):
            _execute_single(config, "gzip", 1500)
            # Drop every in-memory cache: only the on-disk artifact store
            # survives, as it would across CLI invocations.
            clear_process_caches()
            hits = DEFAULT_STORE.counts[FRONTIER, "hit"]
            resumed = _execute_single(config, "gzip", 3000)
            assert DEFAULT_STORE.counts[FRONTIER, "hit"] == hits + 1
            assert resumed == reference

    def test_frontier_reaches_a_second_store(self, tmp_path):
        """One process serves runs on several stores: a frontier already
        in the in-memory memo must still be published to the store of a
        later run of the same configuration."""
        config = fast_config(max_instructions=3000)
        index_key = content_key("frontier-index", frontier_key(config),
                                "gzip", profile_for("gzip").seed)
        with use_context(current_context().override(result_cache=False)):
            with temporary_cache_dir(tmp_path / "a") as first:
                _execute_single(config, "gzip", 3000)
            with temporary_cache_dir(tmp_path / "b") as second:
                _execute_single(config, "gzip", 3000)
        published = first.get("frontier-index", index_key)
        assert published
        assert second.get("frontier-index", index_key) == published


class TestCrossLoopResume:
    """``frontier_key`` neutralizes ``sim_loop`` although the event and
    cycle loops are not bit-identical: on this run they end 23 cycles
    apart (the strict xfail in ``tests/test_event_loop.py``).  The loops
    differ only in where a run stops, so a frontier published by one
    loop and resumed by the other equals the resuming loop's continuous
    run."""

    @staticmethod
    def _config(loop):
        return paper_config("base-pipelined", l1_size_bytes=256,
                            technology="0.045um", max_instructions=30_000,
                            sim_loop=loop)

    @pytest.mark.parametrize("published_by, resumed_by",
                             [("cycle", "event"), ("event", "cycle")])
    def test_frontier_resumes_across_loops(self, tmp_path, published_by,
                                           resumed_by):
        with temporary_cache_dir(tmp_path / "off", enabled=False):
            continuous = _execute_single(self._config(resumed_by), "eon",
                                         30_000)
            clear_process_caches()
            _execute_single(self._config(published_by), "eon", 15_000)
            hits = DEFAULT_STORE.counts[FRONTIER, "hit"]
            resumed = _execute_single(self._config(resumed_by), "eon",
                                      30_000)
        assert DEFAULT_STORE.counts[FRONTIER, "hit"] == hits + 1
        assert resumed == continuous


class TestFrontierPickling:
    def test_frontier_taken_mid_wrong_path_survives_pickling(self):
        """A frontier taken while a misprediction is pending, with
        wrong-path blocks already queued, carries its prediction trace by
        value: loaded into a freshly built workload it continues exactly
        as the continuous run does, and the pickled front-end is a cursor
        with no predictor or RAS of its own."""
        profile = profile_for("gcc")
        config = fast_config(engine="fdp", max_instructions=3000)
        workload = build_workload(profile)
        sim = Simulator(config, workload)
        for target in range(100, 3000, 25):
            sim.run(target)
            queued = sim.engine.ftq.pending_blocks()
            if (sim.prediction.awaiting_redirect
                    and any(block.wrong_path for block in queued)):
                break
        else:
            pytest.fail("no frontier with queued wrong-path blocks")
        data = dumps_with_workload(sim.snapshot()._state, workload)

        fresh = build_workload(profile)
        state = loads_with_workload(data, fresh)
        unit = state["prediction"]
        assert unit.awaiting_redirect
        assert unit.predictor is None and unit.ras is None
        assert unit.trace is not sim.prediction.trace
        assert unit.trace.records == sim.prediction.trace.records
        resumed = Simulator(config, fresh)
        resumed.restore(SimulatorCheckpoint(state))
        continuous = Simulator(config, build_workload(profile)).run()
        assert resumed.run() == continuous


class TestBusInFlight:
    """A run can end with a request queued on the L2 bus: this one ends
    with a prefetch waiting for its grant.  The grant callback is a
    closure over the live machine, so a copy of that machine would leave
    the grant updating the original, and a pickle fails outright.  No
    frontier is published from such a machine, and ``snapshot`` refuses
    it."""

    @staticmethod
    def _config():
        return paper_config("CLGP+L0+PB16", l1_size_bytes=256,
                            technology="0.045um", max_instructions=1000)

    def test_snapshot_refuses_a_machine_with_a_bus_request(self):
        sim = Simulator(self._config(), get_workload("vortex"))
        sim.run(1000)
        assert sim.bus_busy
        with pytest.raises(RuntimeError, match="in flight"):
            sim.snapshot()

    @pytest.mark.parametrize("store_on", [True, False],
                             ids=["store-on", "store-off"])
    def test_budget_increase_matches_a_fresh_run(self, tmp_path, store_on):
        config = self._config()
        with temporary_cache_dir(tmp_path / "fresh", enabled=False):
            fresh = _execute_single(config, "vortex", 2000)
        sim = Simulator(config, get_workload("vortex"))
        sim.run(1000)
        assert sim.hierarchy.bus.pending   # the 1,000 run ends mid-grant
        with temporary_cache_dir(tmp_path / "store", enabled=store_on):
            first = _execute_single(config, "vortex", 1000)
            resumed = _execute_single(config, "vortex", 2000)
        assert first.committed_instructions >= 1000
        assert resumed == fresh
