"""Determinism guard for the event-driven simulation loop.

The event-driven loop (``loop="event"``) fast-forwards across provably-idle
cycle stretches and replays the skipped per-cycle stall counters in bulk.
These tests pin down its core contract: for every engine, every field of
``SimulationResult`` -- and the engine's full stall breakdown -- must be
bit-identical to the straight per-cycle loop (``loop="cycle"``).

One known exception is pinned as a strict xfail: ``Simulator.run``
fast-forwards after the tick that commits the budget, so a run whose
budget commits just before an idle stretch ends that stretch late.
"""

import dataclasses
import random

import pytest

from repro.simulator.presets import paper_config
from repro.simulator.runner import get_workload
from repro.simulator.simulator import Simulator
from repro.simulator.testing import make_sim_config
from repro.workloads.generator import WorkloadProfile
from repro.workloads.trace import build_workload

ENGINES = ["baseline", "fdp", "clgp", "next-line", "target-line"]


def _run(config, workload, loop):
    sim = Simulator(config, workload)
    result = sim.run(loop=loop)
    return sim, result


def _assert_identical(a, b):
    if a == b:
        return
    diffs = [
        f"{f.name}: cycle={getattr(a, f.name)!r} event={getattr(b, f.name)!r}"
        for f in dataclasses.fields(a)
        if getattr(a, f.name) != getattr(b, f.name)
    ]
    raise AssertionError("event loop diverged from per-cycle loop:\n  "
                         + "\n  ".join(diffs))


class TestEventLoopDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_result_identical_to_cycle_loop(self, medium_workload, engine):
        config = make_sim_config(engine=engine, max_instructions=2500)
        cycle_sim, cycle_result = _run(config, medium_workload, "cycle")
        event_sim, event_result = _run(config, medium_workload, "event")
        _assert_identical(cycle_result, event_result)
        # The per-cause stall breakdown is not part of SimulationResult but
        # is exactly what the fast-forward replays; compare it too.
        assert cycle_sim.engine.stats.stall_cycles == event_sim.engine.stats.stall_cycles
        assert cycle_sim.backend.stats == event_sim.backend.stats

    @pytest.mark.parametrize("engine", ["baseline", "fdp", "clgp"])
    def test_identical_with_l0_cache(self, medium_workload, engine):
        config = make_sim_config(engine=engine, l0_enabled=True,
                                 max_instructions=2000)
        _, cycle_result = _run(config, medium_workload, "cycle")
        _, event_result = _run(config, medium_workload, "event")
        _assert_identical(cycle_result, event_result)

    @pytest.mark.parametrize("engine", ["fdp", "clgp"])
    @pytest.mark.parametrize("prefetches_per_cycle", [0, 1, 2])
    def test_identical_across_prefetch_ablations(self, medium_workload, engine,
                                                 prefetches_per_cycle):
        # prefetches_per_cycle=0 stresses the quiescence classification:
        # the scan may still mutate state (consumer counts, filter bits)
        # even though it can never allocate.
        kwargs = dict(engine=engine, l1_size_bytes=512,
                      prefetches_per_cycle=prefetches_per_cycle,
                      max_instructions=2000)
        if engine == "clgp":
            kwargs["clgp_use_filtering"] = True
        config = make_sim_config(**kwargs)
        _, cycle_result = _run(config, medium_workload, "cycle")
        _, event_result = _run(config, medium_workload, "event")
        _assert_identical(cycle_result, event_result)

    def test_identical_under_small_cache_pressure(self, medium_workload):
        # A tiny L1 forces long memory stalls -- the regime the
        # fast-forward is designed to skip.
        config = make_sim_config(engine="clgp", l1_size_bytes=512,
                                 max_instructions=2000)
        _, cycle_result = _run(config, medium_workload, "cycle")
        _, event_result = _run(config, medium_workload, "event")
        _assert_identical(cycle_result, event_result)

    def test_identical_when_cycle_limit_hit(self, tiny_workload):
        config = make_sim_config(max_instructions=10**9, max_cycles=400)
        _, cycle_result = _run(config, tiny_workload, "cycle")
        _, event_result = _run(config, tiny_workload, "event")
        assert cycle_result.cycles == event_result.cycles <= 400
        _assert_identical(cycle_result, event_result)

    @pytest.mark.xfail(strict=True, reason=(
        "Simulator.run calls _fast_forward after the tick that commits the "
        "budget, so the event loop ends one idle stretch late (68,315 vs "
        "68,292 cycles); a fix changes Figure-5 results"))
    def test_identical_when_budget_commits_before_idle_stretch(self):
        config = paper_config("base-pipelined", l1_size_bytes=256,
                              technology="0.045um", max_instructions=30_000)
        workload = get_workload("eon")
        _, cycle_result = _run(config, workload, "cycle")
        _, event_result = _run(config, workload, "event")
        _assert_identical(cycle_result, event_result)

    def test_step_driven_matches_run_loop(self, medium_workload):
        """run() unrolls step() with pre-bound methods for speed; the two
        copies of the per-cycle ordering must never diverge."""
        config = make_sim_config(engine="fdp", max_instructions=1500)
        run_result = Simulator(config, medium_workload).run(loop="cycle")

        stepped = Simulator(config, medium_workload)
        stepped.warm_up()
        target = config.max_instructions
        limit = target * 400   # simulator's default cycle-limit rule
        while (stepped.backend.stats.committed_instructions < target
               and stepped.cycle < limit):
            stepped.step()
        _assert_identical(run_result, stepped._collect_results())

    def test_run_rejects_unknown_loop(self, tiny_workload):
        sim = Simulator(make_sim_config(max_instructions=100), tiny_workload)
        with pytest.raises(ValueError):
            sim.run(loop="warp")

    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_short_workloads_bit_identical(self, seed):
        """Differential fuzzing of the cycle-skipping fast-forward: 20
        randomized (workload, configuration) pairs, each compared
        field-for-field (plus the stall breakdown and back-end counters)
        against the per-cycle reference loop.  The fixed-workload tests
        above pin known regimes; this sweep covers the engine x cache x
        warm-up x prefetch-rate cross products none of them hand-pick."""
        rng = random.Random(59999 + seed)
        profile = WorkloadProfile(
            name=f"event-diff-{seed}",
            footprint_kb=rng.choice([4.0, 8.0, 16.0]),
            num_functions=rng.randint(3, 12),
            avg_block_size=rng.uniform(4.0, 7.0),
            hard_branch_fraction=rng.uniform(0.05, 0.20),
            loop_fraction=rng.uniform(0.05, 0.25),
            avg_loop_iterations=rng.uniform(3.0, 8.0),
            call_fraction=rng.uniform(0.04, 0.12),
            dl1_miss_rate=rng.uniform(0.01, 0.08),
            seed=seed,
        )
        workload = build_workload(profile)
        kwargs = dict(
            engine=rng.choice(ENGINES),
            l1_size_bytes=rng.choice([512, 1024, 4096]),
            max_instructions=rng.randint(500, 1200),
            warmup_instructions=rng.choice([0, 1000, 3000]),
            prefetches_per_cycle=rng.choice([1, 2]),
        )
        if rng.random() < 0.3:
            kwargs["l0_enabled"] = True
        if kwargs["engine"] == "clgp" and rng.random() < 0.5:
            kwargs["clgp_use_filtering"] = True
        config = make_sim_config(**kwargs)
        cycle_sim, cycle_result = _run(config, workload, "cycle")
        event_sim, event_result = _run(config, workload, "event")
        _assert_identical(cycle_result, event_result)
        assert (cycle_sim.engine.stats.stall_cycles
                == event_sim.engine.stats.stall_cycles)
        assert cycle_sim.backend.stats == event_sim.backend.stats

    def test_fast_forward_actually_skips(self, medium_workload):
        """The event loop must step strictly fewer cycles than it simulates
        (otherwise the fast-forward silently stopped firing)."""
        config = make_sim_config(engine="baseline", l1_size_bytes=512,
                                 max_instructions=2000)
        sim = Simulator(config, medium_workload)
        stepped = 0
        original = sim._fast_forward

        def counting(limit):
            nonlocal stepped
            stepped += 1
            return original(limit)

        sim._fast_forward = counting
        result = sim.run()
        assert stepped < result.cycles
