"""Property-based differential guard for warm replay and prefix restore.

The artifact cache promises that *every* simulation path replays warm
without changing a single bit:

* **cold** -- an empty store computes and publishes everything,
* **warm-replayed** -- a later invocation of the *same* run, full or
  sampled, returns its persisted ``SimulationResult`` artifact
  byte-identically,
* **prefix-restored** -- a sampled run whose **budget was edited**
  restores the deepest positioned checkpoint at or before its skip
  target and fast-forwards only the delta, instead of re-skipping the
  whole prefix from the warm checkpoint -- and still produces exactly
  the result a run against a fresh (or disabled) store produces.

The scenarios here are generated from seeds (randomized engines, cache
sizes, budgets, budget edits and sampling specs), so the guard covers
the cross products no hand-picked test would; any divergence prints the
exact fields that differ.  ``tests/test_checkpoint.py`` holds the
state-level half of the argument (split skips are positionally exact);
this module asserts the end-to-end contract the CLI and CI rely on.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import temporary_cache_dir
from repro.cache.results import RESULT_CACHE_STATS, result_key
from repro.sampling.checkpoint import DEFAULT_STORE, POSITIONED, position_key
from repro.sampling.sampled import SamplingSpec, _execute_sampled
from repro.simulator.plan import SimTask
from repro.simulator.runner import _run_task, clear_process_caches
from repro.simulator.testing import make_sim_config

ENGINES = ("baseline", "fdp", "clgp")
BENCHMARKS = ("gzip", "gcc", "mcf", "eon")


def _assert_identical(a, b, label):
    if a == b:
        return
    diffs = [
        f"{f.name}: {getattr(a, f.name)!r} != {getattr(b, f.name)!r}"
        for f in dataclasses.fields(a)
        if getattr(a, f.name) != getattr(b, f.name)
    ]
    raise AssertionError(f"{label} diverged:\n  " + "\n  ".join(diffs))


def _full_scenario(seed: int):
    """One randomized full-run scenario: (config, benchmark, budget)."""
    rng = random.Random(0x5EED0 + seed)
    budget = rng.randrange(1000, 3001, 250)
    config = make_sim_config(
        engine=rng.choice(ENGINES),
        l1_size_bytes=rng.choice([1024, 4096]),
        l0_enabled=rng.random() < 0.3,
        max_instructions=budget,
        warmup_instructions=rng.choice([2000, 4000]),
    )
    return config, rng.choice(BENCHMARKS), budget


def _sampled_scenario(seed: int):
    """One randomized budget-edit scenario.

    The warm-up budget is pinned so the original and the edited budget
    share warm state (and hence a position key) -- the regime positioned
    checkpoints exist for.
    """
    rng = random.Random(0xED17 + seed)
    budget = rng.randrange(5000, 8001, 500)
    edited = budget + rng.randrange(1000, 3001, 500)
    config = make_sim_config(
        engine=rng.choice(ENGINES),
        l1_size_bytes=rng.choice([1024, 4096]),
        max_instructions=budget,
        warmup_instructions=4000,
    )
    spec = SamplingSpec(max_intervals=rng.choice([3, 4, 5]))
    return config, config.with_overrides(max_instructions=edited), \
        rng.choice(BENCHMARKS), spec


#: A full run's sampling spec, and two sampled runs' specs.
SAMPLING_CHOICES = (None, SamplingSpec(), SamplingSpec(max_intervals=3))


class TestFullRunReplay:
    """Cold, warm-replayed and cache-disabled full runs are bit-identical."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cold_warm_and_uncached_agree(self, tmp_path, seed):
        config, benchmark, budget = _full_scenario(seed)
        task = SimTask(config, benchmark, budget)
        with temporary_cache_dir(tmp_path / "store"):
            clear_process_caches()
            cold = _run_task(task)
            clear_process_caches()        # "new process": disk tier only
            hits_before = RESULT_CACHE_STATS.hits
            warm = _run_task(task)
            assert RESULT_CACHE_STATS.hits == hits_before + 1, \
                "warm run did not replay the persisted result"
        with temporary_cache_dir(tmp_path / "off", enabled=False):
            clear_process_caches()
            uncached = _run_task(task)
        clear_process_caches()
        _assert_identical(warm, cold, "warm replay")
        _assert_identical(uncached, cold, "cache-disabled run")

    @settings(max_examples=40, deadline=None)
    @given(
        budget_a=st.integers(min_value=1, max_value=10_000),
        budget_b=st.integers(min_value=1, max_value=10_000),
        l1_a=st.sampled_from([1024, 2048, 4096]),
        l1_b=st.sampled_from([1024, 2048, 4096]),
        seed_a=st.integers(min_value=0, max_value=5),
        seed_b=st.integers(min_value=0, max_value=5),
        sampling_a=st.sampled_from(SAMPLING_CHOICES),
        sampling_b=st.sampled_from(SAMPLING_CHOICES),
    )
    def test_result_keys_collide_only_for_identical_runs(
            self, budget_a, budget_b, l1_a, l1_b, seed_a, seed_b,
            sampling_a, sampling_b):
        """A stale replay is impossible by construction: result keys are
        equal exactly when every piece of key material is equal."""
        config_a = make_sim_config(l1_size_bytes=l1_a)
        config_b = make_sim_config(l1_size_bytes=l1_b)
        key_a = result_key(config_a, "gzip", seed_a, budget_a, sampling_a)
        key_b = result_key(config_b, "gzip", seed_b, budget_b, sampling_b)
        same = ((budget_a, l1_a, seed_a, sampling_a)
                == (budget_b, l1_b, seed_b, sampling_b))
        assert (key_a == key_b) == same


class TestBudgetEditPrefixRestore:
    """A budget-edited sampled rerun is bit-identical to a from-scratch
    run of the new budget, whether or not it restored a positioned
    checkpoint along the way."""

    @pytest.mark.parametrize("seed", range(4))
    def test_cold_warm_and_prefix_restored_agree(self, tmp_path, seed):
        original, edited_config, benchmark, spec = _sampled_scenario(seed)
        # Control: what the edited budget produces with no cache at all.
        with temporary_cache_dir(tmp_path / "off", enabled=False):
            clear_process_caches()
            control = _execute_sampled(edited_config, benchmark, spec=spec)
        edited = SimTask(edited_config, benchmark, sampled=True,
                         sampling=spec)
        with temporary_cache_dir(tmp_path / "store"):
            # Cold run of the original budget publishes positioned
            # checkpoints at its skip targets.
            clear_process_caches()
            _execute_sampled(original, benchmark, spec=spec)
            # "New process", edited budget: restores the deepest
            # persisted prefix at or before each skip target.
            clear_process_caches()
            prefix_restored = _run_task(edited)
            # Warm replay of the edited budget: pure result replay.
            clear_process_caches()
            hits_before = RESULT_CACHE_STATS.hits
            warm = _run_task(edited)
            assert RESULT_CACHE_STATS.hits == hits_before + 1, \
                "warm run did not replay the persisted result"
        clear_process_caches()
        _assert_identical(prefix_restored, control, "prefix-restored run")
        _assert_identical(warm, control, "warm replay")

    def test_budget_edit_restores_a_positioned_checkpoint(self, tmp_path):
        """Acceptance: the edited run *reuses* a persisted prefix (the
        counter proves it restored a positioned checkpoint instead of
        re-skipping from offset 0) and publishes deeper ones itself."""
        spec = SamplingSpec(max_intervals=4)
        original = make_sim_config(engine="clgp", max_instructions=6000,
                                   warmup_instructions=4000)
        edited = original.with_overrides(max_instructions=9000)
        assert position_key(original) == position_key(edited)
        counts = DEFAULT_STORE.counts
        with temporary_cache_dir(tmp_path / "store"):
            clear_process_caches()
            hits, publishes = (counts[POSITIONED, "hit"],
                               counts[POSITIONED, "publish"])
            _execute_sampled(original, "gcc", spec=spec)
            assert counts[POSITIONED, "publish"] >= publishes + 1
            assert counts[POSITIONED, "hit"] == hits  # nothing to reuse yet

            clear_process_caches()
            hits, publishes = (counts[POSITIONED, "hit"],
                               counts[POSITIONED, "publish"])
            _execute_sampled(edited, "gcc", spec=spec)
            assert counts[POSITIONED, "hit"] >= hits + 1
            assert counts[POSITIONED, "publish"] >= publishes + 1
        clear_process_caches()

    def test_position_key_neutralizes_run_length_only(self):
        base = make_sim_config(max_instructions=6000,
                               warmup_instructions=4000)
        assert position_key(base) == position_key(
            base.with_overrides(max_instructions=9000, max_cycles=10**9))
        # Anything that shapes warm-up or skip state must split the key.
        assert position_key(base) != position_key(
            base.with_overrides(warmup_instructions=2000))
        assert position_key(base) != position_key(
            base.with_overrides(l1_size_bytes=1024))
        assert position_key(base) != position_key(
            base.with_overrides(engine="fdp"))
        # Default warm-up derives from the budget: budgets whose resolved
        # warm-ups differ must not share positioned checkpoints.
        floating = make_sim_config(max_instructions=20_000,
                                   warmup_instructions=None)
        assert position_key(floating) != position_key(
            floating.with_overrides(max_instructions=40_000))
