"""Tests for the batch kernels (:mod:`repro.kernels`) and the batched
functional passes built on them.

The kernels are the only implementation of the BBV, proxy and
functional-skip passes, and their results are persisted and compared
across processes, so the end-to-end tests pin them to golden digests.
The digests were captured when the block-by-block interpreters these
passes replaced still existed and agreed with them bit for bit (numpy
fast path and pure-python kernels alike).  A digest hashes canonical
ints -- interval records in key order, feature counts, machine state --
never pickle bytes.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro import kernels
from repro.cache.traces import ensure_compiled_trace
from repro.memory.cache import Cache
from repro.sampling import proxy as proxy_module
from repro.sampling.bbv import profile_workload
from repro.simulator.config import SimulationConfig
from repro.simulator.runner import clear_process_caches, get_workload
from repro.simulator.simulator import Simulator


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# grouped_load_miss_counts (proxy base pass)
# ----------------------------------------------------------------------
def test_grouped_load_miss_counts_empty_and_certain():
    for l2_rate in (0.0, 1.0):
        d, dm = kernels.grouped_load_miss_counts(
            [(0, (1.0, 1.0)), (1, ()), (0, (0.0,))], 2, 5, 42, l2_rate
        )
        assert d == [2, 0]
        assert dm == ([2, 0] if l2_rate == 1.0 else [0, 0])


# ----------------------------------------------------------------------
# TwoLevelLRUReplay's batched levels vs per-line probes and fills
# ----------------------------------------------------------------------
def _reference_replay(l1, l2, lines):
    """The per-line probe/fill sequence the replay batches."""
    i1 = i2 = 0
    for line in lines:
        if not l1.contains(line):
            i1 += 1
            if not l2.contains(line):
                i2 += 1
            l2.fill(line)
        l1.fill(line)
    return i1, i2


def test_two_level_lru_replay_matches_cache_pair():
    rng = random.Random(4242)
    geometries = [
        (1024, 32, 2, 8192, 64, 8),
        (512, 32, None, 4096, 64, None),
        (256, 16, 1, 2048, 32, 4),
    ]
    for l1_size, l1_line, l1_assoc, l2_size, l2_line, l2_assoc in geometries:
        replay = kernels.TwoLevelLRUReplay(
            l1_size, l1_line, l1_assoc, l2_size, l2_line, l2_assoc
        )
        l1 = Cache("il1", l1_size, line_size=l1_line, associativity=l1_assoc)
        l2 = Cache("ul2", l2_size, line_size=l2_line, associativity=l2_assoc)
        warm = [l1_line * rng.randrange(0, 512) for _ in range(300)]
        replay.warm(warm)
        for line in warm:
            l2.fill(line)
            l1.fill(line)
        for _round in range(5):
            lines = [l1_line * rng.randrange(0, 512) for _ in range(400)]
            assert replay.replay(lines) == _reference_replay(l1, l2, lines)


def test_fill_span_matches_fill_sequence():
    """Contents, each set's LRU order (its key order), statistics and the
    returned misses all match the equivalent ``fill`` sequence."""
    rng = random.Random(7)
    batched = Cache("il1", 1024, line_size=32, associativity=2)
    reference = Cache("il1", 1024, line_size=32, associativity=2)
    for _round in range(20):
        addrs = [4 * rng.randrange(0, 2048) for _ in range(rng.randint(1, 40))]
        inserted = batched.fill_span(addrs)
        missed = []
        for addr in addrs:
            if not reference.contains(addr):
                missed.append(reference.line_address(addr))
            reference.fill(addr)
        assert inserted == missed
        assert ({i: list(s) for i, s in batched._sets.items()}
                == {i: list(s) for i, s in reference._sets.items()})
        assert batched.stats == reference.stats


# ----------------------------------------------------------------------
# end-to-end: batched BBV profiling == the block-by-block walker
# ----------------------------------------------------------------------
BBV_GOLDEN = {
    ("gzip", 10_000, 1000): "077a16fb05d5c2ae",
    ("gzip", 9_999, 257): "cca9b1f6c3098b85",
    ("gzip", 500, 1000): "ff1065c6e8e492ea",
    ("mcf", 10_000, 1000): "fa07739d86464d49",
    ("mcf", 9_999, 257): "64af29eef282a09f",
    ("mcf", 500, 1000): "810e43cd68906157",
}


def _bbv_canonical(profile):
    return (profile.workload, profile.seed, profile.interval_length,
            profile.total_instructions,
            [(r.index, r.start_instruction, r.length,
              tuple(r.block_counts.items())) for r in profile.intervals])


@pytest.mark.parametrize("workload_name", ["gzip", "mcf"])
def test_bbv_profile_batched_matches_walker(workload_name):
    """Interval records, including each interval's first-occurrence key
    order, match what the block-by-block walker produced."""
    clear_process_caches()
    workload = get_workload(workload_name)
    for (name, total, length), golden in BBV_GOLDEN.items():
        if name == workload_name:
            ensure_compiled_trace(workload, total)
            profile = profile_workload(workload, total, length)
            assert _digest(_bbv_canonical(profile)) == golden


# ----------------------------------------------------------------------
# end-to-end: batched proxy pass == the oracle interpreter
# ----------------------------------------------------------------------
PROXY_CONFIGS = [
    SimulationConfig(engine="clgp", technology="0.045um",
                     l1_size_bytes=4096, max_instructions=4000,
                     warmup_instructions=3000),
    SimulationConfig(engine="clgp", technology="0.045um",
                     l1_size_bytes=1024, l1_associativity=1,
                     max_instructions=4000, warmup_instructions=3000),
]
PROXY_GOLDEN = ["a9ecf4d2a6caaa52", "d4b27ff0169a6545"]


@pytest.mark.parametrize("config,golden", zip(PROXY_CONFIGS, PROXY_GOLDEN),
                         ids=["l1-4096", "l1-1024-direct"])
def test_functional_profile_batched_matches_generic(config, golden):
    """Per-interval proxy features match the generic oracle pass's."""
    total, length = 6000, 500
    clear_process_caches()
    workload = get_workload("gzip")
    ensure_compiled_trace(
        workload, max(total, config.resolved_warmup_instructions())
    )
    profile = proxy_module.functional_profile(workload, config, total, length)
    assert _digest((profile.workload, profile.seed, profile.interval_length,
                    profile.total_instructions,
                    [dataclasses.astuple(f) for f in profile.features])) \
        == golden


# ----------------------------------------------------------------------
# end-to-end: batched functional skip == the single-stream stepper
# ----------------------------------------------------------------------
SKIP_GOLDEN = {1300: "d545895243f5c9a1", 2900: "acde950414638946",
               6001: "bdcf4357b4c63292"}
SKIP_RUN_GOLDEN = "fcf50f122abdc3fc"


def _machine_state(sim):
    """Everything a functional skip touches, as canonical ints."""
    prediction = sim.prediction
    partial = prediction._skip_partial
    if partial is not None:
        position, actual, consumed = partial
        partial = (position, dataclasses.astuple(actual), consumed)
    tables = [
        [[(e.tag, e.length, e.next_addr, int(e.terminator_kind), e.confidence)
          for e in bucket] for bucket in table._sets]
        for table in (prediction.predictor.base_table,
                      prediction.predictor.history_table)
    ]
    caches = [
        (sorted((i, sorted(s)) for i, s in cache._sets.items()),
         dataclasses.astuple(cache.stats))
        for cache in (sim.hierarchy.l1, sim.hierarchy.l2)
    ]
    oracle = prediction.oracle
    return (oracle.consumed_instructions, oracle.current_address(),
            prediction.history, prediction.ras.snapshot(), partial, tables,
            caches, sim.backend.dcache._load_index)


def test_functional_skip_batched_matches_generic():
    """Machine state after every skip -- and the timed continuation --
    match the single-stream stepper's."""
    config = PROXY_CONFIGS[0]
    clear_process_caches()
    workload = get_workload("gzip")
    ensure_compiled_trace(workload, 20_000)
    sim = Simulator(config, workload)
    sim.warm_up()
    # Successive targets land mid-block, mid-stream and far past the
    # already-compiled prefix.
    for target, golden in SKIP_GOLDEN.items():
        sim.skip_to(target)
        assert _digest(_machine_state(sim)) == golden
    result = sim.run(500)
    assert _digest(json.dumps(dataclasses.asdict(result), sort_keys=True)) \
        == SKIP_RUN_GOLDEN
