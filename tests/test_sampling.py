"""Tests for the sampled-simulation subsystem (BBV, selection, runner)."""

import math
import pickle

import pytest

from repro.cache import active_store
from repro.cache.keys import content_key, stable_repr
from repro.context import current_context, use_context
from repro.sampling import (
    SamplingSpec,
    get_selection,
    kmeans,
    profile_workload,
    project_counts,
    select_intervals,
    select_stratified,
)
from repro.sampling.sampled import _execute_sampled, _segments
from repro.sampling.checkpoint import POSITIONED, CheckpointStore
from repro.sampling.proxy import functional_profile, proxy_cycles
from repro.simulator.runner import get_workload
from repro.simulator.simulator import Simulator
from repro.simulator.testing import make_sim_config


# ----------------------------------------------------------------------
# interval iteration / BBV profiling
# ----------------------------------------------------------------------
class TestIntervalIterator:
    def test_intervals_cover_the_budget_exactly(self, medium_workload):
        intervals = profile_workload(medium_workload, 5500, 1000).intervals
        assert [iv.length for iv in intervals] == [1000, 1000, 1000, 1000,
                                                   1000, 500]
        assert [iv.start_instruction for iv in intervals] == [
            0, 1000, 2000, 3000, 4000, 5000]
        for interval in intervals:
            assert sum(interval.block_counts.values()) == interval.length

    def test_iteration_is_deterministic(self, medium_workload):
        a = profile_workload(medium_workload, 3000, 500).intervals
        b = profile_workload(medium_workload, 3000, 500).intervals
        assert [iv.block_counts for iv in a] == [iv.block_counts for iv in b]

    def test_rejects_bad_interval_length(self, medium_workload):
        with pytest.raises(ValueError):
            profile_workload(medium_workload, 1000, 0)


class TestBBVProfile:
    def test_profile_shape(self, medium_workload):
        profile = profile_workload(medium_workload, 4000, 1000)
        assert len(profile) == 4
        assert profile.workload == medium_workload.name
        assert profile.total_instructions == 4000

    def test_vectors_are_normalised(self, medium_workload):
        profile = profile_workload(medium_workload, 4000, 1000)
        for vector in profile.vectors(dim=8):
            assert sum(vector) == pytest.approx(1.0)
            assert len(vector) == 8

    def test_projection_deterministic(self):
        counts = {0x1000: 40, 0x2040: 60}
        assert project_counts(counts, dim=4) == project_counts(counts, dim=4)
        assert sum(project_counts(counts, dim=4)) == pytest.approx(1.0)

    def test_interval_weights_sum_to_one(self, medium_workload):
        profile = profile_workload(medium_workload, 4500, 1000)
        assert sum(profile.interval_weights()) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# k-means and selection
# ----------------------------------------------------------------------
class TestKMeans:
    def test_deterministic_for_a_seed(self):
        vectors = [[float(i % 3), float(i % 5)] for i in range(20)]
        assert kmeans(vectors, 3, seed=7) == kmeans(vectors, 3, seed=7)

    def test_separates_obvious_clusters(self):
        vectors = [[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5
        labels = kmeans(vectors, 2, seed=1)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_k_clamped_to_population(self):
        labels = kmeans([[0.0], [1.0]], 10, seed=1)
        assert len(labels) == 2

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            kmeans([[0.0]], 0)


class TestSelection:
    def test_kmeans_selection_weights_sum_to_one(self, medium_workload):
        profile = profile_workload(medium_workload, 8000, 1000)
        selection = select_intervals(profile, max_intervals=3)
        assert selection.k <= 3
        assert sum(iv.weight for iv in selection.intervals) == pytest.approx(1.0)
        starts = [iv.start_instruction for iv in selection.intervals]
        assert starts == sorted(starts)

    def test_stratified_selection_includes_interval_zero(self, medium_workload):
        config = make_sim_config(max_instructions=8000)
        profile = functional_profile(medium_workload, config, 8000, 1000)
        selection = select_stratified(
            profile, proxy_cycles(profile, config), max_intervals=4)
        assert selection.intervals[0].index == 0
        assert selection.intervals[0].cluster_size == 1
        assert sum(iv.weight for iv in selection.intervals) == pytest.approx(1.0)
        assert all(iv.proxy > 0 for iv in selection.intervals)

    def test_stratified_proxy_mass_covers_every_interval(self, medium_workload):
        config = make_sim_config(max_instructions=8000)
        profile = functional_profile(medium_workload, config, 8000, 1000)
        proxies = proxy_cycles(profile, config)
        selection = select_stratified(profile, proxies, max_intervals=4)
        assert (sum(iv.cluster_proxy_mass for iv in selection.intervals)
                == pytest.approx(sum(proxies)))

    def test_selection_is_deterministic(self, medium_workload):
        spec = SamplingSpec()
        config = make_sim_config(max_instructions=10_000)
        a = get_selection(medium_workload, 10_000, spec,
                          store=CheckpointStore(), config=config)
        b = get_selection(medium_workload, 10_000, spec,
                          store=CheckpointStore(), config=config)
        assert a == b


# ----------------------------------------------------------------------
# sampling spec
# ----------------------------------------------------------------------
class TestSamplingSpec:
    def test_derived_interval_length(self):
        spec = SamplingSpec()
        assert spec.resolved_interval_length(20_000) == 1000
        assert spec.resolved_interval_length(4_000) == 500   # floor applies
        assert spec.resolved_interval_length(100) == 100     # tiny budgets

    def test_explicit_interval_length(self):
        assert SamplingSpec(interval_length=750).resolved_interval_length(1) == 750
        with pytest.raises(ValueError):
            SamplingSpec(interval_length=-5).resolved_interval_length(1000)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SamplingSpec(method="prophecy")


# ----------------------------------------------------------------------
# the sampled runner
# ----------------------------------------------------------------------
class TestRunSampled:
    @pytest.mark.parametrize("method", ["stratified", "kmeans"])
    def test_sampled_run_is_deterministic(self, medium_workload, method):
        config = make_sim_config(engine="clgp", max_instructions=8000)
        spec = SamplingSpec(method=method)
        a = _execute_sampled(config, medium_workload, spec=spec,
                             store=CheckpointStore())
        b = _execute_sampled(config, medium_workload, spec=spec,
                             store=CheckpointStore())
        assert a == b

    def test_sampled_run_estimates_the_full_run(self, medium_workload):
        config = make_sim_config(engine="clgp", max_instructions=10_000)
        full = Simulator(config, medium_workload).run()
        sampled = _execute_sampled(config, medium_workload,
                                   store=CheckpointStore())
        # The sampled estimate is normalised to the exact budget; the full
        # run may overshoot by up to a commit-width of instructions.
        assert sampled.committed_instructions == config.max_instructions
        assert full.committed_instructions >= config.max_instructions
        # The estimate is statistical; a loose envelope guards against
        # gross breakage without pinning the exact value.
        assert sampled.ipc == pytest.approx(full.ipc, rel=0.15)
        assert sampled.extras["sampled"] == 1.0
        assert 0 < sampled.extras["sampling_coverage"] < 1

    def test_sampled_metadata(self, medium_workload):
        config = make_sim_config(max_instructions=8000)
        result = _execute_sampled(config, medium_workload,
                                  store=CheckpointStore())
        assert result.workload == medium_workload.name
        assert result.extras["sampling_intervals"] >= 1
        assert (result.extras["sampled_instructions"]
                < result.committed_instructions)


# ----------------------------------------------------------------------
# the segment walk: partitioning, checkpoint reuse, replay guard
# ----------------------------------------------------------------------
TOTAL = 40_000

#: gcc's k-means selection at ``max_instructions=40000`` (engine
#: "clgp") is three singleton segments, each reached by a jump.
ALL_JUMPED = SamplingSpec(max_intervals=3, method="kmeans")


def run_sampled(benchmark, spec, store=None):
    config = make_sim_config(engine="clgp", max_instructions=TOTAL)
    return _execute_sampled(config, benchmark, spec=spec,
                            store=store if store is not None
                            else CheckpointStore())


def assert_identical(a, b):
    assert a == b
    assert pickle.dumps(a) == pickle.dumps(b)


def under(**policy):
    """Run the block under the current context overridden by ``policy``."""
    return use_context(current_context().override(**policy))


@pytest.fixture
def fresh_measurements():
    """Disable measurement replay so every run really measures (the
    artifact store is shared session-wide)."""
    with under(result_cache=False):
        yield


class _Interval:
    def __init__(self, start, length):
        self.start_instruction = start
        self.length = length


@pytest.mark.usefixtures("fresh_measurements")
class TestSegments:
    def test_empty(self):
        assert _segments([]) == []

    def test_singleton(self):
        assert _segments([_Interval(500, 100)]) == [(0,)]

    def test_all_adjacent_is_one_segment(self):
        intervals = [_Interval(0, 100), _Interval(100, 100),
                     _Interval(200, 100)]
        assert _segments(intervals) == [(0, 1, 2)]

    def test_mixed_breaks_on_gaps(self):
        intervals = [_Interval(0, 100), _Interval(100, 100),
                     _Interval(500, 100), _Interval(600, 100),
                     _Interval(900, 100)]
        assert _segments(intervals) == [(0, 1), (2, 3), (4,)]

    def test_touching_but_reordered_lengths(self):
        intervals = [_Interval(0, 250), _Interval(250, 100),
                     _Interval(351, 100)]
        assert _segments(intervals) == [(0, 1), (2,)]


@pytest.mark.usefixtures("fresh_measurements")
class TestSegmentWalk:
    def test_store_off_serial_walk_resumes_previous_segment(self):
        # Segments are measured in order: each jump restores the
        # post-skip state the previous segment published, and with no
        # store nothing is snapshotted for the last segment.
        store = CheckpointStore()
        with under(cache=False):
            run_sampled("gcc", ALL_JUMPED, store=store)
            config = make_sim_config(engine="clgp", max_instructions=TOTAL)
            selection = get_selection(get_workload("gcc"), TOTAL,
                                      ALL_JUMPED, store=store, config=config)
        later = len(_segments(selection.intervals)) - 1
        assert later >= 2
        assert store.counts[POSITIONED, "hit"] == later
        assert store.counts[POSITIONED, "publish"] == later

    def test_store_off_serial_walk_restores_the_warm_state(self):
        # The warm state is the positioned checkpoint at offset 0: once it
        # is published, the first jumped segment restores it instead of
        # warming up, and the result does not change.
        config = make_sim_config(engine="clgp", max_instructions=TOTAL)
        with under(cache=False):
            cold_store = CheckpointStore()
            cold = run_sampled("gcc", ALL_JUMPED, store=cold_store)
            store = CheckpointStore()
            store.warm_checkpoint(config, get_workload("gcc"))
            warm = run_sampled("gcc", ALL_JUMPED, store=store)
        assert store.counts[POSITIONED, "hit"] \
            == cold_store.counts[POSITIONED, "hit"] + 1
        assert_identical(cold, warm)


@pytest.mark.usefixtures("fresh_measurements")
class TestReplayGuard:
    """Replayed measurement payloads are validated, not trusted."""

    @staticmethod
    def _measurement_key(config, workload, spec):
        return content_key(
            "sampled-measurements", stable_repr(config),
            workload.name, workload.profile.seed, TOTAL, stable_repr(spec),
        )

    @pytest.mark.parametrize("corrupt", [
        lambda weights: weights[:-1],                 # short list
        lambda weights: [math.nan] + list(weights[1:]),   # non-finite
        lambda weights: ["0.25"] + list(weights[1:]),     # non-numeric
        lambda weights: [True] + list(weights[1:]),       # bool imposter
    ])
    def test_bad_weights_force_remeasure(self, corrupt):
        spec = SamplingSpec(max_intervals=3)
        with under(result_cache=True):   # replay on for this test
            clean = run_sampled("gcc", spec)
            config = make_sim_config(engine="clgp", max_instructions=TOTAL)
            workload = get_workload("gcc")
            disk = active_store()
            key = self._measurement_key(config, workload, spec)
            payload = disk.get("measurement", key)
            assert payload is not None and len(payload["weights"]) == 3
            disk.put("measurement", key,
                     dict(payload, weights=corrupt(list(payload["weights"]))))
            again = run_sampled("gcc", spec)
        assert_identical(clean, again)
        # The recompute must have replaced the corrupt payload.
        healed = disk.get("measurement", key)
        assert healed["weights"] == payload["weights"]

    def test_good_payload_replays(self):
        spec = SamplingSpec(max_intervals=3)
        with under(result_cache=True):
            first = run_sampled("gcc", spec)
            second = run_sampled("gcc", spec)
        assert_identical(first, second)
