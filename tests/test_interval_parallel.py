"""Differential tests for intra-run interval parallelism.

The contract under test: a sampled run whose interval measurements are
fanned across the shared pool (``interval_jobs >= 2``) returns a result
**byte-identical** to the serial walk -- for every selection shape
(single segment, all-jumped singletons, mixed), under worker-kill
chaos, and with graceful serial fallback whenever the parallel path is
unavailable.  Also covers the PR's service-layer satellites: the fair
scheduler forgetting idle clients, the client honoring the advertised
Retry-After, and the sampled replay guard validating weights.
"""

import math
import pickle

import pytest

from repro.api import ExecutionOptions, ExperimentSpec, Session
from repro.cache import active_store
from repro.cache.keys import content_key, stable_repr
from repro.context import current_context, use_context
from repro.sampling import SamplingSpec, get_selection
from repro.sampling.checkpoint import POSITIONED, CheckpointStore
from repro.sampling.sampled import (
    _execute_sampled,
    _measure_intervals_parallel,
    _segments,
    ensure_compiled_trace,
)
from repro.service import codec
from repro.service.client import RetryLater, ServiceClient
from repro.service.codec import CodecError
from repro.service.scheduler import FairScheduler
from repro.simulator import runner
from repro.simulator.plan import SimTask
from repro.simulator.runner import get_workload, shutdown_pool
from repro.simulator.testing import make_sim_config

TOTAL = 40_000

#: Real selection shapes at ``max_instructions=40000`` (engine "clgp"):
#: gcc/stratified k=4 -> segments [(0,1,2),(3,)] (mixed), gcc/kmeans
#: k=3 -> all singleton jumps, gzip/stratified k=4 -> one contiguous
#: segment.  Pool workers recompute the selection deterministically, so
#: the differential tests must use spec-derived selections, never
#: hand-built ones.
MIXED = SamplingSpec(max_intervals=4)
ALL_JUMPED = SamplingSpec(max_intervals=3, method="kmeans")
ONE_SEGMENT = SamplingSpec(max_intervals=4)


def run_sampled(benchmark, spec, interval_jobs=None, store=None):
    config = make_sim_config(engine="clgp", max_instructions=TOTAL)
    return _execute_sampled(config, benchmark, spec=spec,
                            store=store if store is not None
                            else CheckpointStore(),
                            interval_jobs=interval_jobs)


def assert_identical(serial, parallel):
    assert serial == parallel
    assert pickle.dumps(serial) == pickle.dumps(parallel)


def under(**policy):
    """Run the block under the current context overridden by ``policy``."""
    return use_context(current_context().override(**policy))


@pytest.fixture
def pool_path(monkeypatch):
    """Force the pool: the overhead-aware planner would otherwise run
    these small segment plans inline."""
    monkeypatch.setattr(runner, "_plan_prefers_inline",
                        lambda tasks, jobs: False)


@pytest.fixture(autouse=True)
def _fresh_measurements():
    """Disable measurement replay so both runs of a pair really measure
    (the artifact store is shared session-wide), and leave no pool
    behind for unrelated tests."""
    try:
        with under(result_cache=False):
            yield
    finally:
        shutdown_pool()


# ----------------------------------------------------------------------
# segment partitioning (pure)
# ----------------------------------------------------------------------
class _Interval:
    def __init__(self, start, length):
        self.start_instruction = start
        self.length = length


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


# ----------------------------------------------------------------------
# differential: parallel == serial, bit for bit
# ----------------------------------------------------------------------
class TestParallelMatchesSerial:
    def test_mixed_segments(self, pool_path):
        serial = run_sampled("gcc", MIXED)
        parallel = run_sampled("gcc", MIXED, interval_jobs=4)
        assert_identical(serial, parallel)

    def test_all_jumped_segments(self, pool_path):
        serial = run_sampled("gcc", ALL_JUMPED)
        parallel = run_sampled("gcc", ALL_JUMPED, interval_jobs=2)
        assert_identical(serial, parallel)

    def test_single_contiguous_segment_falls_back(self):
        # gzip's stratified selection is one contiguous run: nothing to
        # fan out, the parallel path declines and the serial walk runs.
        store = CheckpointStore()
        config = make_sim_config(engine="clgp", max_instructions=TOTAL)
        workload = get_workload("gzip")
        ensure_compiled_trace(
            workload, max(TOTAL, config.resolved_warmup_instructions()))
        selection = get_selection(workload, TOTAL, ONE_SEGMENT,
                                  store=store, config=config)
        assert len(_segments(selection.intervals)) == 1
        assert _measure_intervals_parallel(
            config, workload, selection, ONE_SEGMENT, store, TOTAL, 4,
        ) is None
        serial = run_sampled("gzip", ONE_SEGMENT)
        parallel = run_sampled("gzip", ONE_SEGMENT, interval_jobs=4)
        assert_identical(serial, parallel)

    def test_k_equals_one_falls_back(self):
        spec = SamplingSpec(max_intervals=1)
        serial = run_sampled("gcc", spec)
        parallel = run_sampled("gcc", spec, interval_jobs=4)
        assert_identical(serial, parallel)

    def test_store_disabled_falls_back_to_serial(self):
        # Workers share warm/positioned checkpoints through the artifact
        # store; without one the parallel path declines gracefully.
        with under(cache=False):
            memory_only = CheckpointStore()
            config = make_sim_config(engine="clgp", max_instructions=TOTAL)
            workload = get_workload("gcc")
            ensure_compiled_trace(
                workload, max(TOTAL, config.resolved_warmup_instructions()))
            selection = get_selection(workload, TOTAL, MIXED,
                                      store=memory_only, config=config)
            assert _measure_intervals_parallel(
                config, workload, selection, MIXED, memory_only, TOTAL, 4,
            ) is None
            serial = run_sampled("gcc", MIXED)
            parallel = run_sampled("gcc", MIXED, interval_jobs=4)
        assert_identical(serial, parallel)

    def test_store_off_serial_walk_resumes_previous_segment(self):
        # The serial walk runs the segment path in order: each jump
        # restores the post-skip state the previous segment published,
        # and with no store nothing is snapshotted for the last segment.
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

    def test_worker_kill_chaos_still_identical(self):
        # Killed workers are retried; a terminally failed segment drops
        # the whole run to the serial walk.  Either way the result must
        # match the clean serial run bit for bit.
        serial = run_sampled("gcc", ALL_JUMPED)
        try:
            with under(faults="worker_kill:0.5,seed:3"):
                parallel = run_sampled("gcc", ALL_JUMPED, interval_jobs=2)
        finally:
            shutdown_pool()
        assert_identical(serial, parallel)


# ----------------------------------------------------------------------
# replay guard: weights are validated, not trusted
# ----------------------------------------------------------------------
class TestReplayGuard:
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


# ----------------------------------------------------------------------
# option plumbing: validation, codec policy, session inheritance
# ----------------------------------------------------------------------
class TestIntervalJobsOption:
    def test_valid_values(self):
        assert ExecutionOptions(interval_jobs=None).interval_jobs is None
        assert ExecutionOptions(interval_jobs=0).interval_jobs == 0
        assert ExecutionOptions(interval_jobs=3).interval_jobs == 3

    @pytest.mark.parametrize("bad", [-1, 1.5, "2"])
    def test_invalid_values(self, bad):
        with pytest.raises(ValueError, match="interval_jobs"):
            ExecutionOptions(interval_jobs=bad)

    def test_codec_rejects_client_interval_jobs(self):
        with pytest.raises(CodecError, match="server policy"):
            codec.decode_options({"interval_jobs": 2})

    def test_request_key_ignores_interval_jobs(self):
        spec = ExperimentSpec(scheme="base", benchmarks=("gzip",),
                              max_instructions=800)
        assert codec.request_key(spec, ExecutionOptions(sampled=True)) \
            == codec.request_key(
                spec, ExecutionOptions(sampled=True, interval_jobs=8))


class TestSessionInheritance:
    def _plan(self, benchmarks=("gzip",)):
        spec = ExperimentSpec(scheme="base", benchmarks=benchmarks,
                              max_instructions=800)
        return spec.to_plan(sampled=True)

    def test_single_task_plan_inherits_session_jobs(self):
        with Session(jobs=2) as session:
            plan = session._with_interval_jobs(
                self._plan(), ExecutionOptions(sampled=True), jobs=2)
        assert [task.interval_jobs for task in plan.tasks] == [2]

    def test_multi_task_plan_stays_serial_by_default(self):
        with Session(jobs=2) as session:
            plan = self._plan(benchmarks=("gzip", "mcf"))
            out = session._with_interval_jobs(
                plan, ExecutionOptions(sampled=True), jobs=2)
        assert out is plan
        assert all(task.interval_jobs is None for task in out.tasks)

    def test_explicit_interval_jobs_wins_on_multi_task_plans(self):
        with Session(jobs=2) as session:
            out = session._with_interval_jobs(
                self._plan(benchmarks=("gzip", "mcf")),
                ExecutionOptions(sampled=True, interval_jobs=3), jobs=2)
        assert [task.interval_jobs for task in out.tasks] == [3, 3]

    def test_interval_jobs_one_is_a_no_op(self):
        with Session(jobs=4) as session:
            plan = self._plan()
            out = session._with_interval_jobs(
                plan, ExecutionOptions(sampled=True, interval_jobs=1),
                jobs=4)
        assert out is plan

    def test_full_runs_never_stamped(self):
        spec = ExperimentSpec(scheme="base", benchmarks=("gzip",),
                              max_instructions=800)
        plan = spec.to_plan(sampled=False)
        with Session(jobs=4) as session:
            out = session._with_interval_jobs(
                plan, ExecutionOptions(), jobs=4)
        assert out is plan
        assert all(isinstance(task, SimTask)
                   and task.interval_jobs is None for task in out.tasks)


# ----------------------------------------------------------------------
# satellite: the fair scheduler forgets idle clients
# ----------------------------------------------------------------------
class TestSchedulerForgetsIdleClients:
    def test_churning_identities_do_not_accumulate(self):
        scheduler = FairScheduler(quota=8, max_queue_depth=256)
        for i in range(100):
            client = f"client-{i}"
            scheduler.submit(client, f"job-{i}")
            assert scheduler.next_ready() == f"job-{i}"
            scheduler.finish(client, seconds=0.01)
        assert scheduler._queues == {}
        assert scheduler._rotation == []
        assert scheduler._charged == {}
        assert scheduler.queued == 0

    def test_client_with_queued_work_is_kept(self):
        scheduler = FairScheduler()
        scheduler.submit("a", "j1")
        scheduler.submit("a", "j2")
        assert scheduler.next_ready() == "j1"
        scheduler.finish("a")
        assert "a" in scheduler._queues
        assert "a" in scheduler._rotation
        assert scheduler.next_ready() == "j2"
        scheduler.finish("a")
        assert scheduler._queues == {}
        assert scheduler._rotation == []

    def test_running_client_survives_empty_queue_sweeps(self):
        scheduler = FairScheduler()
        scheduler.submit("a", "j1")
        scheduler.submit("b", "j2")
        assert scheduler.next_ready() == "j1"
        # "a" is running with an empty queue: sweeps must keep it until
        # finish() releases the charge, else finish() would miss it.
        assert scheduler.next_ready() == "j2"
        assert scheduler.next_ready() is None
        assert "a" in scheduler._rotation
        scheduler.finish("a")
        scheduler.finish("b")
        assert scheduler._rotation == []
        assert scheduler._queues == {}

    def test_discard_forgets_too(self):
        scheduler = FairScheduler()
        scheduler.submit("a", "j1")
        assert scheduler.discard("a", "j1")
        assert scheduler._queues == {}
        assert scheduler._rotation == []

    def test_round_robin_still_fair(self):
        scheduler = FairScheduler()
        for job in ("a1", "a2", "a3"):
            scheduler.submit("a", job)
        scheduler.submit("b", "b1")
        order = [scheduler.next_ready() for _ in range(4)]
        assert order == ["a1", "b1", "a2", "a3"]


# ----------------------------------------------------------------------
# satellite: the client honors the advertised Retry-After
# ----------------------------------------------------------------------
class TestClientBackoff:
    def _client_with_responses(self, monkeypatch, responses, sleeps):
        client = ServiceClient(client_id="t")
        queue = list(responses)

        def fake_request(method, path, body=None, stream=False):
            return queue.pop(0)

        monkeypatch.setattr(client, "_request", fake_request)
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        return client

    @staticmethod
    def _spec():
        return ExperimentSpec(scheme="base", benchmarks=("gzip",),
                              max_instructions=800)

    def test_sleeps_the_full_advertised_backoff(self, monkeypatch):
        sleeps = []
        client = self._client_with_responses(monkeypatch, [
            (429, {"retry-after": "37"}, b'{"error": "busy"}'),
            (200, {}, b'{"job": "abc"}'),
        ], sleeps)
        assert client.submit(self._spec(), wait_on_quota=True) \
            == {"job": "abc"}
        assert sleeps == [37.0]

    def test_max_backoff_caps_the_sleep(self, monkeypatch):
        sleeps = []
        client = self._client_with_responses(monkeypatch, [
            (429, {"retry-after": "90"}, b'{"error": "busy"}'),
            (429, {"retry-after": "2"}, b'{"error": "busy"}'),
            (200, {}, b'{"job": "abc"}'),
        ], sleeps)
        assert client.submit(self._spec(), wait_on_quota=True,
                             max_backoff=5.0) == {"job": "abc"}
        assert sleeps == [5.0, 2.0]

    def test_without_wait_on_quota_raises(self, monkeypatch):
        sleeps = []
        client = self._client_with_responses(monkeypatch, [
            (429, {"retry-after": "7"}, b'{"error": "busy"}'),
        ], sleeps)
        with pytest.raises(RetryLater) as excinfo:
            client.submit(self._spec())
        assert excinfo.value.retry_after == 7
        assert sleeps == []
