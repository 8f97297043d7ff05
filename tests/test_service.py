"""Experiment-service tests: codec, fair scheduler, HTTP/SSE end-to-end,
dedup economics, quotas/backpressure, chaos, and the concurrent
execution of runs with any policy that the service's scheduler depends
on."""

import gc
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.api import ExecutionOptions, ExperimentSpec, Session
from repro.cache import ArtifactStore
from repro.context import current_context, use_context
from repro.sampling import SamplingSpec
from repro.service import (
    FairScheduler,
    QueueFull,
    QuotaExceeded,
    RetryLater,
    ServerThread,
    ServiceClient,
    ServiceError,
)
from repro.service import codec
from repro.service.codec import CodecError
from repro.simulator import runner

TERMINAL = ("done", "failed", "cancelled")


def small_spec(scheme="CLGP", benchmarks="gcc", instructions=2500, **kw):
    return ExperimentSpec(scheme, benchmarks,
                          max_instructions=instructions, **kw)


@contextmanager
def service(tmp_path, **kwargs):
    with Session(jobs=1, cache_dir=str(tmp_path / "svc-cache")) as session:
        with ServerThread(session, **kwargs) as thread:
            yield thread, session


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_spec_round_trip(self):
        spec = ExperimentSpec(
            ("CLGP", "base+L0"), ("gcc", "perlbmk"), max_instructions=4000,
            l1_sizes=(2048, 4096), config_overrides={"warmup_instructions": 5},
            name="round-trip")
        decoded = codec.decode_spec(codec.encode_spec(spec))
        assert decoded == spec
        assert codec.request_key(decoded) == codec.request_key(spec)

    def test_decode_spec_rejects_unknown_fields(self):
        with pytest.raises(CodecError, match="unknown spec field"):
            codec.decode_spec({"scheme": "CLGP", "turbo": True})

    def test_decode_spec_requires_scheme(self):
        with pytest.raises(CodecError, match="scheme"):
            codec.decode_spec({"benchmarks": "gcc"})

    def test_decode_spec_surfaces_frozen_spec_validation(self):
        with pytest.raises(CodecError, match="unknown scheme"):
            codec.decode_spec({"scheme": "WARP-DRIVE"})
        with pytest.raises(CodecError, match="max_instructions"):
            codec.decode_spec({"scheme": "CLGP", "max_instructions": -1})

    def test_decode_spec_must_be_object(self):
        with pytest.raises(CodecError, match="JSON object"):
            codec.decode_spec(["CLGP"])

    def test_options_round_trip_with_sampling(self):
        options = ExecutionOptions(
            sampled=True, sampling=SamplingSpec(max_intervals=3),
            result_cache=False, task_timeout=4.0, max_retries=1)
        decoded = codec.decode_options(codec.encode_options(options))
        assert decoded == options

    def test_decode_options_rejects_server_policy_fields(self):
        for field, value in (("jobs", 4), ("cache_dir", "/tmp/x"),
                             ("cache", False), ("faults", "worker_kill:1")):
            with pytest.raises(CodecError, match="server policy"):
                codec.decode_options({field: value})

    def test_decode_options_rejects_unknown_sampling_fields(self):
        with pytest.raises(CodecError, match="options.sampling"):
            codec.decode_options({"sampling": {"wat": 1}})

    def test_request_key_ignores_execution_only_options(self):
        spec = small_spec()
        base = codec.request_key(spec, ExecutionOptions())
        assert codec.request_key(
            spec, ExecutionOptions(result_cache=False, task_timeout=9,
                                   max_retries=0)) == base
        assert codec.request_key(spec, ExecutionOptions(sampled=True)) != base

    def test_request_key_separates_specs(self):
        assert codec.request_key(small_spec(scheme="CLGP")) \
            != codec.request_key(small_spec(scheme="base+L0"))

    def test_canonical_json_is_deterministic(self):
        assert codec.canonical_json({"b": 1, "a": [1, 2]}) \
            == b'{"a":[1,2],"b":1}'


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------
class TestFairScheduler:
    def test_round_robin_across_clients(self):
        scheduler = FairScheduler(quota=8, max_queue_depth=64)
        for index in range(3):
            scheduler.submit("chatty", f"chatty-{index}")
        scheduler.submit("quiet", "quiet-0")
        order = [scheduler.next_ready() for _ in range(4)]
        # The quiet client's single job is served in the first sweep,
        # not behind the chatty client's whole backlog.
        assert "quiet-0" in order[:2]
        assert order.count(None) == 0

    def test_quota_counts_queued_and_running(self):
        scheduler = FairScheduler(quota=2, max_queue_depth=64)
        scheduler.submit("c", "j1")
        scheduler.submit("c", "j2")
        with pytest.raises(QuotaExceeded):
            scheduler.submit("c", "j3")
        assert scheduler.next_ready() == "j1"   # running now, still charged
        with pytest.raises(QuotaExceeded):
            scheduler.submit("c", "j3")
        scheduler.finish("c")
        scheduler.submit("c", "j3")   # released -> accepted

    def test_queue_depth_backpressure(self):
        scheduler = FairScheduler(quota=8, max_queue_depth=2)
        scheduler.submit("a", "j1")
        scheduler.submit("b", "j2")
        with pytest.raises(QueueFull) as excinfo:
            scheduler.submit("c", "j3")
        assert excinfo.value.retry_after >= 1

    def test_retry_after_tracks_observed_durations(self):
        scheduler = FairScheduler(quota=8, max_queue_depth=64)
        for _ in range(20):
            scheduler.observe_duration(60.0)
        scheduler.submit("a", "j1")
        assert scheduler.retry_after() > 10
        assert scheduler.retry_after() <= 120

    def test_discard_releases_quota(self):
        scheduler = FairScheduler(quota=1, max_queue_depth=8)
        scheduler.submit("a", "j1")
        assert scheduler.discard("a", "j1") is True
        scheduler.submit("a", "j2")   # quota free again
        assert scheduler.discard("a", "missing") is False


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
# client: the advertised Retry-After is honored
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


# ----------------------------------------------------------------------
# concurrent execution: no run waits for another's policy
# ----------------------------------------------------------------------
class TestExecutionGate:
    def test_same_policy_submissions_run_concurrently(self, tmp_path):
        with Session(jobs=1, cache_dir=str(tmp_path / "cache")) as session:
            second_started = threading.Event()
            overlaps = []

            def first_listener(event):
                if event.kind == "task":
                    overlaps.append(second_started.wait(30))

            first = session.submit(
                small_spec(benchmarks=("gcc", "perlbmk"), name="conc-1"))
            first.add_listener(first_listener)
            second = session.submit(
                small_spec(scheme="base+L0", name="conc-2"))

            # Watch status, not result: *started* is what must overlap.
            def watch():
                while second.status() == "queued":
                    time.sleep(0.01)
                second_started.set()

            poller = threading.Thread(target=watch, daemon=True)
            poller.start()
            first.result()
            second.result()
            poller.join(5)
            assert overlaps and all(overlaps), \
                "second same-policy run never started while first ran"

    def test_conflicting_policies_run_concurrently_and_correctly(
            self, tmp_path, monkeypatch):
        """Two sessions with different stores and fault plans fan out over
        the shared pool at the same time; each matches its solo run, and
        the chaotic run's corruption never reaches the clean run's store."""
        monkeypatch.setattr(runner, "_plan_prefers_inline",
                            lambda tasks, jobs: False)
        spec = small_spec(scheme=("base", "CLGP"),
                          benchmarks=("gzip", "mcf", "eon"),
                          instructions=1500, name="policies")
        with Session(cache=False) as alone:
            solo = alone.run(spec).results
        store_a, store_b = tmp_path / "a", tmp_path / "b"
        with Session(jobs=2, cache_dir=str(store_a)) as session_a, \
                Session(jobs=2, cache_dir=str(store_b)) as session_b:
            chaotic = session_a.submit(spec, ExecutionOptions(
                faults="worker_kill:0.5,artifact_corrupt:1.0,seed:3",
                max_retries=10))
            clean = session_b.submit(spec)
            deadline = time.monotonic() + 60
            while not chaotic.status() == clean.status() == "running":
                assert chaotic.status() not in TERMINAL \
                    and clean.status() not in TERMINAL, \
                    "one run finished before the other started"
                assert time.monotonic() < deadline
                time.sleep(0.001)
            chaotic_result = chaotic.result(timeout=120)
            assert chaotic_result.results == solo
            assert clean.result(timeout=120).results == solo
        assert chaotic_result.task_retries > 0   # seed 3 kills a worker
        assert ArtifactStore(store_a).fsck().corrupt > 0
        assert ArtifactStore(store_b).fsck().corrupt == 0

    def test_result_cache_off_run_finishes_inside_a_default_run(
            self, tmp_path, monkeypatch):
        """A run with another result-replay policy neither waits for nor
        is starved by a default-policy run already in flight."""
        short_done = threading.Event()
        held = []
        run_task = runner._run_task

        def hold_long_run(task):
            if task.benchmark == "gcc" and not held:
                held.append(short_done.wait(10))
            return run_task(task)

        monkeypatch.setattr(runner, "_run_task", hold_long_run)
        with Session(jobs=1, cache_dir=str(tmp_path / "cache")) as session:
            long = session.submit(small_spec(benchmarks=("gcc", "perlbmk"),
                                             name="long"))
            short = session.submit(
                small_spec(scheme="base+L0", benchmarks="gzip",
                           instructions=1000, name="short"),
                ExecutionOptions(result_cache=False))
            short.result(timeout=60)
            long_status = long.status()
            short_done.set()
            long.result(timeout=60)
        assert long_status == "running"
        assert held == [True]


# ----------------------------------------------------------------------
# progress / ETA (satellite)
# ----------------------------------------------------------------------
class TestProgressEta:
    def test_progress_keeps_tuple_contract_and_gains_eta(self, tmp_path):
        with Session(jobs=1, cache_dir=str(tmp_path / "cache")) as session:
            handle = session.submit(
                small_spec(benchmarks=("gcc", "perlbmk", "vortex"),
                           instructions=1500))
            events = list(handle.events())
            handle.result()
            progress = handle.progress()
            assert progress == (3, 3)           # tuple equality preserved
            completed, total = progress          # unpacking preserved
            assert (completed, total) == (3, 3)
            assert progress.tasks_per_second > 0
            assert progress.eta_seconds == 0.0
            task_events = [e for e in events if e.kind == "task"]
            assert task_events, "expected per-task events"
            for event in task_events:
                assert event.tasks_per_second > 0
                assert event.eta_seconds >= 0.0
            # ETA falls to zero as the run completes.
            assert task_events[-1].eta_seconds == 0.0


# ----------------------------------------------------------------------
# end-to-end over real sockets
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_submit_status_result_events(self, tmp_path):
        with service(tmp_path, parallel=2) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="e2e")
            assert client.health() == {"status": "ok"}
            submitted = client.submit(small_spec(name="e2e-1"))
            assert submitted["dedup"] == "new"
            body = client.result_bytes(submitted["job"])
            decoded = json.loads(body)
            assert decoded["codec"] == 1
            assert decoded["results"][0]["type"] == "result"
            assert decoded["results"][0]["workload"] == "gcc"
            assert decoded["hmean_ipc"]
            status = client.status(submitted["job"])
            assert status["status"] == "done"
            assert status["completed"] == status["total"] == 1
            kinds = [e["kind"] for e in client.events(submitted["job"])]
            assert kinds[0] == "submitted"
            assert kinds[-1] == "done"
            assert "task" in kinds

    def test_event_stream_leaves_no_socket_open(self, tmp_path):
        """Reading an event stream to its end closes its response, not
        just the connection, so no socket waits for the collector."""
        with service(tmp_path, parallel=1) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="closer")
            submitted = client.submit(small_spec(name="closer"))
            client.result_bytes(submitted["job"])
            responses = []
            request = client._request

            def recording(*args, **kwargs):
                status, headers, payload = request(*args, **kwargs)
                if kwargs.get("stream"):
                    responses.append(payload[0])
                return status, headers, payload

            client._request = recording
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                kinds = [e["kind"] for e in client.events(submitted["job"])]
                assert [r.closed for r in responses] == [True]
                del responses[:]
                gc.collect()
        assert kinds[-1] == "done"
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_dedup_economics_concurrent_clients(self, tmp_path):
        clients = 6
        with service(tmp_path, parallel=2, quota=8) as (thread, _session):
            spec = small_spec(name="dedup-spec")
            bodies = [None] * clients
            submissions = [None] * clients

            def worker(index):
                client = ServiceClient(port=thread.port,
                                       client_id=f"client-{index}")
                submissions[index] = client.submit(spec)
                bodies[index] = client.result_bytes(
                    submissions[index]["job"])

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert all(body is not None for body in bodies)
            # Exactly one simulation ran; everyone else joined it.
            stats = ServiceClient(port=thread.port).stats()["service"]
            assert stats["runs_started"] == 1
            assert stats["submitted"] == clients
            assert stats["deduplicated"] == clients - 1
            # Byte-identical responses for every subscriber.
            assert len({body for body in bodies}) == 1
            # All submissions share one job id.
            assert len({s["job"] for s in submissions}) == 1

    def test_acceptance_grid_8_clients_4_specs(self, tmp_path):
        """The PR's acceptance scenario: 8 concurrent clients submit 4
        unique specs (each duplicated) -> exactly 4 simulations,
        byte-identical per-spec bodies, ordered SSE for every client."""
        schemes = ("CLGP", "CLGP+L0", "base+L0", "FDP+L0")
        specs = [small_spec(scheme=scheme, instructions=2000,
                            name=f"grid-{index}")
                 for index, scheme in enumerate(schemes)]
        with service(tmp_path, parallel=2, quota=8) as (thread, _session):
            bodies = [None] * 8
            sequences = [None] * 8

            def worker(index):
                client = ServiceClient(port=thread.port,
                                       client_id=f"grid-client-{index}")
                spec = specs[index % len(specs)]
                job = client.submit(spec, wait_on_quota=True)
                events = list(client.events(job["job"],
                                            subscriber=job["subscriber"]))
                sequences[index] = [event["_seq"] for event in events]
                assert events[-1]["kind"] == "done"
                bodies[index] = client.result_bytes(job["job"])

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert all(body is not None for body in bodies)
            for index in range(4):
                assert bodies[index] == bodies[index + 4], \
                    f"spec {index}: duplicated submission bodies differ"
            assert len(set(bodies)) == 4, "disjoint specs collapsed"
            for seqs in sequences:
                assert seqs == sorted(seqs), "SSE stream out of order"
            stats = ServiceClient(port=thread.port).stats()["service"]
            assert stats["runs_started"] == 4, stats
            assert stats["submitted"] == 8
            assert stats["deduplicated"] == 4

    def test_disjoint_specs_do_not_collapse(self, tmp_path):
        with service(tmp_path, parallel=2) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="disjoint")
            first = client.submit(small_spec(scheme="CLGP", name="d1"))
            second = client.submit(small_spec(scheme="base+L0", name="d2"))
            assert first["job"] != second["job"]
            assert first["dedup"] == second["dedup"] == "new"
            client.result_bytes(first["job"])
            client.result_bytes(second["job"])
            stats = client.stats()["service"]
            assert stats["runs_started"] == 2
            assert stats["deduplicated"] == 0

    def test_completed_jobs_replay_without_simulation(self, tmp_path):
        with service(tmp_path) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="replay")
            spec = small_spec(name="replay-spec")
            first = client.submit(spec)
            body = client.result_bytes(first["job"])
            # Resubmit after completion: joined, zero new runs, and the
            # stored bytes come back verbatim.
            again = client.submit(spec)
            assert again["dedup"] == "joined"
            assert again["status"] == "done"
            assert client.result_bytes(again["job"]) == body
            assert client.stats()["service"]["runs_started"] == 1

    def test_terminal_jobs_evicted_beyond_max_jobs(self, tmp_path):
        with service(tmp_path, max_jobs=2) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="evict")
            schemes = ("CLGP", "base+L0", "FDP+L0")
            jobs = []
            for index, scheme in enumerate(schemes):
                submitted = client.submit(
                    small_spec(scheme=scheme, name=f"ev-{index}"))
                client.result_bytes(submitted["job"])
                jobs.append(submitted["job"])
            assert client.stats()["service"]["jobs"] <= 2
            status, _, _ = client._request("GET",
                                           f"/v1/experiments/{jobs[0]}")
            assert status == 404, "oldest terminal job should be evicted"
            # The evicted key re-submits as a fresh job whose result
            # replays from the content-addressed cache: one more job,
            # zero new simulations.
            before = client.stats()["cache"]["result_cache"]["hits"]
            again = client.submit(small_spec(scheme=schemes[0],
                                             name="ev-0"))
            assert again["dedup"] == "new"
            client.result_bytes(again["job"])
            after = client.stats()["cache"]["result_cache"]["hits"]
            assert after > before

    def test_quota_exceeded_gets_429_with_retry_after(self, tmp_path):
        with service(tmp_path, parallel=1, quota=1) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="greedy")
            other = ServiceClient(port=thread.port, client_id="patient")
            first = client.submit(small_spec(instructions=12000, name="q1"))
            with pytest.raises(RetryLater) as excinfo:
                client.submit(small_spec(scheme="base+L0", name="q2"))
            assert excinfo.value.retry_after >= 1
            # Another identity is not affected by the greedy client's
            # quota; its job queues behind the running one.
            queued = other.submit(small_spec(scheme="FDP+L0", name="q3"))
            assert queued["dedup"] == "new"
            stats = client.stats()["service"]
            assert stats["rejected_quota"] == 1
            client.result_bytes(first["job"])
            other.result_bytes(queued["job"])
            # Quota released after completion: the retry now succeeds.
            retried = client.submit(small_spec(scheme="base+L0", name="q2"))
            client.result_bytes(retried["job"])

    def test_sse_streams_are_ordered(self, tmp_path):
        with service(tmp_path, parallel=2) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="sse")
            spec = small_spec(benchmarks=("gcc", "perlbmk"), name="sse-spec")
            submitted = client.submit(spec)
            events = list(client.events(submitted["job"],
                                        subscriber=submitted["subscriber"]))
            sequences = [event["_seq"] for event in events]
            assert sequences == sorted(sequences)
            kinds = [event["kind"] for event in events]
            assert kinds[0] == "submitted"
            assert kinds[1] == "started"
            assert kinds[-1] == "done"
            completed = [event["completed"] for event in events]
            assert completed == sorted(completed)
            task_events = [e for e in events if e["kind"] == "task"]
            assert len(task_events) == 2
            assert task_events[-1]["tasks_per_second"] > 0

    def test_cancel_on_disconnect_refcounted(self, tmp_path):
        with service(tmp_path, parallel=2) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="leaver")
            slow = small_spec(benchmarks="all", instructions=20000,
                              name="abandoned")
            submitted = client.submit(slow)
            stream = client.events(submitted["job"],
                                   subscriber=submitted["subscriber"])
            first = next(stream)
            assert first["kind"] == "submitted"
            stream.close()   # sole subscriber disconnects mid-run
            deadline = time.time() + 30
            while time.time() < deadline:
                status = client.status(submitted["job"])["status"]
                if status in TERMINAL:
                    break
                time.sleep(0.1)
            assert status == "cancelled"
            assert client.stats()["service"]["cancelled"] == 1

    def test_disconnect_with_remaining_subscriber_keeps_running(
            self, tmp_path):
        with service(tmp_path, parallel=2) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="stayer")
            spec = small_spec(benchmarks=("gcc", "perlbmk", "vortex"),
                              instructions=6000, name="kept")
            first = client.submit(spec)
            second = client.submit(spec)   # joined: second subscriber
            assert second["dedup"] == "joined"
            leaver = client.events(first["job"],
                                   subscriber=first["subscriber"])
            next(leaver)
            stayer = client.events(first["job"],
                                   subscriber=second["subscriber"])
            next(stayer)
            leaver.close()
            kinds = [event["kind"] for event in stayer]
            assert kinds[-1] == "done", \
                "job must survive one of two subscribers leaving"

    def test_explicit_cancel(self, tmp_path):
        with service(tmp_path, parallel=1) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="canceller")
            submitted = client.submit(
                small_spec(benchmarks="all", instructions=20000,
                           name="doomed"))
            client.cancel(submitted["job"])
            deadline = time.time() + 30
            while time.time() < deadline:
                status = client.status(submitted["job"])["status"]
                if status in TERMINAL:
                    break
                time.sleep(0.1)
            assert status == "cancelled"
            with pytest.raises(ServiceError) as excinfo:
                client.result(submitted["job"])
            assert excinfo.value.status == 409

    def test_bad_requests(self, tmp_path):
        with service(tmp_path) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="fuzzer")
            status, _, payload = client._request(
                "POST", "/v1/experiments", body=b"{not json")
            assert status == 400
            status, _, _ = client._request(
                "POST", "/v1/experiments",
                body=codec.canonical_json({"spec": {"scheme": "NOPE"}}))
            assert status == 400
            status, _, _ = client._request("GET", "/v1/experiments/job-404")
            assert status == 404
            status, _, _ = client._request("GET", "/v1/nope")
            assert status == 404
            status, _, _ = client._request("GET", "/v1/experiments")
            assert status == 405

    def test_client_options_rejected_for_server_policy(self, tmp_path):
        with service(tmp_path) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="sneaky")
            status, _, payload = client._request(
                "POST", "/v1/experiments",
                body=codec.canonical_json({
                    "spec": codec.encode_spec(small_spec()),
                    "options": {"faults": "worker_kill:1.0"}}))
            assert status == 400
            assert b"server policy" in payload


# ----------------------------------------------------------------------
# chaos: request_drop at the HTTP boundary
# ----------------------------------------------------------------------
class TestServiceChaos:
    def test_request_drop_is_survived_by_retrying_client(self, tmp_path):
        # Only request_drop: the simulations themselves stay clean, so
        # the surviving response must equal the fault-free one.
        with use_context(current_context().override(
                faults="request_drop:0.4,seed:7")):
            with service(tmp_path, parallel=2) as (thread, _session):
                client = ServiceClient(port=thread.port,
                                       client_id="chaos-client", retries=12)
                spec = small_spec(name="chaos-spec")
                submitted = client.submit(spec)
                chaos_body = client.result_bytes(submitted["job"])
                dropped = client.stats()["service"]["dropped_requests"]
        with service(tmp_path, parallel=2) as (thread, _session):
            client = ServiceClient(port=thread.port, client_id="calm")
            submitted = client.submit(spec)
            calm_body = client.result_bytes(submitted["job"])
        assert chaos_body == calm_body, \
            "request_drop chaos must not change response bytes"
        # Deterministic: with seed 7 this client's first submit POST is
        # dropped, so the counter is guaranteed non-zero.
        assert dropped > 0


# ----------------------------------------------------------------------
# the served process: `repro-clgp serve` as its own process
# ----------------------------------------------------------------------
class TestServeProcess:
    """``python -m repro.cli serve`` in a subprocess, with three
    concurrent clients of which two submit the same spec: the duplicate
    pair dedups onto one simulation and gets byte-identical bodies, the
    disjoint spec gets its own, SIGTERM stops the server cleanly, seeded
    worker-kill + request-drop chaos leaves every body unchanged, and
    each store holds exactly one result per unique spec."""

    @staticmethod
    def _cli(*args, **popen):
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_FAULTS"] = ""
        return subprocess.Popen([sys.executable, "-m", "repro.cli", *args],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, **popen)

    def _drive(self, cache_dir, faults=None):
        args = ["serve", "--port", "0", "--cache-dir", cache_dir]
        if faults:
            args += ["--faults", faults]
        server = self._cli(*args)
        try:
            line = server.stdout.readline().strip()
            port = int(re.search(r":(\d+)$", line).group(1))
            shared = ExperimentSpec("CLGP+L0", "gcc", max_instructions=5000,
                                    name="pair")
            other = ExperimentSpec("FDP+L0", "mcf", max_instructions=5000,
                                   name="solo")
            plans = [("alice", shared), ("bob", shared), ("carol", other)]
            bodies, errors = {}, []

            def run_client(name, spec):
                try:
                    client = ServiceClient(port=port, client_id=name,
                                           retries=12)
                    job = client.submit(spec, wait_on_quota=True)
                    events = list(client.events(
                        job["job"], subscriber=job["subscriber"]))
                    seqs = [event["_seq"] for event in events]
                    assert seqs == sorted(seqs), f"{name}: unordered SSE"
                    assert events[-1]["kind"] == "done", f"{name}: not done"
                    bodies[name] = client.result_bytes(job["job"])
                except BaseException as exc:    # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=run_client, args=plan)
                       for plan in plans]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not errors, errors
            assert set(bodies) == {"alice", "bob", "carol"}
            assert bodies["alice"] == bodies["bob"], \
                "duplicate pair bodies differ"
            assert bodies["alice"] != bodies["carol"], \
                "disjoint specs returned the same body"
            stats = ServiceClient(port=port).stats()["service"]
            assert stats["runs_started"] == 2, stats
            assert stats["deduplicated"] >= 1, stats
            server.send_signal(signal.SIGTERM)
            out, err = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, f"serve did not exit cleanly: {err}"
        assert "service stopped" in out
        return bodies

    def test_dedup_clean_shutdown_and_chaos_stable_bodies(self, tmp_path):
        clean_dir = str(tmp_path / "service")
        chaos_dir = str(tmp_path / "service-chaos")
        clean = self._drive(clean_dir)
        chaos = self._drive(chaos_dir,
                            "worker_kill:0.2,request_drop:0.2,seed:7")
        assert chaos == clean, "chaos changed response bodies"
        # Exactly one persisted result per unique spec in each store.
        for cache_dir in (clean_dir, chaos_dir):
            out, err = self._cli("cache", "stats", "--json",
                                 "--cache-dir", cache_dir).communicate(
                                     timeout=60)
            kinds = json.loads(out)["store"]["kinds"]
            assert kinds["result"]["files"] == 2, (cache_dir, kinds, err)
