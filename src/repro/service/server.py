"""The experiment service: asyncio HTTP/1.1 + SSE front end for
:class:`repro.api.Session`.

Dependency-free by construction (stdlib ``asyncio`` and a hand-rolled
HTTP/1.1 parser), matching the repo's no-deps ethos.  The server is a
thin multi-tenant shell around the library: requests decode through
:mod:`repro.service.codec`, admission goes through the
:class:`~repro.service.scheduler.FairScheduler`, execution is plain
``Session.submit``, and progress streams out by bridging the
``RunHandle.add_listener`` thread callback onto the event loop with
``call_soon_threadsafe``.

**Dedup** is the centerpiece: every submission is keyed by
:func:`~repro.service.codec.request_key`, identical in-flight requests
collapse to one run with N subscribers (joiners consume no quota and no
queue slot), and identical *finished* requests replay the canonical
result bytes straight out of memory -- backed one level down by the
content-addressed result cache, so even a fresh run of a previously-seen
spec simulates nothing.  Response bodies for the same key are
byte-identical by codec construction.

**Cancel-on-disconnect** is refcounted across SSE subscribers: a job is
cancelled only when every subscriber that ever attached has disconnected
before the terminal event and no submitter still holds an unattached
claim.  ``DELETE`` cancels unconditionally.

Endpoints (all respond ``Connection: close``; one request per
connection)::

    GET    /v1/healthz                     liveness probe
    GET    /v1/stats                       service + cache counters
    POST   /v1/experiments                 submit {"spec": ..., "options": ...}
    GET    /v1/experiments/{id}            job status snapshot
    GET    /v1/experiments/{id}/result     long-poll result (202 on timeout)
    GET    /v1/experiments/{id}/events     SSE progress stream
    DELETE /v1/experiments/{id}            cancel

Client identity is the ``x-repro-client`` header (falling back to the
peer address); it drives fair scheduling, quotas, and the deterministic
``request_drop`` chaos site.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import faults
from ..api.session import ProgressEvent, RunHandle, Session
from ..api.spec import ExecutionOptions, ExperimentSpec
from . import codec
from .codec import CodecError, canonical_json
from .scheduler import FairScheduler, QueueFull, QuotaExceeded, RejectedRequest

#: Request-size guards (one experiment spec is a few hundred bytes).
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 100
MAX_BODY_BYTES = 1 << 20

#: Distinct ``request_drop`` chaos sites tracked before the attempt
#: counters reset (bounds per-client/path bookkeeping in long-running
#: multi-tenant deployments).
MAX_DROP_SITES = 4096

#: Event kinds that terminate a job's stream.
TERMINAL_KINDS = ("done", "failed", "cancelled")

_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}


class Job:
    """One deduplicated experiment: a spec key, its run, its audience."""

    _ids = itertools.count(1)

    def __init__(self, key: str, client: str, spec: ExperimentSpec,
                 options: ExecutionOptions) -> None:
        self.id = f"job-{next(Job._ids):06d}"
        self.key = key
        self.client = client            #: the submitter charged quota
        self.spec = spec
        self.options = options
        self.status = "queued"          #: queued|running|done|failed|cancelled
        self.handle: Optional[RunHandle] = None
        #: ``(seq, kind, frame-bytes)`` of every progress event so far.
        self.events: List[Tuple[int, str, bytes]] = []
        self.watchers: Set[asyncio.Queue] = set()
        self.done = asyncio.Event()
        self.result_bytes: Optional[bytes] = None
        self.error: Optional[str] = None
        self.completed = 0
        self.total = 0
        self.tasks_per_second: Optional[float] = None
        self.eta_seconds: Optional[float] = None
        self.started_at: Optional[float] = None
        #: Subscriber claims: token -> "pending" (issued at submit,
        #: never attached) | "attached" (an SSE stream is live) |
        #: "released" (its stream disconnected before the terminal
        #: event).  See :meth:`ExperimentServer._maybe_cancel_abandoned`.
        self.claims: Dict[str, str] = {}

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_KINDS

    def snapshot(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "job": self.id,
            "key": self.key,
            "status": self.status,
            "completed": self.completed,
            "total": self.total,
            "tasks_per_second": self.tasks_per_second,
            "eta_seconds": self.eta_seconds,
            "subscribers": sum(1 for state in self.claims.values()
                               if state != "released"),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class ExperimentServer:
    """The asyncio service; construct, ``await start()``, serve."""

    def __init__(self, session: Session, host: str = "127.0.0.1",
                 port: int = 0, parallel: int = 2, quota: int = 8,
                 max_queue_depth: int = 64, max_jobs: int = 512) -> None:
        if parallel < 1:
            raise ValueError("parallel must be >= 1")
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        self.session = session
        self.host = host
        self.port = port
        self.parallel = parallel
        self.max_jobs = max_jobs
        self.scheduler = FairScheduler(quota=quota,
                                       max_queue_depth=max_queue_depth)
        self.stats: Dict[str, int] = {
            "submitted": 0, "deduplicated": 0, "runs_started": 0,
            "completed": 0, "failed": 0, "cancelled": 0,
            "rejected_quota": 0, "rejected_backpressure": 0,
            "dropped_requests": 0,
        }
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, Job] = {}
        #: Terminal job ids, oldest first -- the eviction order.
        self._terminal_order: Deque[str] = deque()
        self._running = 0
        self._seq = itertools.count(1)
        self._tokens = itertools.count(1)
        self._drop_attempts: Dict[Tuple, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._drive_task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._drive_task = asyncio.create_task(self._drive())

    async def stop(self) -> None:
        """Stop accepting, cancel in-flight runs, wind the loop down."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for job in self._jobs.values():
            if not job.terminal and job.handle is not None:
                job.handle.cancel()
        if self._drive_task is not None:
            self._wake.set()
            try:
                await asyncio.wait_for(self._drive_task, timeout=5)
            except asyncio.TimeoutError:
                self._drive_task.cancel()
        # Give cancelled runs a moment to emit their terminal events.
        deadline = 50
        while self._running and deadline:
            await asyncio.sleep(0.1)
            deadline -= 1

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- scheduling -------------------------------------------------------
    async def _drive(self) -> None:
        while not self._stopping:
            while self._running < self.parallel:
                job = self.scheduler.next_ready()
                if job is None:
                    break
                self._start_job(job)
            await self._wake.wait()
            self._wake.clear()

    def _start_job(self, job: Job) -> None:
        job.status = "running"
        job.started_at = self._loop.time()
        self.stats["runs_started"] += 1
        self._running += 1
        loop = self._loop
        try:
            job.handle = self.session.submit(job.spec, job.options)
        except Exception as exc:
            self._finalize(job, "failed", f"{type(exc).__name__}: {exc}")
            return
        job.handle.add_listener(
            lambda event, job=job: loop.call_soon_threadsafe(
                self._on_event, job, event))

    def _on_event(self, job: Job, event: ProgressEvent) -> None:
        if job.terminal:
            return
        seq = next(self._seq)
        frame = canonical_json(codec.encode_event(event))
        job.events.append((seq, event.kind, frame))
        job.completed = event.completed
        job.total = event.total
        if event.tasks_per_second is not None:
            job.tasks_per_second = event.tasks_per_second
            job.eta_seconds = event.eta_seconds
        for queue in list(job.watchers):
            queue.put_nowait((seq, event.kind, frame))
        if event.kind in TERMINAL_KINDS:
            error = None
            if event.kind == "failed":
                exc = job.handle._error if job.handle is not None else None
                error = (f"{type(exc).__name__}: {exc}"
                         if exc is not None else "run failed")
            self._finalize(job, event.kind, error)

    def _finalize(self, job: Job, status: str,
                  error: Optional[str] = None) -> None:
        was_running = job.status == "running"
        job.status = status
        job.error = error
        if status == "done" and job.handle is not None:
            result = job.handle._result
            job.result_bytes = canonical_json(codec.encode_run_result(
                job.spec.name or job.id, result))
            job.eta_seconds = 0.0
        self.stats[{"done": "completed", "failed": "failed",
                    "cancelled": "cancelled"}[status]] += 1
        if was_running:
            # Queued jobs were already released by ``scheduler.discard``.
            self._running -= 1
            elapsed = (self._loop.time() - job.started_at
                       if job.started_at is not None else None)
            self.scheduler.finish(job.client, seconds=elapsed)
        job.done.set()
        for queue in list(job.watchers):
            queue.put_nowait(None)
        self._terminal_order.append(job.id)
        self._evict_terminal()
        self._wake.set()

    def _evict_terminal(self) -> None:
        """Bound the in-memory job registry to ``max_jobs``.

        Oldest-terminal-first, skipping jobs with a live SSE replay in
        progress.  Eviction loses nothing durable: a re-submitted key
        becomes a fresh job whose tasks replay from the content-
        addressed result cache, so the response is still byte-identical
        and simulation-free.
        """
        skipped = []
        while len(self._jobs) > self.max_jobs and self._terminal_order:
            job_id = self._terminal_order.popleft()
            job = self._jobs.get(job_id)
            if job is None:
                continue
            if job.watchers:
                skipped.append(job_id)
                continue
            del self._jobs[job_id]
            if self._by_key.get(job.key) is job:
                del self._by_key[job.key]
            job.events.clear()
        self._terminal_order.extendleft(reversed(skipped))

    def _maybe_cancel_abandoned(self, job: Job) -> None:
        """The refcounted cancel-on-disconnect rule: every subscriber
        that ever attached has gone away mid-stream, and nobody who
        submitted is still due to attach."""
        if job.terminal or not job.claims:
            return
        if set(job.claims.values()) == {"released"}:
            self._cancel_job(job)

    def _cancel_job(self, job: Job) -> None:
        if job.terminal:
            return
        if job.status == "queued" and self.scheduler.discard(job.client,
                                                             job):
            self._finalize(job, "cancelled")
        elif job.handle is not None:
            job.handle.cancel()   # terminal event arrives via listener

    # -- connection handling ----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await self._read_request(reader, writer)
            except _HttpError as exc:
                await self._respond(writer, exc.status,
                                    {"error": str(exc)})
                return
            if request is None:
                return
            method, path, query, headers, body = request
            client = headers.get("x-repro-client") or self._peer(writer)
            if self._should_drop(client, method, path):
                self.stats["dropped_requests"] += 1
                return   # vanish: no response, connection just closes
            await self._route(method, path, query, headers, body, client,
                              reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _peer(self, writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return f"{peer[0]}" if peer else "unknown"

    def _should_drop(self, client: str, method: str, path: str) -> bool:
        if len(self._drop_attempts) >= MAX_DROP_SITES:
            # Resetting the attempt counters only perturbs chaos
            # determinism past 4096 distinct sites; unbounded growth
            # would leak per-client/path state forever.
            self._drop_attempts.clear()
        site = (client, method, path)
        attempt = self._drop_attempts.get(site, 0) + 1
        self._drop_attempts[site] = attempt
        return faults.maybe_drop_request(client, method, path, attempt)

    async def _read_request(self, reader, writer):
        try:
            line = await reader.readline()
        except (ValueError, ConnectionResetError):
            raise _HttpError(400, "request line too long")
        if not line:
            return None
        if len(line) > MAX_REQUEST_LINE:
            raise _HttpError(400, "request line too long")
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                line = await reader.readline()
            except ValueError:
                # A header line overflowing the StreamReader's limit
                # raises ValueError, same as the request line above.
                raise _HttpError(400, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADERS:
                raise _HttpError(400, "too many headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError:
            raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _HttpError(400, "request body truncated")
        split = urlsplit(target)
        query = {name: values[-1]
                 for name, values in parse_qs(split.query).items()}
        return method, split.path, query, headers, body

    async def _respond(self, writer, status: int, payload,
                       headers: Optional[Dict[str, str]] = None,
                       body: Optional[bytes] = None) -> None:
        if body is None:
            body = canonical_json(payload) + b"\n"
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    # -- routing ----------------------------------------------------------
    async def _route(self, method, path, query, headers, body, client,
                     reader, writer) -> None:
        if path == "/v1/healthz":
            await self._respond(writer, 200, {"status": "ok"})
            return
        if path == "/v1/stats":
            await self._respond(writer, 200, self._stats_payload())
            return
        if path == "/v1/experiments":
            if method != "POST":
                await self._respond(writer, 405,
                                    {"error": "POST required"})
                return
            await self._handle_submit(body, client, writer)
            return
        if path.startswith("/v1/experiments/"):
            rest = path[len("/v1/experiments/"):]
            job_id, _, action = rest.partition("/")
            job = self._jobs.get(job_id)
            if job is None:
                await self._respond(writer, 404,
                                    {"error": f"no such job {job_id!r}"})
                return
            if method == "DELETE" and not action:
                self._cancel_job(job)
                await self._respond(writer, 200, job.snapshot())
                return
            if method != "GET":
                await self._respond(writer, 405, {"error": "GET required"})
                return
            if not action:
                await self._respond(writer, 200, job.snapshot())
            elif action == "result":
                await self._handle_result(job, query, writer)
            elif action == "events":
                await self._handle_events(job, query, reader, writer)
            else:
                await self._respond(writer, 404,
                                    {"error": f"no such action {action!r}"})
            return
        await self._respond(writer, 404, {"error": f"no route for {path}"})

    def _stats_payload(self) -> Dict[str, object]:
        return {
            "service": {
                **self.stats,
                "active": self._running,
                "queued": self.scheduler.queued,
                "jobs": len(self._jobs),
                "parallel": self.parallel,
            },
            "cache": self.session.cache_counters(),
        }

    # -- submit (with dedup) ----------------------------------------------
    async def _handle_submit(self, body: bytes, client: str,
                             writer) -> None:
        import json

        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond(writer, 400,
                                {"error": f"invalid JSON body: {exc}"})
            return
        try:
            if not isinstance(payload, dict) or "spec" not in payload:
                raise CodecError('body must be {"spec": ..., "options": ...}')
            spec = codec.decode_spec(payload["spec"])
            options = codec.decode_options(payload.get("options"))
        except CodecError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        key = codec.request_key(spec, options)
        self.stats["submitted"] += 1
        job = self._by_key.get(key)
        if job is not None and job.status not in ("failed", "cancelled"):
            # Dedup: join the in-flight (or finished) job.  Joins bypass
            # the scheduler -- no quota charge, no queue slot.
            self.stats["deduplicated"] += 1
            token = self._issue_claim(job)
            await self._respond(writer, 200, {
                **job.snapshot(), "dedup": "joined", "subscriber": token})
            return
        job = Job(key, client, spec, options)
        try:
            self.scheduler.submit(client, job)
        except QuotaExceeded as exc:
            self.stats["rejected_quota"] += 1
            await self._reject(writer, exc)
            return
        except QueueFull as exc:
            self.stats["rejected_backpressure"] += 1
            await self._reject(writer, exc)
            return
        self._jobs[job.id] = job
        self._by_key[key] = job
        token = self._issue_claim(job)
        self._wake.set()
        await self._respond(writer, 200, {
            **job.snapshot(), "dedup": "new", "subscriber": token})

    async def _reject(self, writer, exc: RejectedRequest) -> None:
        await self._respond(writer, 429, {
            "error": str(exc), "retry_after": exc.retry_after,
        }, headers={"Retry-After": str(exc.retry_after)})

    def _issue_claim(self, job: Job) -> str:
        token = f"sub-{next(self._tokens):06d}"
        if not job.terminal:
            job.claims[token] = "pending"
        return token

    # -- result long-poll --------------------------------------------------
    async def _handle_result(self, job: Job, query, writer) -> None:
        try:
            timeout = min(300.0, max(0.0, float(query.get("timeout", 30))))
        except ValueError:
            await self._respond(writer, 400, {"error": "bad timeout"})
            return
        try:
            await asyncio.wait_for(job.done.wait(), timeout)
        except asyncio.TimeoutError:
            await self._respond(writer, 202, job.snapshot())
            return
        if job.status == "done":
            await self._respond(writer, 200, None, body=job.result_bytes)
        elif job.status == "cancelled":
            await self._respond(writer, 409, job.snapshot())
        else:
            await self._respond(writer, 500, job.snapshot())

    # -- SSE --------------------------------------------------------------
    async def _handle_events(self, job: Job, query, reader,
                             writer) -> None:
        token = query.get("subscriber")
        if token is not None and token not in job.claims \
                and not job.terminal:
            # Unknown token on a live job: treat as a fresh subscriber
            # rather than erroring -- claims only drive cancel
            # accounting, never authorization.
            token = None
        if token is None and not job.terminal:
            token = self._issue_claim(job)
        if token is not None and token in job.claims:
            job.claims[token] = "attached"
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        queue: asyncio.Queue = asyncio.Queue()
        job.watchers.add(queue)
        replay = list(job.events)
        already_terminal = job.terminal
        clean = False
        disconnect = asyncio.ensure_future(reader.read(1))
        try:
            for seq, kind, frame in replay:
                writer.write(self._sse_frame(seq, kind, frame))
            await writer.drain()
            if already_terminal:
                clean = True
                return
            while True:
                getter = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    {getter, disconnect},
                    return_when=asyncio.FIRST_COMPLETED)
                if getter not in done:
                    getter.cancel()
                    return   # client went away mid-stream
                item = getter.result()
                if item is None:
                    clean = True
                    return
                seq, kind, frame = item
                writer.write(self._sse_frame(seq, kind, frame))
                await writer.drain()
                if kind in TERMINAL_KINDS:
                    clean = True
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            disconnect.cancel()
            job.watchers.discard(queue)
            if token is not None and token in job.claims and not clean:
                job.claims[token] = "released"
                self._maybe_cancel_abandoned(job)

    @staticmethod
    def _sse_frame(seq: int, kind: str, data: bytes) -> bytes:
        return (f"id: {seq}\nevent: {kind}\ndata: ".encode("utf-8")
                + data + b"\n\n")


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# embedding helpers
# ----------------------------------------------------------------------
async def _serve(server: ExperimentServer,
                 ready: Optional[threading.Event] = None,
                 announce=None) -> None:
    await server.start()
    if announce is not None:
        announce(server)
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


class ServerThread:
    """Run an :class:`ExperimentServer` on a background thread.

    The embedding used by tests and :mod:`benchmarks.bench_service`:
    construct with a live :class:`Session`, ``start()`` (blocks until
    the port is bound), talk to ``http://127.0.0.1:{port}``, ``stop()``.
    """

    def __init__(self, session: Session, **kwargs) -> None:
        self.server = ExperimentServer(session, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._task = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        ready = threading.Event()
        # The loop thread, and every task on it, runs under the caller's
        # execution context (a new thread would start with an empty one).
        context = contextvars.copy_context()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self._task = loop.create_task(_serve(self.server, ready=ready))
            try:
                loop.run_until_complete(self._task)
            except asyncio.CancelledError:
                pass
            finally:
                loop.close()

        self._thread = threading.Thread(target=context.run, args=(run,),
                                        name="repro-service", daemon=True)
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("service failed to start in time")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._task is not None:
            self._loop.call_soon_threadsafe(self._task.cancel)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
