"""Tiny stdlib client for the experiment service.

``http.client`` only -- the same no-deps rule as the server.  One
connection per request (the server speaks ``Connection: close``), with
transparent retry on transport-level failures: the service's
``request_drop`` chaos site (and any real network) can eat a request
before a response is written, and because submissions deduplicate by
content key on the server, **retrying a POST is idempotent** -- the
retry either joins the in-flight job the first attempt created or
creates the job the first attempt never delivered.  That property is
what makes blind retry safe here when it would not be against a
non-deduplicating API.

HTTP 429 is *not* retried silently: it surfaces as :class:`RetryLater`
carrying the server's ``Retry-After``, so callers decide whether to
back off (``submit(..., wait_on_quota=True)`` does it for you).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from ..api.spec import ExecutionOptions, ExperimentSpec
from . import codec

#: Transport errors worth a blind retry (no response was received).
_RETRYABLE = (ConnectionError, ConnectionResetError, BrokenPipeError,
              http.client.RemoteDisconnected, http.client.BadStatusLine,
              http.client.CannotSendRequest, OSError)


class ServiceError(Exception):
    """A non-2xx response (other than 429/202)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class RetryLater(ServiceError):
    """HTTP 429: quota or backpressure; honor :attr:`retry_after`."""

    def __init__(self, message: str, retry_after: int) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


class ServiceClient:
    """Talk to one ``repro-clgp serve`` instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8177,
                 client_id: str = "anonymous", retries: int = 8,
                 backoff: float = 0.05, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout

    # -- transport --------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None,
                 stream: bool = False) -> Tuple[int, Dict[str, str], Any]:
        """One request with transport-level retry; see module docstring
        for why blind retry is safe against this server."""
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            try:
                headers = {"x-repro-client": self.client_id,
                           "Connection": "close"}
                if body is not None:
                    headers["Content-Type"] = "application/json"
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                response_headers = {name.lower(): value for name, value
                                    in response.getheaders()}
                if stream:
                    # Caller owns the connection until the stream ends.
                    return response.status, response_headers, \
                        (response, connection)
                payload = response.read()
                connection.close()
                return response.status, response_headers, payload
            except _RETRYABLE as exc:
                connection.close()
                last = exc
                if attempt >= self.retries:
                    break
                time.sleep(self.backoff * (2 ** attempt))
        raise ServiceError(0, f"request failed after "
                              f"{self.retries + 1} attempts: {last}")

    @staticmethod
    def _json(payload: bytes) -> Any:
        return json.loads(payload.decode("utf-8"))

    def _checked(self, status: int, headers: Dict[str, str],
                 payload: bytes, accept=(200,)) -> Any:
        if status == 429:
            detail = self._json(payload)
            raise RetryLater(detail.get("error", "rejected"),
                             int(headers.get("retry-after",
                                             detail.get("retry_after", 1))))
        if status not in accept:
            try:
                message = self._json(payload).get("error", "")
            except (ValueError, AttributeError):
                message = payload.decode("utf-8", "replace")[:200]
            raise ServiceError(status, message)
        return self._json(payload)

    # -- API --------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._checked(*self._request("GET", "/v1/healthz"))

    def stats(self) -> Dict[str, Any]:
        return self._checked(*self._request("GET", "/v1/stats"))

    def submit(self, spec: ExperimentSpec,
               options: Optional[ExecutionOptions] = None,
               wait_on_quota: bool = False,
               max_backoff: Optional[float] = None) -> Dict[str, Any]:
        """Submit a spec; returns the job snapshot (``dedup`` says
        whether this created the run or joined an existing one).

        With ``wait_on_quota`` a 429 is retried after the server's
        advertised ``Retry-After`` -- honored in full, because that value
        is the server's data-driven backpressure estimate and a herd of
        clients re-polling on a shorter private schedule defeats it.
        ``max_backoff`` optionally caps the sleep for callers with their
        own deadline.
        """
        body = codec.canonical_json({
            "spec": codec.encode_spec(spec),
            "options": (codec.encode_options(options)
                        if options is not None else None),
        })
        while True:
            try:
                return self._checked(
                    *self._request("POST", "/v1/experiments", body=body))
            except RetryLater as exc:
                if not wait_on_quota:
                    raise
                delay = float(exc.retry_after)
                if max_backoff is not None:
                    delay = min(max_backoff, delay)
                time.sleep(max(0.0, delay))

    def status(self, job: str) -> Dict[str, Any]:
        return self._checked(*self._request("GET", f"/v1/experiments/{job}"))

    def result_bytes(self, job: str, timeout: float = 30.0,
                     poll: bool = True) -> bytes:
        """The job's canonical result body, exactly as served.

        Long-polls until done; with ``poll=True`` keeps re-polling after
        each 202.  Byte-level because dedup's observable guarantee is at
        the byte level -- :meth:`result` parses it when structure is all
        you need.
        """
        while True:
            status, headers, payload = self._request(
                "GET", f"/v1/experiments/{job}/result?timeout={timeout}")
            if status == 200:
                return payload
            if status == 202 and poll:
                continue
            self._checked(status, headers, payload, accept=(200,))

    def result(self, job: str, timeout: float = 30.0) -> Dict[str, Any]:
        return self._json(self.result_bytes(job, timeout=timeout))

    def cancel(self, job: str) -> Dict[str, Any]:
        return self._checked(
            *self._request("DELETE", f"/v1/experiments/{job}"))

    def events(self, job: str,
               subscriber: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Yield the job's SSE progress events as parsed dicts, in
        stream order, ending after the terminal event."""
        path = f"/v1/experiments/{job}/events"
        if subscriber:
            path += f"?subscriber={subscriber}"
        status, headers, stream = self._request("GET", path, stream=True)
        response, connection = stream
        if status != 200:
            payload = response.read()
            connection.close()
            self._checked(status, headers, payload, accept=(200,))
        try:
            event: Dict[str, Any] = {}
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.decode("utf-8").rstrip("\n")
                if not line:
                    if "data" in event:
                        parsed = json.loads(event["data"])
                        parsed["_seq"] = int(event.get("id", 0))
                        yield parsed
                        if parsed.get("kind") in ("done", "failed",
                                                  "cancelled"):
                            return
                    event = {}
                    continue
                name, _, value = line.partition(":")
                event[name.strip()] = value.lstrip()
        finally:
            response.close()
            connection.close()
