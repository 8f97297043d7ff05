"""Deterministic fault injection: seeded chaos for the execution substrate.

Fault tolerance that is never exercised is fault tolerance that does not
exist.  This module injects the three failure classes the supervised
executor (:mod:`repro.simulator.runner`) and the artifact store
(:mod:`repro.cache.store`) must survive:

* ``worker_kill`` -- a pool worker calls ``os._exit`` at a chunk
  boundary, exactly as if the OS had OOM-killed it mid-sweep,
* ``artifact_corrupt`` -- bytes are truncated or bit-flipped at artifact
  *write* time, exactly as a torn write or bad disk would,
* ``io_error`` -- store I/O raises ``OSError`` (``ENOSPC`` on writes,
  ``EIO`` on reads), exercising the retry/degradation/re-probe path,
* ``write_crash`` -- a writer "dies" between its temp-file write and
  the atomic ``os.replace``, stranding a ``.tmp`` file exactly as a
  ``kill -9`` mid-publish would (``cache gc``/``fsck`` must reap it),
* ``io_delay`` -- every store read/write is delayed by a fixed amount,
  modelling slow or contended storage,
* ``request_drop`` -- the experiment service (:mod:`repro.service`)
  drops an incoming HTTP request without a response, exactly as a
  flaky network or a dying front end would; clients must retry, and
  request dedup must keep the retried submission idempotent.

Decisions are **pure functions of the fault seed and the injection
site's identity** (task index + dispatch attempt for kills, artifact
kind + content key for corruption), derived through SHA-256 -- not from
a stateful RNG -- so a chaos run is reproducible regardless of process
scheduling, pool size or retry interleaving.  A killed chunk's retry is
a *different* identity (the attempt number changed), so with any kill
probability below 1.0 retries converge; a corrupted artifact's identity
never changes, so it stays corrupted for the whole run and every read
must degrade to recompute.

Configuration mirrors the artifact cache: the plan is the execution
context's ``faults`` (:mod:`repro.context`; the CLI's ``--faults`` and
``ExecutionOptions(faults=...)`` set it per submission), else the
``REPRO_FAULTS`` environment variable (e.g.
``REPRO_FAULTS=worker_kill:0.1,artifact_corrupt:0.05,io_delay:20ms,seed:7``).
Pool workers run every chunk under the dispatching run's resolved
context, so they inject the same plan as the parent.
"""

from __future__ import annotations

import errno
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Optional, Union

from .context import current_context

#: Environment variable holding the ambient fault plan.
ENV_FAULTS = "REPRO_FAULTS"

#: Exit status used by injected worker kills (distinguishable from
#: crashes in worker logs; the supervisor treats any loss identically).
WORKER_KILL_EXIT = 117

#: Fault names accepted by :meth:`FaultPlan.parse`.
_PROBABILITY_FAULTS = ("worker_kill", "artifact_corrupt", "io_error",
                       "write_crash", "request_drop")


def _parse_probability(name: str, token: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ValueError(f"{name} needs a probability, got {token!r}") from exc
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} probability must be in [0, 1], got {value}")
    return value


def _parse_duration(token: str) -> float:
    """A duration in seconds: plain float seconds, ``20ms`` or ``1.5s``."""
    text = token.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        text, scale = text[:-2], 1e-3
    elif text.endswith("s"):
        text = text[:-1]
    try:
        value = float(text) * scale
    except ValueError as exc:
        raise ValueError(
            f"io_delay needs a duration (seconds, 'Ns' or 'Nms'), "
            f"got {token!r}") from exc
    if value < 0:
        raise ValueError(f"io_delay must be >= 0, got {token!r}")
    return value


@dataclass(frozen=True)
class FaultPlan:
    """One immutable chaos configuration (hashable, picklable).

    All-zero probabilities/delays (the default) mean "inject nothing";
    :meth:`active` distinguishes that from an explicit plan.
    """

    worker_kill: float = 0.0        #: P(kill worker) per chunk boundary
    artifact_corrupt: float = 0.0   #: P(corrupt payload) per artifact write
    io_error: float = 0.0           #: P(OSError) per store read/write
    write_crash: float = 0.0        #: P(die between write and rename)
    request_drop: float = 0.0       #: P(drop a service request) per attempt
    io_delay: float = 0.0           #: seconds added to every store I/O
    seed: int = 0                   #: decision seed (reproducibility knob)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` spec string.

        Comma-separated ``name:value`` entries; names are
        ``worker_kill``/``artifact_corrupt``/``io_error``/``write_crash``
        (probabilities), ``io_delay`` (duration) and ``seed`` (integer).
        """
        fields = {}
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, token = entry.partition(":")
            name = name.strip()
            if not sep:
                raise ValueError(
                    f"fault entry {entry!r} is not of the form name:value")
            if name in _PROBABILITY_FAULTS:
                fields[name] = _parse_probability(name, token)
            elif name == "io_delay":
                fields[name] = _parse_duration(token)
            elif name == "seed":
                try:
                    fields[name] = int(token)
                except ValueError as exc:
                    raise ValueError(
                        f"seed needs an integer, got {token!r}") from exc
            else:
                raise ValueError(
                    f"unknown fault {name!r}; choose from "
                    f"{_PROBABILITY_FAULTS + ('io_delay', 'seed')}")
        return cls(**fields)

    def active(self) -> bool:
        """Whether this plan injects anything at all."""
        return bool(self.worker_kill or self.artifact_corrupt
                    or self.io_error or self.write_crash
                    or self.request_drop or self.io_delay)

    def describe(self) -> str:
        """Canonical spec string (``FaultPlan.parse`` round-trips it)."""
        parts = []
        if self.worker_kill:
            parts.append(f"worker_kill:{self.worker_kill}")
        if self.artifact_corrupt:
            parts.append(f"artifact_corrupt:{self.artifact_corrupt}")
        if self.io_error:
            parts.append(f"io_error:{self.io_error}")
        if self.write_crash:
            parts.append(f"write_crash:{self.write_crash}")
        if self.request_drop:
            parts.append(f"request_drop:{self.request_drop}")
        if self.io_delay:
            parts.append(f"io_delay:{self.io_delay}s")
        if self.seed:
            parts.append(f"seed:{self.seed}")
        return ",".join(parts)


#: Plan meaning "no injection" (what an empty/unset spec resolves to).
NO_FAULTS = FaultPlan()


def resolve_plan(
    value: Union[FaultPlan, str, None]
) -> Optional[FaultPlan]:
    """Normalise a user-facing faults argument to a plan (or ``None``)."""
    if value is None:
        return None
    if isinstance(value, FaultPlan):
        return value
    return FaultPlan.parse(value)


# ----------------------------------------------------------------------
# plan resolution from the execution context
# ----------------------------------------------------------------------
_IN_WORKER = False


def active_plan() -> FaultPlan:
    """The fault plan in effect: the context's, else ``REPRO_FAULTS``
    (runs resolve their context once, so only unresolved callers parse
    the environment on every call)."""
    plan = current_context().faults
    if plan is not None:
        return plan
    raw = os.environ.get(ENV_FAULTS, "")
    return FaultPlan.parse(raw) if raw.strip() else NO_FAULTS


def mark_worker(value: bool = True) -> None:
    """Flag this process as a pool worker (kills only fire in workers --
    killing the supervisor would defeat the exercise)."""
    global _IN_WORKER
    _IN_WORKER = value


# ----------------------------------------------------------------------
# deterministic decisions
# ----------------------------------------------------------------------
def _decision(seed: int, site: str, *material) -> float:
    """A reproducible uniform draw in [0, 1) for one injection site.

    Pure function of (seed, site, material): independent of process,
    scheduling and call order, so a fixed-seed chaos run makes identical
    decisions everywhere.
    """
    text = "\x1f".join([str(seed), site] + [repr(m) for m in material])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def maybe_kill_worker(*identity) -> None:
    """Die (``os._exit``) at a chunk boundary if the plan says so.

    ``identity`` should include the dispatch attempt so retries of a
    killed chunk draw fresh decisions and eventually get through.
    No-op outside pool workers.
    """
    plan = active_plan()
    if not plan.worker_kill or not _IN_WORKER:
        return
    if _decision(plan.seed, "worker_kill", *identity) < plan.worker_kill:
        os._exit(WORKER_KILL_EXIT)


def corrupt_artifact(kind: str, key: str, payload: bytes) -> bytes:
    """Deterministically damage an artifact payload at write time.

    Per (kind, key) the plan decides whether -- and how -- to corrupt:
    either truncate to half length (a torn write) or flip one bit (rot).
    The decision never changes for a given key, so a corrupted artifact
    stays corrupted: every later read must detect it and recompute.
    """
    plan = active_plan()
    if not plan.artifact_corrupt or not payload:
        return payload
    if _decision(plan.seed, "artifact_corrupt", kind, key) \
            >= plan.artifact_corrupt:
        return payload
    mode = _decision(plan.seed, "corrupt_mode", kind, key)
    if mode < 0.5:
        return payload[: len(payload) // 2]
    offset = int(_decision(plan.seed, "corrupt_offset", kind, key)
                 * len(payload))
    flipped = bytearray(payload)
    flipped[offset] ^= 0x40
    return bytes(flipped)


def maybe_io_error(op: str, kind: str, key: str) -> None:
    """Raise an ``OSError`` at a store I/O site if the plan says so.

    Writes fail with ``ENOSPC`` (the disk-pressure case the store must
    degrade gracefully on), reads with ``EIO``.  The decision is keyed
    on (op, kind, key), so a doomed artifact stays doomed for the whole
    run: every access must fall back to recompute, and the final output
    must still be byte-identical.
    """
    plan = active_plan()
    if not plan.io_error:
        return
    if _decision(plan.seed, "io_error", op, kind, key) < plan.io_error:
        code = errno.ENOSPC if op == "write" else errno.EIO
        raise OSError(code, os.strerror(code), f"{kind}/{key}")


def maybe_write_crash(kind: str, key: str) -> bool:
    """Whether a writer should "die" between its temp write and the
    atomic rename, stranding the temp file.

    Keyed on (kind, key) like :func:`corrupt_artifact`: a crashing
    publish crashes every time, so the artifact is never cached and the
    orphaned ``.tmp`` litter keeps accumulating until ``gc``/``fsck``
    reaps it -- the worst case the store must stay correct under.
    """
    plan = active_plan()
    if not plan.write_crash:
        return False
    return _decision(plan.seed, "write_crash", kind, key) < plan.write_crash


def maybe_drop_request(*identity) -> bool:
    """Whether the experiment server should drop this request attempt.

    ``identity`` should include a per-request attempt counter (the
    server keys one on the request's method/path/body identity), so a
    retried request draws a fresh decision and -- with any probability
    below 1.0 -- eventually gets through, exactly like killed-chunk
    retries.  Dedup makes the retry idempotent on the server side.
    """
    plan = active_plan()
    if not plan.request_drop:
        return False
    return _decision(plan.seed, "request_drop", *identity) \
        < plan.request_drop


def io_pause() -> None:
    """Sleep for the plan's ``io_delay`` (no-op without one)."""
    delay = active_plan().io_delay
    if delay:
        time.sleep(delay)
