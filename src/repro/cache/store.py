"""Content-addressed, versioned on-disk artifact store.

Every expensive derived artifact of the toolkit -- compiled traces
(kind ``trace``), warm-up artifacts (``warmup``), BBV profiles, proxy
profiles and interval selections (``bbv``, ``fprofile``, ``selection``),
positioned and frontier checkpoints and their offset indexes
(``positioned``, ``frontier``, ``*-index``), and the results of full
and sampled runs (``result``) -- is deterministic given its key
material, so it is computed once and replayed by every later process.
This module holds the store and :func:`cached`, the one
workload-memory-then-store get-or-compute in front of it:

* **Layout** -- ``<root>/v<SCHEMA_VERSION>/<kind>/<sha256>.pkl``.  The
  schema version is baked into the directory name, so bumping
  :data:`SCHEMA_VERSION` (changed artifact formats, changed pickling)
  orphans old artifacts instead of misreading them: a version mismatch
  is simply a cache miss followed by a recompute.
* **Addressing** -- keys are SHA-256 digests of a canonical
  serialization of the key material (see :mod:`repro.cache.keys`);
  artifacts with equal content keys are interchangeable.
* **Robustness** -- writes are atomic (temp file + ``os.replace``) so a
  killed process never publishes a torn artifact; every payload carries
  a SHA-256 digest frame (:func:`frame_digest`), so a torn or
  bit-flipped file of *any* kind is detected before decompression or
  unpickling, treated as a miss, deleted, and recomputed.  Transient
  ``OSError``s are retried with bounded backoff; ``ENOSPC`` or a write
  path that stays broken flips the store to warn-once *read-only*
  operation that re-probes after a backoff (``cache stats`` shows the
  counters), never silence and never a crash.  ``cache fsck`` audits
  the whole store offline.
* **Concurrency** -- an advisory ``fcntl`` lock file per store root
  coordinates *processes*: artifact reads/writes hold it shared,
  maintenance (``gc``/``fsck``/``clear``) holds it exclusive, so
  eviction can never unlink an artifact another process is mid-read on
  and every ``.tmp`` file seen under the exclusive lock is provably
  orphaned.  Locking is best-effort: where ``fcntl`` is unavailable the
  store degrades to today's lockless behaviour.
* **Configuration** -- the store a run uses comes from its execution
  context (:mod:`repro.context`): the root is the context's
  ``cache_dir`` (a session's or the CLI's ``--cache-dir``), else
  ``REPRO_CACHE_DIR``, else ``.repro-cache/`` in the working directory;
  the context's ``cache=False`` (``--no-cache``) or
  ``REPRO_CACHE_DISABLE=1`` disables caching entirely, in which case
  :func:`active_store` returns ``None`` and every caller falls back to
  plain recomputation.  One :class:`ArtifactStore` serves each root for
  the life of the process, so concurrent runs on different roots each
  keep their own.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import pickle
import shutil
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .. import faults
from ..context import current_context, use_context
from .keys import content_key

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Version of the on-disk artifact schema.  Bump whenever the format of
#: any persisted artifact changes incompatibly (new columnar layout,
#: different checkpoint pickling, changed result keys); old
#: versions' directories are ignored and reclaimed by ``cache clear``.
#: v2: split-invariant functional skips (``PredictionUnit._skip_partial``
#: rides in checkpoints and changes how resumed skips train the
#: predictor, so v1 checkpoints/measurements no longer replay
#: bit-identically) plus the positioned-checkpoint and full-run result
#: artifact kinds.
#: v3: checkpoint payloads (warm and positioned) are digest-framed
#: (:func:`frame_digest`), so a bit-flipped checkpoint that still
#: decompresses and unpickles is detected on restore instead of
#: replaying wrong simulator state.
#: v4: the digest frame is universal -- the store itself frames every
#: artifact kind (traces, profiles, selections, checkpoints, results),
#: so corruption of any payload is caught at the framing layer before
#: zlib/pickle ever see it, and ``cache fsck`` can audit the store
#: without deserializing anything.
#: v5: one checkpoint record -- the warm state is the ``positioned``
#: checkpoint at offset 0 (the ``checkpoint`` kind is gone), and
#: positioned and frontier checkpoints share one key layout.
#: v6: checkpoints pickle the back-end's RUU as completion cycles plus
#: a wrong-path count; a v5 checkpoint would unpickle and then fail.
#: v7: a frontier checkpoint's prediction unit is a cursor over a
#: prediction trace it carries by value; a v6 frontier holds a unit that
#: is mid-run and has no trace.
#: v8: one ``trace`` artifact per workload (keyed without a length
#: bucket), and stream predictors pickle their tables as int columns.
#: v9: caches and pre-buffers keep LRU recency as dict order (no
#: replacement-policy objects or LRU stamps); a v8 set's order is not
#: its recency, so restoring one would silently change results.
#: v10: a ``result`` is keyed by its sampling spec too and covers
#: sampled runs, which replay it as a whole; the ``measurement`` kind
#: is gone.
#: v11: checkpoints pickle the RUU as ``[completion, count]`` segments,
#: prediction-trace records carry their line split, load offsets and
#: drawn L1-D misses, and the skipped-load count moved from the D-cache
#: model to the prediction unit; a v10 checkpoint would unpickle and
#: then fail.
#: v12: a checkpoint's L2 bus pickles its queued requests as
#: ``(priority, sequence, submit cycle, on_grant)`` tuples with an int
#: sequence, and frontiers may hold requests in flight; a v11 bus holds
#: request objects, a live-request count and an ``itertools.count``.
#: v13: checkpoints drop the counters nothing read: queued bus requests
#: are ``(priority, sequence, on_grant)``, the bus keeps only its grants,
#: and the hierarchy and fetch engine lost their unread traffic counts;
#: a queued v12 bus request would fail to unpack at its grant.
SCHEMA_VERSION = 13

#: Default store root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment fallbacks for an execution context that leaves the
#: store root or enable flag unset.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_DISABLE = "REPRO_CACHE_DISABLE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


@dataclass
class StoreStats:
    """Per-process counters of store traffic (tests assert reuse on them)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    io_retries: int = 0      #: transient OSErrors retried (and recovered)
    read_errors: int = 0     #: reads abandoned after the retry budget
    write_errors: int = 0    #: writes abandoned after the retry budget
    crashed_writes: int = 0  #: injected write_crash faults (tmp left behind)
    skipped_writes: int = 0  #: writes dropped while degraded read-only
    reprobes: int = 0        #: write attempts after a degradation backoff
    recoveries: int = 0      #: re-probes that restored cached operation


def frame_digest(payload: bytes) -> bytes:
    """Prefix ``payload`` with its SHA-256 digest.

    Every payload goes through this inside :meth:`ArtifactStore.put_bytes`
    so a corrupted file that still decompresses *and* unpickles (a rotted
    bit inside pickled simulator state) is caught on read -- replaying
    a tampered artifact would silently produce wrong results, the one
    failure mode a cache is never allowed to have.
    """
    return hashlib.sha256(payload).digest() + payload


def unframe_digest(framed: Optional[bytes]) -> Optional[bytes]:
    """Verify and strip a :func:`frame_digest` prefix; ``None`` (treat as
    a miss and recompute) when the digest does not match the payload."""
    if framed is None or len(framed) <= 32:
        return None
    digest, payload = framed[:32], framed[32:]
    if hashlib.sha256(payload).digest() != digest:
        return None
    return payload


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`ArtifactStore.gc` pass removed."""

    files_removed: int = 0       #: artifacts evicted (LRU order)
    bytes_removed: int = 0
    tmp_files_removed: int = 0   #: orphaned writer temp files reaped
    tmp_bytes_removed: int = 0


@dataclass
class FsckReport:
    """What :meth:`ArtifactStore.fsck` found (and, with repair, removed)."""

    #: kind -> [intact files, corrupt files] for the current schema.
    per_kind: Dict[str, List[int]] = field(default_factory=dict)
    tmp_files: int = 0           #: orphaned writer temp files
    tmp_bytes: int = 0
    other_version_files: int = 0  #: artifacts under other ``v<N>`` dirs
    repaired: bool = False       #: whether this pass unlinked the damage

    @property
    def ok(self) -> int:
        return sum(entry[0] for entry in self.per_kind.values())

    @property
    def corrupt(self) -> int:
        return sum(entry[1] for entry in self.per_kind.values())

    @property
    def scanned(self) -> int:
        return self.ok + self.corrupt

    def clean(self) -> bool:
        """No damage and no litter (orphaned schema dirs are benign)."""
        return self.corrupt == 0 and self.tmp_files == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "corrupt": self.corrupt,
            "tmp_files": self.tmp_files,
            "tmp_bytes": self.tmp_bytes,
            "other_version_files": self.other_version_files,
            "repaired": self.repaired,
            "clean": self.clean(),
            "per_kind": {kind: {"ok": entry[0], "corrupt": entry[1]}
                         for kind, entry in sorted(self.per_kind.items())},
        }


class _StoreLock:
    """Advisory reader-writer lock for one store root.

    Cross-process coordination is an ``fcntl`` ``flock`` on
    ``<root>/.lock``: shared while reading or publishing artifacts,
    exclusive for maintenance (``gc``/``fsck``/``clear``).  Writers hold
    the shared lock across the whole temp-write + ``os.replace``
    publish, so under the exclusive lock every visible ``.tmp`` file
    belongs to a dead process and may be reaped.

    In-process, a condition variable multiplexes all threads onto one
    lock fd: ``flock`` locks belong to the open file description, so a
    second fd in the same process would deadlock a reader thread
    against its own maintenance thread.

    Locking is strictly best-effort -- if ``fcntl`` is missing or the
    lock file cannot be created/locked (read-only media, odd network
    filesystems), operations proceed unlocked exactly as before the
    lock existed.  A store must never fail *because of* its safety net.
    """

    def __init__(self, root: Path) -> None:
        self._root = Path(root)
        self._path = self._root / ".lock"
        self._cond = threading.Condition()
        self._shared = 0
        self._exclusive = False
        self._fd: Optional[int] = None

    def _flock(self, flags: int, create: bool) -> Optional[int]:
        if fcntl is None:
            return None
        try:
            if create:
                self._root.mkdir(parents=True, exist_ok=True)
            elif not self._root.is_dir():
                # Nothing on disk to coordinate over; a read miss must
                # not create the store root as a side effect.
                return None
            fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return None
        try:
            fcntl.flock(fd, flags)
        except OSError:
            os.close(fd)
            return None
        return fd

    def _unlock(self) -> None:
        if self._fd is None:
            return
        with contextlib.suppress(OSError):
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        with contextlib.suppress(OSError):
            os.close(self._fd)
        self._fd = None

    @contextlib.contextmanager
    def shared(self, create: bool = False):
        with self._cond:
            while self._exclusive:
                self._cond.wait()
            if self._shared == 0:
                self._fd = self._flock(
                    fcntl.LOCK_SH if fcntl else 0, create)
            self._shared += 1
        try:
            yield
        finally:
            with self._cond:
                self._shared -= 1
                if self._shared == 0:
                    self._unlock()
                    self._cond.notify_all()

    @contextlib.contextmanager
    def exclusive(self, create: bool = False):
        with self._cond:
            while self._exclusive or self._shared:
                self._cond.wait()
            self._exclusive = True
            self._fd = self._flock(fcntl.LOCK_EX if fcntl else 0, create)
        try:
            yield
        finally:
            with self._cond:
                self._exclusive = False
                self._unlock()
                self._cond.notify_all()


class ArtifactStore:
    """One on-disk artifact store rooted at ``root``."""

    #: Bounded retry policy for transient I/O errors: a flaky NFS mount or
    #: a hiccuping disk gets a few chances, a genuinely broken path does
    #: not stall runs (total worst-case wait ~60ms).  ``ENOSPC`` is never
    #: retried -- a full disk does not heal in 60ms.
    IO_ATTEMPTS = 3
    IO_BACKOFF = 0.02

    #: Degradation policy: after this many *consecutive* failed writes
    #: (or a single ``ENOSPC``) the store turns read-only and skips
    #: writes, then re-probes after the backoff so a transiently full
    #: disk recovers to cached operation instead of staying degraded
    #: for the process lifetime.
    DEGRADE_THRESHOLD = 2
    DEGRADE_BACKOFF = 5.0

    def __init__(self, root, version: int = SCHEMA_VERSION) -> None:
        self.root = Path(root)
        self.version = version
        self.stats = StoreStats()
        self.last_fsck: Optional[FsckReport] = None
        self._io_warned = False
        self._write_failures = 0      # consecutive; any success resets
        self._read_only_until = 0.0   # monotonic deadline; 0 = healthy
        self._lock = _StoreLock(self.root)

    # -- paths ----------------------------------------------------------
    @property
    def versioned_root(self) -> Path:
        return self.root / f"v{self.version}"

    def path_for(self, kind: str, key: str) -> Path:
        return self.versioned_root / kind / f"{key}.pkl"

    # -- I/O resilience -------------------------------------------------
    def _warn_io(self, action: str, path: Path, exc: OSError) -> None:
        """Warn the first time this store instance degrades to uncached
        operation (once: a broken cache volume would otherwise emit one
        warning per artifact of a sweep).  A successful re-probe re-arms
        the warning so the *next* degradation is reported again."""
        if self._io_warned:
            return
        self._io_warned = True
        warnings.warn(
            f"artifact cache {action} failed at {path} after "
            f"{self.IO_ATTEMPTS} attempts ({exc!r}); continuing without "
            f"the cache for the affected artifacts (see `repro-clgp "
            f"cache stats`)",
            RuntimeWarning,
            stacklevel=4,
        )

    def _with_io_retry(self, operation):
        """Run ``operation`` with bounded retry-and-backoff on transient
        ``OSError``s.  ``FileNotFoundError`` passes straight through --
        a missing artifact is an ordinary miss, not an I/O fault -- and
        ``ENOSPC`` fails immediately (retrying a full disk just burns
        the backoff budget)."""
        attempt = 0
        while True:
            try:
                return operation()
            except FileNotFoundError:
                raise
            except OSError as exc:
                if getattr(exc, "errno", None) == errno.ENOSPC:
                    raise
                attempt += 1
                if attempt >= self.IO_ATTEMPTS:
                    raise
                self.stats.io_retries += 1
                time.sleep(self.IO_BACKOFF * (2 ** (attempt - 1)))

    def _note_write_failure(self, exc: OSError) -> None:
        """Account one abandoned write; flip to read-only on disk
        pressure (``ENOSPC`` immediately, anything else after
        ``DEGRADE_THRESHOLD`` consecutive failures)."""
        self._write_failures += 1
        if (self._write_failures >= self.DEGRADE_THRESHOLD
                or getattr(exc, "errno", None) == errno.ENOSPC):
            self._read_only_until = time.monotonic() + self.DEGRADE_BACKOFF

    def read_only(self) -> bool:
        """Whether the store is currently degraded to read-only (writes
        are skipped until the re-probe backoff expires)."""
        return time.monotonic() < self._read_only_until

    # -- raw bytes ------------------------------------------------------
    def get_bytes(self, kind: str, key: str) -> Optional[bytes]:
        """The stored payload, or ``None`` on a miss / unreadable or
        corrupted file (corrupted files are deleted and recomputed).

        Every payload is digest-framed at write time, so corruption of
        *any* kind -- truncation, bit rot, a torn page -- is detected
        here, before zlib or pickle ever touch the bytes.
        """
        faults.io_pause()
        path = self.path_for(kind, key)
        try:
            with self._lock.shared():
                faults.maybe_io_error("read", kind, key)
                framed = self._with_io_retry(path.read_bytes)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as exc:
            self.stats.read_errors += 1
            self.stats.misses += 1
            self._warn_io("read", path, exc)
            return None
        payload = unframe_digest(framed)
        if payload is None:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.discard(kind, key)
            return None
        try:
            data = zlib.decompress(payload)
        except zlib.error:
            # Unreachable for on-disk damage (the frame catches that);
            # kept as a backstop for a buggy writer.
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.discard(kind, key)
            return None
        self.stats.hits += 1
        # Refresh the mtime so it doubles as an LRU clock: `gc` evicts the
        # artifacts that have gone the longest without being read.  A gc
        # pass that raced this refresh re-stats before unlinking.
        with contextlib.suppress(OSError):
            os.utime(path)
        return data

    #: zlib level 3: checkpoint pickles shrink ~10x while staying well
    #: under the cost of recomputing anything the store holds.
    _COMPRESSION_LEVEL = 3

    def put_bytes(self, kind: str, key: str, data: bytes) -> None:
        """Atomically publish ``data``; concurrent writers are safe (all
        produce identical content for one key, and ``os.replace`` is
        atomic), so worker processes may publish the same artifact freely.
        The one exception is a workload's ``trace``, whose writers may
        publish prefixes of one walk of different lengths: any of them
        is valid, the last writer wins, and a reader that needs more
        grows the prefix it gets.

        A write that keeps failing after retries is *dropped* -- counted
        in ``stats.write_errors`` and warned about once -- because a
        store write is always an optimisation: the caller already holds
        the computed artifact.  Repeated failures (or one ``ENOSPC``)
        degrade the store to read-only; after ``DEGRADE_BACKOFF`` the
        next write re-probes the path and, on success, restores cached
        operation.
        """
        if self._read_only_until:
            if time.monotonic() < self._read_only_until:
                self.stats.skipped_writes += 1
                return
            self.stats.reprobes += 1
        faults.io_pause()
        path = self.path_for(kind, key)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        payload = frame_digest(zlib.compress(data, self._COMPRESSION_LEVEL))
        payload = faults.corrupt_artifact(kind, key, payload)
        crashed = False

        def publish():
            nonlocal crashed
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(payload)
            if faults.maybe_write_crash(kind, key):
                # Injected process death between the temp write and the
                # rename: the temp file stays behind, exactly the litter
                # `gc`/`fsck` must be able to reap.
                crashed = True
                return
            os.replace(tmp, path)

        try:
            with self._lock.shared(create=True):
                faults.maybe_io_error("write", kind, key)
                self._with_io_retry(publish)
        except OSError as exc:
            self.stats.write_errors += 1
            self._note_write_failure(exc)
            self._warn_io("write", path, exc)
            with contextlib.suppress(OSError):
                tmp.unlink()
            return
        if crashed:
            self.stats.crashed_writes += 1
            return
        if self._read_only_until:
            # A successful re-probe: back to cached operation, and re-arm
            # the one-time warning for any future degradation.
            self.stats.recoveries += 1
            self._io_warned = False
        self._write_failures = 0
        self._read_only_until = 0.0
        self.stats.stores += 1

    def discard(self, kind: str, key: str) -> None:
        """Drop one artifact (used when a payload fails to deserialize)."""
        with contextlib.suppress(OSError):
            self.path_for(kind, key).unlink()

    # -- pickled objects ------------------------------------------------
    def get(self, kind: str, key: str):
        """Unpickle the stored artifact; corrupted files become misses."""
        data = self.get_bytes(kind, key)
        if data is None:
            return None
        try:
            return pickle.loads(data)
        except Exception:
            # The digest frame proves the bytes are what the writer
            # published, so this is an incompatible pickle that escaped
            # the schema version: drop it and recompute.
            self.stats.corrupt += 1
            self.stats.hits -= 1
            self.stats.misses += 1
            self.discard(kind, key)
            return None

    def put(self, kind: str, key: str, obj) -> None:
        self.put_bytes(
            kind, key, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        )

    # -- maintenance ----------------------------------------------------
    def entries(self) -> Iterator[Tuple[str, Path]]:
        """Yield ``(kind, path)`` for every artifact of this schema version."""
        base = self.versioned_root
        if not base.is_dir():
            return
        for kind_dir in sorted(p for p in base.iterdir() if p.is_dir()):
            for path in sorted(kind_dir.glob("*.pkl")):
                yield kind_dir.name, path

    def describe(self) -> Dict[str, Tuple[int, int]]:
        """Per-kind ``(file count, total bytes)`` for the current schema."""
        summary: Dict[str, List[int]] = {}
        for kind, path in self.entries():
            entry = summary.setdefault(kind, [0, 0])
            entry[0] += 1
            entry[1] += path.stat().st_size
        return {kind: (count, size) for kind, (count, size) in summary.items()}

    def _version_dirs(self) -> List[Path]:
        """The store's ``v<N>`` schema directories (and nothing else: the
        root may be a pre-existing directory full of unrelated files --
        ``--cache-dir .`` must never make ``clear`` destructive)."""
        if not self.root.is_dir():
            return []
        return sorted(
            path for path in self.root.iterdir()
            if path.is_dir() and path.name.startswith("v")
            and path.name[1:].isdigit()
        )

    def clear(self) -> int:
        """Empty the store (every schema version); returns files removed.

        Only the store's own ``v<N>`` directories are touched; unrelated
        content of the root directory is left alone.
        """
        removed = 0
        with self._lock.exclusive():
            for version_dir in self._version_dirs():
                removed += sum(1 for _ in version_dir.rglob("*.pkl"))
                shutil.rmtree(version_dir, ignore_errors=True)
        return removed

    def _reap_tmp(self, repair: bool = True) -> Tuple[int, int]:
        """Count (and with ``repair`` unlink) orphaned writer temp files.

        Only safe under the exclusive lock: live writers hold the shared
        lock across the whole temp-write + rename publish, so any
        ``.tmp`` file visible here was stranded by a dead process.
        """
        files = size = 0
        for version_dir in self._version_dirs():
            for tmp in version_dir.rglob(".*.tmp"):
                try:
                    tmp_size = tmp.stat().st_size
                    if repair:
                        tmp.unlink()
                except OSError:
                    continue
                files += 1
                size += tmp_size
        return files, size

    def gc(self, max_size_bytes: int) -> GcReport:
        """Reap orphaned temp files, then evict least-recently-used
        artifacts until the store fits ``max_size_bytes``.

        Reads refresh an artifact's mtime (see :meth:`get_bytes`), so
        mtime order is LRU order.  Every schema version is considered --
        orphaned versions are never *used*, so their stale mtimes put
        them first in line.  Eviction is only ever a cache miss followed
        by a recompute, never a wrong result.  An artifact whose mtime
        was refreshed by a concurrent read between the scan and its
        eviction turn is *not* evicted -- it just became the most
        recently used file in the store, so unlinking it would evict
        exactly the wrong artifact.  The whole pass runs under the
        exclusive store lock, so no other *process* is mid-read either.
        """
        if max_size_bytes < 0:
            raise ValueError("max_size_bytes must be >= 0")
        with self._lock.exclusive():
            tmp_files, tmp_bytes = self._reap_tmp()
            entries, total = self._gc_scan()
            removed_files, removed_bytes = self._gc_evict(
                entries, total, max_size_bytes)
        return GcReport(removed_files, removed_bytes, tmp_files, tmp_bytes)

    def _gc_scan(self) -> Tuple[List[Tuple[float, str, Path, int]], int]:
        """LRU-ordered ``(mtime, name, path, size)`` entries + total bytes."""
        entries: List[Tuple[float, str, Path, int]] = []
        total = 0
        for version_dir in self._version_dirs():
            for path in version_dir.rglob("*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                # str(path) breaks mtime ties deterministically.
                entries.append((stat.st_mtime, str(path), path,
                                stat.st_size))
                total += stat.st_size
        entries.sort()
        return entries, total

    def _gc_evict(
        self,
        entries: List[Tuple[float, str, Path, int]],
        total: int,
        max_size_bytes: int,
    ) -> Tuple[int, int]:
        """Eviction pass over a scan (separate from :meth:`_gc_scan` so
        the scan/evict race with a concurrent read-refresh is testable)."""
        removed_files = removed_bytes = 0
        for scanned_mtime, _name, path, size in entries:
            if total <= max_size_bytes:
                break
            try:
                current_mtime = path.stat().st_mtime
            except OSError:
                # Already gone (another process evicted it): it no
                # longer occupies space, so it counts toward the target
                # without being credited to this pass.
                total -= size
                continue
            if current_mtime > scanned_mtime:
                # Refreshed by a concurrent read since the scan: the
                # artifact is now MRU, not LRU -- skip it this round.
                continue
            with contextlib.suppress(OSError):
                path.unlink()
                removed_files += 1
                removed_bytes += size
                # Only count space as reclaimed when the unlink succeeded,
                # so a locked/read-only file cannot end eviction early.
                total -= size
        return removed_files, removed_bytes

    def fsck(self, repair: bool = False) -> FsckReport:
        """Audit the store: verify every current-version artifact's
        digest frame (and that it decompresses), find orphaned writer
        temp files and other-version leftovers.  With ``repair``,
        unlink everything damaged or stranded.

        Runs under the exclusive store lock, so no live writer's temp
        file can be mistaken for litter and no reader can race a repair
        unlink.  The universal digest frame (schema v4) means the audit
        never has to unpickle anything.
        """
        report = FsckReport(repaired=repair)
        with self._lock.exclusive():
            for kind, path in self.entries():
                entry = report.per_kind.setdefault(kind, [0, 0])
                try:
                    framed = path.read_bytes()
                except OSError:
                    framed = None
                payload = unframe_digest(framed)
                intact = payload is not None
                if intact:
                    try:
                        zlib.decompress(payload)
                    except zlib.error:
                        intact = False
                if intact:
                    entry[0] += 1
                else:
                    entry[1] += 1
                    if repair:
                        with contextlib.suppress(OSError):
                            path.unlink()
            report.tmp_files, report.tmp_bytes = self._reap_tmp(repair=repair)
            for version_dir in self._version_dirs():
                if version_dir.name == f"v{self.version}":
                    continue
                report.other_version_files += sum(
                    1 for _ in version_dir.rglob("*.pkl"))
        self.last_fsck = report
        return report

    def total_size(self) -> int:
        """Total bytes held by every schema version of the store,
        including stranded writer temp files (they occupy disk just the
        same -- ``gc`` reaps them)."""
        size = 0
        for version_dir in self._version_dirs():
            for path in version_dir.rglob("*"):
                with contextlib.suppress(OSError):
                    if path.is_file():
                        size += path.stat().st_size
        return size

    def orphaned(self) -> Tuple[int, int]:
        """``(files, bytes)`` held by *other* schema versions' directories
        (left behind by a SCHEMA_VERSION bump; reclaimed by :meth:`clear`)."""
        files = size = 0
        for version_dir in self._version_dirs():
            if version_dir.name == f"v{self.version}":
                continue
            for path in version_dir.rglob("*.pkl"):
                files += 1
                size += path.stat().st_size
        return files, size

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def __bool__(self) -> bool:
        """Always truthy: an *empty* store is still a store (len() would
        otherwise make ``if store:`` silently mean ``if non-empty``, at
        the cost of a directory walk)."""
        return True


# ----------------------------------------------------------------------
# store resolution from the execution context
# ----------------------------------------------------------------------
#: One store per root, shared by every run that uses the root.
_STORES: Dict[str, ArtifactStore] = {}
_STORES_LOCK = threading.Lock()


def cache_enabled() -> bool:
    enabled = current_context().cache
    if enabled is not None:
        return enabled
    return os.environ.get(ENV_CACHE_DISABLE, "").strip().lower() not in _TRUTHY


def resolved_cache_dir() -> str:
    return (current_context().cache_dir or os.environ.get(ENV_CACHE_DIR)
            or DEFAULT_CACHE_DIR)


def get_store() -> ArtifactStore:
    """The store at the context's root (even when caching is disabled --
    ``cache path``/``cache clear`` still need to address it)."""
    root = resolved_cache_dir()
    store = _STORES.get(root)
    if store is None:
        with _STORES_LOCK:
            store = _STORES.get(root)
            if store is None:
                store = _STORES[root] = ArtifactStore(root)
    return store


def active_store() -> Optional[ArtifactStore]:
    """The store to read/write artifacts through, or ``None`` when caching
    is disabled (callers then recompute everything in-process)."""
    return get_store() if cache_enabled() else None


def cached(workload, kind: str, key: Tuple, expected_type: type, compute):
    """Get-or-compute through both tiers: the value ``workload`` already
    derived under ``(kind, *key)`` (:meth:`Workload.derived`) first, then
    the active store's ``kind`` artifact for ``key`` (type-checked, so a
    foreign or stale payload degrades to recompute), computing and
    publishing on a full miss."""

    def load_or_compute():
        disk = active_store()
        if disk is None:
            return compute()
        disk_key = content_key(kind, *key)
        loaded = disk.get(kind, disk_key)
        if isinstance(loaded, expected_type):
            return loaded
        value = compute()
        disk.put(kind, disk_key, value)
        return value

    return workload.derived((kind, *key), load_or_compute)


@contextlib.contextmanager
def temporary_cache_dir(path, enabled: bool = True):
    """Run the block against the store at ``path`` (tests)."""
    with use_context(current_context().override(cache_dir=path,
                                                cache=enabled)):
        yield get_store()
