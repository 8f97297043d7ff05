"""The execution context: the cache, replay and fault policy of one run.

The four settings every run reads travel together in one frozen
:class:`ExecutionContext` held in a :class:`contextvars.ContextVar`, so
concurrent runs in one process -- sessions, the service's parallel
jobs -- each read their own policy, and nothing process-wide is
configured, snapshotted or restored.

Threads start with an empty context, so work handed to another thread
runs under a context captured where it was handed over:
``Session.submit`` runs its executor thread under the submission's
resolved context, ``ServerThread`` runs its event loop under
:func:`contextvars.copy_context`, and every pool chunk carries the
resolved context its worker runs under.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class ExecutionContext:
    """One run's cache, result-replay and fault policy (picklable).

    ``cache_dir`` is the artifact-store root, ``cache`` whether the
    store is used at all, ``result_cache`` whether full-run results and
    sampled measurements may replay, and ``faults`` the
    :class:`~repro.faults.FaultPlan` to inject.  ``None`` defers to the
    matching environment variable (``REPRO_CACHE_DIR``,
    ``REPRO_CACHE_DISABLE``, ``REPRO_RESULT_CACHE_DISABLE``,
    ``REPRO_FAULTS``), then to the default; :meth:`resolved` fills every
    field once, so a run's store reads need not consult the environment
    again.
    """

    cache_dir: Optional[str] = None
    cache: Optional[bool] = None
    result_cache: Optional[bool] = None
    faults: Optional[object] = None

    def override(self, cache_dir=None, cache: Optional[bool] = None,
                 result_cache: Optional[bool] = None,
                 faults=None) -> "ExecutionContext":
        """This context with each argument that is not ``None`` replacing
        its field (``faults`` may be a plan or a ``REPRO_FAULTS`` spec)."""
        from .faults import resolve_plan

        return ExecutionContext(
            cache_dir=self.cache_dir if cache_dir is None else str(cache_dir),
            cache=self.cache if cache is None else cache,
            result_cache=(self.result_cache if result_cache is None
                          else result_cache),
            faults=self.faults if faults is None else resolve_plan(faults),
        )

    def resolved(self) -> "ExecutionContext":
        """This context with every ``None`` field filled in from the
        environment and the defaults."""
        from .cache.results import result_cache_enabled
        from .cache.store import cache_enabled, resolved_cache_dir
        from .faults import active_plan

        with use_context(self):
            return ExecutionContext(resolved_cache_dir(), cache_enabled(),
                                    result_cache_enabled(), active_plan())


_CURRENT: contextvars.ContextVar[ExecutionContext] = contextvars.ContextVar(
    "repro_execution_context", default=ExecutionContext())


def current_context() -> ExecutionContext:
    """The execution context of the calling thread or task."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Run the block under ``context``; the previous one returns after."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
