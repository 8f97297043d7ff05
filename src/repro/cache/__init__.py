"""Persistent artifact cache for expensive derived simulation artifacts.

Public surface:

* :func:`repro.cache.store.active_store` / :func:`get_store` /
  :data:`SCHEMA_VERSION` -- the content-addressed on-disk store, chosen
  by the execution context (:mod:`repro.context`;
  :func:`temporary_cache_dir` runs a block against another root),
* :func:`repro.cache.store.cached` -- the one get-or-compute: the
  workload's memory first, then the store,
* :func:`repro.cache.keys.content_key` / :func:`stable_repr` -- stable,
  process-independent artifact keys,
* :func:`repro.cache.traces.ensure_compiled_trace` -- compiled
  correct-path traces,
* :mod:`repro.cache.results` -- the results of full and sampled runs,
  replayed whole (:func:`result_cache_enabled`),
* :mod:`repro.cache.shared` -- workload-aware checkpoint pickling.
"""

from .keys import content_key, stable_repr
from .results import (
    ENV_RESULT_CACHE_DISABLE,
    RESULT_CACHE_STATS,
    reset_result_stats,
    result_cache_enabled,
)
from .store import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ENV_CACHE_DISABLE,
    SCHEMA_VERSION,
    ArtifactStore,
    FsckReport,
    GcReport,
    active_store,
    cache_enabled,
    cached,
    frame_digest,
    get_store,
    temporary_cache_dir,
    unframe_digest,
)
from .traces import ensure_compiled_trace

__all__ = [
    "ArtifactStore",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "ENV_CACHE_DISABLE",
    "ENV_RESULT_CACHE_DISABLE",
    "FsckReport",
    "GcReport",
    "RESULT_CACHE_STATS",
    "SCHEMA_VERSION",
    "active_store",
    "cache_enabled",
    "cached",
    "content_key",
    "ensure_compiled_trace",
    "frame_digest",
    "get_store",
    "reset_result_stats",
    "result_cache_enabled",
    "stable_repr",
    "temporary_cache_dir",
    "unframe_digest",
]
