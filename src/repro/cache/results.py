"""Result caching: persist the complete ``SimulationResult`` of every run.

A simulation, full or sampled, is deterministic given its configuration,
workload, instruction budget and sampling spec, so its complete
:class:`~repro.simulator.stats.SimulationResult` is itself an artifact:
any later invocation of the same run replays the stored result
byte-identically instead of simulating.  The runner's ``_run_task``
asks here first for every task, so this is the one replay path: a hit
needs neither the built workload nor any other artifact.

Policy
------

Result replay is **on by default whenever the artifact cache is
enabled** and separately switchable, because replaying a final result is
a stronger policy than replaying intermediate artifacts (there is no
simulation left to observe):

* the execution context's ``result_cache`` (:mod:`repro.context`) --
  the CLI's ``--no-result-cache`` and
  ``repro.api.ExecutionOptions(result_cache=...)`` set it per
  submission,
* ``REPRO_RESULT_CACHE_DISABLE=1`` -- the opt-out when the context
  leaves it unset,
* disabling the artifact cache itself (``--no-cache``) disables result
  replay with it.

Keys bind the full configuration (:func:`repro.cache.keys.stable_repr`),
the workload identity (name + generator seed), the resolved instruction
budget and the resolved sampling spec (``None`` for a full run); the
store's ``SCHEMA_VERSION`` guards format evolution, and the store's
universal digest frame (schema v4) rejects a torn or bit-rotted result
file before it can replay as a wrong result.
Hits/misses/stores are counted in :data:`RESULT_CACHE_STATS`
so callers (``repro.api.RunHandle`` progress events, tests) can report
result replays distinctly from ordinary artifact-store hits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..context import current_context
from .keys import content_key, stable_repr
from .store import active_store

#: Artifact kind under which run results are stored.
RESULT_KIND = "result"

#: Environment-level opt-out, for contexts that leave replay unset.
ENV_RESULT_CACHE_DISABLE = "REPRO_RESULT_CACHE_DISABLE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


@dataclass
class ResultCacheStats:
    """Per-process counters of result replay traffic."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0   #: payloads that loaded but failed the sanity check


#: Process-wide counters (reset by tests via :func:`reset_result_stats`).
RESULT_CACHE_STATS = ResultCacheStats()


def result_cache_enabled() -> bool:
    """Whether run results may be replayed instead of simulated."""
    enabled = current_context().result_cache
    if enabled is not None:
        return enabled
    return os.environ.get(
        ENV_RESULT_CACHE_DISABLE, ""
    ).strip().lower() not in _TRUTHY


def reset_result_stats() -> None:
    """Zero the per-process counters (tests)."""
    RESULT_CACHE_STATS.hits = 0
    RESULT_CACHE_STATS.misses = 0
    RESULT_CACHE_STATS.stores = 0
    RESULT_CACHE_STATS.invalid = 0


def result_cache_hits() -> int:
    """Current hit counter (the runner reports per-task deltas from it)."""
    return RESULT_CACHE_STATS.hits


def result_key(config, workload_name: str, workload_seed: int,
               total_instructions: int, sampling=None) -> str:
    """Content key of one run's result (``sampling``: the run's resolved
    sampling spec, ``None`` for a full run)."""
    return content_key(
        "sim-result", stable_repr(config),
        workload_name, workload_seed, total_instructions, sampling,
    )


def load_cached_result(config, workload_name: str, workload_seed: int,
                       total_instructions: int, sampling=None):
    """The persisted :class:`SimulationResult` for this run, or ``None``.

    ``None`` both on a miss and whenever result replay is disabled (the
    caller then simulates normally).  Only the workload *identity* is
    needed, so a hit never has to build the synthetic program at all.
    """
    if not result_cache_enabled():
        return None
    store = active_store()
    if store is None:
        return None
    from ..simulator.stats import SimulationResult

    key = result_key(config, workload_name, workload_seed,
                     total_instructions, sampling)
    loaded = store.get(RESULT_KIND, key)
    if isinstance(loaded, SimulationResult) \
            and loaded.workload == workload_name:
        RESULT_CACHE_STATS.hits += 1
        return loaded
    if loaded is not None:
        # Unpickled fine but is not a plausible result for this key
        # (foreign type or workload): drop it so it cannot shadow the
        # recomputed artifact forever.
        RESULT_CACHE_STATS.invalid += 1
        store.discard(RESULT_KIND, key)
    RESULT_CACHE_STATS.misses += 1
    return None


def store_result(config, workload_name: str, workload_seed: int,
                 total_instructions: int, sampling, result) -> None:
    """Publish one run's result (no-op when replay is disabled)."""
    if not result_cache_enabled():
        return
    store = active_store()
    if store is None:
        return
    store.put(RESULT_KIND, result_key(
        config, workload_name, workload_seed, total_instructions, sampling),
        result)
    RESULT_CACHE_STATS.stores += 1
