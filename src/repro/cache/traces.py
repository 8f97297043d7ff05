"""Persistence glue for compiled correct-path traces.

Budgets are rounded up to power-of-two buckets so a workload accumulates
a handful of trace artifacts at most (one per magnitude), not one per
exact instruction budget; the bucket floor comfortably covers the
default functional warm-up (<= 200k instructions), which is the deepest
any single oracle of a typical run reads.

Trace payloads go through the store's one get-or-compute
(:func:`repro.cache.store.cached`), so they inherit its digest framing: a
corrupted compiled trace is a miss-and-recompile, never a silently wrong
instruction stream.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..workloads.trace import CompiledTrace, Workload, compile_trace
from .store import active_store, cached

#: Instructions beyond the requested budget compiled into the prefix, so
#: a final stream that straddles the budget stays inside the arrays.
TRACE_MARGIN = 4096

#: Smallest trace bucket (2**18 = 262144 instructions: the default
#: warm-up budget cap of 200k plus margin fits in the floor bucket).
MIN_TRACE_BUCKET = 1 << 18

#: Per-process compiled traces, keyed by (workload name, seed, bucket) --
#: one load/compile per process however many tasks share the workload.
_TRACES: Dict[Tuple[str, int, int], CompiledTrace] = {}


def trace_bucket(instructions: int) -> int:
    """Power-of-two bucket covering ``instructions`` plus the margin."""
    needed = instructions + TRACE_MARGIN
    bucket = MIN_TRACE_BUCKET
    while bucket < needed:
        bucket <<= 1
    return bucket


def ensure_compiled_trace(
    workload: Workload, instructions: int
) -> CompiledTrace:
    """Back ``workload`` with a stored trace covering ``instructions``.

    Decides persistence only: every workload already owns a trace that
    grows on demand, so with caching disabled (or a trace that already
    covers the budget) this returns the workload's own trace untouched.
    Otherwise the bucket's trace is taken from the per-process cache,
    loaded from the artifact store, or compiled once and published for
    every later process, and attached.
    """
    trace = workload._compiled_trace
    if (active_store() is None
            or trace.compiled_instructions >= instructions + TRACE_MARGIN):
        return trace
    bucket = trace_bucket(instructions)
    trace = cached(
        _TRACES, "trace",
        (workload.profile.name, workload.profile.seed, bucket),
        CompiledTrace, lambda: compile_trace(workload, bucket),
    )
    workload.attach_compiled_trace(trace)
    return trace


def clear_trace_cache() -> None:
    """Drop the per-process compiled-trace cache (tests, benchmarks)."""
    _TRACES.clear()
