"""Persistence glue for compiled correct-path traces.

A workload has one ``trace`` artifact, keyed by its name and seed: the
longest prefix of its walk that any run has needed.  A run that needs
more grows that prefix to its own budget plus :data:`TRACE_MARGIN` and
republishes it under the same key, so every distinct (budget, warm-up)
pair shares one trace and no run compiles more than it reads.

Trace payloads go through the store's digest framing, so a corrupted
compiled trace is a miss-and-recompile, never a silently wrong
instruction stream.  Every prefix of the walk is a valid artifact: two
processes that publish different lengths race harmlessly (the last
writer wins, and a reader of the shorter trace grows it).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..workloads.trace import CompiledTrace, Workload, compile_trace
from .keys import content_key
from .store import active_store

#: Instructions beyond the requested budget compiled into the prefix, so
#: a final stream that straddles the budget stays inside the arrays.
TRACE_MARGIN = 4096

#: Per-process compiled traces, keyed by (workload name, seed) -- one
#: load/compile per process however many tasks share the workload.
_TRACES: Dict[Tuple[str, int], CompiledTrace] = {}


def ensure_compiled_trace(
    workload: Workload, instructions: int
) -> CompiledTrace:
    """Back ``workload`` with a stored trace covering ``instructions``.

    Decides persistence only: every workload already owns a trace that
    grows on demand, so with caching disabled (or a trace that already
    covers the budget) this returns the workload's own trace untouched.
    Otherwise it attaches the longest of the workload's own trace, the
    per-process one and the stored one; if even that falls short, it is
    compiled (or grown) to the budget plus the margin and republished.
    """
    trace = workload._compiled_trace
    target = instructions + TRACE_MARGIN
    store = active_store()
    if store is None or trace.compiled_instructions >= target:
        return trace
    key = (workload.profile.name, workload.profile.seed)
    # Ties keep the trace already in hand (max returns the first).
    trace = max(trace, _TRACES.get(key, trace), key=_covered)
    if trace.compiled_instructions < target:
        disk_key = content_key("trace", *key)
        stored = store.get("trace", disk_key)
        if isinstance(stored, CompiledTrace):
            trace = max(trace, stored, key=_covered)
        if trace.compiled_instructions < target:
            if trace.compiled_instructions:
                trace.bind(workload.cfg)
                trace.cover(target)
            else:
                trace = compile_trace(workload, target)
            store.put("trace", disk_key, trace)
    _TRACES[key] = trace
    workload.attach_compiled_trace(trace)
    return trace


def _covered(trace: CompiledTrace) -> int:
    return trace.compiled_instructions


def clear_trace_cache() -> None:
    """Drop the per-process compiled-trace cache (tests, benchmarks)."""
    _TRACES.clear()
