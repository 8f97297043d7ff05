"""Layer timing for the traced run, attached from outside the program.

:func:`install` wraps public functions and methods of the ``repro``
packages -- the layer boundaries -- without editing their sources.
Coarse calls (workload build, trace compile, store I/O, warm-up, a
simulator run, sampling passes, one API execution) record a span each:
name, start, end, parent span and run/request id.  Per-cycle calls (the
component ticks inside the timed loop) only keep a call count and a
total, because a span per call would cost more than the call.

Every wrapper also charges its duration to the enclosing wrapper, so
each name carries its *self* time: its own duration minus the time of
the wrapped calls nested inside it.  Spans stay in memory and are
written once, as Chrome trace-event JSON, by :meth:`Tracer.write_chrome`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Spans, per-name call statistics and counters of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.epoch = perf_counter()
        #: (id, name, start, end, parent id, rid, thread id)
        self.spans: List[tuple] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: free-form counters (bytes, instructions, reuse counts, ...)
        self.counters: Dict[str, float] = {}
        #: "parent>child" -> seconds the spanned child spent inside parent
        self.nested: Dict[str, float] = {}
        #: every artifact store opened; their ``StoreStats`` are summed,
        #: because the session replaces its store instance per execution
        self.stores: list = []

    # -- bookkeeping ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stat(self, name: str) -> List[float]:
        with self._lock:
            return self.stats.setdefault(name, [0, 0.0, 0.0])

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set_rid(self, rid: Optional[str]) -> None:
        self._local.rid = rid

    # -- wrappers ---------------------------------------------------------
    def spanned(self, name: str, fn: Callable,
                after: Optional[Callable] = None,
                before: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``before(args)`` runs ahead of the call and its value is passed
        to ``after(result, args, state)`` once the call returned.
        """
        tracer = self
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = next((f[1] for f in reversed(stack) if f[1]), None)
            outer = stack[-1][2] if stack else None
            frame = [0.0, span_id, name]
            stack.append(frame)
            state = before(args) if before is not None else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                with tracer._lock:
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += duration - frame[0]
                    if outer is not None:
                        edge = f"{outer}>{name}"
                        tracer.nested[edge] = \
                            tracer.nested.get(edge, 0.0) + duration
                    tracer.spans.append(
                        (span_id, name, start, end, parent,
                         getattr(tracer._local, "rid", None),
                         threading.get_ident()))
            if after is not None:
                after(result, args, state)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap a per-cycle ``fn``: a call count and time total, no span.

        Only the timed loop calls these, on one thread at a time, so the
        statistics are updated without the lock.
        """
        tracer = self
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args):
            stack = tracer._stack()
            frame = [0.0, None, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
        return wrapper

    # -- output -----------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        store: Dict[str, int] = {}
        for instance in self.stores:
            for field, value in dataclasses.asdict(instance.stats).items():
                store[field] = store.get(field, 0) + value
        with self._lock:
            return {
                "store": store,
                "stats": {name: {"calls": int(s[0]), "total_s": s[1],
                                 "self_s": s[2]}
                          for name, s in self.stats.items()},
                "counters": dict(self.counters),
                "nested": dict(self.nested),
            }

    def write_chrome(self, path: str, process_name: str) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``
        and Perfetto open it)."""
        pid = os.getpid()
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": process_name}}]
        with self._lock:
            spans = list(self.spans)
        for span_id, name, start, end, parent, rid, tid in spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - self.epoch) * 1e6,
                "dur": (end - start) * 1e6, "pid": pid, "tid": tid,
                "args": {"id": span_id, "parent": parent, "rid": rid},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind a module-level function in every ``repro`` module that
    imported it by name, so ``from x import f`` call sites see the wrapper
    too."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported ``repro`` packages."""
    import repro.api  # noqa: F401  (imports every layer)
    import repro.sampling.sampled  # noqa: F401
    from repro import kernels
    from repro.api.session import Session
    from repro.backend.pipeline import BackendPipeline
    from repro.cache.store import ArtifactStore
    from repro.core.engine import FetchEngine
    from repro.frontend.prediction import PredictionUnit
    from repro.memory.bus import L2Bus
    from repro.sampling import bbv, proxy, simpoint
    from repro.sampling.checkpoint import CheckpointStore
    from repro.simulator.simulator import Simulator
    from repro.workloads import trace as workload_trace

    def wrap_function(module, attribute: str, name: str, **hooks) -> None:
        original = getattr(module, attribute)
        _replace_everywhere(original,
                            tracer.spanned(name, original, **hooks))

    def wrap_method(cls, attribute: str, name: str, **hooks) -> None:
        setattr(cls, attribute,
                tracer.spanned(name, vars(cls)[attribute], **hooks))

    def wrap_tick(cls, attribute: str, name: str) -> None:
        setattr(cls, attribute, tracer.counted(name, vars(cls)[attribute]))

    # workloads
    wrap_function(workload_trace, "build_workload", "workloads.build")
    wrap_function(workload_trace, "compile_trace", "workloads.compile_trace",
                  after=lambda result, args, _: tracer.count(
                      "workloads.trace_instr", args[1]))

    # cache: every artifact kind goes through the raw-bytes pair
    store_init = ArtifactStore.__init__

    @functools.wraps(store_init)
    def registering_init(self, *args, **kwargs):
        store_init(self, *args, **kwargs)
        tracer.stores.append(self)

    ArtifactStore.__init__ = registering_init
    wrap_method(ArtifactStore, "get_bytes", "cache.get",
                after=lambda result, args, _: tracer.count(
                    "cache.bytes_read", len(result) if result else 0))
    wrap_method(ArtifactStore, "put_bytes", "cache.put",
                after=lambda result, args, _: tracer.count(
                    "cache.bytes_written", len(args[3])))

    # simulator
    def run_before(args):
        sim = args[0]
        return sim.cycle, sim.backend.stats.committed_instructions

    def run_after(result, args, state):
        sim = args[0]
        tracer.count("simulator.cycles", sim.cycle - state[0])
        tracer.count("simulator.committed_instr",
                     sim.backend.stats.committed_instructions - state[1])

    wrap_method(Simulator, "run", "simulator.run",
                before=run_before, after=run_after)
    wrap_method(Simulator, "warm_up", "simulator.warm_up")
    wrap_method(Simulator, "skip_to", "simulator.skip",
                after=lambda result, args, _: tracer.count(
                    "simulator.skipped_instr", result))
    wrap_method(Simulator, "snapshot", "simulator.snapshot")
    wrap_method(Simulator, "restore", "simulator.restore")

    # the timed loop's components; engines wrapped where they override
    wrap_tick(BackendPipeline, "tick", "backend.tick")
    wrap_tick(PredictionUnit, "tick", "frontend.tick")
    wrap_tick(L2Bus, "tick", "memory.bus_tick")
    engines = [FetchEngine]
    for engine in engines:
        engines.extend(engine.__subclasses__())
    for engine in engines:
        if "fetch_tick" in vars(engine):
            wrap_tick(engine, "fetch_tick", "core.fetch_tick")
        # The base class's no-op is never called: the loop skips it.
        if "prefetch_tick" in vars(engine) and engine is not FetchEngine:
            wrap_tick(engine, "prefetch_tick", "core.prefetch_tick")

    # kernels
    wrap_function(kernels, "grouped_load_miss_counts", "kernels.batch")
    wrap_function(kernels, "interval_block_counts", "kernels.batch")
    wrap_tick(kernels.TwoLevelLRUReplay, "warm", "kernels.replay")
    wrap_tick(kernels.TwoLevelLRUReplay, "replay", "kernels.replay")

    # sampling
    wrap_function(bbv, "profile_workload", "sampling.bbv")
    wrap_function(proxy, "functional_profile", "sampling.proxy")
    wrap_function(proxy, "proxy_cycles", "sampling.proxy")
    count_intervals = (lambda result, args, _:
                       tracer.count("sampling.intervals", result.k))
    wrap_function(simpoint, "select_stratified", "sampling.selection",
                  after=count_intervals)
    wrap_function(simpoint, "select_intervals", "sampling.selection",
                  after=count_intervals)
    wrap_method(CheckpointStore, "positioned_checkpoint",
                "sampling.positioned",
                after=lambda result, args, _: tracer.count(
                    "sampling.positioned_reuse", result is not None))

    # api: one execution of a submission, and its per-task events
    def execute_before(args):
        tracer.set_rid(args[1].plan.name)

    wrap_method(Session, "_execute", "api.run", before=execute_before)

    def on_event(event) -> None:
        if event.kind == "task":
            tracer.count("runner.task_s", event.seconds or 0.0)
            tracer.count("runner.task_retries", event.retries or 0)
            tracer.count("runner.result_replays",
                         event.result_cache_hits or 0)

    submit = Session.submit

    @functools.wraps(submit)
    def traced_submit(self, *args, **kwargs):
        handle = submit(self, *args, **kwargs)
        handle.add_listener(on_event)
        return handle

    Session.submit = traced_submit
