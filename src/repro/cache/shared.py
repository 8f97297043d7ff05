"""Workload-aware pickling for simulator checkpoints.

A :class:`~repro.simulator.simulator.SimulatorCheckpoint` deliberately
*shares* the immutable workload objects (profile, CFG, basic-block
dictionary, the append-only compiled correct-path trace) instead of
copying them -- that is what makes snapshots cheap.  Pickling
such a checkpoint naively would drag the whole program description into
every artifact file and, worse, a loaded checkpoint would reference
*private copies* of those objects instead of the live workload's.

This module keeps the sharing across the process boundary with the
pickle ``persistent_id`` protocol: the workload-owned objects are
replaced by small named tokens on the way out and resolved against the
*live* workload on the way in.  Everything those objects hold is
deterministic per workload profile (append-only trace arrays, memoised
dictionaries), so resolving against a freshly-built workload yields a
bit-identical continuation.
"""

from __future__ import annotations

import io
import pickle
from typing import Dict

from ..workloads.trace import Workload


def _shared_objects(workload: Workload) -> Dict[str, object]:
    """The workload-owned objects a checkpoint shares, by token."""
    return {
        "workload": workload,
        "profile": workload.profile,
        "cfg": workload.cfg,
        "bbdict": workload.bbdict,
        "compiled_trace": workload._compiled_trace,
    }


def dumps_with_workload(obj, workload: Workload) -> bytes:
    """Pickle ``obj`` with ``workload``-owned objects tokenized out."""
    mapping = {id(obj): token
               for token, obj in _shared_objects(workload).items()}
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda candidate: mapping.get(id(candidate))
    pickler.dump(obj)
    return buffer.getvalue()


def loads_with_workload(data: bytes, workload: Workload):
    """Unpickle, resolving tokens against the live ``workload``.

    A token this version does not share (a payload written by another
    version) raises :class:`pickle.UnpicklingError`; callers treat any
    load failure as a corrupt artifact and recompute.
    """
    shared = _shared_objects(workload)

    def resolve(token: str):
        try:
            return shared[token]
        except KeyError:
            raise pickle.UnpicklingError(
                f"unknown shared-object token {token!r}") from None

    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = resolve
    return unpickler.load()
