"""Sampled simulation: BBV profiling, SimPoint-style interval selection,
checkpoint/restore-based sampled runs.

Workflow (see README "Sampled simulation"):

1. :func:`profile_workload` -- one functional pass over the correct path,
   yielding per-interval basic-block vectors,
2. :func:`select_intervals` -- dependency-free k-means picks K
   representative intervals plus weights,
3. a sampled execution (``repro.api.ExecutionOptions(sampled=True)``) --
   each jump restores the deepest positioned checkpoint (the post-skip
   state an earlier segment or run published, or the warm state) and
   skips the rest, producing a weighted
   :class:`~repro.simulator.stats.SimulationResult` estimate of the full
   run at a fraction of its cost.
"""

from .bbv import BBVProfile, DEFAULT_PROJECTION_DIM, profile_workload, project_counts
from .checkpoint import CheckpointStore, DEFAULT_STORE, clear_checkpoint_store
from .proxy import FunctionalProfile, functional_profile, proxy_cycles
from .sampled import DEFAULT_SPEC, SamplingSpec, get_selection
from .simpoint import (
    IntervalSelection,
    SelectedInterval,
    kmeans,
    select_intervals,
    select_stratified,
)

__all__ = [
    "BBVProfile",
    "CheckpointStore",
    "DEFAULT_PROJECTION_DIM",
    "DEFAULT_SPEC",
    "DEFAULT_STORE",
    "FunctionalProfile",
    "IntervalSelection",
    "SamplingSpec",
    "SelectedInterval",
    "clear_checkpoint_store",
    "functional_profile",
    "get_selection",
    "kmeans",
    "profile_workload",
    "project_counts",
    "proxy_cycles",
    "select_intervals",
    "select_stratified",
]
