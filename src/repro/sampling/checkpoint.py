"""Checkpoint store: machine states at offsets, plus the sampling caches.

A **checkpoint** is the machine state after :meth:`Simulator.warm_up`
plus one of two advances, saved at an instruction ``offset``:

* ``positioned`` -- a functional :meth:`Simulator.skip_to`; offset 0 is
  the warm state.  Skips are split-invariant, so a sampled run restores
  the deepest state at or before its skip target and skips only the
  delta, whatever budget or interval selection published it (gem5's
  LoopPoint flow, rv8's riscv-ckpt);
* ``frontier`` -- a timed run that committed ``offset`` instructions (a
  completed full run's end state), so a larger budget resumes the timed
  loop instead of resimulating the shared prefix.

Each (kind, state key, workload) has one offset-indexed memo in front of
the artifact store (:mod:`repro.cache`); checkpoints cross the process
boundary with workload-aware pickling (:mod:`repro.cache.shared`).  The
store also caches, through :func:`repro.cache.store.cached`, interval
selections (and the BBV profiles behind them) per (workload, sampling
parameters) and functional proxy profiles per (workload, geometry), so a
sweep profiles each benchmark once however many configurations it runs.

Everything here is deterministic, so pool workers that rebuild these
caches -- or load them from disk -- produce identical results.  Keys come
from :func:`repro.cache.keys.stable_repr` (independent of hash
randomization and dataclass field order); format changes bump the
store's schema version, which turns old artifacts into misses.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Set, Tuple

from ..cache.keys import content_key, stable_repr
from ..cache.shared import dumps_with_workload, loads_with_workload
from ..cache.store import ArtifactStore, active_store, cached
from ..simulator.config import SimulationConfig
from ..simulator.simulator import Simulator, SimulatorCheckpoint
from ..workloads.trace import Workload
from .bbv import BBVProfile, profile_workload
from .proxy import FunctionalProfile, feature_key, functional_profile
from .simpoint import IntervalSelection, select_intervals

#: The two checkpoint kinds (also their artifact-store kinds).
POSITIONED = "positioned"
FRONTIER = "frontier"


def position_key(config: SimulationConfig) -> str:
    """Identity of everything that shapes warm-up-plus-skip state.

    ``max_instructions`` and ``max_cycles`` only bound the timed run, and
    ``sim_loop`` only picks how it is stepped -- no timed loop runs before
    a positioned state is taken -- so all three are neutralized.  The
    warm-up budget defaults from ``max_instructions`` and is pinned to
    its resolved value: two budgets share positioned checkpoints (the
    warm state included) exactly when their resolved warm-ups agree.
    """
    return stable_repr(config.with_overrides(
        max_instructions=1,
        max_cycles=None,
        sim_loop="event",
        warmup_instructions=config.resolved_warmup_instructions(),
    ))


def frontier_key(config: SimulationConfig) -> str:
    """Identity of everything that shapes *mid-timed-run* machine state.

    The budget bounds a run without steering it, so ``max_instructions``
    is neutralized and the resolved warm-up budget pinned.
    ``max_cycles`` stays bound: a restored state whose cycle count
    already exceeds a smaller limit would diverge from a fresh run.
    ``sim_loop`` is neutralized although the event and cycle loops are
    *not* bit-identical -- the event loop can end a run one idle stretch
    later.  They differ only in where a run stops: a frontier published
    by either loop and resumed by the other equals the resuming loop's
    continuous run (pinned in ``tests/test_frontier.py`` on a run whose
    loops end 23 cycles apart).
    """
    return stable_repr(config.with_overrides(
        max_instructions=1,
        sim_loop="event",
        warmup_instructions=config.resolved_warmup_instructions(),
    ))


#: The state key of each checkpoint kind.
_STATE_KEYS = {POSITIONED: position_key, FRONTIER: frontier_key}


class CheckpointStore:
    """Cache of checkpoints, selections and profiles.

    The persistent tier is :func:`repro.cache.store.active_store`,
    resolved at each use from the calling run's execution context (so a
    session's or the CLI's ``--no-cache``/``--cache-dir`` apply); with
    caching off the store is memory-only.
    """

    def __init__(self) -> None:
        #: {(kind, state key, workload name, seed): {offset: checkpoint}}.
        self._states: Dict[Tuple, Dict[int, SimulatorCheckpoint]] = {}
        self._selections: Dict[Tuple, IntervalSelection] = {}
        self._profiles: Dict[Tuple, FunctionalProfile] = {}
        self._bbv_profiles: Dict[Tuple, BBVProfile] = {}
        #: Checkpoint traffic keyed by (kind, "hit" | "miss" | "publish");
        #: tests assert prefix and frontier reuse on it.
        self.counts: Counter = Counter()

    # -- checkpoints: machine states at (kind, state key, offset) ------
    @staticmethod
    def _record(kind: str, config: SimulationConfig,
                workload: Workload) -> Tuple:
        return (kind, _STATE_KEYS[kind](config), workload.name,
                workload.profile.seed)

    @staticmethod
    def _index(disk: ArtifactStore, record: Tuple) -> Set[int]:
        """The offsets the store lists for ``record`` (one small index
        artifact per record)."""
        kind = f"{record[0]}-index"
        index = disk.get(kind, content_key(kind, *record[1:]))
        if not isinstance(index, (list, tuple)):
            return set()
        return {offset for offset in index if isinstance(offset, int)}

    def deepest(
        self, kind: str, config: SimulationConfig, workload: Workload,
        low: int, high: int,
    ) -> Optional[Tuple[int, SimulatorCheckpoint]]:
        """``(offset, checkpoint)`` for the deepest ``kind`` checkpoint
        at an offset in ``[low, high]``, or ``None``: memory first, then
        the store (whose index lists the offsets); one that fails to
        load falls through to the next deepest."""
        record = self._record(kind, config, workload)
        memo = self._states.get(record, {})
        offsets = set(memo)
        disk = active_store()
        if disk is not None:
            offsets |= self._index(disk, record)
        for offset in sorted((offset for offset in offsets
                              if low <= offset <= high), reverse=True):
            checkpoint = memo.get(offset)
            if checkpoint is None and disk is not None:
                checkpoint = self._load(disk, record, offset, workload)
            if checkpoint is not None:
                self.counts[kind, "hit"] += 1
                return offset, checkpoint
        self.counts[kind, "miss"] += 1
        return None

    def positioned_checkpoint(
        self,
        config: SimulationConfig,
        workload: Workload,
        max_offset: int,
        min_offset: int = 0,
    ) -> Optional[Tuple[int, SimulatorCheckpoint]]:
        """The deepest positioned checkpoint in ``[min_offset,
        max_offset]`` (see :meth:`deepest`)."""
        return self.deepest(POSITIONED, config, workload,
                            min_offset, max_offset)

    def _load(
        self, disk: ArtifactStore, record: Tuple, offset: int,
        workload: Workload,
    ) -> Optional[SimulatorCheckpoint]:
        kind = record[0]
        key = content_key(*record, offset)
        # Digest-verified by the store: a corrupted checkpoint reads as
        # a miss, never as restorable wrong machine state.
        data = disk.get_bytes(kind, key)
        if data is None:
            return None
        try:
            checkpoint = SimulatorCheckpoint(loads_with_workload(data,
                                                                 workload))
        except Exception:
            disk.stats.corrupt += 1
            disk.discard(kind, key)
            return None
        self._states.setdefault(record, {})[offset] = checkpoint
        return checkpoint

    def published(
        self, kind: str, config: SimulationConfig, workload: Workload,
        offset: int,
    ) -> bool:
        """Whether a ``kind`` checkpoint at exactly ``offset`` exists --
        asked before snapshotting, so reruns skip the snapshot.  With a
        live store only the store answers: the memo may hold a state
        published to another root, and this store must still get it."""
        record = self._record(kind, config, workload)
        disk = active_store()
        if disk is None:
            return offset in self._states.get(record, {})
        return offset in self._index(disk, record)

    def publish(
        self, kind: str, config: SimulationConfig, workload: Workload,
        offset: int, checkpoint: SimulatorCheckpoint,
    ) -> None:
        """Record ``checkpoint`` as the ``kind`` state at ``offset``, in
        memory and in the active store.  The offset index is
        read-merge-written: a concurrent publisher can lose an entry to
        a race, costing a future reuse, never correctness."""
        record = self._record(kind, config, workload)
        self._states.setdefault(record, {})[offset] = checkpoint
        self.counts[kind, "publish"] += 1
        disk = active_store()
        if disk is None:
            return
        key = content_key(*record, offset)
        offsets = self._index(disk, record)
        if offset in offsets and disk.path_for(kind, key).exists():
            return      # already persisted to this store
        disk.put_bytes(kind, key,
                       dumps_with_workload(checkpoint._state, workload))
        disk.put(f"{kind}-index", content_key(f"{kind}-index", *record[1:]),
                 sorted(offsets | {offset}))

    def warm_checkpoint(
        self, config: SimulationConfig, workload: Workload
    ) -> SimulatorCheckpoint:
        """The warm state (positioned offset 0), built and published on
        first use."""
        found = self.deepest(POSITIONED, config, workload, 0, 0)
        if found is not None:
            return found[1]
        simulator = Simulator(config, workload)
        simulator.warm_up()
        checkpoint = simulator.snapshot()
        self.publish(POSITIONED, config, workload, 0, checkpoint)
        return checkpoint

    # -- BBV profiles ---------------------------------------------------
    def bbv_profile(
        self,
        workload: Workload,
        total_instructions: int,
        interval_length: int,
    ) -> BBVProfile:
        """Per-interval basic-block vectors, cached (memory, then disk)."""
        key = (
            workload.name, workload.profile.seed,
            total_instructions, interval_length,
        )
        return cached(
            self._bbv_profiles, "bbv", key, BBVProfile,
            lambda: profile_workload(
                workload, total_instructions, interval_length
            ),
        )

    # -- interval selections -------------------------------------------
    def selection(
        self,
        workload: Workload,
        total_instructions: int,
        interval_length: int,
        max_intervals: int,
        projection_dim: int,
        seed: int,
        iterations: int = 30,
    ) -> IntervalSelection:
        """BBV-profile + k-means selection, cached per parameters."""
        key = (
            workload.name, workload.profile.seed, total_instructions,
            interval_length, max_intervals, projection_dim, seed, iterations,
        )
        return cached(
            self._selections, "selection", key, IntervalSelection,
            lambda: select_intervals(
                self.bbv_profile(workload, total_instructions,
                                 interval_length),
                max_intervals=max_intervals,
                projection_dim=projection_dim,
                seed=seed,
                iterations=iterations,
            ),
        )

    # -- functional profiles (proxy features) --------------------------
    def functional_profile(
        self,
        config: SimulationConfig,
        workload: Workload,
        total_instructions: int,
        interval_length: int,
    ) -> FunctionalProfile:
        """Per-interval functional features, cached per geometry.

        The key only contains the configuration fields the features
        depend on (cache/predictor geometry, warm budget), so every
        scheme of a sweep that shares them shares one profiling pass.
        """
        key = (
            workload.name, workload.profile.seed,
            total_instructions, interval_length, feature_key(config),
        )
        return cached(
            self._profiles, "fprofile", key, FunctionalProfile,
            lambda: functional_profile(
                workload, config, total_instructions, interval_length
            ),
        )

    def clear(self) -> None:
        self._states.clear()
        self._selections.clear()
        self._profiles.clear()
        self._bbv_profiles.clear()
        self.counts.clear()

    def __len__(self) -> int:
        return (len(self._selections) + len(self._profiles)
                + len(self._bbv_profiles)
                + sum(len(states) for states in self._states.values()))


#: Default per-process store used by sampled executions.
DEFAULT_STORE = CheckpointStore()


def clear_checkpoint_store() -> None:
    """Drop all cached checkpoints, selections and profiles (tests,
    memory)."""
    DEFAULT_STORE.clear()
