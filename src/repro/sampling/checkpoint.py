"""Checkpoint store: machine states at instruction offsets.

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

Each (kind, state key) has one offset-indexed memo on the workload
object (:meth:`~repro.workloads.trace.Workload.derived`) in front of the
artifact store (:mod:`repro.cache`), which keys the workload by its name
and seed; checkpoints cross the process boundary with workload-aware
pickling (:mod:`repro.cache.shared`).  A checkpoint shares its
workload's objects, so it restores only into machines built on that
same object: kept on the object, it is found by no other workload and
dies with its own.

Everything here is deterministic, so worker processes that rebuild these
states -- or load them from disk -- produce identical results.  Keys come
from :func:`repro.cache.keys.stable_repr` (independent of hash
randomization and dataclass field order); format changes bump the
store's schema version, which turns old artifacts into misses.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Set, Tuple

from ..cache.keys import content_key, stable_repr
from ..cache.shared import dumps_with_workload, loads_with_workload
from ..cache.store import ArtifactStore, active_store
from ..simulator.config import SimulationConfig
from ..simulator.simulator import Simulator, SimulatorCheckpoint
from ..workloads.trace import Workload

#: The two checkpoint kinds (also their artifact-store kinds).
POSITIONED = "positioned"
FRONTIER = "frontier"


def position_key(config: SimulationConfig) -> str:
    """Identity of everything that shapes warm-up-plus-skip state.

    ``max_instructions`` and ``max_cycles`` only bound the timed run --
    no timed loop runs before a positioned state is taken -- so both are
    neutralized.  The warm-up budget defaults from ``max_instructions``
    and is pinned to its resolved value: two budgets share positioned
    checkpoints (the warm state included) exactly when their resolved
    warm-ups agree.
    """
    return stable_repr(config.with_overrides(
        max_instructions=1,
        max_cycles=None,
        warmup_instructions=config.resolved_warmup_instructions(),
    ))


def frontier_key(config: SimulationConfig) -> str:
    """Identity of everything that shapes *mid-timed-run* machine state.

    The budget bounds a run without steering it, so ``max_instructions``
    is neutralized and the resolved warm-up budget pinned.
    ``max_cycles`` stays bound: a restored state whose cycle count
    already exceeds a smaller limit would diverge from a fresh run.
    """
    return stable_repr(config.with_overrides(
        max_instructions=1,
        warmup_instructions=config.resolved_warmup_instructions(),
    ))


#: The state key of each checkpoint kind.
_STATE_KEYS = {POSITIONED: position_key, FRONTIER: frontier_key}


class CheckpointStore:
    """Finds and publishes checkpoints, and counts that traffic.

    The memory tier is the workload's own memo; the persistent tier is
    :func:`repro.cache.store.active_store`, resolved at each use from
    the calling run's execution context (so a session's or the CLI's
    ``--no-cache``/``--cache-dir`` apply); with caching off the store is
    memory-only.
    """

    def __init__(self) -> None:
        #: Checkpoint traffic keyed by (kind, "hit" | "miss" | "publish");
        #: tests assert prefix and frontier reuse on it.
        self.counts: Counter = Counter()

    # -- checkpoints: machine states at (kind, state key, offset) ------
    @staticmethod
    def _record(kind: str, config: SimulationConfig,
                workload: Workload) -> Tuple:
        """The store's key for ``kind`` states: the workload by name and
        seed."""
        return (kind, _STATE_KEYS[kind](config), workload.name,
                workload.profile.seed)

    @staticmethod
    def _memo(record: Tuple, workload: Workload
              ) -> Dict[int, SimulatorCheckpoint]:
        """The in-memory states of ``record``, kept on the workload."""
        return workload.derived(record, dict)

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
        memo = self._memo(record, workload)
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
        self._memo(record, workload)[offset] = checkpoint
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
            return offset in self._memo(record, workload)
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
        self._memo(record, workload)[offset] = checkpoint
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


#: The store every full and sampled run publishes to and restores from.
DEFAULT_STORE = CheckpointStore()
