"""Checkpoint store: one warm-up pass per (configuration, benchmark).

A sampled run restarts timing from warm architectural state once per
selected interval, and a sweep restarts from it once per configuration.
Re-running the functional warm-up (and re-building the simulator) each
time would swamp the savings, so this store caches

* the warmed-simulator checkpoint per (configuration, workload) -- built
  on first use with :meth:`Simulator.warm_up` + :meth:`Simulator.snapshot`
  (which itself reuses :mod:`repro.simulator.warming`'s cached artifacts
  across configurations that share cache/predictor geometry),
* **positioned checkpoints**: post-``skip_to`` snapshots keyed by
  (position key, workload, instruction offset), so a run whose budget or
  interval selection changed restores the largest persisted offset at or
  before its skip target and only fast-forwards the delta instead of
  re-skipping the whole prefix from the warm checkpoint (the mechanism
  behind gem5's LoopPoint flow and rv8's riscv-ckpt),
* **frontier checkpoints**: the exact end state of every completed
  full (non-sampled) run keyed by (frontier key, workload, committed
  instructions), so increasing a run's instruction budget resumes the
  timed loop from the previous budget's frontier instead of
  resimulating the shared prefix,
* the interval selection (and the BBV profile behind it) per (workload,
  sampling parameters) -- the profiling pass and k-means run once per
  benchmark no matter how many configurations a sweep evaluates, and
* the per-interval functional proxy profile per (workload, geometry).

Each cache layer is two-tier: a per-process dictionary in front of the
persistent artifact store (:mod:`repro.cache`), so artifacts survive the
process and every later CLI invocation, CI job or pool worker replays
them from disk instead of recomputing.  Warm checkpoints cross the
process boundary with workload-aware pickling
(:mod:`repro.cache.shared`): the immutable workload objects stay shared
with the live process instead of being duplicated into every artifact.

Everything here is deterministic, so pool workers that rebuild these
caches independently -- or load them from disk -- produce identical
results.  Keys are derived from a stable serialization of the dataclass
fields (:func:`repro.cache.keys.stable_repr`): independent of process
hash randomization and of dataclass field order, and automatically
distinct for any content-changing config evolution; incompatible
*format* evolution is handled by the store's schema version, which turns
old artifacts into plain cache misses.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..cache.keys import content_key, stable_repr
from ..cache.shared import dumps_with_workload, loads_with_workload
from ..cache.store import ArtifactStore, active_store
from ..simulator.config import SimulationConfig
from ..simulator.simulator import Simulator, SimulatorCheckpoint
from ..workloads.trace import Workload
from .bbv import BBVProfile, profile_workload
from .proxy import FunctionalProfile, feature_key, functional_profile
from .simpoint import IntervalSelection, select_intervals


def _config_key(config: SimulationConfig) -> str:
    """Stable, process-independent identity of a configuration.

    A canonical serialization of every dataclass field (sorted by field
    name), not a bare value tuple: reordering fields cannot silently
    alias two configurations, adding a field changes the key, and the
    string is identical across processes regardless of hash
    randomization.
    """
    return stable_repr(config)


def position_key(config: SimulationConfig) -> str:
    """Identity of everything that shapes *post-skip* machine state.

    Positioned checkpoints exist to be reused by runs with a **changed
    instruction budget or interval selection**, so the run-length fields
    that cannot influence warm-up-plus-skip state are neutralized:
    ``max_instructions`` and ``max_cycles`` only bound the timed run and
    ``sim_loop`` is bit-identical by contract.  The functional warm-up
    budget *does* shape the state and (by default) derives from
    ``max_instructions``, so it is pinned to its resolved value -- two
    budgets share positioned checkpoints exactly when their resolved
    warm-ups agree.
    """
    return stable_repr(config.with_overrides(
        max_instructions=1,
        max_cycles=None,
        sim_loop="event",
        warmup_instructions=config.resolved_warmup_instructions(),
    ))


def frontier_key(config: SimulationConfig) -> str:
    """Identity of everything that shapes *mid-timed-run* machine state.

    Frontier checkpoints (the end state of a completed full run) are
    reused by runs of the same configuration with a **larger instruction
    budget**, so only ``max_instructions`` is neutralized -- the budget
    bounds the run without steering it.  Unlike :func:`position_key`,
    ``max_cycles`` stays bound: it sets the safety cycle limit, and a
    restored state whose cycle count already exceeds a smaller limit
    would diverge from a fresh run.  ``sim_loop`` is neutralized (event
    and cycle loops are bit-identical by contract), and the resolved
    warm-up budget is pinned because it defaults from
    ``max_instructions``.
    """
    return stable_repr(config.with_overrides(
        max_instructions=1,
        sim_loop="event",
        warmup_instructions=config.resolved_warmup_instructions(),
    ))


class CheckpointStore:
    """Cache of warm checkpoints, selections and profiles.

    The persistent tier is :func:`repro.cache.store.active_store`,
    resolved at each use from the calling run's execution context (so a
    session's or the CLI's ``--no-cache``/``--cache-dir`` apply); with
    caching off the store is memory-only.
    """

    def __init__(self) -> None:
        self._checkpoints: Dict[Tuple, SimulatorCheckpoint] = {}
        self._selections: Dict[Tuple, IntervalSelection] = {}
        self._profiles: Dict[Tuple, FunctionalProfile] = {}
        self._bbv_profiles: Dict[Tuple, BBVProfile] = {}
        self._requested: set = set()
        #: Positioned (post-skip) checkpoints: {(position key, workload
        #: name, seed): {instruction offset: checkpoint}}.
        self._positioned: Dict[Tuple, Dict[int, SimulatorCheckpoint]] = {}
        #: Reuse counters for positioned checkpoints (tests and the
        #: acceptance criteria assert prefix reuse on these).
        self.positioned_hits = 0
        self.positioned_misses = 0
        self.positioned_publishes = 0
        #: Frontier (end-of-completed-run) checkpoints: {(frontier key,
        #: workload name, seed): {committed instructions: checkpoint}}.
        self._frontier: Dict[Tuple, Dict[int, SimulatorCheckpoint]] = {}
        self.frontier_hits = 0
        self.frontier_misses = 0
        self.frontier_publishes = 0

    # -- warm simulator state ------------------------------------------
    def warm_checkpoint(
        self, config: SimulationConfig, workload: Workload
    ) -> SimulatorCheckpoint:
        """The post-warm-up checkpoint for (config, workload), cached.

        Misses fall through to the artifact store before building: a
        checkpoint published by any earlier process restores into a
        state bit-identical to a fresh ``Simulator`` + ``warm_up()``.
        """
        key = (_config_key(config), workload.name, workload.profile.seed)
        checkpoint = self._checkpoints.get(key)
        if checkpoint is not None:
            return checkpoint
        checkpoint = self._load_persisted_checkpoint(key, workload)
        if checkpoint is not None:
            return checkpoint
        simulator = Simulator(config, workload)
        simulator.warm_up()
        checkpoint = simulator.snapshot()
        self._checkpoints[key] = checkpoint
        disk = active_store()
        if disk is not None:
            # The store digest-frames every payload (schema v4), so a
            # rotted checkpoint is rejected on read instead of replaying
            # wrong simulator state.
            disk.put_bytes(
                "checkpoint", content_key("warm-checkpoint", *key),
                dumps_with_workload(checkpoint._state, workload),
            )
        return checkpoint

    def _load_persisted_checkpoint(
        self, key: Tuple, workload: Workload
    ) -> Optional[SimulatorCheckpoint]:
        """The persisted warm checkpoint for ``key``, or ``None``."""
        disk = active_store()
        if disk is None:
            return None
        disk_key = content_key("warm-checkpoint", *key)
        # A digest mismatch (payload rotted after writing, or tampering)
        # surfaces as a miss here: the store verifies the frame on read.
        data = disk.get_bytes("checkpoint", disk_key)
        if data is None:
            return None
        try:
            state = loads_with_workload(data, workload)
        except Exception:
            disk.stats.corrupt += 1
            disk.discard("checkpoint", disk_key)
            return None
        checkpoint = SimulatorCheckpoint(state)
        self._checkpoints[key] = checkpoint
        return checkpoint

    def warm_checkpoint_if_revisited(
        self, config: SimulationConfig, workload: Workload
    ) -> Optional[SimulatorCheckpoint]:
        """Build-and-cache the warm checkpoint on the *second* request.

        First request for a (configuration, benchmark): return ``None``
        (a one-shot sweep never comes back, so snapshotting would be
        wasted) but remember the key.  Any later request builds -- or
        returns -- the cached checkpoint, so repeated sampled runs of the
        same configuration (bench comparisons, interactive exploration)
        restore one shared warm-up instead of re-warming per jump.
        This tier is memory-only; the persistence-aware entry point is
        :meth:`jump_base_checkpoint`.
        """
        key = (_config_key(config), workload.name, workload.profile.seed)
        checkpoint = self._checkpoints.get(key)
        if checkpoint is not None:
            return checkpoint
        if key in self._requested:
            return self.warm_checkpoint(config, workload)
        self._requested.add(key)
        return None

    def jump_base_checkpoint(
        self, config: SimulationConfig, workload: Workload
    ) -> Optional[SimulatorCheckpoint]:
        """Warm state a sampled run jumps from.

        A checkpoint persisted by any earlier invocation is restored
        directly (no warm-up, no redone skips).  Nothing on disk keeps
        the lazy second-request heuristic: a one-shot sweep -- whose
        per-interval measurements are persisted separately and replayed
        wholesale on later invocations -- never pays for snapshotting
        and pickling state nothing will restore, while a pair that *is*
        revisited builds its checkpoint once and publishes it through
        :meth:`warm_checkpoint` for every later process.
        """
        key = (_config_key(config), workload.name, workload.profile.seed)
        checkpoint = self._checkpoints.get(key)
        if checkpoint is not None:
            return checkpoint
        checkpoint = self._load_persisted_checkpoint(key, workload)
        if checkpoint is not None:
            return checkpoint
        return self.warm_checkpoint_if_revisited(config, workload)

    # -- positioned (post-skip) checkpoints ----------------------------
    def positioned_checkpoint(
        self,
        config: SimulationConfig,
        workload: Workload,
        max_offset: int,
        min_offset: int = 0,
    ) -> Optional[Tuple[int, SimulatorCheckpoint]]:
        """The deepest positioned checkpoint at or before ``max_offset``.

        Returns ``(instruction offset, checkpoint)`` for the largest
        published offset ``min_offset < offset <= max_offset`` of this
        (position key, workload), or ``None`` (``min_offset`` lets a
        caller that already holds a checkpoint at some offset ask only
        for strictly deeper ones, so the reuse counters count real
        reuse).  The checkpoint's state is exactly ``warm_up()`` followed
        by ``skip_to(offset)`` -- functional skips are split-invariant,
        so restoring it and skipping the remaining delta is bit-identical
        to skipping the whole prefix from the warm checkpoint, whatever
        budget or interval selection produced the persisted offset.
        Memory tier first, then the artifact store (offsets are
        enumerated through a small per-(config, workload) index
        artifact).
        """
        key = (position_key(config), workload.name, workload.profile.seed)
        memo = self._positioned.get(key, {})
        candidates = {off for off in memo if min_offset < off <= max_offset}
        disk = active_store()
        if disk is not None:
            index = disk.get("positioned-index",
                             content_key("positioned-index", *key))
            if isinstance(index, (list, tuple)):
                candidates.update(
                    off for off in index
                    if isinstance(off, int) and min_offset < off <= max_offset
                )
        for offset in sorted(candidates, reverse=True):
            checkpoint = memo.get(offset)
            if checkpoint is None and disk is not None:
                checkpoint = self._load_positioned(disk, key, offset,
                                                   workload)
            if checkpoint is not None:
                self.positioned_hits += 1
                return offset, checkpoint
        self.positioned_misses += 1
        return None

    def _load_positioned(
        self, disk: ArtifactStore, key: Tuple, offset: int,
        workload: Workload,
    ) -> Optional[SimulatorCheckpoint]:
        disk_key = content_key("positioned-checkpoint", *key, offset)
        # Digest-verified by the store: a corrupted checkpoint reads as
        # a miss, never as "successful" wrong machine state.
        data = disk.get_bytes("positioned", disk_key)
        if data is None:
            return None
        try:
            state = loads_with_workload(data, workload)
        except Exception:
            disk.stats.corrupt += 1
            disk.discard("positioned", disk_key)
            return None
        checkpoint = SimulatorCheckpoint(state)
        self._positioned.setdefault(key, {})[offset] = checkpoint
        return checkpoint

    def publish_positioned(
        self,
        config: SimulationConfig,
        workload: Workload,
        offset: int,
        checkpoint: SimulatorCheckpoint,
    ) -> None:
        """Record a post-``skip_to(offset)`` snapshot for later prefix
        reuse (memory tier always; artifact store when one is active).

        The per-(config, workload) offset index is read-merge-written;
        concurrent publishers may lose an index entry to a race, which
        costs a future prefix reuse, never correctness.
        """
        if offset <= 0:
            return
        key = (position_key(config), workload.name, workload.profile.seed)
        self._positioned.setdefault(key, {})[offset] = checkpoint
        self.positioned_publishes += 1
        disk = active_store()
        if disk is None:
            return
        disk_key = content_key("positioned-checkpoint", *key, offset)
        if disk.path_for("positioned", disk_key).exists():
            # Already persisted *to this store* (memo presence alone
            # proves nothing: the entry may have been published while
            # caching was disabled or routed at a different root);
            # republishing identical bytes would only burn time.
            return
        disk.put_bytes(
            "positioned", disk_key,
            dumps_with_workload(checkpoint._state, workload),
        )
        index_key = content_key("positioned-index", *key)
        index = disk.get("positioned-index", index_key)
        offsets = set(index) if isinstance(index, (list, tuple)) else set()
        offsets.add(offset)
        disk.put("positioned-index", index_key, sorted(offsets))

    # -- frontier (end-of-completed-run) checkpoints -------------------
    def frontier_checkpoint(
        self,
        config: SimulationConfig,
        workload: Workload,
        max_offset: int,
    ) -> Optional[Tuple[int, SimulatorCheckpoint]]:
        """The deepest frontier checkpoint strictly before ``max_offset``.

        Returns ``(committed instructions, checkpoint)`` for the largest
        published frontier ``0 < offset < max_offset`` of this (frontier
        key, workload), or ``None``.  A frontier checkpoint is the exact
        machine state at the end of a *completed* (never cycle-clamped)
        full run, so a run of the same configuration with a larger
        instruction budget restores it and resumes the timed loop from
        the frontier instead of resimulating the prefix -- bit-identical
        to the continuous run, because ``Simulator.run`` only consults
        the budget to decide when to stop.  Strictly ``< max_offset``:
        an equal-budget rerun must resimulate (a run that returns its
        own restored end state would turn ``--no-result-cache`` into a
        silent replay).
        """
        key = (frontier_key(config), workload.name, workload.profile.seed)
        memo = self._frontier.get(key, {})
        candidates = {off for off in memo if 0 < off < max_offset}
        disk = active_store()
        if disk is not None:
            index = disk.get("frontier-index",
                             content_key("frontier-index", *key))
            if isinstance(index, (list, tuple)):
                candidates.update(
                    off for off in index
                    if isinstance(off, int) and 0 < off < max_offset
                )
        for offset in sorted(candidates, reverse=True):
            checkpoint = memo.get(offset)
            if checkpoint is None and disk is not None:
                checkpoint = self._load_frontier(disk, key, offset,
                                                 workload)
            if checkpoint is not None:
                self.frontier_hits += 1
                return offset, checkpoint
        self.frontier_misses += 1
        return None

    def has_frontier(
        self, config: SimulationConfig, workload: Workload, offset: int
    ) -> bool:
        """Whether a frontier at exactly ``offset`` is already recorded.

        Checked *before* snapshotting at the end of a full run: repeated
        identical runs (bench rounds, sweeps re-entered per scheme) would
        otherwise pay the snapshot-and-pickle cost every time for a
        checkpoint that is already published.  With a live store only the
        store answers: the memo may hold a frontier published to another
        root (one process serves runs on several stores), and that store
        must still receive it.
        """
        key = (frontier_key(config), workload.name, workload.profile.seed)
        disk = active_store()
        if disk is None:
            return offset in self._frontier.get(key, {})
        index = disk.get("frontier-index", content_key("frontier-index", *key))
        return isinstance(index, (list, tuple)) and offset in index

    def _load_frontier(
        self, disk: ArtifactStore, key: Tuple, offset: int,
        workload: Workload,
    ) -> Optional[SimulatorCheckpoint]:
        disk_key = content_key("frontier-checkpoint", *key, offset)
        # Digest-verified by the store: a corrupted checkpoint reads as
        # a miss, never as resumable wrong machine state.
        data = disk.get_bytes("frontier", disk_key)
        if data is None:
            return None
        try:
            state = loads_with_workload(data, workload)
        except Exception:
            disk.stats.corrupt += 1
            disk.discard("frontier", disk_key)
            return None
        checkpoint = SimulatorCheckpoint(state)
        self._frontier.setdefault(key, {})[offset] = checkpoint
        return checkpoint

    def publish_frontier(
        self,
        config: SimulationConfig,
        workload: Workload,
        offset: int,
        checkpoint: SimulatorCheckpoint,
    ) -> None:
        """Record an end-of-run snapshot at ``offset`` committed
        instructions for later budget-increase fast-forwarding.

        Same read-merge-write index discipline as
        :meth:`publish_positioned`: a concurrent-publisher race can lose
        an index entry (costing a future reuse), never correctness.
        """
        if offset <= 0:
            return
        key = (frontier_key(config), workload.name, workload.profile.seed)
        self._frontier.setdefault(key, {})[offset] = checkpoint
        self.frontier_publishes += 1
        disk = active_store()
        if disk is None:
            return
        disk_key = content_key("frontier-checkpoint", *key, offset)
        if disk.path_for("frontier", disk_key).exists():
            return
        disk.put_bytes(
            "frontier", disk_key,
            dumps_with_workload(checkpoint._state, workload),
        )
        index_key = content_key("frontier-index", *key)
        index = disk.get("frontier-index", index_key)
        offsets = set(index) if isinstance(index, (list, tuple)) else set()
        offsets.add(offset)
        disk.put("frontier-index", index_key, sorted(offsets))

    # -- the memory-then-disk tier for plain-pickle artifacts ----------
    def _cached(self, memo: Dict, kind: str, key: Tuple,
                expected_type: type, compute):
        """Get-or-compute through both tiers: the per-process ``memo``
        dictionary first, then the artifact store (type-checked, so a
        foreign or stale payload degrades to recompute), computing and
        publishing on a full miss."""
        value = memo.get(key)
        if value is not None:
            return value
        disk = active_store()
        disk_key = content_key(kind, *key) if disk is not None else None
        if disk is not None:
            loaded = disk.get(kind, disk_key)
            if isinstance(loaded, expected_type):
                memo[key] = loaded
                return loaded
        value = compute()
        memo[key] = value
        if disk is not None:
            disk.put(kind, disk_key, value)
        return value

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
        return self._cached(
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
        return self._cached(
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
        return self._cached(
            self._profiles, "fprofile", key, FunctionalProfile,
            lambda: functional_profile(
                workload, config, total_instructions, interval_length
            ),
        )

    def clear(self) -> None:
        self._checkpoints.clear()
        self._selections.clear()
        self._profiles.clear()
        self._bbv_profiles.clear()
        self._requested.clear()
        self._positioned.clear()
        self.positioned_hits = 0
        self.positioned_misses = 0
        self.positioned_publishes = 0
        self._frontier.clear()
        self.frontier_hits = 0
        self.frontier_misses = 0
        self.frontier_publishes = 0

    def __len__(self) -> int:
        return (len(self._checkpoints) + len(self._selections)
                + len(self._profiles) + len(self._bbv_profiles)
                + sum(len(v) for v in self._positioned.values())
                + sum(len(v) for v in self._frontier.values()))


#: Default per-process store used by sampled executions.
DEFAULT_STORE = CheckpointStore()


def clear_checkpoint_store() -> None:
    """Drop all cached warm checkpoints and selections (tests, memory)."""
    DEFAULT_STORE.clear()
