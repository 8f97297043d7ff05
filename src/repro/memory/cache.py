"""Set-associative cache model (tags only).

Only tag state matters to the study, so the model stores which line
addresses are resident, with a pluggable replacement policy per set.
Latency and port behaviour live in :mod:`repro.memory.port`; this class is
purely about contents.

Used for the L0 filter cache, the L1 instruction cache, the unified L2 and
(structurally) the fully-associative pre-buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _replace
from typing import Dict, List, Optional

from .replacement import ReplacementPolicy, make_policy


@dataclass
class CacheStats:
    """Hit/miss counters for a cache instance."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative, write-allocate, tags-only cache.

    Parameters
    ----------
    name:
        Identifier used in statistics output (e.g. ``"il1"``, ``"ul2"``).
    size_bytes:
        Total capacity.  Must be a multiple of ``line_size * associativity``
        (one exception: ``associativity=None`` selects full associativity).
    line_size:
        Line size in bytes.
    associativity:
        Number of ways; ``None`` or a value >= number of lines means fully
        associative.
    policy:
        Replacement policy name ('lru', 'fifo', 'random').
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        line_size: int = 64,
        associativity: Optional[int] = 2,
        policy: str = "lru",
        policy_seed: int = 0,
    ) -> None:
        if size_bytes <= 0 or line_size <= 0:
            raise ValueError("cache size and line size must be positive")
        if size_bytes % line_size:
            raise ValueError("cache size must be a multiple of the line size")
        num_lines = size_bytes // line_size
        if associativity is None or associativity >= num_lines:
            associativity = num_lines
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        if num_lines % associativity:
            raise ValueError(
                f"{name}: {num_lines} lines not divisible by associativity "
                f"{associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.line_size = line_size
        #: Mask for power-of-two line sizes (the common case); falls back to
        #: modulo arithmetic otherwise.
        self._line_mask = ~(line_size - 1) if line_size & (line_size - 1) == 0 else None
        self.associativity = associativity
        self.num_sets = num_lines // associativity
        self.policy_name = policy
        self._policy_seed = policy_seed
        # Sets and their policies are allocated lazily on first touch: large
        # caches (the 1 MB L2 has 4096 sets) would otherwise pay thousands
        # of allocations per Simulator even when a run touches a handful.
        self._sets: Dict[int, Dict[int, bool]] = {}
        self._policies: Dict[int, ReplacementPolicy] = {}
        self.stats = CacheStats()

    # -- address mapping ---------------------------------------------------
    def line_address(self, addr: int) -> int:
        mask = self._line_mask
        if mask is not None:
            return addr & mask
        return addr - (addr % self.line_size)

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_size) % self.num_sets

    def _set_and_policy(self, idx: int):
        """Set contents + policy for ``idx``, allocating them on demand."""
        cset = self._sets.get(idx)
        if cset is None:
            cset = self._sets[idx] = {}
            self._policies[idx] = make_policy(
                self.policy_name, self._policy_seed + idx
            )
        return cset, self._policies[idx]

    # -- content queries ----------------------------------------------------
    def contains(self, addr: int) -> bool:
        """Tag check without touching replacement state or statistics.

        This models a *tag probe* (e.g. FDP's Enqueue Cache Probe
        Filtering, which uses "an additional tag port or replicated tags").
        """
        # line_address and _set_index inlined: the fetch stage probes
        # several caches per line access.
        mask = self._line_mask
        line = addr & mask if mask is not None else addr - (addr % self.line_size)
        cset = self._sets.get((line // self.line_size) % self.num_sets)
        return cset is not None and line in cset

    def lookup(self, addr: int) -> bool:
        """A real access: updates replacement state and hit/miss counters."""
        line = self.line_address(addr)
        idx = self._set_index(line)
        cset = self._sets.get(idx)
        if cset is not None and line in cset:
            self._policies[idx].touch(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    # -- content updates -----------------------------------------------------
    def fill(self, addr: int) -> Optional[int]:
        """Insert the line containing ``addr``.

        Returns the evicted line address (or ``None`` if no eviction /
        the line was already present).
        """
        line = self.line_address(addr)
        idx = self._set_index(line)
        cset, policy = self._set_and_policy(idx)
        if line in cset:
            policy.touch(line)
            return None
        evicted = None
        if len(cset) >= self.associativity:
            evicted = policy.victim(list(cset.keys()))
            del cset[evicted]
            policy.evict(evicted)
            self.stats.evictions += 1
        cset[line] = True
        policy.insert(line)
        self.stats.fills += 1
        return evicted

    def fill_span(self, addrs) -> None:
        """Insert a pre-computed run of line addresses, as :meth:`fill`
        would one by one.

        The batched functional pass (``simulator.warming``) replays whole
        fetch-stream spans at once; per-line ``fill`` calls then dominate.
        For the default LRU policy the set/policy bookkeeping is inlined
        here -- contents, stamp order, clock values and statistics evolve
        exactly as the equivalent ``fill`` sequence (evicted lines are not
        reported; no batched caller consumes them).  Other policies fall
        back to plain ``fill`` calls.
        """
        if self.policy_name != "lru":
            for addr in addrs:
                self.fill(addr)
            return
        mask = self._line_mask
        line_size = self.line_size
        num_sets = self.num_sets
        associativity = self.associativity
        sets = self._sets
        policies = self._policies
        fills = 0
        evictions = 0
        for addr in addrs:
            line = addr & mask if mask is not None else addr - (addr % line_size)
            idx = (line // line_size) % num_sets
            cset = sets.get(idx)
            if cset is None:
                cset = sets[idx] = {}
                policy = policies[idx] = make_policy(
                    self.policy_name, self._policy_seed + idx
                )
            else:
                policy = policies[idx]
            stamps = policy._stamp
            if line in cset:
                policy._clock += 1
                stamps[line] = policy._clock
                continue
            if len(cset) >= associativity:
                victim = min(cset, key=lambda tag: stamps.get(tag, -1))
                del cset[victim]
                stamps.pop(victim, None)
                evictions += 1
            cset[line] = True
            policy._clock += 1
            stamps[line] = policy._clock
            fills += 1
        self.stats.fills += fills
        self.stats.evictions += evictions

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing ``addr``; returns True if present."""
        line = self.line_address(addr)
        idx = self._set_index(line)
        cset = self._sets.get(idx)
        if cset is not None and line in cset:
            del cset[line]
            self._policies[idx].evict(line)
            self.stats.invalidations += 1
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (does not reset statistics)."""
        for cset in self._sets.values():
            cset.clear()

    # -- snapshots (warm-state reuse across runs) -----------------------------
    def snapshot(self) -> tuple:
        """Capture contents, replacement state and statistics.

        Used to warm many simulations from one replayed line trace: the
        warm-up replays once into a fresh cache, snapshots it, and later
        runs restore the snapshot instead of re-running thousands of
        :meth:`fill` calls.
        """
        return (
            {i: dict(s) for i, s in self._sets.items()},
            {i: p.clone() for i, p in self._policies.items()},
            _replace(self.stats),
        )

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot` (contents, policies and statistics)."""
        sets, policies, stats = snap
        self._sets = {i: dict(s) for i, s in sets.items()}
        self._policies = {i: p.clone() for i, p in policies.items()}
        self.stats = _replace(stats)

    def __deepcopy__(self, memo: dict) -> "Cache":
        """Fast deep copy via the snapshot machinery.

        Simulator checkpoints deep-copy whole machines; the caches are by
        far the largest objects involved, and the generic ``copy.deepcopy``
        walk over thousands of per-set dict entries dominates checkpoint
        cost.  Contents, replacement state and statistics are copied; the
        geometry scalars are immutable and shared.
        """
        new = object.__new__(Cache)
        new.name = self.name
        new.size_bytes = self.size_bytes
        new.line_size = self.line_size
        new._line_mask = self._line_mask
        new.associativity = self.associativity
        new.num_sets = self.num_sets
        new.policy_name = self.policy_name
        new._policy_seed = self._policy_seed
        new._sets = {i: dict(s) for i, s in self._sets.items()}
        new._policies = {i: p.clone() for i, p in self._policies.items()}
        new.stats = _replace(self.stats)
        memo[id(self)] = new
        return new

    # -- introspection --------------------------------------------------------
    @property
    def num_lines(self) -> int:
        return self.num_sets * self.associativity

    def resident_lines(self) -> List[int]:
        """All resident line addresses (mainly for tests/invariants)."""
        out: List[int] = []
        for cset in self._sets.values():
            out.extend(cset.keys())
        return out

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def __contains__(self, addr: int) -> bool:
        return self.contains(addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name!r}, {self.size_bytes}B, {self.associativity}-way, "
            f"{self.line_size}B lines, {self.num_sets} sets)"
        )
