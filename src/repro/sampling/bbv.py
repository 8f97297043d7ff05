"""Basic-block-vector (BBV) profiling of a workload's dynamic stream.

One cheap functional pass over a workload's correct path (no timing
simulation) slices it into fixed-length instruction intervals and records,
per interval, how many instructions each static basic block contributed --
the classic SimPoint fingerprint of "where the program was executing".
Intervals with similar vectors behave similarly under timing simulation,
which is what the k-means selection in :mod:`repro.sampling.simpoint`
exploits.

Vectors are compared after projection into a small fixed-dimension space
(SimPoint projects to 15 dimensions); here a deterministic feature-hashing
projection keeps the module dependency-free: each basic block address is
hashed to one bucket, and vectors are normalised to instruction fractions
so intervals of different lengths remain comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .. import kernels
from ..workloads.trace import IntervalRecord, Workload

#: Default projected dimensionality (SimPoint uses 15).
DEFAULT_PROJECTION_DIM = 16

#: Knuth's 64-bit multiplicative-hash constant: spreads block addresses
#: (which share low-bit structure) uniformly over buckets.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


def _bucket(addr: int, dim: int, seed: int) -> int:
    mixed = ((addr ^ (seed * 0x5851F42D4C957F2D)) * _HASH_MULTIPLIER) & _HASH_MASK
    return (mixed >> 32) % dim


def project_counts(
    block_counts: Dict[int, int],
    dim: int = DEFAULT_PROJECTION_DIM,
    seed: int = 0,
) -> List[float]:
    """Project a raw BBV into ``dim`` buckets, normalised to fractions."""
    vector = [0.0] * dim
    total = 0
    for addr, count in block_counts.items():
        vector[_bucket(addr, dim, seed)] += count
        total += count
    if total:
        vector = [v / total for v in vector]
    return vector


@dataclass(frozen=True)
class BBVProfile:
    """Per-interval basic-block vectors for one workload's correct path."""

    workload: str
    seed: int                       #: workload profile seed (determinism key)
    interval_length: int
    total_instructions: int
    intervals: Tuple[IntervalRecord, ...]

    def __len__(self) -> int:
        return len(self.intervals)

    def vectors(
        self, dim: int = DEFAULT_PROJECTION_DIM, seed: int = 0
    ) -> List[List[float]]:
        """Projected, normalised vectors (one per interval, same order)."""
        return [
            project_counts(record.block_counts, dim=dim, seed=seed)
            for record in self.intervals
        ]

    def interval_weights(self) -> List[float]:
        """Fraction of the profiled instructions in each interval (the
        final interval may be shorter than the rest)."""
        if not self.total_instructions:
            return [0.0] * len(self.intervals)
        return [
            record.length / self.total_instructions
            for record in self.intervals
        ]


def profile_workload(
    workload: Workload,
    total_instructions: int,
    interval_length: int,
) -> BBVProfile:
    """Replay ``total_instructions`` of the correct path into a profile.

    Purely functional (no caches or timing touched), and deterministic
    per workload seed -- interval ``i`` of the profile is exactly
    instructions ``[i*L, (i+1)*L)`` of any simulation run.  The intervals
    are sliced wholesale from the workload's compiled trace columns by
    :func:`repro.kernels.interval_block_counts`, which keeps each
    interval's ``block_counts`` in first-occurrence key order (pickled
    profile bytes depend on it).
    """
    if interval_length <= 0:
        raise ValueError("interval_length must be positive")
    trace = workload._compiled_trace
    trace.cover(total_instructions)
    counts = kernels.interval_block_counts(
        trace.addr, trace.size, total_instructions, interval_length
    )
    return BBVProfile(
        workload=workload.name,
        seed=workload.profile.seed,
        interval_length=interval_length,
        total_instructions=total_instructions,
        intervals=tuple(
            IntervalRecord(
                index=i,
                start_instruction=i * interval_length,
                length=min(
                    interval_length, total_instructions - i * interval_length
                ),
                block_counts=block_counts,
            )
            for i, block_counts in enumerate(counts)
        ),
    )

