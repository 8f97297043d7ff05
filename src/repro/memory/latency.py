"""Cache access-latency model (paper Table 3, CACTI-3.0 style).

The paper uses CACTI 3.0 to obtain cache access times for each size and
technology node, divides them by the SIA-projected cycle time, and rounds
up to whole cycles.  CACTI itself is a large C program; this module
reproduces the part of it the paper actually consumes:

* the exact Table 3 latencies for the sizes the paper sweeps,
* an analytical interpolation for other sizes (log-linear in size, built on
  the Table 3 anchor points), so users of the library can configure
  arbitrary cache sizes,
* the "largest structure reachable in one cycle" query used to size the
  pre-buffers and the L0 cache (512 B at 0.09 um, 256 B at 0.045 um).
"""

from __future__ import annotations

import math
from typing import Dict

from ..technology import TECH_045, TECH_090, TechnologyNode, resolve_technology

#: Sizes (bytes) swept for the L1 I-cache in the paper's figures.
L1_SIZES_BYTES = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)

#: The unified L2 size used throughout the paper.
L2_SIZE_BYTES = 1 << 20

#: Paper Table 3: access latency (cycles) per cache size per technology.
_TABLE3: Dict[float, Dict[int, int]] = {
    0.09: {
        256: 1, 512: 1, 1024: 2, 2048: 2, 4096: 3,
        8192: 3, 16384: 3, 32768: 3, 65536: 3, L2_SIZE_BYTES: 17,
    },
    0.045: {
        256: 1, 512: 2, 1024: 3, 2048: 4, 4096: 4,
        8192: 4, 16384: 4, 32768: 4, 65536: 5, L2_SIZE_BYTES: 24,
    },
}

#: Main memory latency, cycles (paper Table 2), independent of cache size.
MEMORY_LATENCY_CYCLES = 200


class CactiLikeModel:
    """Analytical access-time model calibrated to Table 3.

    ``access_time_ns`` interpolates log-linearly between the Table 3 anchor
    points converted back to nanoseconds (latency * cycle_time); the paper's
    own sizes always round-trip to the exact Table 3 cycle counts.
    """

    def __init__(self, technology) -> None:
        self.technology: TechnologyNode = resolve_technology(technology)
        feature = self.technology.feature_size_um
        if feature not in _TABLE3:
            # Derive anchors by scaling the nearest published node's access
            # times with feature size (classic constant-field scaling).
            nearest = min(_TABLE3, key=lambda f: abs(f - feature))
            scale = feature / nearest
            base_cycle = resolve_technology(nearest).cycle_time_ns
            self._anchors_ns = {
                size: lat * base_cycle * scale
                for size, lat in _TABLE3[nearest].items()
            }
            self._exact_cycles: Dict[int, int] = {}
        else:
            cycle = self.technology.cycle_time_ns
            self._exact_cycles = dict(_TABLE3[feature])
            self._anchors_ns = {
                size: lat * cycle for size, lat in _TABLE3[feature].items()
            }
        self._anchor_sizes = sorted(self._anchors_ns)

    # -- nanosecond-level model -----------------------------------------
    def access_time_ns(self, size_bytes: int) -> float:
        """Estimated access time in nanoseconds for a cache of ``size_bytes``."""
        if size_bytes <= 0:
            raise ValueError("cache size must be positive")
        sizes = self._anchor_sizes
        log_size = math.log2(size_bytes)
        if size_bytes <= sizes[0]:
            return self._anchors_ns[sizes[0]]
        if size_bytes >= sizes[-1]:
            # Extrapolate beyond the largest anchor with the slope of the
            # last segment.
            lo, hi = sizes[-2], sizes[-1]
        else:
            lo = max(s for s in sizes if s <= size_bytes)
            hi = min(s for s in sizes if s >= size_bytes)
            if lo == hi:
                return self._anchors_ns[lo]
        t_lo, t_hi = self._anchors_ns[lo], self._anchors_ns[hi]
        frac = (log_size - math.log2(lo)) / (math.log2(hi) - math.log2(lo))
        return t_lo + frac * (t_hi - t_lo)

    # -- cycle-level model ------------------------------------------------
    def access_latency_cycles(self, size_bytes: int) -> int:
        """Access latency in whole cycles for a cache of ``size_bytes``.

        Sizes listed in Table 3 return the table value exactly; other sizes
        use ``ceil(access_time_ns / cycle_time_ns)``.
        """
        if size_bytes in self._exact_cycles:
            return self._exact_cycles[size_bytes]
        cycles = math.ceil(
            self.access_time_ns(size_bytes) / self.technology.cycle_time_ns - 1e-9
        )
        return max(1, cycles)

    def one_cycle_capacity_bytes(self, line_size: int = 64,
                                 max_size: int = 1 << 20) -> int:
        """Largest power-of-two capacity accessible in a single cycle.

        The paper uses this to size pre-buffers and the L0 cache: 512 bytes
        at 0.09 um and 256 bytes at 0.045 um.
        """
        best = line_size
        size = line_size
        while size <= max_size:
            if self.access_latency_cycles(size) == 1:
                best = size
            else:
                break
            size *= 2
        return best


def access_latency(size_bytes: int, technology) -> int:
    """Convenience wrapper: latency in cycles of a ``size_bytes`` cache."""
    return CactiLikeModel(technology).access_latency_cycles(size_bytes)


def l1_latency_table(technology) -> Dict[int, int]:
    """Latencies for every L1 size swept in the paper (one Table 3 row)."""
    model = CactiLikeModel(technology)
    return {size: model.access_latency_cycles(size) for size in L1_SIZES_BYTES}


def l2_latency(technology) -> int:
    """Latency of the 1 MB unified L2 at the given technology node."""
    return CactiLikeModel(technology).access_latency_cycles(L2_SIZE_BYTES)


def table3_rows() -> Dict[str, Dict[int, int]]:
    """The full Table 3 (both technologies, L1 sizes plus the 1MB L2)."""
    out: Dict[str, Dict[int, int]] = {}
    for tech in (TECH_090, TECH_045):
        model = CactiLikeModel(tech)
        row = {size: model.access_latency_cycles(size) for size in L1_SIZES_BYTES}
        row[L2_SIZE_BYTES] = model.access_latency_cycles(L2_SIZE_BYTES)
        out[tech.name] = row
    return out


def one_cycle_prebuffer_entries(technology, line_size: int = 64) -> int:
    """Number of ``line_size``-byte entries a one-cycle pre-buffer can have
    (8 at 0.09 um, 4 at 0.045 um for 64-byte lines)."""
    capacity = CactiLikeModel(technology).one_cycle_capacity_bytes(line_size)
    return max(1, capacity // line_size)


def pipelined_prebuffer_stages(technology, entries: int = 16,
                               line_size: int = 64) -> int:
    """Number of pipeline stages a large pre-buffer needs.

    The paper pipelines a 16-entry pre-buffer into two stages at 0.09 um and
    three stages at 0.045 um; this generalises that using the latency model.
    """
    model = CactiLikeModel(technology)
    return max(1, model.access_latency_cycles(entries * line_size))
