"""What the benchmark runs and how its outputs are checked.

Pure data and pure functions: nothing here imports ``repro``, so
``run.py`` can load it before it knows whether the program's sources exist.

A *point* is one simulated design point, named ``scheme/l1_bytes/bench``.
The sweeps run the paper's Figure-5 grid; the service replays a smaller
full-run grid over all twelve benchmarks.  ``reference.json`` holds, per
point, the SHA-256 of the canonical JSON of its ``SimulationResult`` and
its IPC, for both full and sampled simulation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

TECHNOLOGY = "0.045um"
SCHEMES = ("base-pipelined", "FDP+L0", "CLGP+L0")

#: The sweeps: Figure 5's schemes x L1 sizes over four benchmarks whose
#: code footprints run from 4 KB (mcf) to 160 KB (gcc).
SWEEP_L1_SIZES = (256, 4096, 65536)
SWEEP_BENCHMARKS = ("gzip", "gcc", "eon", "mcf")
SWEEP_BUDGET = 30_000

#: The service grid: every benchmark at one L1 size and a small budget
#: (with a matching small functional warm-up), because the service
#: workload only simulates while its store is being filled.
SERVICE_BENCHMARKS = ("gzip", "vpr", "gcc", "mcf", "crafty", "parser",
                      "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf")
SERVICE_L1_SIZE = 4096
SERVICE_BUDGET = 3000
SERVICE_WARMUP = 3000
SERVICE_CLIENTS = 2
#: Each experiment key is asked this many times: the first ask replays
#: the stored result from disk, the others join the finished job in the
#: server's memory -- a disk share of 1/5, far from both 1% and 50%.
ASKS_PER_KEY = 5


def point_id(scheme: str, l1_size: int, benchmark: str) -> str:
    return f"{scheme}/{l1_size}/{benchmark}"


def sweep_points() -> List[str]:
    return [point_id(s, l1, b) for s in SCHEMES for l1 in SWEEP_L1_SIZES
            for b in SWEEP_BENCHMARKS]


def service_points() -> List[str]:
    return [point_id(s, SERVICE_L1_SIZE, b) for s in SCHEMES
            for b in SERVICE_BENCHMARKS]


def split_point(point: str) -> Tuple[str, int, str]:
    scheme, l1_size, benchmark = point.split("/")
    return scheme, int(l1_size), benchmark


def result_digest(result: Mapping) -> str:
    """SHA-256 of a result's canonical JSON (sorted keys, no spaces).

    ``result`` is ``dataclasses.asdict(SimulationResult)`` or the same
    record as the service serves it (its ``type`` tag is ignored), so
    in-process and served results digest identically.
    """
    body = {k: v for k, v in result.items() if k != "type"}
    return hashlib.sha256(json.dumps(body, sort_keys=True,
                                     separators=(",", ":")).encode()
                          ).hexdigest()


def result_ipc(result: Mapping) -> float:
    cycles = result["cycles"]
    return result["committed_instructions"] / cycles if cycles else 0.0


def load_reference() -> Dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def mismatches(measured: Mapping[str, str],
               expected: Mapping[str, Mapping]) -> List[str]:
    """Points whose digest differs from the reference (or is missing)."""
    return sorted(point for point, digest in measured.items()
                  if expected.get(point, {}).get("digest") != digest)


def _hmean(values: Sequence[float]) -> float:
    return len(values) / sum(1.0 / v for v in values)


def ipc_errors(sampled: Mapping[str, float],
               full: Mapping[str, float]) -> Tuple[float, float]:
    """Worst |sampled/full - 1| over points, and over the per-(scheme,
    L1 size) harmonic-mean IPC Figure 5 plots."""
    points = sorted(set(sampled) & set(full))
    worst = max(abs(sampled[p] / full[p] - 1.0) for p in points)
    groups: Dict[Tuple[str, int], List[str]] = {}
    for point in points:
        scheme, l1_size, _ = split_point(point)
        groups.setdefault((scheme, l1_size), []).append(point)
    worst_hmean = max(
        abs(_hmean([sampled[p] for p in members])
            / _hmean([full[p] for p in members]) - 1.0)
        for members in groups.values())
    return worst, worst_hmean


def request_sequence(seed: int, client: int) -> Iterator[Tuple[str, str]]:
    """One service client's endless closed-loop request sequence.

    Yields ``(point, experiment name)`` pairs.  Block ``b`` names every
    service point ``c<client>-b<b>`` and asks each of those keys
    :data:`ASKS_PER_KEY` times in a seeded order, so exactly one ask in
    five is the first for its key.  Clients use disjoint names, so which
    asks go to disk does not depend on how the clients interleave.
    """
    rng = random.Random(f"perfbench-service:{seed}:{client}")
    points = service_points()
    for block in itertools.count():
        asks = [(point, f"c{client}-b{block}")
                for point in points for _ in range(ASKS_PER_KEY)]
        rng.shuffle(asks)
        yield from asks


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
