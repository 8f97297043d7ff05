#!/usr/bin/env python3
"""Extending the library: plug a custom fetch engine into the simulator.

This example builds a toy "streaming prestager": a CLGP variant whose
prestaging algorithm also prefetches the *next sequential line* after every
CLTQ entry it processes (a CLGP/next-line hybrid).  It demonstrates the
extension points a downstream user has:

* subclass one of the engines (``CLGPEngine`` here) and override the
  prefetching policy,
* build the surrounding machine by hand (hierarchy, prediction unit,
  back-end) exactly as ``repro.api.Simulator`` does, or monkey-patch
  the engine into a stock ``Simulator``,
* compare against the stock engines (run through the
  :class:`repro.api.Session` façade) on the same workload.

Run:
    python examples/custom_prefetcher.py [benchmark] [instructions]
"""

from __future__ import annotations

import sys

from repro.api import ExperimentSpec, Session, Simulator, paper_config
from repro.core.clgp import CLGPEngine   # extension point: the engine layer


class StreamingPrestager(CLGPEngine):
    """CLGP plus next-sequential-line prestaging.

    After the normal CLGP scan, if the prestage buffer still has a free
    entry, prefetch the line that sequentially follows the newest CLTQ
    entry -- a cheap way to cover short fall-through runs that the stream
    predictor has not materialised into the CLTQ yet.
    """

    name = "CLGP+nextline"

    def prefetch_tick(self, cycle: int) -> None:
        super().prefetch_tick(cycle)
        newest = None
        for entry in self.cltq.iter_entries():
            newest = entry
        if newest is None:
            return
        candidate = newest.line_addr + self.hierarchy.line_size
        if self.prestage_buffer.get(candidate) is not None:
            return
        entry = self.prestage_buffer.allocate_for_prefetch(candidate)
        if entry is None:
            return
        # No CLTQ entry references this speculative line yet, so leave it
        # replaceable (consumers = 0); if the predictor later materialises
        # the line in the CLTQ, the normal CLGP scan will add a consumer.
        entry.consumers = 0
        self.stats.prefetches_issued += 1

        def _arrived(arrival_cycle: int, source: str, entry=entry) -> None:
            entry.mark_arrived(arrival_cycle, source)
            self.stats.prefetch_source[source] += 1
            self.stats.prefetches_completed += 1

        self.hierarchy.prefetch_access(
            candidate, cycle, _arrived,
            probe_l1=self.config.prefetch_probe_l1,
        )


def run_custom(session: Session, benchmark: str, instructions: int):
    """Build a stock CLGP+L0 simulator, then swap in the custom engine."""
    config = paper_config("CLGP+L0", l1_size_bytes=4096, technology="0.045um",
                          max_instructions=instructions)
    workload = session.workload(benchmark)
    simulator = Simulator(config, workload)
    simulator.engine = StreamingPrestager(config.engine_config(),
                                          simulator.hierarchy)
    return simulator.run(instructions)


def main() -> int:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "eon"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 8000

    with Session() as session:
        def stock(scheme: str):
            return session.run(ExperimentSpec(
                scheme=scheme, benchmarks=benchmark,
                max_instructions=instructions,
                technology="0.045um", l1_size_bytes=4096,
            )).results[0]

        stock_fdp = stock("FDP+L0")
        stock_clgp = stock("CLGP+L0")
        custom = run_custom(session, benchmark, instructions)

    print(f"benchmark={benchmark}, 4KB L1, 0.045um, {instructions} instructions\n")
    for label, result in (("FDP+L0 (stock)", stock_fdp),
                          ("CLGP+L0 (stock)", stock_clgp),
                          ("CLGP+next-line (custom)", custom)):
        print(f"  {label:>24s} : IPC {result.ipc:.3f}   "
              f"PB fetches {result.fetch_source_fractions()['PB']:.1%}   "
              f"prefetches {result.prefetches_issued}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
