"""Throughput of the experiment service's warm dedup path.

Measures the requests-per-second a client sees for a spec whose job has
already completed: the server replays the canonical result bytes from
memory (zero simulation, backed by the content-addressed result cache),
so this number is the service overhead floor -- HTTP parse, dedup-key
computation, canonical-bytes write.  Written to
``benchmarks/results/service_throughput.txt``.
"""

import tempfile
import time

from repro.api import ExperimentSpec, Session
from repro.service import ServerThread, ServiceClient

#: Submit+result round trips timed against the warm job.
WARM_REQUESTS = 40


def test_warm_dedup_requests_per_second(benchmark, report):
    with tempfile.TemporaryDirectory() as cache_dir:
        with Session(jobs=1, cache_dir=cache_dir) as session:
            with ServerThread(session, parallel=2) as thread:
                client = ServiceClient(port=thread.port,
                                       client_id="bench-warm")
                spec = ExperimentSpec("CLGP+L0", "gcc",
                                      max_instructions=4000,
                                      name="bench-service")
                first = client.submit(spec)
                reference = client.result_bytes(first["job"])

                def warm_round_trips() -> float:
                    start = time.perf_counter()
                    for _ in range(WARM_REQUESTS):
                        job = client.submit(spec)
                        body = client.result_bytes(job["job"])
                        assert body == reference
                    return time.perf_counter() - start

                seconds = benchmark.pedantic(
                    warm_round_trips, rounds=1, iterations=1,
                    warmup_rounds=0)
                stats = client.stats()["service"]

    # Every timed request joined the completed job: no new simulations.
    assert stats["runs_started"] == 1
    assert stats["deduplicated"] >= WARM_REQUESTS
    rps = WARM_REQUESTS / seconds if seconds else 0.0
    report("service_throughput",
           "\n".join([
               "Experiment service: warm dedup-hit throughput",
               "=" * 50,
               f"  requests timed        : {WARM_REQUESTS} "
               "(submit + result round trips)",
               f"  wall-clock            : {seconds:.3f}s",
               f"  requests per second   : {rps:.1f}",
               f"  simulations triggered : {stats['runs_started']} "
               "(everything after the first replayed)",
           ]))
