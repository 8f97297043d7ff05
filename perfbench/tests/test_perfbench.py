"""The benchmark's own tests, on tiny inputs.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import grid  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _listed(section):
    return [(m["name"], m["unit"]) for m in BENCHMARK[section]]


def _points(ipc):
    return [{"point": p, "digest": "0" * 64, "ipc": ipc,
             "prefetches_issued": 1, "streams_predicted": 1,
             "l1_misses": 1, "bus_grants": 1}
            for p in grid.sweep_points()]


def _reference():
    return {section: {mode: {p: {"digest": "0" * 64, "ipc": 1.0}
                             for p in points}
                      for mode in ("full", "sampled")}
            for section, points in (("sweep", grid.sweep_points()),
                                    ("service", grid.service_points()))}


def test_declared_metrics_match_benchmark_json():
    assert list(run.END_TO_END) == _listed("end_to_end")
    assert list(run.PER_LAYER) == _listed("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_every_emitted_metric_is_declared():
    reference = _reference()
    sweep = {"wall_s": 2.0, "task_s": [0.1] * 36, "probe_s": [0.004] * 36,
             "peak_rss_mb": 50.0, "points": _points(1.1),
             "setup_s": 0.3, "setup_probe_s": 0.004}
    for sampled in (False, True):
        metrics, _ = run.sweep_end_to_end([sweep], [sweep], sampled,
                                          reference)
        assert sorted(metrics) == sorted(n for n, _ in run.END_TO_END)
    served = [run.Request(p, 0.001, 0.001, True, 1.2, 0)
              for p in grid.service_points()]
    metrics, _ = run.service_end_to_end(served, [1.0], [0.004], [4.0],
                                        {"peak_rss_mb": 60.0}, reference)
    assert sorted(metrics) == sorted(n for n, _ in run.END_TO_END)

    empty = {"stats": {}, "counters": {}, "nested": {}, "store": {}}
    metrics, _ = run.layer_metrics(empty, _points(1.0), 36, 1.1, served,
                                   {"service": {"submitted": 10,
                                                "deduplicated": 8}})
    assert sorted(metrics) == sorted(n for n, _ in run.PER_LAYER)


def test_a_flipped_reference_digest_fails_the_check():
    sys.path.insert(0, str(run.SOURCE))
    from repro.api import ExperimentSpec, Session
    from repro.service.codec import encode_run_result

    with Session() as session:
        outcome = session.run(ExperimentSpec(
            "base-pipelined", "mcf", max_instructions=1000,
            config_overrides={"warmup_instructions": 1000}))
    result = outcome.results[0]
    digest = grid.result_digest(dataclasses.asdict(result))
    served = encode_run_result("x", outcome)["results"][0]
    assert grid.result_digest(json.loads(json.dumps(served))) == digest

    point = [{"point": "p", "digest": digest, "ipc": result.ipc}]
    assert run.check_points(point, {"p": {"digest": digest}}) == (1, 0)
    flipped = ("1" if digest[0] == "0" else "0") + digest[1:]
    assert run.check_points(point, {"p": {"digest": flipped}}) == (1, 1)


def test_the_service_request_sequence_follows_the_seed():
    def first(seed, client=0, count=2000):
        return list(itertools.islice(grid.request_sequence(seed, client),
                                     count))

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert first(7, client=0) != first(7, client=1)
    block = len(grid.service_points()) * grid.ASKS_PER_KEY
    asks = first(7, count=4 * block)
    assert len(set(asks)) * grid.ASKS_PER_KEY == len(asks)
