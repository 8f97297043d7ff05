"""Golden digests of timed runs on the event loop.

Every other timed-loop check compares the event loop with the cycle loop,
and both run the same fetch stage and back-end, so a change to either
could alter both sides alike and still pass.  These digests pin the
results themselves: each is the SHA-256 of the run's
``SimulationResult`` as sorted JSON, captured from the per-instruction
dispatch back-end that the run dispatch replaced, which agreed with it
bit for bit.

The grid covers every preset, both classic prefetchers, the three CLGP
ablation switches and FDP without enqueue filtering, at a small and the
default L1 size, on a large (gcc) and a small (mcf) code footprint.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.simulator.presets import SCHEMES, paper_config
from repro.simulator.runner import get_workload
from repro.simulator.simulator import Simulator

INSTRUCTIONS = 3000

#: label -> (preset, overrides)
CONFIGS = {scheme: (scheme, {}) for scheme in SCHEMES}
CONFIGS.update({
    "next-line": ("base", {"engine": "next-line", "label": "next-line"}),
    "target-line": ("base", {"engine": "target-line",
                             "label": "target-line"}),
    "CLGP+L0/free-on-use": ("CLGP+L0", {"clgp_free_on_use": True}),
    "CLGP+L0/copy-to-cache": ("CLGP+L0", {"clgp_copy_to_cache": True}),
    "CLGP+L0/use-filtering": ("CLGP+L0", {"clgp_use_filtering": True}),
    "FDP+L0/no-filter": ("FDP+L0", {"prefetch_filter": "none"}),
})

L1_SIZES = (256, 4096)
BENCHMARKS = ("gcc", "mcf")

#: (label, L1 bytes, benchmark) -> first 16 hex digits of the digest
GOLDEN = {
    ('ideal', 256, 'gcc'): '5354387df146138f',
    ('ideal', 256, 'mcf'): '7be71a56933bc562',
    ('ideal', 4096, 'gcc'): 'd1c2b9c70f3c4cfe',
    ('ideal', 4096, 'mcf'): '4fe7061ba705809e',
    ('base', 256, 'gcc'): 'a3b1d5f491474d47',
    ('base', 256, 'mcf'): 'd90dc8fe5a9a9bad',
    ('base', 4096, 'gcc'): '05b40f71c142d61d',
    ('base', 4096, 'mcf'): '9c1f4fc272c5b2e8',
    ('base-pipelined', 256, 'gcc'): '5ef03258c200a061',
    ('base-pipelined', 256, 'mcf'): 'f43732a16bf00948',
    ('base-pipelined', 4096, 'gcc'): '9e3859f3319936e8',
    ('base-pipelined', 4096, 'mcf'): '2a24986865c7323e',
    ('base+L0', 256, 'gcc'): '8759657ee3205769',
    ('base+L0', 256, 'mcf'): '0a7be22caded9955',
    ('base+L0', 4096, 'gcc'): 'ba69b072a62bd681',
    ('base+L0', 4096, 'mcf'): '62a9ea9282558708',
    ('FDP', 256, 'gcc'): 'd7b2b6300a61974b',
    ('FDP', 256, 'mcf'): '2836aa1b1d67245f',
    ('FDP', 4096, 'gcc'): 'a9d7140d37d3dd45',
    ('FDP', 4096, 'mcf'): 'e278e2cb4bfe3fa7',
    ('FDP+L0', 256, 'gcc'): 'c9cd137b40fb20ff',
    ('FDP+L0', 256, 'mcf'): '0015539c5fd913b7',
    ('FDP+L0', 4096, 'gcc'): '181fef98aad25fac',
    ('FDP+L0', 4096, 'mcf'): '3b2a940e0be2b1cd',
    ('FDP+L0+PB16', 256, 'gcc'): 'fa04cc71a3654a79',
    ('FDP+L0+PB16', 256, 'mcf'): '3d720ed536853aae',
    ('FDP+L0+PB16', 4096, 'gcc'): 'b3feb46566c6941a',
    ('FDP+L0+PB16', 4096, 'mcf'): '5682ea1720b6da31',
    ('CLGP', 256, 'gcc'): 'be16ad7edaba57cb',
    ('CLGP', 256, 'mcf'): '22fb2d542244af2c',
    ('CLGP', 4096, 'gcc'): '4f98a6f89930e87c',
    ('CLGP', 4096, 'mcf'): '0087f754bf7e4757',
    ('CLGP+L0', 256, 'gcc'): 'd38929da9a812e73',
    ('CLGP+L0', 256, 'mcf'): '2ee3af2e42fc9e56',
    ('CLGP+L0', 4096, 'gcc'): '0214f2148983be7a',
    ('CLGP+L0', 4096, 'mcf'): '776b5d9e484e8e3d',
    ('CLGP+L0+PB16', 256, 'gcc'): '17ada81b71aa2794',
    ('CLGP+L0+PB16', 256, 'mcf'): 'ac24d569efb29eda',
    ('CLGP+L0+PB16', 4096, 'gcc'): '02cb2622cfc7c35c',
    ('CLGP+L0+PB16', 4096, 'mcf'): 'ea510d25dc717619',
    ('next-line', 256, 'gcc'): 'fb5c21e563705d6f',
    ('next-line', 256, 'mcf'): '5978b34bcb5d89b2',
    ('next-line', 4096, 'gcc'): 'fdeba030db4ef681',
    ('next-line', 4096, 'mcf'): '2305b26c987b7fa0',
    ('target-line', 256, 'gcc'): '72ba6b6da2d6250d',
    ('target-line', 256, 'mcf'): '0ade09a8c23079c5',
    ('target-line', 4096, 'gcc'): '80849c9ccc675ece',
    ('target-line', 4096, 'mcf'): '22a51d4c1eea44d6',
    ('CLGP+L0/free-on-use', 256, 'gcc'): '39e7267949c6d5b9',
    ('CLGP+L0/free-on-use', 256, 'mcf'): '04189efdca121559',
    ('CLGP+L0/free-on-use', 4096, 'gcc'): '27c5af6890ec64b3',
    ('CLGP+L0/free-on-use', 4096, 'mcf'): 'faa89825b8e72f45',
    ('CLGP+L0/copy-to-cache', 256, 'gcc'): 'b1e5698c9afc4afc',
    ('CLGP+L0/copy-to-cache', 256, 'mcf'): '28933bbb3576cb40',
    ('CLGP+L0/copy-to-cache', 4096, 'gcc'): 'e55a6fdb8cbf2bec',
    ('CLGP+L0/copy-to-cache', 4096, 'mcf'): '9b1bed056a4cbd7b',
    ('CLGP+L0/use-filtering', 256, 'gcc'): 'f66231f6db0c95c0',
    ('CLGP+L0/use-filtering', 256, 'mcf'): 'fe8d128bdcfc9aec',
    ('CLGP+L0/use-filtering', 4096, 'gcc'): 'e501133768ffc2f0',
    ('CLGP+L0/use-filtering', 4096, 'mcf'): '1ce4fa41c34701b4',
    ('FDP+L0/no-filter', 256, 'gcc'): '82fe83a8fe9090df',
    ('FDP+L0/no-filter', 256, 'mcf'): 'bbfe0d23f24295bb',
    ('FDP+L0/no-filter', 4096, 'gcc'): '1dde605e28e9b447',
    ('FDP+L0/no-filter', 4096, 'mcf'): '23c82dacf23edaf4',
}


def _result_digest(label, l1_size, name) -> str:
    preset, overrides = CONFIGS[label]
    config = paper_config(preset, l1_size_bytes=l1_size,
                          max_instructions=INSTRUCTIONS,
                          warmup_instructions=INSTRUCTIONS, **overrides)
    result = Simulator(config, get_workload(name)).run(loop="event")
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("l1_size", L1_SIZES)
@pytest.mark.parametrize("label", list(CONFIGS))
def test_timed_run_matches_golden_digest(label, l1_size, name):
    assert _result_digest(label, l1_size, name) \
        == GOLDEN[(label, l1_size, name)]


if __name__ == "__main__":
    # Prints the GOLDEN table for the code on the import path.
    for label in CONFIGS:
        for l1_size in L1_SIZES:
            for name in BENCHMARKS:
                digest = _result_digest(label, l1_size, name)
                print(f"    ({label!r}, {l1_size}, {name!r}): "
                      f"{digest!r},")
