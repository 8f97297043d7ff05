"""Shared fixtures for the test suite.

The fixtures build small, fast objects: a tiny synthetic workload, a
hierarchy at each technology node, and ready-made engine/simulator
factories.  Anything that runs a timing simulation uses a few thousand
instructions at most so the whole suite stays quick.
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import FetchEngineConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.simulator.testing import make_sim_config
from repro.workloads.generator import WorkloadProfile
from repro.workloads.trace import Workload, build_workload


TINY_PROFILE = WorkloadProfile(
    name="tiny",
    footprint_kb=4.0,
    num_functions=4,
    avg_block_size=5.0,
    hard_branch_fraction=0.10,
    loop_fraction=0.20,
    avg_loop_iterations=6.0,
    call_fraction=0.10,
    dl1_miss_rate=0.05,
    seed=7,
)

MEDIUM_PROFILE = WorkloadProfile(
    name="medium",
    footprint_kb=48.0,
    num_functions=32,
    avg_block_size=5.0,
    hard_branch_fraction=0.10,
    loop_fraction=0.10,
    avg_loop_iterations=5.0,
    call_fraction=0.08,
    dl1_miss_rate=0.03,
    seed=11,
)


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Route the persistent artifact cache into a session tmp directory.

    Keeps test runs from touching (or depending on) a developer's real
    ``.repro-cache/``; tests that exercise the store itself use their own
    explicit directories on top.
    """
    from repro.cache.store import ENV_CACHE_DIR

    cache_dir = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get(ENV_CACHE_DIR)
    os.environ[ENV_CACHE_DIR] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop(ENV_CACHE_DIR, None)
    else:
        os.environ[ENV_CACHE_DIR] = previous


@pytest.fixture(scope="session")
def tiny_workload() -> Workload:
    """A small synthetic workload shared by most tests (read-only)."""
    return build_workload(TINY_PROFILE)


@pytest.fixture(scope="session")
def medium_workload() -> Workload:
    """A larger workload whose dynamic footprint exceeds small caches."""
    return build_workload(MEDIUM_PROFILE)


@pytest.fixture
def hierarchy_090() -> MemoryHierarchy:
    return MemoryHierarchy(HierarchyConfig(technology="0.09um", l1_size_bytes=4096))


@pytest.fixture
def hierarchy_045() -> MemoryHierarchy:
    return MemoryHierarchy(HierarchyConfig(technology="0.045um", l1_size_bytes=4096))


@pytest.fixture
def hierarchy_l0() -> MemoryHierarchy:
    return MemoryHierarchy(
        HierarchyConfig(technology="0.045um", l1_size_bytes=4096, l0_size_bytes=256)
    )


@pytest.fixture
def engine_config() -> FetchEngineConfig:
    return FetchEngineConfig(prebuffer_entries=4)


@pytest.fixture
def sim_config_factory():
    return make_sim_config
