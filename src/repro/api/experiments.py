"""Paper-experiment builders over the :class:`~repro.api.session.Session`
façade.

**v1 stability contract**: the function names, keyword arguments and
returned shapes below are stable; they are also exposed as ``Session``
methods (``session.figure5_series(...)``), which is the supported call
form.

Each builder declares its simulations as a flat
:class:`~repro.simulator.plan.ExperimentPlan`, runs it through
``session.run`` (inheriting the session's jobs/cache policy, with
per-call :class:`~repro.api.spec.ExecutionOptions` overrides), requires
every task to succeed
(:meth:`~repro.simulator.plan.PlanResults.require_success`), and
regroups the results into plain dictionaries shaped like the figure:

* Figures 1, 2(b), 4(b), 5(a), 5(b): ``{scheme: {l1_size: hmean_ipc}}``
* Figure 6: ``{benchmark: {scheme: ipc}}``
* Figures 7(a), 7(b), 8: ``{scheme: {l1_size: {source: fraction}}}``
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..simulator.plan import ExperimentPlan
from ..simulator.presets import (
    FIGURE1_SCHEMES,
    FIGURE5_SCHEMES,
    FIGURE6_SCHEMES,
    paper_config,
)
from ..simulator.stats import (
    aggregate_fetch_sources,
    aggregate_prefetch_sources,
    harmonic_mean_ipc,
)
from ..workloads.spec2000 import DEFAULT_MIX, SPECINT2000_NAMES
from .spec import ExecutionOptions, ExperimentSpec

#: Default (reduced) L1 size sweep used when the caller does not override
#: it; the paper sweeps nine sizes from 256 B to 64 KB.
DEFAULT_SWEEP_SIZES: Sequence[int] = (256, 1024, 4096, 16384, 65536)


def _sweep_spec(
    name: str,
    schemes: Sequence[str],
    technology: object,
    l1_sizes: Optional[Sequence[int]],
    benchmarks: Optional[Sequence[str]],
    max_instructions: int,
) -> ExperimentSpec:
    return ExperimentSpec(
        scheme=tuple(schemes),
        benchmarks=tuple(benchmarks or DEFAULT_MIX),
        max_instructions=max_instructions,
        technology=technology,
        l1_sizes=tuple(l1_sizes or DEFAULT_SWEEP_SIZES),
        name=name,
    )


def _scheme_sweep(
    session,
    name: str,
    schemes: Sequence[str],
    technology: object,
    l1_sizes: Optional[Sequence[int]],
    benchmarks: Optional[Sequence[str]],
    max_instructions: int,
    options: Optional[ExecutionOptions],
) -> Dict[str, Dict[int, float]]:
    """Harmonic-mean IPC for each scheme at each L1 size."""
    spec = _sweep_spec(name, schemes, technology, l1_sizes, benchmarks,
                       max_instructions)
    series: Dict[str, Dict[int, float]] = {s: {} for s in spec.schemes}
    for (scheme, size), hmean in session.run(
            spec, options=options).require_success().hmean_by_key().items():
        series[scheme][size] = hmean
    return series


# ----------------------------------------------------------------------
# Figure 1: effect of the L1 I-cache latency (no prefetching)
# ----------------------------------------------------------------------
def figure1_series(
    session,
    technology: object = "0.045um",
    l1_sizes: Optional[Sequence[int]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[int, float]]:
    return _scheme_sweep(session, "figure1", FIGURE1_SCHEMES, technology,
                         l1_sizes, benchmarks, max_instructions, options)


# ----------------------------------------------------------------------
# Figure 2(b): FDP with and without an L0 cache
# ----------------------------------------------------------------------
def figure2_series(
    session,
    technology: object = "0.045um",
    l1_sizes: Optional[Sequence[int]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[int, float]]:
    return _scheme_sweep(session, "figure2", ("FDP", "FDP+L0"), technology,
                         l1_sizes, benchmarks, max_instructions, options)


# ----------------------------------------------------------------------
# Figure 4(b): CLGP with and without an L0 cache
# ----------------------------------------------------------------------
def figure4_series(
    session,
    technology: object = "0.045um",
    l1_sizes: Optional[Sequence[int]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[int, float]]:
    return _scheme_sweep(session, "figure4", ("CLGP", "CLGP+L0"), technology,
                         l1_sizes, benchmarks, max_instructions, options)


# ----------------------------------------------------------------------
# Figure 5: the six main configurations at both technology nodes
# ----------------------------------------------------------------------
def figure5_series(
    session,
    technology: object = "0.045um",
    l1_sizes: Optional[Sequence[int]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[int, float]]:
    return _scheme_sweep(session, "figure5", FIGURE5_SCHEMES, technology,
                         l1_sizes, benchmarks, max_instructions, options)


# ----------------------------------------------------------------------
# Figure 6: per-benchmark IPC for the best configurations (8KB, 0.045um)
# ----------------------------------------------------------------------
def figure6_series(
    session,
    technology: object = "0.045um",
    l1_size_bytes: int = 8192,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[str, float]]:
    names = list(benchmarks or SPECINT2000_NAMES)
    spec = ExperimentSpec(
        scheme=FIGURE6_SCHEMES,
        benchmarks=tuple(names),
        max_instructions=max_instructions,
        technology=technology,
        l1_size_bytes=l1_size_bytes,
        name="figure6",
    )
    out: Dict[str, Dict[str, float]] = {name: {} for name in names}
    hmean: Dict[str, float] = {}
    for (scheme,), results in session.run(
            spec, options=options).require_success().by_key().items():
        for result in results:
            out[result.workload][scheme] = result.ipc
        hmean[scheme] = harmonic_mean_ipc(results)
    out["HMEAN"] = hmean
    return out


# ----------------------------------------------------------------------
# Figure 7: fetch-source distribution (FDP vs CLGP, with/without L0)
# ----------------------------------------------------------------------
def figure7_series(
    session,
    with_l0: bool,
    technology: object = "0.045um",
    l1_sizes: Optional[Sequence[int]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    schemes = ("FDP+L0", "CLGP+L0") if with_l0 else ("FDP", "CLGP")
    spec = _sweep_spec("figure7", schemes, technology, l1_sizes, benchmarks,
                       max_instructions)
    out: Dict[str, Dict[int, Dict[str, float]]] = {s: {} for s in schemes}
    for (scheme, size), results in session.run(
            spec, options=options).require_success().by_key().items():
        out[scheme][size] = aggregate_fetch_sources(results)
    return out


# ----------------------------------------------------------------------
# Figure 8: prefetch-source distribution (FDP vs CLGP)
# ----------------------------------------------------------------------
def figure8_series(
    session,
    technology: object = "0.045um",
    l1_sizes: Optional[Sequence[int]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    schemes = ("FDP", "CLGP")
    spec = _sweep_spec("figure8", schemes, technology, l1_sizes, benchmarks,
                       max_instructions)
    out: Dict[str, Dict[int, Dict[str, float]]] = {s: {} for s in schemes}
    for (scheme, size), results in session.run(
            spec, options=options).require_success().by_key().items():
        out[scheme][size] = aggregate_prefetch_sources(results)
    return out


# ----------------------------------------------------------------------
# Headline speedups (Section 5.1)
# ----------------------------------------------------------------------
def headline_speedups(
    session,
    l1_size_bytes: int = 4096,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[str, float]]:
    """CLGP-vs-FDP and CLGP-vs-pipelined-baseline speedups at both nodes.

    Returns ``{tech_name: {"clgp_over_fdp": x, "clgp_over_base_pipelined": y,
    "ipc": {scheme: ipc}}}``.
    """
    names = list(benchmarks or DEFAULT_MIX)
    schemes = ("CLGP+L0+PB16", "FDP+L0+PB16", "base-pipelined")
    plan = ExperimentPlan("headline-speedups")
    sampled = options.sampled if options is not None else False
    sampling = options.sampling if options is not None else None
    for technology in ("0.09um", "0.045um"):
        for scheme in schemes:
            config = paper_config(
                scheme, l1_size_bytes=l1_size_bytes, technology=technology,
                max_instructions=max_instructions,
            )
            for benchmark in names:
                plan.add(config, benchmark, max_instructions,
                         key=(technology, scheme),
                         sampled=sampled, sampling=sampling)
    ipc_by_key = session.run(
        plan, options=options).require_success().hmean_by_key()
    out: Dict[str, Dict[str, float]] = {}
    for technology in ("0.09um", "0.045um"):
        ipc = {scheme: ipc_by_key[(technology, scheme)] for scheme in schemes}
        out[technology] = {
            "clgp_over_fdp": ipc["CLGP+L0+PB16"] / ipc["FDP+L0+PB16"] - 1.0
            if ipc["FDP+L0+PB16"] else 0.0,
            "clgp_over_base_pipelined":
                ipc["CLGP+L0+PB16"] / ipc["base-pipelined"] - 1.0
                if ipc["base-pipelined"] else 0.0,
            "ipc": ipc,
        }
    return out


# ----------------------------------------------------------------------
# CLGP design-choice ablations: each reverts one choice to FDP's
# ----------------------------------------------------------------------
def ablation_series(
    session,
    technology: object = "0.045um",
    l1_size_bytes: int = 4096,
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 20_000,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, float]:
    """Harmonic-mean IPC of CLGP+L0 with individual design choices reverted."""
    names = list(benchmarks or DEFAULT_MIX)
    variants = {
        "CLGP+L0 (full)": {},
        "CLGP+L0 free-on-use": {"clgp_free_on_use": True},
        "CLGP+L0 copy-to-cache": {"clgp_copy_to_cache": True},
        "CLGP+L0 with filtering": {"clgp_use_filtering": True},
        "FDP+L0 (reference)": None,
    }
    plan = ExperimentPlan("ablations")
    for label, overrides in variants.items():
        if overrides is None:
            config = paper_config(
                "FDP+L0", l1_size_bytes=l1_size_bytes, technology=technology,
                max_instructions=max_instructions,
            )
        else:
            config = paper_config(
                "CLGP+L0", l1_size_bytes=l1_size_bytes, technology=technology,
                max_instructions=max_instructions, **overrides,
            )
        for benchmark in names:
            plan.add(config, benchmark, max_instructions, key=(label,))
    return {
        key[0]: hmean
        for key, hmean in session.run(
            plan, options=options).require_success().hmean_by_key().items()
    }
