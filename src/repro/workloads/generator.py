"""Synthetic SPECint2000-like program generator.

The paper evaluates on 300M-instruction SimPoint slices of the twelve
SPECint2000 benchmarks compiled for Alpha.  Those traces are proprietary
and unavailable here, so this module builds *synthetic programs* whose
static and dynamic properties are controlled per benchmark:

* static code footprint (drives I-cache miss rate vs. cache size),
* basic-block size distribution (drives fetch-block/stream length),
* branch bias mix (drives branch-prediction accuracy, which the paper's
  CLGP mechanism depends on),
* loop structure and call structure (drive temporal reuse of lines and
  return-address-stack behaviour),
* data-side load miss probabilities (drive L2-bus contention).

A program is a :class:`~repro.workloads.cfg.ControlFlowGraph`; dynamic
execution of it is produced by :class:`repro.workloads.trace.ProgramWalker`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from .cfg import BasicBlock, ControlFlowGraph, Function
from .isa import INSTRUCTION_BYTES, BranchKind, InstrClass

#: Base address at which synthetic code is laid out.  Chosen non-zero so a
#: zero address can be used as a sentinel.
CODE_BASE_ADDRESS = 0x0010_0000

#: Gap (bytes) left between consecutive functions, so that functions start
#: on fresh cache lines and the footprint knob is honest.
FUNCTION_ALIGNMENT = 64


@dataclass
class WorkloadProfile:
    """Knobs describing one synthetic benchmark.

    The defaults describe a "medium" integer benchmark; the SPECint2000
    presets in :mod:`repro.workloads.spec2000` override them per name.
    """

    name: str = "generic"
    #: Target static code footprint in kilobytes.  The generator creates
    #: functions until the footprint is reached.
    footprint_kb: float = 32.0
    #: Number of callable functions (besides main).  Larger numbers spread
    #: execution over more code.
    num_functions: int = 24
    #: Mean basic-block size in instructions (SPECint averages ~5-6).
    avg_block_size: float = 5.5
    #: Minimum / maximum block size (instructions).
    min_block_size: int = 2
    max_block_size: int = 14
    #: Fraction of conditional branches that are hard to predict
    #: (taken probability near 0.5).  The rest are strongly biased.
    hard_branch_fraction: float = 0.12
    #: Taken probability used for "biased" branches (mirrored for
    #: biased-not-taken branches).
    biased_taken_probability: float = 0.95
    #: Probability that a block inside a function body starts a loop.
    loop_fraction: float = 0.18
    #: Mean loop trip count (geometric distribution via back-edge bias).
    avg_loop_iterations: float = 12.0
    #: Probability that a block is a call to another function.
    call_fraction: float = 0.10
    #: Fraction of non-terminator instructions that are loads / stores.
    load_fraction: float = 0.24
    store_fraction: float = 0.10
    #: Probability a dynamic load misses the L1 data cache, and probability
    #: that such a miss also misses in L2 (goes to main memory).
    dl1_miss_rate: float = 0.04
    l2_data_miss_rate: float = 0.10
    #: How concentrated dynamic execution is.  1.0 = all functions equally
    #: likely to be called; larger values skew calls towards the first few
    #: functions (small hot working set inside a big static footprint).
    call_skew: float = 1.6
    #: RNG seed used both for program construction and dynamic execution.
    seed: int = 1

    def scaled(self, **overrides) -> "WorkloadProfile":
        """Return a copy with selected fields overridden."""
        from dataclasses import replace

        return replace(self, **overrides)


class ProgramGenerator:
    """Builds a synthetic :class:`ControlFlowGraph` from a profile."""

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile
        self._rng = random.Random(profile.seed)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> ControlFlowGraph:
        """Generate the whole program CFG."""
        profile = self.profile
        target_bytes = int(profile.footprint_kb * 1024)

        # Decide how large each function should be so that the sum of
        # function sizes approximates the requested footprint.  The last
        # eighth of the functions are small "leaf" helpers: they are the
        # only call targets of the other functions, which keeps the work per
        # outer iteration proportional to the footprint (execution sprawls
        # over the whole program instead of re-descending deep call trees).
        n_funcs = max(1, profile.num_functions)
        n_leaves = max(1, n_funcs // 8) if n_funcs > 2 else 0
        n_body = n_funcs - n_leaves
        weights = [self._rng.uniform(0.5, 1.5) for _ in range(n_funcs)]
        for i in range(n_body, n_funcs):
            weights[i] *= 0.3  # leaves are small helpers
        total_w = sum(weights)
        func_bytes = [max(256, int(target_bytes * w / total_w)) for w in weights]

        functions: List[Function] = []
        cursor = CODE_BASE_ADDRESS
        leaf_names = [f"f{i}" for i in range(n_body, n_funcs)]

        # main() is the outer driver loop: it calls every body function once
        # per iteration, so each outer iteration traverses a large part of
        # the static footprint (how much of each function actually executes,
        # and how long execution dwells there, is governed by the
        # per-function loop/branch structure).
        main_func, cursor = self._build_main(
            "main", cursor, callee_names=[f"f{i}" for i in range(n_body)],
        )
        functions.append(main_func)

        for i in range(n_funcs):
            callees = leaf_names if i < n_body else []
            func, cursor = self._build_function(
                f"f{i}", cursor, size_budget_bytes=func_bytes[i],
                callee_names=callees, is_main=False,
            )
            functions.append(func)

        cfg = ControlFlowGraph(functions, entry_function="main")
        self._resolve_call_targets(cfg, functions)
        cfg.validate()
        return cfg

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _block_size(self) -> int:
        """Draw a basic-block size (instructions) around the profile mean."""
        p = self.profile
        # Geometric-ish distribution clipped to [min, max]; mean close to
        # ``avg_block_size`` for typical parameters.
        mean = max(p.min_block_size + 0.5, p.avg_block_size)
        lam = 1.0 / max(1e-6, mean - p.min_block_size + 1)
        size = p.min_block_size + int(self._rng.expovariate(lam))
        return max(p.min_block_size, min(p.max_block_size, size))

    def _instr_classes(self, size: int, terminator: InstrClass) -> List[InstrClass]:
        """Assign classes to the ``size`` instructions of a block."""
        p = self.profile
        classes: List[InstrClass] = []
        for _ in range(size - 1):
            r = self._rng.random()
            if r < p.load_fraction:
                classes.append(InstrClass.LOAD)
            elif r < p.load_fraction + p.store_fraction:
                classes.append(InstrClass.STORE)
            else:
                classes.append(InstrClass.ALU)
        classes.append(terminator)
        return classes

    def _conditional_bias(self) -> float:
        """Draw a taken probability for a conditional branch."""
        p = self.profile
        if self._rng.random() < p.hard_branch_fraction:
            # Hard branch: close to 50/50.
            return self._rng.uniform(0.35, 0.65)
        # Biased branch: mostly taken or mostly not taken.
        bias = p.biased_taken_probability
        return bias if self._rng.random() < 0.5 else 1.0 - bias

    def _build_main(self, name: str, start_addr: int, callee_names: List[str]):
        """Build the driver function: one call block per callee, interleaved
        with small conditional blocks and extra calls to a small "hot"
        subset of callees (real programs concentrate a large share of their
        dynamic instructions in a few hot functions even when the overall
        footprint is big), ending with a jump back to the entry.

        Returns ``(Function, next_free_address)``.
        """
        plan: List[dict] = []
        hot = callee_names[: max(1, len(callee_names) // 6)]
        for callee in callee_names:
            plan.append({"size": max(2, self._block_size() // 2),
                         "role": "call", "callee": callee})
            if hot and self._rng.random() < 0.5:
                plan.append({"size": max(2, self._block_size() // 2),
                             "role": "call", "callee": self._rng.choice(hot)})
            if self._rng.random() < 0.5:
                plan.append({
                    "size": max(2, self._block_size() // 2),
                    "role": "cond",
                    "taken_probability": self._conditional_bias(),
                })
        plan.append({"size": 3, "role": "loopback"})
        return self._materialise_function(name, start_addr, plan)

    def _build_function(
        self,
        name: str,
        start_addr: int,
        size_budget_bytes: int,
        callee_names: List[str],
        is_main: bool,
    ):
        """Build one function laid out from ``start_addr``.

        Returns ``(Function, next_free_address)``.
        """
        p = self.profile
        plan: List[dict] = []  # block descriptors prior to address assignment
        budget_instrs = max(8, size_budget_bytes // INSTRUCTION_BYTES)
        produced = 0

        while produced < budget_instrs:
            r = self._rng.random()
            size = self._block_size()
            if r < p.loop_fraction and produced > 0:
                # A small loop: a body block followed by a conditional
                # back-edge block.
                body_size = size
                latch_size = max(2, self._block_size() // 2)
                plan.append({"size": body_size, "role": "loop_body"})
                # The latch branches back to the body with probability
                # matching the requested trip count.
                trip = max(2.0, self._rng.gauss(p.avg_loop_iterations,
                                                p.avg_loop_iterations / 3))
                back_prob = 1.0 - 1.0 / trip
                plan.append({
                    "size": latch_size,
                    "role": "loop_latch",
                    "taken_probability": min(0.98, max(0.5, back_prob)),
                })
                produced += body_size + latch_size
            elif r < p.loop_fraction + p.call_fraction and callee_names:
                callee = self._rng.choice(self._skewed_callees(callee_names))
                plan.append({"size": size, "role": "call", "callee": callee})
                produced += size
            else:
                plan.append({
                    "size": size,
                    "role": "cond",
                    "taken_probability": self._conditional_bias(),
                })
                produced += size

        # Terminator block of the function.
        if is_main:
            plan.append({"size": 3, "role": "loopback"})
        else:
            plan.append({"size": 3, "role": "return"})
        return self._materialise_function(name, start_addr, plan)

    def _materialise_function(self, name: str, start_addr: int, plan: List[dict]):
        """Assign addresses to a block plan and build the BasicBlock objects.

        Conditional branches skip forward a few blocks (if/else style); loop
        latches jump back to their body block; the ``loopback`` role jumps to
        the function entry (used by main's outer driver loop).
        Returns ``(Function, next_free_address)``.
        """
        p = self.profile
        addrs: List[int] = []
        cursor = start_addr
        for desc in plan:
            addrs.append(cursor)
            cursor += desc["size"] * INSTRUCTION_BYTES
        end_of_function = cursor

        blocks: List[BasicBlock] = []
        for idx, desc in enumerate(plan):
            role = desc["role"]
            addr = addrs[idx]
            size = desc["size"]
            if role == "loop_body":
                # Plain fall-through into the latch.
                block = BasicBlock(
                    addr=addr, size=size, kind=BranchKind.NONE,
                    instr_classes=self._instr_classes(size, InstrClass.ALU),
                    load_miss_probability=p.dl1_miss_rate,
                )
            elif role == "loop_latch":
                block = BasicBlock(
                    addr=addr, size=size, kind=BranchKind.CONDITIONAL,
                    taken_target=addrs[idx - 1],
                    taken_probability=desc["taken_probability"],
                    instr_classes=self._instr_classes(size, InstrClass.BRANCH_COND),
                    load_miss_probability=p.dl1_miss_rate,
                )
            elif role == "call":
                block = BasicBlock(
                    addr=addr, size=size, kind=BranchKind.CALL,
                    taken_target=None,  # resolved later once callee addr known
                    instr_classes=self._instr_classes(size, InstrClass.CALL),
                    load_miss_probability=p.dl1_miss_rate,
                )
                block._callee_name = desc["callee"]  # type: ignore[attr-defined]
            elif role == "cond":
                # Forward branch over 1..4 following blocks (bounded by the
                # function end); the not-taken path falls through.
                skip = self._rng.randint(1, 4)
                target_idx = min(idx + 1 + skip, len(plan) - 1)
                block = BasicBlock(
                    addr=addr, size=size, kind=BranchKind.CONDITIONAL,
                    taken_target=addrs[target_idx],
                    taken_probability=desc["taken_probability"],
                    instr_classes=self._instr_classes(size, InstrClass.BRANCH_COND),
                    load_miss_probability=p.dl1_miss_rate,
                )
            elif role == "loopback":
                # main()'s final block: jump back to the function entry so
                # dynamic execution never runs off the end.
                block = BasicBlock(
                    addr=addr, size=size, kind=BranchKind.UNCONDITIONAL,
                    taken_target=start_addr,
                    instr_classes=self._instr_classes(size, InstrClass.BRANCH_UNCOND),
                    load_miss_probability=p.dl1_miss_rate,
                )
            elif role == "return":
                block = BasicBlock(
                    addr=addr, size=size, kind=BranchKind.RETURN,
                    instr_classes=self._instr_classes(size, InstrClass.RETURN),
                    load_miss_probability=p.dl1_miss_rate,
                )
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown role {role}")
            blocks.append(block)

        func = Function(name=name, entry=start_addr, blocks=blocks)
        # Align the next function start.
        next_addr = end_of_function
        if next_addr % FUNCTION_ALIGNMENT:
            next_addr += FUNCTION_ALIGNMENT - (next_addr % FUNCTION_ALIGNMENT)
        return func, next_addr

    def _skewed_callees(self, callees: List[str]) -> List[str]:
        """Return a callee list with earlier functions repeated so calls are
        skewed toward a hot subset (controlled by ``call_skew``)."""
        skew = max(1.0, self.profile.call_skew)
        weighted: List[str] = []
        for i, name in enumerate(callees):
            copies = max(1, int(round(len(callees) / (skew ** i + 1))))
            weighted.extend([name] * copies)
        return weighted or callees

    @staticmethod
    def _resolve_call_targets(cfg: ControlFlowGraph, functions: List[Function]) -> None:
        """Fill in CALL block targets now that all function entries are known."""
        entries = {f.name: f.entry for f in functions}
        for func in functions:
            for block in func.blocks:
                if block.kind is BranchKind.CALL:
                    callee = getattr(block, "_callee_name", None)
                    if callee is None or callee not in entries:
                        # No valid callee (e.g. last function has none):
                        # degrade to a plain fall-through block.
                        block.kind = BranchKind.NONE
                        block.instr_classes[-1] = InstrClass.ALU
                        block.taken_target = None
                    else:
                        block.taken_target = entries[callee]


def generate_program(profile: WorkloadProfile) -> ControlFlowGraph:
    """Convenience wrapper: build the CFG for ``profile``."""
    return ProgramGenerator(profile).generate()
