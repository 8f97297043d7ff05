"""Static control-flow-graph (CFG) model for synthetic programs.

A synthetic program is a collection of :class:`Function` objects, each a
list of :class:`BasicBlock` objects laid out contiguously in a synthetic
address space.  The CFG is what the trace generator walks to produce the
dynamic instruction stream, and what the front-end's basic-block dictionary
(:mod:`repro.workloads.bbdict`) exposes so that fetch can proceed along
mispredicted (wrong) paths, exactly as the paper's simulator does with its
"separate basic block dictionary".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .isa import (
    INSTRUCTION_BYTES,
    BranchKind,
    InstrClass,
    StaticInstruction,
    TERMINATOR_CLASS,
)


@dataclass
class BasicBlock:
    """A static basic block.

    Attributes
    ----------
    addr:
        Byte address of the first instruction.
    size:
        Number of instructions in the block (>= 1).
    kind:
        Terminator kind (:class:`~repro.workloads.isa.BranchKind`).
    taken_target:
        Address control transfers to when the terminator is taken
        (``None`` for fall-through-only and RETURN blocks -- returns get
        their target from the call stack at execution time).
    taken_probability:
        For CONDITIONAL terminators, the probability the branch is taken on
        any given execution; ignored otherwise.
    instr_classes:
        Per-instruction classes, ``len == size``.  The last entry always
        matches the terminator kind.
    load_miss_probability:
        Probability that a LOAD in this block misses the L1 data cache
        (per-benchmark data-side behaviour is modelled probabilistically;
        see :mod:`repro.backend.dcache`).
    """

    addr: int
    size: int
    kind: BranchKind
    taken_target: Optional[int] = None
    taken_probability: float = 0.5
    instr_classes: List[InstrClass] = field(default_factory=list)
    load_miss_probability: float = 0.05

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("basic block must contain at least one instruction")
        if not self.instr_classes:
            self.instr_classes = [InstrClass.ALU] * (self.size - 1) + [
                TERMINATOR_CLASS[self.kind]
            ]
        if len(self.instr_classes) != self.size:
            raise ValueError(
                f"instr_classes length {len(self.instr_classes)} != size {self.size}"
            )
        # The terminating instruction class must be consistent with the kind.
        expected = TERMINATOR_CLASS[self.kind]
        if self.instr_classes[-1] is not expected:
            self.instr_classes[-1] = expected

    # -- address helpers -------------------------------------------------
    @property
    def end_addr(self) -> int:
        """Byte address one past the last instruction."""
        return self.addr + self.size * INSTRUCTION_BYTES

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction after the block."""
        return self.end_addr

    @property
    def terminator_addr(self) -> int:
        """Byte address of the block's final instruction."""
        return self.addr + (self.size - 1) * INSTRUCTION_BYTES

    def instruction(self, index: int) -> StaticInstruction:
        """The ``index``-th static instruction of the block."""
        if not 0 <= index < self.size:
            raise IndexError(index)
        return StaticInstruction(
            addr=self.addr + index * INSTRUCTION_BYTES,
            cls=self.instr_classes[index],
            is_block_terminator=(index == self.size - 1),
        )

    def instructions(self) -> List[StaticInstruction]:
        """All static instructions of the block, in address order."""
        return [self.instruction(i) for i in range(self.size)]

    @property
    def ends_in_branch(self) -> bool:
        return self.kind is not BranchKind.NONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BasicBlock(addr={self.addr:#x}, size={self.size}, "
            f"kind={self.kind.name}, target={self.taken_target})"
        )


@dataclass
class Function:
    """A synthetic function: an entry block plus a body of blocks.

    Blocks are laid out contiguously starting at :attr:`entry`.
    """

    name: str
    entry: int
    blocks: List[BasicBlock] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return sum(b.size for b in self.blocks) * INSTRUCTION_BYTES

    @property
    def size_instructions(self) -> int:
        return sum(b.size for b in self.blocks)


class ControlFlowGraph:
    """Whole-program static CFG: functions, blocks, and address lookup."""

    def __init__(self, functions: Sequence[Function], entry_function: str):
        self.functions: Dict[str, Function] = {f.name: f for f in functions}
        if entry_function not in self.functions:
            raise KeyError(f"entry function {entry_function!r} not in CFG")
        self.entry_function = entry_function
        self._blocks_by_addr: Dict[int, BasicBlock] = {}
        for func in functions:
            for block in func.blocks:
                if block.addr in self._blocks_by_addr:
                    raise ValueError(f"duplicate block address {block.addr:#x}")
                self._blocks_by_addr[block.addr] = block
        self._sorted_addrs = sorted(self._blocks_by_addr)

    # -- lookup ----------------------------------------------------------
    @property
    def entry_address(self) -> int:
        return self.functions[self.entry_function].entry

    def block_at(self, addr: int) -> Optional[BasicBlock]:
        """The block starting exactly at ``addr`` or ``None``."""
        return self._blocks_by_addr.get(addr)

    def block_containing(self, addr: int) -> Optional[BasicBlock]:
        """The block whose address range contains ``addr`` (if any)."""
        block = self._blocks_by_addr.get(addr)
        if block is not None:
            return block
        # Binary search over sorted start addresses.
        import bisect

        idx = bisect.bisect_right(self._sorted_addrs, addr) - 1
        if idx < 0:
            return None
        candidate = self._blocks_by_addr[self._sorted_addrs[idx]]
        if candidate.addr <= addr < candidate.end_addr:
            return candidate
        return None

    def all_blocks(self) -> List[BasicBlock]:
        return [self._blocks_by_addr[a] for a in self._sorted_addrs]

    # -- summary statistics ----------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self._blocks_by_addr)

    @property
    def num_static_instructions(self) -> int:
        return sum(b.size for b in self._blocks_by_addr.values())

    @property
    def footprint_bytes(self) -> int:
        """Static code footprint in bytes (contiguous layout assumed)."""
        return self.num_static_instructions * INSTRUCTION_BYTES

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        * every taken target of a CONDITIONAL/UNCONDITIONAL/CALL block must
          be the start of some block,
        * blocks must not overlap.
        """
        prev_end = None
        for addr in self._sorted_addrs:
            block = self._blocks_by_addr[addr]
            if prev_end is not None and addr < prev_end:
                raise ValueError(f"block at {addr:#x} overlaps previous block")
            prev_end = block.end_addr
            if block.kind in (
                BranchKind.CONDITIONAL,
                BranchKind.UNCONDITIONAL,
                BranchKind.CALL,
            ):
                if block.taken_target is None:
                    raise ValueError(f"block at {addr:#x} has no taken target")
                if self.block_at(block.taken_target) is None:
                    raise ValueError(
                        f"block at {addr:#x} targets {block.taken_target:#x}, "
                        "which is not a block start"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlFlowGraph(functions={len(self.functions)}, "
            f"blocks={self.num_blocks}, footprint={self.footprint_bytes}B)"
        )
