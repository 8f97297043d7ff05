"""Abstract RISC-like ISA model.

The paper's traces come from a DEC Alpha AXP-21264.  For an instruction
fetch study the only properties of the ISA that matter are:

* fixed instruction size (4 bytes on Alpha),
* instruction classes (which instructions are branches, loads, stores),
* branch semantics (conditional / unconditional / call / return).

This module defines those abstractions.  Addresses are plain Python ints
(byte addresses); cache lines are ``line_size``-byte aligned groups of
instructions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Size of a single instruction in bytes (Alpha-like fixed encoding).
INSTRUCTION_BYTES = 4


class InstrClass(enum.IntEnum):
    """Classes of instructions relevant to the timing model."""

    ALU = 0
    LOAD = 1
    STORE = 2
    BRANCH_COND = 3
    BRANCH_UNCOND = 4
    CALL = 5
    RETURN = 6
    NOP = 7

    @property
    def is_control(self) -> bool:
        """True for any instruction that may redirect the PC."""
        return self in _CONTROL_CLASSES

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self in (InstrClass.LOAD, InstrClass.STORE)

    @property
    def is_conditional(self) -> bool:
        """True only for conditional branches."""
        return self is InstrClass.BRANCH_COND


_CONTROL_CLASSES = frozenset(
    {
        InstrClass.BRANCH_COND,
        InstrClass.BRANCH_UNCOND,
        InstrClass.CALL,
        InstrClass.RETURN,
    }
)


class BranchKind(enum.IntEnum):
    """Terminator kind of a basic block."""

    NONE = 0            #: block falls through unconditionally (no branch)
    CONDITIONAL = 1     #: conditional branch: taken -> target, else fall through
    UNCONDITIONAL = 2   #: always-taken jump
    CALL = 3            #: subroutine call (always taken, pushes return addr)
    RETURN = 4          #: subroutine return (target from call site)


#: Mapping from block terminator kind to the instruction class of the
#: terminating instruction.  ``NONE`` blocks end with a plain ALU op.
TERMINATOR_CLASS = {
    BranchKind.NONE: InstrClass.ALU,
    BranchKind.CONDITIONAL: InstrClass.BRANCH_COND,
    BranchKind.UNCONDITIONAL: InstrClass.BRANCH_UNCOND,
    BranchKind.CALL: InstrClass.CALL,
    BranchKind.RETURN: InstrClass.RETURN,
}


def align_down(addr: int, granule: int) -> int:
    """Round ``addr`` down to a multiple of ``granule``."""
    return addr - (addr % granule)


def line_address(addr: int, line_size: int) -> int:
    """Cache-line address (aligned) containing byte address ``addr``."""
    return align_down(addr, line_size)


def instructions_in_range(start_addr: int, n_instrs: int):
    """Yield the byte addresses of ``n_instrs`` sequential instructions."""
    for i in range(n_instrs):
        yield start_addr + i * INSTRUCTION_BYTES


def span_lines(start_addr: int, n_instrs: int, line_size: int):
    """Return the ordered list of distinct cache-line addresses touched by a
    run of ``n_instrs`` sequential instructions starting at ``start_addr``.
    """
    if n_instrs <= 0:
        return []
    first = line_address(start_addr, line_size)
    last = line_address(start_addr + (n_instrs - 1) * INSTRUCTION_BYTES, line_size)
    return list(range(first, last + 1, line_size))


def line_split(start_addr: int, n_instrs: int, line_size: int) -> tuple:
    """Split a run of ``n_instrs`` sequential instructions at
    ``start_addr`` into its cache lines, in fetch order: one
    ``(line address, index of its first instruction in the run,
    instructions in the line)`` triple per line."""
    end_addr = start_addr + n_instrs * INSTRUCTION_BYTES
    return tuple(
        (line,
         (max(start_addr, line) - start_addr) // INSTRUCTION_BYTES,
         (min(end_addr, line + line_size) - max(start_addr, line))
         // INSTRUCTION_BYTES)
        for line in span_lines(start_addr, n_instrs, line_size)
    )


@dataclass(frozen=True)
class StaticInstruction:
    """A single static instruction: address plus class.

    ``is_block_terminator`` marks the final (possibly branching) instruction
    of its basic block; the simulator uses it to know where control-flow
    decisions are attached.
    """

    addr: int
    cls: InstrClass
    is_block_terminator: bool = False
