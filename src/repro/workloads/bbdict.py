"""Basic-block dictionary: static program knowledge for wrong-path fetch.

The paper's simulator keeps "a separate basic block dictionary in which we
have the information of all static instructions (type, source/target
registers). That allows for prefetching even along wrong paths, as well as
performing speculative lookups and updates of the branch predictor."

This module provides the equivalent: given *any* instruction address the
front-end may speculatively fetch from (including addresses reached only on
mispredicted paths), it answers

* which basic block contains the address,
* what the instruction classes in that block are,
* where the static successors of the block are (fall-through and taken
  target),

so the decoupled front-end can keep generating fetch requests down a wrong
path until the mispredicted branch resolves.  Addresses that fall outside
the program (e.g. a garbled predicted target) are modelled as runs of
straight-line ALU code, mirroring how a real machine would happily fetch
whatever bytes live there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .cfg import BasicBlock, ControlFlowGraph
from .isa import INSTRUCTION_BYTES, BranchKind, InstrClass, line_split


@dataclass(frozen=True)
class StaticBlockView:
    """A read-only view of the static code at some address.

    ``start`` may be in the middle of a :class:`BasicBlock` (the front-end
    can land anywhere after a mispredicted target); ``size`` counts the
    instructions from ``start`` to the end of the underlying block.
    """

    start: int
    size: int
    kind: BranchKind
    taken_target: Optional[int]
    taken_probability: float
    instr_classes: tuple
    synthetic: bool = False  #: True when the address is outside the program

    @property
    def fall_through(self) -> int:
        return self.start + self.size * INSTRUCTION_BYTES

    @property
    def terminator_addr(self) -> int:
        return self.start + (self.size - 1) * INSTRUCTION_BYTES

    @property
    def ends_in_branch(self) -> bool:
        return self.kind is not BranchKind.NONE


#: Size (instructions) of the fabricated straight-line blocks returned for
#: addresses outside the known program.
_SYNTHETIC_BLOCK_SIZE = 8


class BasicBlockDictionary:
    """Address -> static block information, tolerant of arbitrary addresses."""

    def __init__(self, cfg: ControlFlowGraph):
        self._cfg = cfg
        # The CFG is immutable and views are frozen, so both lookups are
        # memoized: the front-end resolves the same handful of addresses
        # millions of times across a sweep.
        self._view_cache: Dict[int, StaticBlockView] = {}
        self._classes_cache: Dict[Tuple[int, int], tuple] = {}
        self._loads_cache: Dict[Tuple[int, int], Tuple[tuple, tuple]] = {}
        self._split_cache: Dict[Tuple[int, int, int], tuple] = {}

    def view_at(self, addr: int) -> StaticBlockView:
        """Static view of the code starting at ``addr``.

        If ``addr`` is inside a known block, the view covers the remainder
        of that block.  Otherwise a synthetic straight-line block is
        fabricated (marked ``synthetic=True``).
        """
        addr = addr - (addr % INSTRUCTION_BYTES)
        cached = self._view_cache.get(addr)
        if cached is not None:
            return cached
        view = self._view_at_uncached(addr)
        self._view_cache[addr] = view
        return view

    def _view_at_uncached(self, addr: int) -> StaticBlockView:
        block = self._cfg.block_containing(addr)
        if block is None:
            return StaticBlockView(
                start=addr,
                size=_SYNTHETIC_BLOCK_SIZE,
                kind=BranchKind.NONE,
                taken_target=None,
                taken_probability=0.0,
                instr_classes=tuple([InstrClass.ALU] * _SYNTHETIC_BLOCK_SIZE),
                synthetic=True,
            )
        offset = (addr - block.addr) // INSTRUCTION_BYTES
        remaining = block.size - offset
        return StaticBlockView(
            start=addr,
            size=remaining,
            kind=block.kind,
            taken_target=block.taken_target,
            taken_probability=block.taken_probability,
            instr_classes=tuple(block.instr_classes[offset:]),
            synthetic=False,
        )

    def classes_for(self, start: int, length: int) -> tuple:
        """Instruction classes of the ``length`` instructions at ``start``
        (walking across basic blocks), memoized across fetch blocks."""
        key = (start, length)
        cached = self._classes_cache.get(key)
        if cached is not None:
            return cached
        classes = []
        addr = start
        while len(classes) < length:
            view = self.view_at(addr)
            take = min(view.size, length - len(classes))
            classes.extend(view.instr_classes[:take])
            addr = view.start + take * INSTRUCTION_BYTES
        result = tuple(classes[:length])
        self._classes_cache[key] = result
        return result

    def loads(self, start: int, length: int) -> Tuple[tuple, tuple]:
        """The LOAD-class instructions among the ``length`` instructions
        at ``start``, in order: ``(offsets, miss probabilities)``, each
        load's index within the span and its block's L1-D miss
        probability.

        Memoized: prediction-trace records share the offsets, and the
        sampling layer's functional passes (load counting during skips,
        exact miss-hash replay during profiling) ask about the same
        loop-body spans millions of times.
        """
        key = (start, length)
        cached = self._loads_cache.get(key)
        if cached is not None:
            return cached
        offsets = []
        probs = []
        for offset, cls in enumerate(self.classes_for(start, length)):
            if cls is InstrClass.LOAD:
                block = self._cfg.block_containing(
                    start + offset * INSTRUCTION_BYTES
                )
                offsets.append(offset)
                probs.append(
                    block.load_miss_probability if block is not None else 0.0
                )
        result = self._loads_cache[key] = (tuple(offsets), tuple(probs))
        return result

    def load_miss_probs(self, start: int, length: int) -> tuple:
        """Per-load L1-D miss probabilities within the span, in order."""
        return self.loads(start, length)[1]

    def loads_for(self, start: int, length: int) -> int:
        """Number of LOAD-class instructions in the span (memoized)."""
        return len(self.loads(start, length)[0])

    def line_split(self, start: int, length: int, line_size: int) -> tuple:
        """:func:`~repro.workloads.isa.line_split` of the span, memoized:
        fetch blocks for the same streams recur throughout a run."""
        key = (start, length, line_size)
        cached = self._split_cache.get(key)
        if cached is None:
            cached = self._split_cache[key] = line_split(start, length,
                                                         line_size)
        return cached

    def block_at(self, addr: int) -> Optional[BasicBlock]:
        """The real block starting exactly at ``addr`` (None if absent)."""
        return self._cfg.block_at(addr)

    @property
    def cfg(self) -> ControlFlowGraph:
        return self._cfg
