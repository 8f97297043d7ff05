"""Dynamic execution of synthetic programs (trace production).

Three layers:

* :class:`ProgramWalker` -- the trace compiler.  It executes the CFG
  block by block along the *correct* path (the committed path): it
  resolves conditional branch outcomes with a seeded RNG, maintains the
  real call stack for returns, and yields :class:`DynamicBlock` records.
  Given the same profile/seed the walk is identical across simulator
  configurations, so every fetch engine is evaluated on exactly the same
  dynamic instruction stream (mirroring trace-driven simulation in the
  paper).

* :class:`CompiledTrace` -- the walk frozen into flat columnar arrays.
  Every :class:`Workload` owns one: it starts empty and grows on demand,
  or is replaced by a stored prefix (:mod:`repro.cache.traces`).
  :class:`StreamSegments` cuts it into canonical fetch streams for the
  batched functional passes.

* :class:`CompiledPathOracle` -- the cursor over a compiled trace used by
  the decoupled front-end.  It can *peek* the upcoming fetch stream
  (sequential instructions up to and including the next taken control
  transfer), *advance* by a number of instructions (possibly stopping in
  the middle of a stream after a misprediction), and report the current
  correct-path fetch address.
"""

from __future__ import annotations

import random
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .bbdict import BasicBlockDictionary
from .cfg import ControlFlowGraph
from .generator import WorkloadProfile, generate_program
from .isa import INSTRUCTION_BYTES, BranchKind, span_lines

#: Maximum call depth tracked by the walker; deeper calls fall through (the
#: generator builds an acyclic call graph so this is only a safety net).
MAX_CALL_DEPTH = 64

#: Upper bound on fetch-stream length in instructions (the stream predictor
#: cannot encode arbitrarily long streams; 64 instructions = 256 bytes,
#: i.e. 4 cache lines, matching stream-fetch literature).
MAX_STREAM_INSTRUCTIONS = 64


@dataclass(frozen=True, slots=True)
class DynamicBlock:
    """One dynamic execution of a basic block on the correct path."""

    addr: int               #: first instruction address
    size: int               #: number of instructions executed in this block
    kind: BranchKind        #: terminator kind
    taken: bool             #: whether the terminator transferred control
    next_addr: int          #: address executed immediately after this block
    terminator_addr: int    #: address of the final (branch) instruction

    @property
    def end_addr(self) -> int:
        return self.addr + self.size * INSTRUCTION_BYTES


@dataclass(frozen=True, slots=True)
class ActualStream:
    """The true upcoming fetch stream on the correct path.

    A *stream* is a run of sequential instructions starting at ``start``
    and ending either at a taken control transfer (``ends_taken=True``) or
    at the stream-length cap.  ``next_addr`` is where the correct path
    continues after the stream.
    """

    start: int
    length: int                 #: instructions in the stream
    next_addr: int
    ends_taken: bool
    terminator_kind: BranchKind
    terminator_addr: int

    @property
    def end_addr(self) -> int:
        return self.start + self.length * INSTRUCTION_BYTES


class ProgramWalker:
    """Executes a CFG along the correct path, one basic block at a time."""

    def __init__(self, cfg: ControlFlowGraph, seed: int = 0):
        self._cfg = cfg
        self._rng = random.Random(seed ^ 0x5F3759DF)
        self._pc = cfg.entry_address
        self._call_stack: List[int] = []
        self._blocks_executed = 0
        self._instructions_executed = 0

    @property
    def instructions_executed(self) -> int:
        return self._instructions_executed

    @property
    def blocks_executed(self) -> int:
        return self._blocks_executed

    def snapshot(self) -> tuple:
        """Capture the walker state so an identical continuation can be
        forked later (a compiled trace resumes its walk from it)."""
        return (
            self._pc,
            tuple(self._call_stack),
            self._rng.getstate(),
            self._blocks_executed,
            self._instructions_executed,
        )

    @classmethod
    def from_snapshot(cls, cfg: ControlFlowGraph, state: tuple) -> "ProgramWalker":
        """A new walker that continues exactly where ``snapshot`` was taken."""
        walker = cls(cfg)
        walker._pc = state[0]
        walker._call_stack = list(state[1])
        walker._rng.setstate(state[2])
        walker._blocks_executed = state[3]
        walker._instructions_executed = state[4]
        return walker

    def next_block(self) -> DynamicBlock:
        """Execute one dynamic basic block and return its record."""
        block = self._cfg.block_at(self._pc)
        if block is None:
            # The PC should always land on block starts during correct-path
            # execution; treat a stray PC as a jump back to the entry.
            block = self._cfg.block_at(self._cfg.entry_address)
            self._pc = block.addr

        taken = False
        next_addr = block.fall_through
        kind = block.kind

        if kind is BranchKind.CONDITIONAL:
            taken = self._rng.random() < block.taken_probability
            if taken:
                next_addr = block.taken_target
        elif kind is BranchKind.UNCONDITIONAL:
            taken = True
            next_addr = block.taken_target
        elif kind is BranchKind.CALL:
            taken = True
            if len(self._call_stack) < MAX_CALL_DEPTH:
                self._call_stack.append(block.fall_through)
                next_addr = block.taken_target
            else:
                # Depth cap: skip the call (treated as not taken).
                taken = False
                next_addr = block.fall_through
        elif kind is BranchKind.RETURN:
            taken = True
            if self._call_stack:
                next_addr = self._call_stack.pop()
            else:
                next_addr = self._cfg.entry_address

        record = DynamicBlock(
            addr=block.addr,
            size=block.size,
            kind=kind,
            taken=taken,
            next_addr=next_addr,
            terminator_addr=block.terminator_addr,
        )
        self._pc = next_addr
        self._blocks_executed += 1
        self._instructions_executed += block.size
        return record


@dataclass(frozen=True, slots=True)
class IntervalRecord:
    """One fixed-length slice of the dynamic instruction stream.

    ``block_counts`` maps basic-block start address to the number of
    instructions that block contributed to this interval -- the raw basic
    block vector (BBV) used by SimPoint-style interval selection.  A block
    execution that straddles an interval boundary is split exactly, so
    every interval except possibly the last holds ``length`` instructions.
    """

    index: int                  #: interval number (0-based)
    start_instruction: int      #: absolute offset of the first instruction
    length: int                 #: instructions in this interval
    block_counts: Dict[int, int]


class CompiledTrace:
    """A prefix of a correct-path walk frozen into compact columnar arrays.

    Six flat ``array`` columns -- one machine word (or byte) per dynamic
    block -- replace the per-block RNG walk (seeded branch draws, CFG
    lookups, :class:`DynamicBlock` construction) on every hot path, and
    can be pickled to disk once and replayed by every later process.

    The arrays cover the first ``compiled_instructions`` of the walk;
    ``tail_state`` is the walker snapshot right after the last block.
    :meth:`ensure` grows the arrays in place from there on demand --
    deterministic, so every consumer sees the same sequence however far
    it reads, and a trace that started empty (:meth:`empty`) replays
    exactly what a stored prefix of the same walk does.

    Runs on several threads share a workload's trace, so growth holds a
    per-trace lock and appends the ``size`` column last: readers test
    ``len(size)`` without the lock, and a block they see there is
    complete in every column.
    """

    __slots__ = (
        "name", "seed", "compiled_instructions",
        "addr", "size", "kind", "taken", "next_addr", "terminator_addr",
        "_tail_state", "_cfg", "_tail_walker", "_segments", "_lock",
    )

    def __init__(
        self,
        name: str,
        seed: int,
        compiled_instructions: int,
        addr: array,
        size: array,
        kind: array,
        taken: array,
        next_addr: array,
        terminator_addr: array,
        tail_state: tuple,
    ) -> None:
        self.name = name
        self.seed = seed
        self.compiled_instructions = compiled_instructions
        self.addr = addr
        self.size = size
        self.kind = kind
        self.taken = taken
        self.next_addr = next_addr
        self.terminator_addr = terminator_addr
        self._tail_state = tail_state
        self._cfg: Optional[ControlFlowGraph] = None
        self._tail_walker: Optional[ProgramWalker] = None
        # Derived, process-local (never pickled; __getstate__ is explicit):
        # canonical stream segmentations, keyed by stream cap.
        self._segments: Dict[int, "StreamSegments"] = {}
        self._lock = threading.Lock()

    @classmethod
    def empty(
        cls, profile: WorkloadProfile, cfg: ControlFlowGraph
    ) -> "CompiledTrace":
        """A trace of no blocks yet, positioned at the start of the walk."""
        trace = cls(
            profile.name, profile.seed, 0,
            array("q"), array("q"), array("b"), array("b"),
            array("q"), array("q"),
            ProgramWalker(cfg, seed=profile.seed).snapshot(),
        )
        trace.bind(cfg)
        return trace

    def __len__(self) -> int:
        return len(self.size)

    def segments(self, max_stream_instructions: int) -> "StreamSegments":
        """The canonical stream segmentation for the given stream cap.

        Memoized per cap: every batched consumer of this trace shares the
        segment columns (and their derived load counts / line spans).
        """
        with self._lock:
            segments = self._segments.get(max_stream_instructions)
            if segments is None:
                segments = StreamSegments(self, max_stream_instructions)
                self._segments[max_stream_instructions] = segments
        return segments

    def bind(self, cfg: ControlFlowGraph) -> None:
        """Attach the CFG the walk continues on past the arrays."""
        self._cfg = cfg

    def ensure(self, index: int) -> None:
        """Materialise blocks up to and including ``index``."""
        if index >= len(self.size):
            self._grow(index + 1, 0)

    def cover(self, instructions: int) -> None:
        """Materialise blocks until the arrays cover ``instructions``."""
        if instructions > self.compiled_instructions:
            self._grow(0, instructions)

    def _grow(self, blocks: int, instructions: int) -> None:
        """Walk on until the arrays hold ``blocks`` blocks and cover
        ``instructions`` instructions."""
        with self._lock:
            walker = self._tail_walker
            if walker is None:
                walker = ProgramWalker.from_snapshot(self._cfg,
                                                     self._tail_state)
                self._tail_walker = walker
            next_block = walker.next_block
            size = self.size
            append_addr = self.addr.append
            append_size = size.append
            append_kind = self.kind.append
            append_taken = self.taken.append
            append_next = self.next_addr.append
            append_term = self.terminator_addr.append
            while (len(size) < blocks
                   or walker.instructions_executed < instructions):
                block = next_block()
                append_addr(block.addr)
                append_kind(block.kind)
                append_taken(1 if block.taken else 0)
                append_next(block.next_addr)
                append_term(block.terminator_addr)
                append_size(block.size)
            self.compiled_instructions = walker.instructions_executed

    # -- pickling (the live CFG / tail walker never leave the process) --
    def __getstate__(self) -> dict:
        # Copied under the lock: another thread may grow the trace while
        # the pickler walks it, and the copy is a consistent prefix.
        with self._lock:
            walker = self._tail_walker
            return {
                "name": self.name,
                "seed": self.seed,
                "compiled_instructions": self.compiled_instructions,
                "addr": self.addr[:],
                "size": self.size[:],
                "kind": self.kind[:],
                "taken": self.taken[:],
                "next_addr": self.next_addr[:],
                "terminator_addr": self.terminator_addr[:],
                "tail_state": (walker.snapshot() if walker is not None
                               else self._tail_state),
            }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["name"], state["seed"], state["compiled_instructions"],
            state["addr"], state["size"], state["kind"], state["taken"],
            state["next_addr"], state["terminator_addr"], state["tail_state"],
        )


def compile_trace(workload: "Workload", instructions: int) -> CompiledTrace:
    """Walk ``workload``'s correct path once and freeze >= ``instructions``
    of it into a new :class:`CompiledTrace` (the prefix the artifact
    cache publishes)."""
    trace = CompiledTrace.empty(workload.profile, workload.cfg)
    trace.cover(instructions)
    return trace


class StreamSegments:
    """The canonical fetch-stream segmentation of a :class:`CompiledTrace`.

    Cutting the correct path into fetch streams from instruction 0 with a
    fixed cap yields a *canonical* segmentation: one entry per stream,
    again stored as flat columns.  The batched passes (``sampling.bbv``,
    ``sampling.proxy``, ``simulator.warming``) stride over these columns
    one stream at a time instead of re-deriving each stream block by
    block through ``peek_stream``.

    Alignment: a position produced by consuming whole canonical streams
    is itself a canonical stream start.  Positions reached some other way
    (e.g. a mispredict redirect stopping mid-stream in the timed loop)
    realign after the next *taken*-ended stream, because a capped stream
    never ends exactly at a taken block's terminator (``peek_stream``
    extends through it) -- so every taken-block end a per-stream step
    stops at is also a boundary of the from-zero segmentation.

    Each segment row records, besides the :class:`ActualStream` fields,
    the oracle block cursor *after* the stream (``end_index`` /
    ``end_offset``, normalized exactly as ``advance`` would leave it) so
    a batched consumer can jump the oracle in O(1), plus lazily-derived
    per-segment LOAD counts and touched-line spans.

    Growth follows the compiled trace's thread rule: a per-segmentation
    lock, and the ``length`` column (which readers test) appended last.
    """

    __slots__ = (
        "trace", "cap", "start_addr", "length", "next_addr", "ends_taken",
        "term_addr", "kind", "start_pos", "end_index", "end_offset",
        "loads", "_lines", "_build_index", "_build_offset", "_build_pos",
        "_lock",
    )

    def __init__(self, trace: CompiledTrace, cap: int) -> None:
        if cap <= 0:
            raise ValueError("stream cap must be positive")
        self.trace = trace
        self.cap = cap
        self.start_addr = array("q")
        self.length = array("q")
        self.next_addr = array("q")
        self.ends_taken = array("b")
        self.term_addr = array("q")
        self.kind: List[BranchKind] = []      # effective terminator kind
        self.start_pos = array("q")           # cumulative start position
        self.end_index = array("q")
        self.end_offset = array("q")
        self.loads = array("q")               # lazily filled per bbdict
        self._lines: Dict[int, List[tuple]] = {}   # line_size -> spans
        self._build_index = 0
        self._build_offset = 0
        self._build_pos = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.length)

    def ensure_count(self, count: int) -> None:
        """Materialise at least ``count`` segments."""
        if len(self.length) < count:
            with self._lock:
                while len(self.length) < count:
                    self._build_one()

    def aligned_index(self, position: int) -> Optional[int]:
        """Segment index starting exactly at ``position``, else ``None``."""
        if self._build_pos <= position:
            with self._lock:
                while self._build_pos <= position:
                    self._build_one()
        index = bisect_right(self.start_pos, position) - 1
        if self.start_pos[index] != position:
            return None
        return index

    def _build_one(self) -> None:
        """Append the next segment, mirroring ``peek_stream`` +
        ``advance(length)`` from the current build cursor."""
        trace = self.trace
        addr_a, size_a, taken_a = trace.addr, trace.size, trace.taken
        ensure = trace.ensure
        cap = self.cap
        idx = self._build_index
        off = self._build_offset
        if idx >= len(size_a):
            ensure(idx)
        start = addr_a[idx] + off * INSTRUCTION_BYTES
        length = 0
        while True:
            if idx >= len(size_a):
                ensure(idx)
            size = size_a[idx]
            taken = taken_a[idx]
            available = size - off
            remaining = cap - length
            if available >= remaining and not (taken and available <= remaining):
                length += remaining
                end_addr = addr_a[idx] + (off + remaining) * INSTRUCTION_BYTES
                next_addr = end_addr
                ends_taken = 0
                kind = BranchKind.NONE
                term = end_addr - INSTRUCTION_BYTES
                if off + remaining == size:
                    end_idx, end_off = idx + 1, 0
                else:
                    end_idx, end_off = idx, off + remaining
                break
            length += available
            if taken:
                next_addr = trace.next_addr[idx]
                ends_taken = 1
                kind = BranchKind(trace.kind[idx])
                term = trace.terminator_addr[idx]
                end_idx, end_off = idx + 1, 0
                break
            if length >= cap:                      # defensive; see peek_stream
                end_addr = addr_a[idx] + size * INSTRUCTION_BYTES
                next_addr = end_addr
                ends_taken = 0
                kind = BranchKind.NONE
                term = end_addr - INSTRUCTION_BYTES
                end_idx, end_off = idx + 1, 0
                break
            idx += 1
            off = 0
        self.start_addr.append(start)
        self.next_addr.append(next_addr)
        self.ends_taken.append(ends_taken)
        self.term_addr.append(term)
        self.kind.append(kind)
        self.start_pos.append(self._build_pos)
        self.end_index.append(end_idx)
        self.end_offset.append(end_off)
        self.length.append(length)
        self._build_pos += length
        self._build_index = end_idx
        self._build_offset = end_off

    # -- lazily derived per-segment data --------------------------------
    def ensure_loads(self, bbdict: BasicBlockDictionary, count: int) -> None:
        """Fill per-segment LOAD-class instruction counts up to ``count``."""
        self.ensure_count(count)
        loads = self.loads
        loads_for = bbdict.loads_for
        start_addr = self.start_addr
        length = self.length
        with self._lock:
            for i in range(len(loads), count):
                loads.append(loads_for(start_addr[i], length[i]))

    def lines(self, line_size: int, count: int) -> List[tuple]:
        """Per-segment touched-line tuples for ``line_size``, through
        ``count`` segments (grown on demand, memoized per line size)."""
        spans = self._lines.setdefault(line_size, [])
        if len(spans) < count:
            self.ensure_count(count)
            start_addr = self.start_addr
            length = self.length
            with self._lock:
                for i in range(len(spans), count):
                    spans.append(
                        tuple(span_lines(start_addr[i], length[i], line_size))
                    )
        return spans


class CompiledPathOracle:
    """Cursor over the correct-path walk of a :class:`CompiledTrace`.

    The front-end uses it to (a) learn what the correct path actually does
    (for comparing against branch predictions and for training the
    predictor) and (b) know where to resume after a misprediction
    resolves.  The cursor is a ``(block index, instruction offset)`` pair
    into the trace's columnar arrays, so the front-end can stop mid-block
    when a predicted stream is shorter than the actual one, and no RNG
    draws, CFG lookups or :class:`DynamicBlock` objects sit on the timed
    or functional hot paths.
    """

    __slots__ = (
        "_trace", "_addr", "_size", "_kind", "_taken", "_next", "_term",
        "_index", "_offset", "_consumed_instructions",
        "max_stream_instructions",
    )

    def __init__(
        self,
        trace: CompiledTrace,
        max_stream_instructions: int = MAX_STREAM_INSTRUCTIONS,
    ) -> None:
        self._trace = trace
        # array identities are stable (extension appends in place).
        self._addr = trace.addr
        self._size = trace.size
        self._kind = trace.kind
        self._taken = trace.taken
        self._next = trace.next_addr
        self._term = trace.terminator_addr
        self._index = 0
        self._offset = 0
        self._consumed_instructions = 0
        self.max_stream_instructions = max_stream_instructions

    # -- pickling and deep copies carry the cursor; the aliases are rebuilt
    def __getstate__(self) -> tuple:
        return (self._trace, self.max_stream_instructions, self._index,
                self._offset, self._consumed_instructions)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(state[0], state[1])
        self._set_position(*state[2:])

    # -- public API ------------------------------------------------------
    @property
    def consumed_instructions(self) -> int:
        """Total correct-path instructions the front-end has moved past."""
        return self._consumed_instructions

    def current_address(self) -> int:
        """Address of the next correct-path instruction to be fetched."""
        index = self._index
        if index >= len(self._size):
            self._trace.ensure(index)
        return self._addr[index] + self._offset * INSTRUCTION_BYTES

    def peek_stream(self, max_instructions: Optional[int] = None) -> ActualStream:
        """The actual stream that begins at :meth:`current_address`.

        Does not move the cursor.
        """
        cap = max_instructions or self.max_stream_instructions
        addr_a, size_a, taken_a = self._addr, self._size, self._taken
        ensure = self._trace.ensure
        idx = self._index
        off = self._offset
        if idx >= len(size_a):
            ensure(idx)
        start = addr_a[idx] + off * INSTRUCTION_BYTES
        length = 0
        while True:
            if idx >= len(size_a):
                ensure(idx)
            size = size_a[idx]
            taken = taken_a[idx]
            available = size - off
            remaining = cap - length
            if available >= remaining and not (taken and available <= remaining):
                length += remaining
                end_addr = addr_a[idx] + (off + remaining) * INSTRUCTION_BYTES
                return ActualStream(
                    start=start, length=length, next_addr=end_addr,
                    ends_taken=False, terminator_kind=BranchKind.NONE,
                    terminator_addr=end_addr - INSTRUCTION_BYTES,
                )
            length += available
            if taken:
                return ActualStream(
                    start=start, length=length, next_addr=self._next[idx],
                    ends_taken=True, terminator_kind=BranchKind(self._kind[idx]),
                    terminator_addr=self._term[idx],
                )
            if length >= cap:
                end_addr = addr_a[idx] + size * INSTRUCTION_BYTES
                return ActualStream(
                    start=start, length=length, next_addr=end_addr,
                    ends_taken=False, terminator_kind=BranchKind.NONE,
                    terminator_addr=end_addr - INSTRUCTION_BYTES,
                )
            idx += 1
            off = 0

    def segments(
        self, max_stream_instructions: Optional[int] = None
    ) -> StreamSegments:
        """Canonical segmentation of the backing trace (shared across all
        consumers of the trace) for the given stream cap."""
        return self._trace.segments(
            max_stream_instructions or self.max_stream_instructions
        )

    def _set_position(
        self, index: int, offset: int, consumed_instructions: int
    ) -> None:
        """Jump the cursor in O(1) (batched stride in ``simulator.warming``).

        The coordinates must come from :class:`StreamSegments`, whose
        ``end_index``/``end_offset`` are normalized exactly as a
        block-by-block ``advance`` to the same position would leave them.
        """
        self._index = index
        self._offset = offset
        self._consumed_instructions = consumed_instructions

    def advance(self, n_instructions: int) -> None:
        """Move the cursor forward by ``n_instructions`` along the correct
        path (used after emitting a fetch block for those instructions)."""
        if n_instructions < 0:
            raise ValueError("cannot advance by a negative amount")
        size_a = self._size
        ensure = self._trace.ensure
        index = self._index
        offset = self._offset
        remaining = n_instructions
        while remaining > 0:
            if index >= len(size_a):
                ensure(index)
            available = size_a[index] - offset
            if remaining < available:
                offset += remaining
                remaining = 0
            else:
                remaining -= available
                index += 1
                offset = 0
        self._index = index
        self._offset = offset
        self._consumed_instructions += n_instructions


@dataclass
class Workload:
    """A fully-built workload: program, dictionary, and correct-path trace."""

    profile: WorkloadProfile
    cfg: ControlFlowGraph
    bbdict: BasicBlockDictionary
    #: The correct-path walk every oracle of this workload replays.  It
    #: starts empty and grows on demand; the artifact cache may swap in a
    #: stored prefix of the same walk (:meth:`attach_compiled_trace`).
    _compiled_trace: CompiledTrace = field(init=False)
    #: The front-end's prediction traces (:meth:`prediction_trace`).
    _prediction_traces: Dict[tuple, object] = field(
        init=False, repr=False, compare=False)
    _prediction_lock: threading.Lock = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._compiled_trace = CompiledTrace.empty(self.profile, self.cfg)
        self._prediction_traces = {}
        self._prediction_lock = threading.Lock()

    def attach_compiled_trace(self, trace: CompiledTrace) -> None:
        """Route every future oracle through ``trace`` (must belong to
        this workload's profile/seed, so it replays the same walk)."""
        if (trace.name, trace.seed) != (self.profile.name, self.profile.seed):
            raise ValueError(
                f"compiled trace for {trace.name!r}/seed {trace.seed} does "
                f"not belong to workload {self.profile.name!r}/seed "
                f"{self.profile.seed}"
            )
        trace.bind(self.cfg)
        self._compiled_trace = trace

    def new_oracle(self) -> CompiledPathOracle:
        """A fresh correct-path oracle (identical stream for identical
        profile seeds, regardless of simulator configuration)."""
        return CompiledPathOracle(self._compiled_trace)

    def prediction_trace(self, key: tuple, build: Callable[[], object]):
        """The prediction trace for ``key``, built by ``build()`` on first
        use and shared by every later run whose front-end starts in the
        state ``key`` names
        (:class:`~repro.frontend.prediction.PredictionTrace`)."""
        with self._prediction_lock:
            trace = self._prediction_traces.get(key)
            if trace is None:
                trace = self._prediction_traces[key] = build()
            return trace

    @property
    def name(self) -> str:
        return self.profile.name


def build_workload(profile: WorkloadProfile) -> Workload:
    """Generate the program for ``profile`` and wrap it as a workload."""
    cfg = generate_program(profile)
    return Workload(profile=profile, cfg=cfg, bbdict=BasicBlockDictionary(cfg))
