"""Decoupled prediction unit (the front of the decoupled front-end).

Every cycle, the prediction unit can produce one fetch stream and insert it
into the fetch engine's queue (FTQ for FDP, CLTQ for CLGP) if there is
room -- "the branch predictor goes autonomously generating predictions",
decoupled from fetch.

Because the simulator is trace-driven, the unit follows the correct path
through a :class:`~repro.workloads.trace.CompiledPathOracle`, but honours
its own predictor:

* when the stream predictor agrees with the oracle, the emitted fetch
  block lies on the correct path;
* when it disagrees, the emitted block is marked *mispredicted* (its
  ``correct_prefix`` ends at the offending branch) and the unit switches to
  *wrong-path mode*: subsequent blocks are generated by statically walking
  the basic-block dictionary from the predicted (wrong) target, exactly as
  the paper's simulator does with its basic-block dictionary.  Wrong-path
  blocks keep flowing (and keep triggering prefetches) until the back-end
  resolves the branch and calls :meth:`PredictionUnit.redirect`.

That output does not depend on timing: the predictor trains only on
correct-path streams, the wrong-path walk reads only the basic-block
dictionary and the return address stack (RAS), and a redirect restores
the RAS and path history.  Timing only decides how much of each
misprediction's wrong-path run is emitted.  So the blocks are generated
once into a :class:`PredictionTrace`, and the timed
:class:`PredictionUnit` is a cursor over it: at its first timed tick the
unit's predictor, RAS, path history and oracle move into the trace as its
generator.  ``Simulator.run`` shares one trace between every run that
starts from the same state; a bare unit builds a private one.

Two more per-block facts do not depend on timing either, so each record
carries them too: the block's split into cache lines, and the D-cache
outcome of each correct-path load (:func:`~repro.backend.dcache.draw_misses`
at the load's dynamic index, which starts at the loads the unit skipped
functionally before the trace was attached).  Every run that shares the
trace then dispatches the same loads without drawing or splitting again.
"""

from __future__ import annotations

import copy
import pickle
import threading
from dataclasses import dataclass
from typing import Optional

from .fetch_block import FetchBlock
from .ras import ReturnAddressStack
from .stream_predictor import StreamPredictor
from ..backend.dcache import draw_misses
from ..workloads.bbdict import BasicBlockDictionary
from ..workloads.isa import INSTRUCTION_BYTES, BranchKind
from ..workloads.trace import (
    MAX_STREAM_INSTRUCTIONS,
    ActualStream,
    CompiledPathOracle,
    Workload,
)


@dataclass
class PredictionStats:
    """Counters kept by the prediction unit."""

    streams_predicted: int = 0
    stream_mispredictions: int = 0
    wrong_path_blocks: int = 0
    redirects: int = 0
    correct_path_instructions_predicted: int = 0

    @property
    def misprediction_rate(self) -> float:
        if not self.streams_predicted:
            return 0.0
        return self.stream_mispredictions / self.streams_predicted


def _follow(ras: ReturnAddressStack, history: int,
            actual: ActualStream) -> int:
    """Apply a followed stream's terminator to ``ras``; returns the path
    history after the stream."""
    if actual.ends_taken:
        if actual.terminator_kind is BranchKind.CALL:
            ras.push(actual.terminator_addr + INSTRUCTION_BYTES)
        elif actual.terminator_kind is BranchKind.RETURN:
            ras.pop()
    return StreamPredictor.fold_history(
        history, actual.next_addr, actual.ends_taken
    )


class PredictionTrace:
    """The prediction unit's fetch blocks from one start state.

    ``records`` holds one tuple per correct-path block, ``(start, length,
    correct_prefix, mispredicted, redirect_target, split, loads,
    misses)``: ``split`` is the block's line split for ``line_size``,
    ``loads`` the offsets of its correct-path loads, and ``misses`` the
    ``(offset, misses_l2)`` of each of those that misses the L1-D, drawn
    at its dynamic load index (``load_index`` counts on from the loads
    skipped before the trace started).  ``split`` and ``loads`` are the
    basic-block dictionary's memoised tuples, and a record without a miss
    holds the empty tuple.  ``wrong_paths`` maps each mispredicted
    record's index to its wrong-path run, a list of ``(start, length,
    split)`` blocks.  Both grow on demand (:meth:`extend`,
    :meth:`extend_wrong`) from the generator: the oracle, stream
    predictor, RAS and path history of the unit that built the trace.
    The generator never enters wrong-path mode.  At a misprediction it
    records where the wrong-path run starts (the predicted target, and
    the RAS after the speculative push or pop), keeps its own RAS and
    history, and goes on along the correct path -- what a redirect would
    restore.

    The trace is append-only and deterministic, so a deep copy (a
    simulator checkpoint) shares it; pickling (a persisted frontier
    checkpoint) carries it by value.  Runs on several threads read one
    trace: growth holds a per-trace lock and re-checks the length inside
    it, while reads of existing entries take none.
    """

    def __init__(self, workload: Workload,
                 oracle: CompiledPathOracle, predictor: StreamPredictor,
                 ras: ReturnAddressStack, history: int,
                 max_stream: int, line_size: int, load_index: int) -> None:
        self.records: list = []
        self.wrong_paths: dict = {}
        #: Where each wrong-path run goes on: ``(pc, RAS contents)``.
        self._heads: dict = {}
        self.bbdict = workload.bbdict
        self.oracle = oracle
        self.predictor = predictor
        self.ras = ras
        self.history = history
        self.max_stream = max_stream
        self.line_size = line_size
        self.seed = workload.profile.seed
        self.l2_data_miss_rate = workload.profile.l2_data_miss_rate
        #: Dynamic index of the next correct-path load.
        self.load_index = load_index
        self._lock = threading.Lock()

    def __deepcopy__(self, memo: dict) -> "PredictionTrace":
        return self

    #: What generation changes; none of it refers to workload objects.
    _GENERATED = ("records", "wrong_paths", "_heads", "predictor", "ras",
                  "history", "load_index")

    def __getstate__(self) -> dict:
        # Taken under the lock, since another thread may extend the trace
        # while the pickler walks it.  The generated state pickles in one
        # plain pass; the oracle goes through the caller's pickler, which
        # shares the compiled trace.
        with self._lock:
            generated = pickle.dumps(
                [getattr(self, name) for name in self._GENERATED],
                protocol=pickle.HIGHEST_PROTOCOL)
            return {"bbdict": self.bbdict, "oracle": copy.copy(self.oracle),
                    "max_stream": self.max_stream,
                    "line_size": self.line_size, "seed": self.seed,
                    "l2_data_miss_rate": self.l2_data_miss_rate,
                    "generated": generated}

    def __setstate__(self, state: dict) -> None:
        generated = pickle.loads(state.pop("generated"))
        self.__dict__.update(state, **dict(zip(self._GENERATED, generated)))
        self._lock = threading.Lock()

    def extend(self, index: int) -> None:
        """Generate correct-path records until ``records[index]`` exists."""
        with self._lock:
            records = self.records
            oracle = self.oracle
            predictor = self.predictor
            ras = self.ras
            history = self.history
            max_stream = self.max_stream
            line_size = self.line_size
            split_of = self.bbdict.line_split
            loads_of = self.bbdict.loads
            seed = self.seed
            l2_rate = self.l2_data_miss_rate
            load_index = self.load_index
            while len(records) <= index:
                addr = oracle.current_address()
                actual = oracle.peek_stream(max_stream)
                prediction = predictor.predict(addr, history)
                predictor.train(addr, history, actual)
                pred_len = max(1, min(prediction.length, max_stream))
                pred_next = prediction.next_addr
                if prediction.uses_ras:
                    ras_target = ras.peek()
                    if ras_target is not None:
                        pred_next = ras_target
                length = actual.length
                correct = pred_len == length and pred_next == actual.next_addr
                prefix = length if correct else min(pred_len, length)
                offsets, probs = loads_of(addr, prefix)
                misses = draw_misses(offsets, probs, load_index, seed,
                                     l2_rate) if probs else ()
                load_index += len(offsets)
                if correct:
                    oracle.advance(length)
                    history = _follow(ras, history, actual)
                    records.append((addr, length, length, False, None,
                                    split_of(addr, length, line_size),
                                    offsets, misses))
                    continue
                oracle.advance(prefix)
                stack = ras.snapshot()
                if prediction.uses_ras:
                    stack = stack[:-1]
                elif prediction.terminator_kind is BranchKind.CALL:
                    return_addr = addr + pred_len * INSTRUCTION_BYTES
                    stack = (stack + (return_addr,))[-ras.capacity:]
                # The run is in place before its record is visible.
                self._heads[len(records)] = (pred_next, stack)
                self.wrong_paths[len(records)] = []
                if length <= pred_len and actual.ends_taken:
                    history = _follow(ras, history, actual)
                records.append((addr, pred_len, prefix, True,
                                oracle.current_address(),
                                split_of(addr, pred_len, line_size),
                                offsets, misses))
            self.history = history
            self.load_index = load_index

    def extend_wrong(self, index: int, position: int) -> None:
        """Walk the wrong path of mispredicted record ``index`` until its
        run holds block ``position`` (a static walk of the basic-block
        dictionary, bounded per block)."""
        with self._lock:
            blocks = self.wrong_paths[index]
            next_pc, stack = self._heads[index]
            ras = ReturnAddressStack(self.ras.capacity)
            ras.restore(stack)
            view_at = self.bbdict.view_at
            split_of = self.bbdict.line_split
            line_size = self.line_size
            max_stream = self.max_stream
            while len(blocks) <= position:
                start = pc = next_pc
                length = 0
                for _ in range(32):  # bound the walk per emitted block
                    view = view_at(pc)
                    take = min(view.size, max_stream - length)
                    length += take
                    reached_terminator = take == view.size
                    if length >= max_stream:
                        next_pc = pc + take * INSTRUCTION_BYTES
                        break
                    if reached_terminator and view.kind is not BranchKind.NONE:
                        taken = (
                            view.taken_probability >= 0.5
                            if view.kind is BranchKind.CONDITIONAL
                            else True
                        )
                        if taken:
                            if view.kind is BranchKind.RETURN:
                                target = ras.pop()
                                next_pc = (target if target is not None
                                           else view.fall_through)
                            elif view.taken_target is not None:
                                if view.kind is BranchKind.CALL:
                                    ras.push(view.fall_through)
                                next_pc = view.taken_target
                            else:
                                next_pc = view.fall_through
                            break
                    pc = view.start + take * INSTRUCTION_BYTES
                    next_pc = pc
                length = max(1, length)
                blocks.append((start, length,
                               split_of(start, length, line_size)))
            self._heads[index] = (next_pc, ras.snapshot())


class PredictionUnit:
    """Produces fetch blocks from the stream predictor + correct-path oracle.

    Until the first timed tick the unit owns its functional state
    (``oracle``, ``predictor``, ``ras``, ``history``, ``skipped_loads``),
    which warm-up and functional skips train.  After it, the unit is a
    cursor over a :class:`PredictionTrace` (``trace``): a record index,
    a wrong-path index, the consumed correct-path instructions and the
    wrong-path flag, and the functional state lives only in the trace's
    generator.
    """

    def __init__(
        self,
        workload: Workload,
        predictor: Optional[StreamPredictor] = None,
        ras_entries: int = 8,
        max_stream_instructions: int = MAX_STREAM_INSTRUCTIONS,
        line_size: int = 64,
    ):
        self.workload = workload
        self.bbdict: BasicBlockDictionary = workload.bbdict
        self.oracle: Optional[CompiledPathOracle] = workload.new_oracle()
        self.predictor = predictor or StreamPredictor(
            default_length=max_stream_instructions
        )
        self.ras = ReturnAddressStack(ras_entries)
        self.max_stream = max_stream_instructions
        self.line_size = line_size
        self.history = 0
        #: Correct-path loads consumed by functional skips: the dynamic
        #: load index of the first load the trace draws, so a run that
        #: starts at an offset draws what a run from offset 0 draws there.
        self.skipped_loads = 0
        self.stats = PredictionStats()
        #: Set by a functional skip that stopped mid-stream: ``(oracle
        #: position, straddling ActualStream, instructions of it already
        #: consumed)``.  A later skip resuming from exactly that position
        #: consumes the remainder without retraining the predictor, so a
        #: skip split at an arbitrary point (checkpoint + resume) is
        #: bit-identical to one continuous skip.  Dropped by
        #: :meth:`attach`: skips only run before the first timed run.
        self._skip_partial: Optional[tuple] = None

        self.trace: Optional[PredictionTrace] = None
        self._index = 0
        self._wrong_index = 0
        self._consumed = 0
        self._wrong_path_mode = False

    # ------------------------------------------------------------------
    # the trace
    # ------------------------------------------------------------------
    @property
    def consumed_instructions(self) -> int:
        """Correct-path instructions the unit has moved past."""
        if self.trace is None:
            return self.oracle.consumed_instructions
        return self._consumed

    def new_trace(self) -> PredictionTrace:
        """A trace whose generator is this unit's functional state (moved,
        not copied: :meth:`attach` drops the unit's references)."""
        return PredictionTrace(self.workload, self.oracle, self.predictor,
                               self.ras, self.history, self.max_stream,
                               self.line_size, self.skipped_loads)

    def attach(self, trace: PredictionTrace) -> None:
        """Become a cursor at the start of ``trace``, which must start
        from this unit's state; the unit's functional state is dropped."""
        self._consumed = self.oracle.consumed_instructions
        self.trace = trace
        self.oracle = self.predictor = self.ras = self.history = None
        self._skip_partial = None

    def _apply_terminator(self, actual: ActualStream) -> None:
        """Update RAS and path history after a correctly-followed stream
        (functional skips, before the first timed tick)."""
        self.history = _follow(self.ras, self.history, actual)

    # ------------------------------------------------------------------
    # per-cycle operation
    # ------------------------------------------------------------------
    def tick(self, cycle: int, engine) -> int:
        """Insert one fetch block into ``engine`` if its queue has room.

        Returns the number of blocks produced this cycle (0 or 1).
        """
        if not engine.can_accept_block():
            return 0
        trace = self.trace
        if trace is None:
            trace = self.new_trace()
            self.attach(trace)
        stats = self.stats
        # The CLTQ writes per-run bookkeeping into blocks, so every tick
        # builds a fresh FetchBlock from the shared record.
        if self._wrong_path_mode:
            blocks = trace.wrong_paths[self._index - 1]
            position = self._wrong_index
            if position >= len(blocks):
                trace.extend_wrong(self._index - 1, position)
            start, length, split = blocks[position]
            self._wrong_index = position + 1
            stats.wrong_path_blocks += 1
            block = FetchBlock(start, length, split, True)
        else:
            records = trace.records
            index = self._index
            if index >= len(records):
                trace.extend(index)
            (start, length, prefix, mispredicted, target, split, loads,
             misses) = records[index]
            self._index = index + 1
            self._consumed += prefix
            stats.streams_predicted += 1
            stats.correct_path_instructions_predicted += prefix
            if mispredicted:
                stats.stream_mispredictions += 1
                self._wrong_path_mode = True
                self._wrong_index = 0
            block = FetchBlock(start, length, split, False, prefix,
                               mispredicted, target, loads, misses)
        engine.enqueue_block(block, cycle)
        return 1

    # ------------------------------------------------------------------
    # redirect handling
    # ------------------------------------------------------------------
    @property
    def awaiting_redirect(self) -> bool:
        return self._wrong_path_mode

    def redirect(self, cycle: int) -> int:
        """Called by the simulator when the mispredicted branch resolves.

        Leaves wrong-path mode and resumes correct-path prediction at the
        next record.  Returns the correct-path resume address.
        """
        if not self._wrong_path_mode:
            raise RuntimeError("redirect with no pending misprediction")
        records = self.trace.records
        index = self._index
        resume = records[index - 1][4]
        if index >= len(records):
            self.trace.extend(index)
        if records[index][0] != resume:
            # The next correct-path record must start where the
            # mispredicted branch resolves to; anything else indicates an
            # accounting bug.
            raise AssertionError(
                f"redirect resume {resume:#x} != next record "
                f"{records[index][0]:#x}"
            )
        self._wrong_path_mode = False
        self.stats.redirects += 1
        return resume
