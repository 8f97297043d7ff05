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
  resolves the branch and calls :meth:`redirect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .fetch_block import FetchBlock
from .ras import ReturnAddressStack
from .stream_predictor import StreamPredictor
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


@dataclass
class _PendingRedirect:
    """State checkpointed when a misprediction is emitted, restored when the
    mispredicted branch resolves."""

    ras_snapshot: tuple
    history_snapshot: int
    actual: ActualStream
    consumed_actual_terminator: bool
    resume_address: int


class PredictionUnit:
    """Produces fetch blocks from the stream predictor + correct-path oracle."""

    def __init__(
        self,
        workload: Workload,
        predictor: Optional[StreamPredictor] = None,
        ras_entries: int = 8,
        max_stream_instructions: int = MAX_STREAM_INSTRUCTIONS,
    ):
        self.workload = workload
        self.bbdict: BasicBlockDictionary = workload.bbdict
        self.oracle: CompiledPathOracle = workload.new_oracle()
        self.predictor = predictor or StreamPredictor(
            default_length=max_stream_instructions
        )
        self.ras = ReturnAddressStack(ras_entries)
        self.max_stream = max_stream_instructions
        self.history = 0
        self.stats = PredictionStats()

        self._wrong_path_mode = False
        self._wrong_pc = 0
        self._pending_redirect: Optional[_PendingRedirect] = None
        #: Set by a functional skip that stopped mid-stream: ``(oracle
        #: position, straddling ActualStream, instructions of it already
        #: consumed)``.  A later skip resuming from exactly that position
        #: consumes the remainder without retraining the predictor, so a
        #: skip split at an arbitrary point (checkpoint + resume) is
        #: bit-identical to one continuous skip.  Invalidated implicitly
        #: whenever the oracle moves (the position no longer matches).
        self._skip_partial: Optional[tuple] = None

    # ------------------------------------------------------------------
    # per-cycle operation
    # ------------------------------------------------------------------
    def tick(self, cycle: int, engine) -> int:
        """Insert one fetch block into ``engine`` if its queue has room.

        Returns the number of blocks produced this cycle (0 or 1).
        """
        if not engine.can_accept_block():
            return 0
        engine.enqueue_block(self._next_block(), cycle)
        return 1

    def _next_block(self) -> FetchBlock:
        if self._wrong_path_mode:
            self.stats.wrong_path_blocks += 1
            return self._wrong_path_block()
        return self._correct_path_block()

    # ------------------------------------------------------------------
    # correct-path prediction
    # ------------------------------------------------------------------
    def _correct_path_block(self) -> FetchBlock:
        addr = self.oracle.current_address()
        actual = self.oracle.peek_stream(self.max_stream)
        prediction = self.predictor.predict(addr, self.history)
        self.predictor.train(addr, self.history, actual)
        self.stats.streams_predicted += 1

        pred_len = max(1, min(prediction.length, self.max_stream))
        pred_next = prediction.next_addr
        if prediction.uses_ras:
            ras_target = self.ras.peek()
            if ras_target is not None:
                pred_next = ras_target

        correct = pred_len == actual.length and pred_next == actual.next_addr

        if correct:
            block = FetchBlock(
                start=addr,
                length=actual.length,
                wrong_path=False,
                correct_prefix=actual.length,
                mispredicted=False,
            )
            self.oracle.advance(actual.length)
            self.stats.correct_path_instructions_predicted += actual.length
            self._apply_terminator(actual)
            return block

        # --- misprediction -------------------------------------------------
        self.stats.stream_mispredictions += 1
        prefix = min(pred_len, actual.length)
        ras_snapshot = self.ras.snapshot()
        history_snapshot = self.history

        block = FetchBlock(
            start=addr,
            length=pred_len,
            wrong_path=False,
            correct_prefix=prefix,
            mispredicted=True,
        )
        self.oracle.advance(prefix)
        self.stats.correct_path_instructions_predicted += prefix
        block.redirect_target = self.oracle.current_address()

        consumed_terminator = actual.length <= pred_len and actual.ends_taken
        self._pending_redirect = _PendingRedirect(
            ras_snapshot=ras_snapshot,
            history_snapshot=history_snapshot,
            actual=actual,
            consumed_actual_terminator=consumed_terminator,
            resume_address=block.redirect_target,
        )

        # Speculatively update RAS/history along the *predicted* path.
        if prediction.uses_ras:
            self.ras.pop()
        elif prediction.terminator_kind is BranchKind.CALL:
            self.ras.push(addr + pred_len * INSTRUCTION_BYTES)
        self.history = StreamPredictor.fold_history(
            self.history, pred_next, prediction.terminator_kind is not BranchKind.NONE
        )

        self._wrong_path_mode = True
        self._wrong_pc = pred_next
        return block

    def _apply_terminator(self, actual: ActualStream) -> None:
        """Update RAS and path history after a correctly-followed stream."""
        if actual.ends_taken:
            if actual.terminator_kind is BranchKind.CALL:
                self.ras.push(actual.terminator_addr + INSTRUCTION_BYTES)
            elif actual.terminator_kind is BranchKind.RETURN:
                self.ras.pop()
        self.history = StreamPredictor.fold_history(
            self.history, actual.next_addr, actual.ends_taken
        )

    # ------------------------------------------------------------------
    # wrong-path generation (static walk of the basic-block dictionary)
    # ------------------------------------------------------------------
    def _wrong_path_block(self) -> FetchBlock:
        start = self._wrong_pc
        cache = self.bbdict.wrong_path_cache
        key = (start, self.max_stream)
        cached = cache.get(key)
        if cached is not None:
            # The walk from this address touched no RETURN, so its outcome
            # is independent of RAS state and can be replayed: apply the
            # recorded CALL pushes and jump straight to the result.
            length, next_pc, pushes = cached
            for return_addr in pushes:
                self.ras.push(return_addr)
            self._wrong_pc = next_pc
            self.history = StreamPredictor.fold_history(self.history, next_pc, True)
            return FetchBlock(start=start, length=length, wrong_path=True)

        pc = start
        length = 0
        next_pc = start
        pushes = []
        cacheable = True
        for _ in range(32):  # bound the walk per emitted block
            view = self.bbdict.view_at(pc)
            take = min(view.size, self.max_stream - length)
            length += take
            reached_terminator = take == view.size
            if length >= self.max_stream:
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
                        # RAS-dependent outcome: not memoizable.
                        cacheable = False
                        target = self.ras.pop()
                        next_pc = target if target is not None else view.fall_through
                    elif view.taken_target is not None:
                        if view.kind is BranchKind.CALL:
                            self.ras.push(view.fall_through)
                            pushes.append(view.fall_through)
                        next_pc = view.taken_target
                    else:
                        next_pc = view.fall_through
                    break
            pc = view.start + take * INSTRUCTION_BYTES
            next_pc = pc
        if cacheable:
            cache[key] = (max(1, length), next_pc, tuple(pushes))
        self._wrong_pc = next_pc
        self.history = StreamPredictor.fold_history(self.history, next_pc, True)
        return FetchBlock(start=start, length=max(1, length), wrong_path=True)

    # ------------------------------------------------------------------
    # redirect handling
    # ------------------------------------------------------------------
    @property
    def awaiting_redirect(self) -> bool:
        return self._wrong_path_mode

    def redirect(self, cycle: int) -> int:
        """Called by the simulator when the mispredicted branch resolves.

        Restores the checkpointed RAS/path history, applies the actual
        outcome of the resolving branch and resumes correct-path prediction.
        Returns the correct-path resume address.
        """
        if self._pending_redirect is None:
            raise RuntimeError("redirect with no pending misprediction")
        pending = self._pending_redirect
        self.ras.restore(pending.ras_snapshot)
        self.history = pending.history_snapshot
        if pending.consumed_actual_terminator:
            self._apply_terminator(pending.actual)
        self._pending_redirect = None
        self._wrong_path_mode = False
        self.stats.redirects += 1
        resume = pending.resume_address
        if resume != self.oracle.current_address():
            # The oracle must already be positioned at the resume address;
            # anything else indicates an accounting bug.
            raise AssertionError(
                f"redirect resume {resume:#x} != oracle "
                f"{self.oracle.current_address():#x}"
            )
        return resume
