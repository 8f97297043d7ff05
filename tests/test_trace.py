"""Tests for dynamic execution: ProgramWalker and the correct-path
oracle (CompiledPathOracle) that replays its walk."""

import pickle
import sys
import threading
import time

import pytest

from repro.api import ExperimentSpec, Session
from repro.simulator import runner
from repro.workloads.isa import INSTRUCTION_BYTES, BranchKind
from repro.workloads.trace import (
    ActualStream,
    CompiledPathOracle,
    ProgramWalker,
    build_workload,
    compile_trace,
)
from repro.workloads.generator import WorkloadProfile
from repro.workloads.spec2000 import profile_for


class TestProgramWalker:
    def test_blocks_follow_control_flow(self, tiny_workload):
        walker = ProgramWalker(tiny_workload.cfg, seed=1)
        prev = None
        for _ in range(200):
            rec = walker.next_block()
            if prev is not None:
                assert rec.addr == prev.next_addr
            prev = rec

    def test_taken_implies_target(self, tiny_workload):
        walker = ProgramWalker(tiny_workload.cfg, seed=1)
        for _ in range(300):
            rec = walker.next_block()
            if not rec.taken:
                assert rec.next_addr == rec.end_addr
            if rec.kind is BranchKind.UNCONDITIONAL:
                assert rec.taken

    def test_call_return_pairing(self, tiny_workload):
        """Returns must go back to the instruction after some earlier call."""
        walker = ProgramWalker(tiny_workload.cfg, seed=2)
        call_fallthroughs = []
        checked = 0
        for _ in range(2000):
            rec = walker.next_block()
            if rec.kind is BranchKind.CALL and rec.taken:
                call_fallthroughs.append(rec.end_addr)
            elif rec.kind is BranchKind.RETURN and rec.taken and call_fallthroughs:
                assert rec.next_addr == call_fallthroughs.pop()
                checked += 1
        assert checked > 0

    def test_deterministic_given_seed(self, tiny_workload):
        a = ProgramWalker(tiny_workload.cfg, seed=5)
        b = ProgramWalker(tiny_workload.cfg, seed=5)
        for _ in range(300):
            ra, rb = a.next_block(), b.next_block()
            assert ra == rb

    def test_instruction_counter(self, tiny_workload):
        walker = ProgramWalker(tiny_workload.cfg, seed=1)
        total = sum(walker.next_block().size for _ in range(50))
        assert walker.instructions_executed == total
        assert walker.blocks_executed == 50


class TestCorrectPathOracle:
    def _oracle(self, workload, max_stream_instructions=64):
        # A short compiled prefix: reads past it grow the trace on demand.
        return CompiledPathOracle(compile_trace(workload, 100),
                                  max_stream_instructions)

    def test_cursor_replays_the_walker_records(self, tiny_workload):
        """Block by block, the oracle reports exactly the walker's records:
        a stream capped at a block's size is that block."""
        oracle = self._oracle(tiny_workload)
        walker = ProgramWalker(tiny_workload.cfg,
                               seed=tiny_workload.profile.seed)
        for _ in range(500):
            block = walker.next_block()
            assert oracle.current_address() == block.addr
            assert oracle.peek_stream(block.size) == ActualStream(
                start=block.addr, length=block.size,
                next_addr=block.next_addr, ends_taken=block.taken,
                terminator_kind=(block.kind if block.taken
                                 else BranchKind.NONE),
                terminator_addr=block.terminator_addr,
            )
            oracle.advance(block.size)
        assert oracle.consumed_instructions == walker.instructions_executed

    def test_current_address_starts_at_entry(self, tiny_workload):
        oracle = self._oracle(tiny_workload)
        assert oracle.current_address() == tiny_workload.cfg.entry_address

    def test_peek_does_not_advance(self, tiny_workload):
        oracle = self._oracle(tiny_workload)
        first = oracle.peek_stream()
        second = oracle.peek_stream()
        assert first == second
        assert oracle.consumed_instructions == 0

    def test_stream_ends_at_taken_branch_or_cap(self, tiny_workload):
        oracle = self._oracle(tiny_workload)
        for _ in range(100):
            stream = oracle.peek_stream()
            assert 1 <= stream.length <= oracle.max_stream_instructions
            if not stream.ends_taken:
                # Cap-ended streams continue sequentially.
                assert stream.next_addr == stream.end_addr
            oracle.advance(stream.length)

    def test_advance_moves_to_next_stream_start(self, tiny_workload):
        oracle = self._oracle(tiny_workload)
        stream = oracle.peek_stream()
        oracle.advance(stream.length)
        assert oracle.current_address() == stream.next_addr

    def test_partial_advance_lands_mid_stream(self, tiny_workload):
        oracle = self._oracle(tiny_workload)
        stream = oracle.peek_stream()
        if stream.length < 2:
            pytest.skip("first stream too short for a partial advance")
        oracle.advance(stream.length - 1)
        expected = stream.start + (stream.length - 1) * INSTRUCTION_BYTES
        assert oracle.current_address() == expected
        # The remainder of the stream is re-peeked from the middle.
        rest = oracle.peek_stream()
        assert rest.start == expected

    def test_streams_are_contiguous_instruction_stream(self, tiny_workload):
        oracle = self._oracle(tiny_workload)
        consumed = 0
        for _ in range(50):
            stream = oracle.peek_stream()
            oracle.advance(stream.length)
            consumed += stream.length
        assert oracle.consumed_instructions == consumed

    def test_negative_advance_rejected(self, tiny_workload):
        oracle = self._oracle(tiny_workload)
        with pytest.raises(ValueError):
            oracle.advance(-1)

    def test_max_stream_cap_respected(self, tiny_workload):
        oracle = self._oracle(tiny_workload, max_stream_instructions=8)
        for _ in range(50):
            stream = oracle.peek_stream()
            assert stream.length <= 8
            oracle.advance(stream.length)


class TestWorkload:
    def test_build_workload(self):
        workload = build_workload(WorkloadProfile(name="w", footprint_kb=4, seed=3))
        assert workload.name == "w"
        assert workload.cfg.num_blocks > 0

    def test_new_oracle_is_reproducible(self, tiny_workload):
        a = tiny_workload.new_oracle()
        b = tiny_workload.new_oracle()
        for _ in range(50):
            sa, sb = a.peek_stream(), b.peek_stream()
            assert sa == sb
            a.advance(sa.length)
            b.advance(sb.length)


class TestConcurrentGrowth:
    """Concurrent runs on one workload share its lazily grown compiled
    trace, stream segmentations and prediction traces; growth must not
    interleave."""

    #: Three concurrent runs: more threads than a small host has cores.
    SPECS = (("CLGP+L0", "clgp"), ("FDP+L0", "fdp"),
             ("base-pipelined", "base"))

    @staticmethod
    def _spec(scheme, name):
        return ExperimentSpec(scheme, "gcc", max_instructions=5000,
                              name=name)

    def test_concurrent_runs_equal_solo_runs(self):
        runner.clear_process_caches()
        with Session(jobs=1, cache=False) as session:
            solo = {name: session.run(self._spec(scheme, name)).results
                    for scheme, name in self.SPECS}
        interval = sys.getswitchinterval()
        runner.clear_process_caches()
        try:
            # A fresh workload whose traces start empty, so the runs grow
            # them together; a short switch interval makes the threads
            # interleave inside the growth loops.
            runner.get_workload("gcc")
            sys.setswitchinterval(1e-5)
            with Session(jobs=1, cache=False) as session:
                handles = {name: session.submit(self._spec(scheme, name))
                           for scheme, name in self.SPECS}
                results = {name: handle.result(timeout=300).results
                           for name, handle in handles.items()}
        finally:
            sys.setswitchinterval(interval)
            runner.clear_process_caches()
        assert results == solo


class TestPicklingWhileGrowing:
    """A compiled trace is published (pickled) while other runs may grow
    it; every pickle must be a consistent prefix of the walk."""

    COLUMNS = ("addr", "size", "kind", "taken", "next_addr",
               "terminator_addr")

    def test_pickles_taken_during_growth_are_consistent_prefixes(self):
        workload = build_workload(profile_for("gzip"))
        trace = compile_trace(workload, 1000)

        def grow():
            for instructions in range(2000, 120_001, 2000):
                trace.cover(instructions)
                time.sleep(0)   # let a pickle in between two steps

        pickles = []
        grower = threading.Thread(target=grow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            grower.start()
            while grower.is_alive():
                pickles.append(pickle.dumps(trace))
        finally:
            grower.join()
            sys.setswitchinterval(interval)
        assert len(pickles) > 1

        reference = compile_trace(build_workload(profile_for("gzip")),
                                  130_000)
        for data in pickles:
            copy = pickle.loads(data)
            blocks = len(copy.size)
            assert {len(getattr(copy, name)) for name in self.COLUMNS} \
                == {blocks}
            assert copy.compiled_instructions == sum(copy.size)
            # The copy continues into the same walk as a fresh compile.
            copy.bind(workload.cfg)
            copy.ensure(blocks + 20)
            for name in self.COLUMNS:
                assert getattr(copy, name) \
                    == getattr(reference, name)[:blocks + 21], name
