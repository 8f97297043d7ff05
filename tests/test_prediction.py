"""Tests for the decoupled prediction unit (oracle + predictor + wrong path)."""

import pytest

from repro.frontend.prediction import PredictionUnit
from repro.frontend.stream_predictor import StreamPredictor
from repro.simulator.presets import paper_config
from repro.simulator.simulator import Simulator
from repro.simulator.testing import make_sim_config
from repro.workloads.isa import INSTRUCTION_BYTES
from repro.workloads.spec2000 import profile_for
from repro.workloads.trace import build_workload


class RecordingEngine:
    """Minimal fetch-engine stand-in that records enqueued blocks."""

    def __init__(self, capacity=8):
        self.capacity = capacity
        self.blocks = []

    def can_accept_block(self):
        return len(self.blocks) < self.capacity

    def enqueue_block(self, block, cycle):
        self.blocks.append(block)

    def drain(self, n=1):
        for _ in range(n):
            if self.blocks:
                self.blocks.pop(0)


def make_unit(workload, pretrained=False):
    unit = PredictionUnit(workload)
    if pretrained:
        # Train the predictor on the first portion of the correct path so
        # most predictions are right.
        oracle = workload.new_oracle()
        history = 0
        for _ in range(3000):
            addr = oracle.current_address()
            actual = oracle.peek_stream(unit.max_stream)
            unit.predictor.train(addr, history, actual)
            history = StreamPredictor.fold_history(
                history, actual.next_addr, actual.ends_taken)
            oracle.advance(actual.length)
    return unit


class TestBlockProduction:
    def test_one_block_per_tick(self, tiny_workload):
        unit = make_unit(tiny_workload)
        engine = RecordingEngine()
        produced = unit.tick(0, engine)
        assert produced == 1
        assert len(engine.blocks) == 1

    def test_respects_queue_capacity(self, tiny_workload):
        unit = make_unit(tiny_workload)
        engine = RecordingEngine(capacity=2)
        for cycle in range(5):
            unit.tick(cycle, engine)
        assert len(engine.blocks) == 2

    def test_first_block_starts_at_entry(self, tiny_workload):
        unit = make_unit(tiny_workload)
        engine = RecordingEngine()
        unit.tick(0, engine)
        assert engine.blocks[0].start == tiny_workload.cfg.entry_address

    def test_correct_blocks_are_contiguous_with_oracle(self, tiny_workload):
        unit = make_unit(tiny_workload, pretrained=True)
        engine = RecordingEngine(capacity=1000)
        for cycle in range(200):
            unit.tick(cycle, engine)
            if unit.awaiting_redirect:
                break
        # All blocks before any misprediction lie on the correct path and the
        # emitted prefixes line up with the oracle that generated them.
        correct = [b for b in engine.blocks if not b.wrong_path and not b.mispredicted]
        consumed = sum(b.length for b in engine.blocks
                       if not b.wrong_path) - sum(
            b.length - b.correct_prefix for b in engine.blocks if b.mispredicted)
        assert consumed == unit.trace.oracle.consumed_instructions
        assert consumed == unit.consumed_instructions
        assert correct, "expected at least one correctly predicted block"


class TestMispredictionFlow:
    def _run_until_mispredict(self, unit, engine, max_cycles=2000):
        for cycle in range(max_cycles):
            unit.tick(cycle, engine)
            if unit.awaiting_redirect:
                return cycle
        pytest.fail("no misprediction occurred")

    def test_mispredicted_block_flags(self, tiny_workload):
        unit = make_unit(tiny_workload)
        engine = RecordingEngine(capacity=10_000)
        self._run_until_mispredict(unit, engine)
        bad = [b for b in engine.blocks if b.mispredicted]
        assert len(bad) == 1
        block = bad[0]
        assert 1 <= block.correct_prefix <= block.length
        assert block.redirect_target is not None

    def test_wrong_path_mode_until_redirect(self, tiny_workload):
        unit = make_unit(tiny_workload)
        engine = RecordingEngine(capacity=10_000)
        cycle = self._run_until_mispredict(unit, engine)
        n_before = len(engine.blocks)
        for extra in range(1, 4):
            unit.tick(cycle + extra, engine)
        assert all(b.wrong_path for b in engine.blocks[n_before:])
        assert unit.stats.wrong_path_blocks >= 3

    def test_redirect_resumes_on_correct_path(self, tiny_workload):
        unit = make_unit(tiny_workload)
        engine = RecordingEngine(capacity=10_000)
        cycle = self._run_until_mispredict(unit, engine)
        bad = next(b for b in engine.blocks if b.mispredicted)
        resume = unit.redirect(cycle + 10)
        assert resume == bad.redirect_target
        assert not unit.awaiting_redirect
        unit.tick(cycle + 11, engine)
        assert engine.blocks[-1].start == resume
        assert not engine.blocks[-1].wrong_path

    def test_redirect_without_pending_raises(self, tiny_workload):
        unit = make_unit(tiny_workload)
        with pytest.raises(RuntimeError):
            unit.redirect(0)

    def test_statistics(self, tiny_workload):
        unit = make_unit(tiny_workload)
        engine = RecordingEngine(capacity=100_000)
        for cycle in range(500):
            unit.tick(cycle, engine)
            if unit.awaiting_redirect:
                unit.redirect(cycle)
        stats = unit.stats
        assert stats.streams_predicted > 0
        assert stats.stream_mispredictions == stats.redirects
        assert 0.0 <= stats.misprediction_rate <= 1.0


class TestPretrainedAccuracy:
    def test_training_reduces_mispredictions(self, tiny_workload):
        cold = make_unit(tiny_workload)
        warm = make_unit(tiny_workload, pretrained=True)
        for unit in (cold, warm):
            engine = RecordingEngine(capacity=10**9)
            for cycle in range(800):
                unit.tick(cycle, engine)
                if unit.awaiting_redirect:
                    unit.redirect(cycle)
        assert warm.stats.misprediction_rate < cold.stats.misprediction_rate


class TestTraceSharing:
    """``Simulator.run`` shares one prediction trace between every run
    that starts from the same front-end state: the key is the predictor
    geometry, the RAS size, the warm-up budget and the start offset, and
    timing parameters are not part of it."""

    @staticmethod
    def _trace(config, workload, skip=0):
        sim = Simulator(config, workload)
        if skip:
            sim.skip_to(skip)
        sim.run()
        return sim.prediction.trace

    def test_timing_parameters_share_one_trace(self, medium_workload):
        base = make_sim_config(engine="fdp", max_instructions=600)
        shared = self._trace(base, medium_workload)
        for overrides in (dict(engine="clgp"), dict(engine="baseline"),
                          dict(l1_size_bytes=1024), dict(l0_enabled=True),
                          dict(ruu_size=32), dict(fetch_width=2),
                          dict(sim_loop="cycle")):
            assert self._trace(base.with_overrides(**overrides),
                               medium_workload) is shared, overrides
        for scheme in ("base-pipelined", "FDP+L0", "CLGP+L0"):
            config = paper_config(scheme, max_instructions=600,
                                  warmup_instructions=5000)
            assert self._trace(config, medium_workload) is shared, scheme

    def test_front_end_state_selects_the_trace(self, medium_workload):
        base = make_sim_config(engine="fdp", max_instructions=600)
        traces = [self._trace(base, medium_workload)]
        for overrides in (dict(stream_predictor_base_entries=512),
                          dict(stream_predictor_history_entries=2048),
                          dict(ras_entries=4),
                          dict(warmup_instructions=4000)):
            traces.append(self._trace(base.with_overrides(**overrides),
                                      medium_workload))
        traces.append(self._trace(base, medium_workload, skip=2500))
        assert len({id(trace) for trace in traces}) == len(traces)

    def test_a_figure_grid_builds_one_trace(self):
        workload = build_workload(profile_for("mcf"))
        traces = {
            id(self._trace(paper_config(scheme, l1_size_bytes=l1_size,
                                        max_instructions=3000),
                           workload))
            for scheme in ("base-pipelined", "FDP+L0", "CLGP+L0")
            for l1_size in (256, 4096, 65536)
        }
        assert len(traces) == 1
        assert len(workload._prediction_traces) == 1
