"""Tests for the two-level stream predictor."""

import hashlib
import pickle

from repro.frontend.stream_predictor import StreamPredictor, _StreamTable
from repro.simulator.runner import get_workload
from repro.simulator.warming import compute_warmup
from repro.workloads.isa import BranchKind
from repro.workloads.trace import ActualStream


def make_stream(start=0x1000, length=8, next_addr=0x5000,
                kind=BranchKind.CONDITIONAL, taken=True):
    return ActualStream(
        start=start, length=length, next_addr=next_addr, ends_taken=taken,
        terminator_kind=kind if taken else BranchKind.NONE,
        terminator_addr=start + (length - 1) * 4,
    )


class TestStreamTable:
    def test_insert_and_lookup(self):
        table = _StreamTable(16, associativity=2)
        table.update(0x40, 8, 0x900, BranchKind.CONDITIONAL)
        entry = table.lookup(0x40)
        assert entry is not None and entry[1] == 8 and entry[2] == 0x900

    def test_miss_returns_none(self):
        table = _StreamTable(16, associativity=2)
        assert table.lookup(0x40) is None

    def test_consistent_update_raises_confidence(self):
        table = _StreamTable(16, associativity=2)
        for _ in range(4):
            table.update(0x40, 8, 0x900, BranchKind.CONDITIONAL)
        assert table.lookup(0x40)[4] == 3

    def test_conflicting_update_uses_hysteresis(self):
        table = _StreamTable(16, associativity=2)
        table.update(0x40, 8, 0x900, BranchKind.CONDITIONAL)
        # One disagreement lowers confidence but keeps the old prediction.
        table.update(0x40, 4, 0x800, BranchKind.CONDITIONAL)
        entry = table.lookup(0x40)
        assert entry[1] == 8
        # A second disagreement replaces it.
        table.update(0x40, 4, 0x800, BranchKind.CONDITIONAL)
        assert table.lookup(0x40)[1] == 4

    def test_associative_sets_avoid_conflicts(self):
        table = _StreamTable(8, associativity=4)
        keys = [0x10 + i * table.num_sets for i in range(4)]  # same set
        for key in keys:
            table.update(key, 8, key + 0x100, BranchKind.NONE)
        for key in keys:
            assert table.lookup(key) is not None

    def test_lru_eviction_beyond_associativity(self):
        table = _StreamTable(4, associativity=2)
        keys = [0x10, 0x10 + table.num_sets, 0x10 + 2 * table.num_sets]
        for key in keys:
            # Repeat to drain hysteresis of potential victims.
            table.update(key, 8, key + 0x100, BranchKind.NONE)
            table.update(key, 8, key + 0x100, BranchKind.NONE)
        present = [k for k in keys if table.lookup(k) is not None]
        assert len(present) == 2
        assert table.occupancy() <= 4


class TestStreamPredictor:
    def test_cold_prediction_is_sequential(self):
        predictor = StreamPredictor(default_length=32)
        prediction = predictor.predict(0x1000, 0)
        assert not prediction.hit
        assert prediction.length == 32
        assert prediction.next_addr == 0x1000 + 32 * 4

    def test_learns_after_training(self):
        predictor = StreamPredictor()
        stream = make_stream()
        predictor.train(0x1000, 0, stream)
        prediction = predictor.predict(0x1000, 0)
        assert prediction.hit
        assert prediction.length == stream.length
        assert prediction.next_addr == stream.next_addr

    def test_return_streams_flag_ras(self):
        predictor = StreamPredictor()
        stream = make_stream(kind=BranchKind.RETURN)
        predictor.train(0x1000, 0, stream)
        prediction = predictor.predict(0x1000, 0)
        assert prediction.uses_ras

    def test_history_table_overrides_when_confident(self):
        predictor = StreamPredictor()
        history = 0xBEEF
        context_stream = make_stream(length=4, next_addr=0x7000)
        other_stream = make_stream(length=12, next_addr=0x9000)
        # Train the base table with the "other" behaviour and the history
        # table (same history) repeatedly with the context behaviour.
        predictor.train(0x1000, 0, other_stream)
        for _ in range(4):
            predictor.train(0x1000, history, context_stream)
        prediction = predictor.predict(0x1000, history)
        assert prediction.length == context_stream.length
        assert prediction.source == "l2"

    def test_statistics_counters(self):
        predictor = StreamPredictor()
        predictor.predict(0x1000, 0)
        predictor.train(0x1000, 0, make_stream())
        predictor.predict(0x1000, 0)
        assert predictor.lookups == 2
        assert predictor.table_misses == 1
        assert 0.0 < predictor.table_hit_rate <= 1.0

    def test_fold_history_changes_and_masks(self):
        h0 = 0
        h1 = StreamPredictor.fold_history(h0, 0x4000, True, bits=16)
        h2 = StreamPredictor.fold_history(h1, 0x8000, False, bits=16)
        assert h1 != h0
        assert h2 != h1
        assert 0 <= h1 < (1 << 17)

    def test_cap_ended_stream_trains_none_kind(self):
        predictor = StreamPredictor()
        stream = make_stream(taken=False)
        predictor.train(0x2000, 0, stream)
        prediction = predictor.predict(0x2000, 0)
        assert prediction.terminator_kind is BranchKind.NONE
        assert not prediction.uses_ras


def _table_state(table):
    """Every entry of ``table`` per set, in recency order, with its kind
    member itself (so identity is compared, not just the value)."""
    return (table.entries, table.associativity, table.num_sets,
            [[(tag, length, next_addr, id(kind), confidence)
              for tag, length, next_addr, kind, confidence in bucket]
             for bucket in table._sets])


#: SHA-256 of gcc's 20,000-instruction warm-up predictor's pickled columns.
WARMUP_PREDICTOR_SHA256 = (
    "80dd6ed8f8106069984b6b4492b37b5eaae18852011d4bead2447a86067394c2")


class TestPickling:
    def test_trained_predictor_survives_pickle_exactly(self):
        workload = get_workload("gcc")
        warm = compute_warmup(workload, 20_000)
        original = warm.predictor.clone()
        loaded = pickle.loads(pickle.dumps(original))
        for name in ("base_table", "history_table"):
            assert (_table_state(getattr(loaded, name))
                    == _table_state(getattr(original, name)))
        assert vars(loaded).keys() == vars(original).keys()

        # Both go on predicting and training identically.
        oracle = workload.new_oracle()
        oracle.advance(warm.instructions)
        history = 0
        for _ in range(2000):
            addr = oracle.current_address()
            actual = oracle.peek_stream(64)
            assert loaded.predict(addr, history) \
                == original.predict(addr, history)
            loaded.train(addr, history, actual)
            original.train(addr, history, actual)
            history = StreamPredictor.fold_history(
                history, actual.next_addr, actual.ends_taken)
            oracle.advance(actual.length)
        for name in ("base_table", "history_table"):
            assert (_table_state(getattr(loaded, name))
                    == _table_state(getattr(original, name)))
        assert (loaded.lookups, loaded.base_hits, loaded.history_hits,
                loaded.table_misses) == (
            original.lookups, original.base_hits, original.history_hits,
            original.table_misses)

    def test_warmup_predictor_columns_match_golden(self):
        """The int columns a pickled predictor stores -- what persisted
        warm-up artifacts hold -- are unchanged: gcc's 20,000-instruction
        warm-up predictor, both tables' ``counts`` then ``flat``."""
        warm = compute_warmup(get_workload("gcc"), 20_000)
        digest = hashlib.sha256()
        for table in (warm.predictor.base_table,
                      warm.predictor.history_table):
            _, _, _, counts, flat = table.__getstate__()
            digest.update(counts.tobytes() + flat.tobytes())
        assert digest.hexdigest() == WARMUP_PREDICTOR_SHA256
