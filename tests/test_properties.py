"""Property-based tests (hypothesis) on the core data structures.

These check invariants under arbitrary operation sequences:

* caches never exceed capacity and LRU victims are always resident lines,
* the prestage buffer's consumers counters never go negative, capacity is
  never exceeded, and entries with outstanding consumers are never evicted,
* access ports never travel backwards in time,
* the return address stack honours its capacity,
* the correct-path oracle produces a contiguous instruction stream,
* the stream-predictor tables stay within their configured capacity.
"""

from hypothesis import given, settings, strategies as st

from repro.core.prefetch_buffer import PrefetchBuffer
from repro.core.prestage_buffer import PrestageBuffer
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.stream_predictor import StreamPredictor, _StreamTable
from repro.memory.cache import Cache
from repro.memory.port import AccessPort
from repro.workloads.generator import WorkloadProfile
from repro.workloads.isa import BranchKind, INSTRUCTION_BYTES
from repro.workloads.trace import ActualStream, ProgramWalker, build_workload

# ----------------------------------------------------------------------
# caches
# ----------------------------------------------------------------------
line_addrs = st.integers(min_value=0, max_value=255).map(lambda i: i * 64)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["fill", "lookup", "invalidate"]),
                              line_addrs), max_size=200))
def test_cache_capacity_and_consistency(ops):
    cache = Cache("c", 1024, 64, 2)
    for op, addr in ops:
        if op == "fill":
            evicted = cache.fill(addr)
            assert cache.contains(addr)
            if evicted is not None:
                assert not cache.contains(evicted)
        elif op == "lookup":
            cache.lookup(addr)
        else:
            cache.invalidate(addr)
            assert not cache.contains(addr)
        assert cache.occupancy() <= cache.num_lines
    # Every resident line is 64-byte aligned and unique.
    resident = cache.resident_lines()
    assert len(resident) == len(set(resident))
    assert all(line % 64 == 0 for line in resident)


# ----------------------------------------------------------------------
# prestage buffer
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.tuples(st.sampled_from(["prefetch", "consumer", "consume",
                                   "arrive", "reset"]),
                  line_addrs),
        max_size=150,
    ),
)
def test_prestage_buffer_invariants(capacity, ops):
    buffer = PrestageBuffer(entries=capacity)
    cycle = 0
    for op, line in ops:
        cycle += 1
        entry = buffer.get(line)
        if op == "prefetch" and entry is None:
            buffer.allocate_for_prefetch(line)
        elif op == "consumer" and entry is not None:
            buffer.add_consumer(entry)
        elif op == "consume" and entry is not None:
            buffer.consume(entry)
        elif op == "arrive" and entry is not None and not entry.valid:
            entry.mark_arrived(cycle, "ul2")
        elif op == "reset":
            buffer.reset_consumers()
        buffer.check_invariants()
        assert buffer.occupancy <= capacity
        assert buffer.total_consumers() >= 0
    # Replaceable entries are exactly those with no consumers.
    for entry in buffer.replaceable_entries():
        assert entry.consumers == 0


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(line_addrs, unique=True, min_size=1, max_size=30))
def test_prestage_entries_with_consumers_never_evicted(lines):
    buffer = PrestageBuffer(entries=4)
    protected = None
    for i, line in enumerate(lines):
        entry = buffer.get(line)
        if entry is not None:
            buffer.add_consumer(entry)
            continue
        new = buffer.allocate_for_prefetch(line)
        if new is None:
            continue
        if protected is None:
            protected = new
            buffer.add_consumer(new)   # consumers >= 2, never consumed
    if protected is not None:
        assert buffer.get(protected.line_addr) is protected


# ----------------------------------------------------------------------
# FDP prefetch buffer
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["alloc", "arrive", "use"]),
                              line_addrs), max_size=120))
def test_prefetch_buffer_capacity_and_inflight_protection(ops):
    buffer = PrefetchBuffer(entries=4)
    for op, line in ops:
        entry = buffer.get(line)
        if op == "alloc" and entry is None:
            buffer.allocate(line)
        elif op == "arrive" and entry is not None and not entry.valid:
            entry.mark_arrived(1, "ul2")
        elif op == "use" and entry is not None and entry.valid:
            buffer.mark_used(entry)
        assert buffer.occupancy <= 4
        # In-flight entries are never eligible victims.
        assert all(e.valid for e in buffer.replaceable_entries())


# ----------------------------------------------------------------------
# access ports
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    latency=st.integers(min_value=1, max_value=8),
    pipelined=st.booleans(),
    gaps=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
)
def test_access_port_monotonic_completions(latency, pipelined, gaps):
    port = AccessPort(latency=latency, pipelined=pipelined)
    cycle = 0
    last_completion = -1
    for gap in gaps:
        cycle += gap
        completion = port.issue(cycle)
        assert completion >= cycle + latency
        assert completion >= last_completion  # in-order service
        if not pipelined:
            assert completion - cycle >= latency
        last_completion = completion


# ----------------------------------------------------------------------
# return address stack
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(min_value=0, max_value=2**30)),
    st.tuples(st.just("pop"), st.just(0)),
), max_size=100), capacity=st.integers(min_value=1, max_value=8))
def test_ras_capacity_and_lifo(ops, capacity):
    ras = ReturnAddressStack(capacity)
    model = []
    for op, value in ops:
        if op == "push":
            ras.push(value)
            model.append(value)
            model[:] = model[-capacity:]
        else:
            expected = model.pop() if model else None
            assert ras.pop() == expected
        assert len(ras) == len(model) <= capacity


# ----------------------------------------------------------------------
# oracle / workload
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       advances=st.lists(st.integers(min_value=1, max_value=40),
                         min_size=1, max_size=40))
def test_oracle_stream_contiguity(seed, advances):
    profile = WorkloadProfile(name="prop", footprint_kb=4, num_functions=3,
                              seed=seed)
    workload = build_workload(profile)
    oracle = workload.new_oracle()
    # The walker's records, as (start position, block), for checking the
    # oracle's cursor against the walk it replays.
    walker = ProgramWalker(workload.cfg, seed=seed)
    records = []
    walked = 0

    def address_at(position):
        nonlocal walked
        while walked <= position:
            block = walker.next_block()
            records.append((walked, block))
            walked += block.size
        start, block = next(r for r in reversed(records) if r[0] <= position)
        return block.addr + (position - start) * INSTRUCTION_BYTES

    for n in advances:
        before = oracle.current_address()
        assert before == address_at(oracle.consumed_instructions)
        stream = oracle.peek_stream()
        assert stream.start == before
        step = min(n, stream.length)
        oracle.advance(step)
        if step < stream.length:
            assert oracle.current_address() == before + step * INSTRUCTION_BYTES
        else:
            assert oracle.current_address() == stream.next_addr
        assert oracle.current_address() \
            == address_at(oracle.consumed_instructions)


# ----------------------------------------------------------------------
# stream predictor tables
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=5000), min_size=1,
                     max_size=300))
def test_stream_table_capacity(keys):
    table = _StreamTable(entries=32, associativity=4)
    for key in keys:
        table.update(key, 8, key + 64, BranchKind.CONDITIONAL)
        assert table.occupancy() <= 32
        entry = table.lookup(key)
        if entry is not None:
            assert entry[0] == key


#: Streams over few start addresses, lengths and kinds, so that small
#: tables see hits, conflicting updates, hysteresis and evictions.
predictor_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40).map(lambda i: 0x1000 + i * 16),
              st.sampled_from([4, 8]),
              st.sampled_from([BranchKind.CONDITIONAL, BranchKind.RETURN]),
              st.booleans()),
    max_size=120)


def _train(predictor, streams):
    """Predict then train on each stream, as the proxy pass does."""
    history = 0
    for start, length, kind, taken in streams:
        actual = ActualStream(
            start=start, length=length, next_addr=start + length * 16,
            ends_taken=taken, terminator_kind=kind,
            terminator_addr=start + (length - 1) * 4,
        )
        predictor.predict(start, history)
        predictor.train(start, history, actual)
        history = StreamPredictor.fold_history(
            history, actual.next_addr, taken, predictor.history_bits)
    return predictor


def _columns(predictor):
    """Both tables' pickled ``counts`` and ``flat`` columns."""
    return [table.__getstate__()[3:]
            for table in (predictor.base_table, predictor.history_table)]


@settings(max_examples=60, deadline=None)
@given(first=predictor_streams, second=predictor_streams)
def test_predictor_clone_shares_no_mutable_state(first, second):
    """Training a clone leaves its source as if it had never been cloned,
    and training the source afterwards leaves the clone alone."""
    def fresh():
        return StreamPredictor(base_entries=16, history_entries=32)

    source = _train(fresh(), first)
    clone = source.clone()
    _train(clone, second)
    assert _columns(source) == _columns(_train(fresh(), first))
    _train(source, second[::-1])
    assert _columns(clone) == _columns(_train(_train(fresh(), first), second))


@settings(max_examples=30, deadline=None)
@given(streams=st.lists(
    st.tuples(st.integers(min_value=0, max_value=200).map(lambda i: 0x1000 + i * 32),
              st.integers(min_value=1, max_value=64)),
    min_size=1, max_size=100))
def test_predictor_predictions_are_well_formed(streams):
    predictor = StreamPredictor(base_entries=64, history_entries=128)
    history = 0
    for start, length in streams:
        actual = ActualStream(
            start=start, length=length, next_addr=start + length * 4 + 64,
            ends_taken=True, terminator_kind=BranchKind.UNCONDITIONAL,
            terminator_addr=start + (length - 1) * 4,
        )
        predictor.train(start, history, actual)
        prediction = predictor.predict(start, history)
        assert prediction.length >= 1
        assert prediction.next_addr % 4 == 0
        history = StreamPredictor.fold_history(history, actual.next_addr, True)
