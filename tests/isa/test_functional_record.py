"""Functional records: replay equals execution, and ``api.run`` reuses a
cell's correct-path stream without changing a single result."""

import dataclasses
import json
from array import array

import pytest

from repro import api
from repro.common.errors import ExecutionError
from repro.harness import configs
from repro.isa import ProgramBuilder, R, execute, run_functional
from repro.isa.instruction import DynInst
from repro.core.segmented import kernels
from repro.isa.record import (_CAPACITY, FunctionalRecord, RecordMemo,
                              Recording, native_replay, replay)
from repro.obs import RingBufferTracer, dump_jsonl
from repro.workloads import WORKLOADS
from repro.workloads.kernels import WorkloadSpec
from repro.workloads.synthetic import SyntheticProfile, build_synthetic

FIELDS = [field.name for field in dataclasses.fields(DynInst)]


@pytest.fixture(autouse=True)
def empty_memo():
    api._records.clear()
    yield
    api._records.clear()


def _recorded(program, budget):
    """``program``'s record over ``budget`` instructions."""
    recording = Recording(program)
    for _ in recording.stream(execute(program, max_instructions=budget)):
        pass
    return recording.record


def _assert_same_stream(executed, replayed):
    assert len(replayed) == len(executed)
    for want, got in zip(executed, replayed):
        for name in FIELDS:
            assert type(getattr(got, name)) is type(getattr(want, name)), \
                (want, name)
            assert getattr(got, name) == getattr(want, name), (want, name)
    # Every replayed DynInst owns its waiter list.
    assert len({id(dyn.waiters) for dyn in replayed}) == len(replayed)
    assert all(got.waiters is not want.waiters
               for want, got in zip(executed, replayed))


_BEYOND_L2 = SyntheticProfile(name="syn-chase", iterations=600,
                              footprint_words=1 << 18,
                              access_pattern="chase",
                              hard_branch_bias=0.2, seed=7)


class TestReplay:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_replay_equals_execution_on_every_analog(self, name):
        spec = WORKLOADS[name]
        program = spec.build(1)
        budget = spec.default_instructions
        record = _recorded(program, budget)
        _assert_same_stream(list(execute(program, max_instructions=budget)),
                            list(execute(record, max_instructions=budget)))

    def test_replay_equals_execution_beyond_the_l2(self):
        program = build_synthetic(_BEYOND_L2)
        record = _recorded(program, None)
        executed = list(execute(program))
        assert executed[-1].static.is_halt
        assert sum(dyn.is_mem for dyn in executed) > 1000
        _assert_same_stream(executed, list(execute(record)))

    def test_replay_stops_at_max_instructions(self):
        program = WORKLOADS["gcc"].build(1)
        record = _recorded(program, 500)
        assert len(record) == 500
        _assert_same_stream(list(execute(program, max_instructions=200)),
                            list(execute(record, max_instructions=200)))

    def test_record_keeps_the_code_and_segments(self):
        program = WORKLOADS["mgrid"].build(1)
        record = _recorded(program, 100)
        assert record.instructions is program.instructions
        assert record.segments is program.segments


def _native_available() -> bool:
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        return False
    finally:
        kernels.set_backend(None)
    return True


requires_native = pytest.mark.skipif(
    not _native_available(),
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build)")


@pytest.fixture
def compiled():
    kernels.set_backend("compiled")
    yield
    kernels.set_backend(None)


@requires_native
@pytest.mark.usefixtures("compiled")
class TestNativeReplay:
    """``_ckernels.Replay`` against its Python twin :func:`replay`."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_native_equals_python_replay_on_every_analog(self, name):
        spec = WORKLOADS[name]
        record = _recorded(spec.build(1), spec.default_instructions)
        native = execute(record)
        assert type(native).__name__ == "Replay"
        _assert_same_stream(list(replay(record)), list(native))

    def test_native_equals_python_replay_beyond_the_l2(self):
        record = _recorded(build_synthetic(_BEYOND_L2), None)
        replayed = list(native_replay(record))
        assert replayed[-1].static.is_halt
        _assert_same_stream(list(replay(record)), replayed)

    def test_a_memory_op_at_byte_zero_keeps_its_address(self):
        b = ProgramBuilder("zero")
        b.alloc("data", 4)
        b.ld(R(1), R(0), 0)
        b.st(R(1), R(0), 8)
        b.halt()
        record = _recorded(b.build(), None)
        replayed = list(native_replay(record))
        assert [dyn.mem_addr for dyn in replayed] == [0, 8, None]
        _assert_same_stream(list(replay(record)), replayed)

    @pytest.mark.parametrize("limit", [0, 1, 200, 499, 500, 10_000, -3])
    def test_native_stops_where_python_replay_stops(self, limit):
        record = _recorded(WORKLOADS["gcc"].build(1), 500)
        _assert_same_stream(list(replay(record, limit)),
                            list(native_replay(record, limit)))

    def test_clones_are_fresh_and_leave_the_prototypes_alone(self):
        record = _recorded(WORKLOADS["swim"].build(1), 300)
        first = list(native_replay(record))
        prototypes = record.prototypes()
        assert not {id(dyn) for dyn in first} & {id(p) for p in prototypes}
        for dyn in first:
            dyn.fetched_cycle = 7
            dyn.waiters.append(print)
        assert all(p.fetched_cycle == -1 and p.waiters == []
                   for p in prototypes)
        _assert_same_stream(list(replay(record)), list(native_replay(record)))

    def test_an_exhausted_stream_stays_exhausted(self):
        record = _recorded(WORKLOADS["gcc"].build(1), 3)
        stream = native_replay(record)
        assert iter(stream) is stream
        assert len(list(stream)) == 3
        assert next(stream, None) is None

    def test_a_pc_outside_the_code_raises(self):
        record = _recorded(_loop_program(3), None)
        record.pcs[1] = len(record.instructions)
        stream = native_replay(record)
        next(stream)
        with pytest.raises(IndexError):
            next(stream)

    def test_short_or_mistyped_columns_are_refused(self):
        from repro.core.segmented._ckernels import Replay
        record = _recorded(_loop_program(3), None)
        with pytest.raises(ValueError):
            Replay(record.prototypes(), record.pcs, record.next_pcs,
                   record.taken, record.mem_addrs, len(record) + 1)
        with pytest.raises(TypeError):
            Replay(record.prototypes(), record.mem_addrs, record.next_pcs,
                   record.taken, record.mem_addrs, len(record))
        with pytest.raises(TypeError):
            Replay(record.prototypes(), record.pcs, record.next_pcs,
                   array("i", record.taken), record.mem_addrs, len(record))

    def test_py_backend_replays_in_python(self):
        record = _recorded(WORKLOADS["gcc"].build(1), 50)
        kernels.set_backend("py")
        assert native_replay(record) is None
        assert type(execute(record)).__name__ == "generator"


def _loop_program(iterations):
    b = ProgramBuilder("loop")
    b.li(R(1), iterations)
    b.label("top")
    b.addi(R(1), R(1), -1)
    b.bne(R(1), R(0), "top")
    b.halt()
    return b.build()


def _counting_spec(name, program, calls):
    def build(scale=1):
        calls.append(scale)
        return program
    return WorkloadSpec(name, build, default_instructions=1_000, is_fp=False,
                        warm_data=True, description="test kernel")


class TestApiRun:
    def test_miss_then_hit_is_identical(self, monkeypatch):
        calls, sources = [], []
        spec = _counting_spec("gcc-copy", WORKLOADS["gcc"].build(1), calls)
        real_execute = api.execute

        def spy(source, **kwargs):
            sources.append(type(source).__name__)
            return real_execute(source, **kwargs)

        monkeypatch.setattr(api, "execute", spy)
        params = configs.segmented(512, 128, "comb")
        runs = []
        for _ in range(2):
            tracer = RingBufferTracer()
            result = api.run(params, spec, max_instructions=1_500,
                             trace=tracer)
            runs.append((result.cycles, result.instructions,
                         json.dumps(result.stats, sort_keys=True),
                         dump_jsonl(tracer.events)))
        assert runs[0] == runs[1]
        assert calls == [1]
        assert sources == ["Program", "FunctionalRecord"]
        assert len(api._records) == 1

    def test_event_driven_equals_plain_loop_on_a_hit(self):
        params = configs.segmented(128, 64, "comb")
        first = api.run(params, "swim", max_instructions=2_000)
        assert len(api._records) == 1
        skip = api.run(params, "swim", max_instructions=2_000)
        plain = api.run(params.replace(event_driven=False), "swim",
                        max_instructions=2_000)
        assert skip.stats.get("skip.cycles_skipped", 0) > 0

        def strip(stats):
            return json.dumps({k: v for k, v in stats.items()
                               if not k.startswith("skip.")},
                              sort_keys=True)
        assert first.cycles == skip.cycles == plain.cycles
        assert strip(first.stats) == strip(skip.stats) == strip(plain.stats)

    def test_max_cycles_cut_off_stores_nothing(self):
        params = configs.ideal(64)
        cut = api.run(params, "twolf", max_instructions=3_000,
                      max_cycles=200)
        assert cut.cycles == 200
        assert len(api._records) == 0
        full = api.run(params, "twolf", max_instructions=3_000)
        assert full.instructions == 3_000
        assert len(api._records) == 1

    def test_cut_off_after_the_stream_ended_stores_nothing(self,
                                                           monkeypatch):
        spec = _counting_spec("short", _loop_program(2), [])
        full = api.run(configs.ideal(32), spec)
        api._records.clear()
        recordings = []

        class Spy(Recording):
            def __init__(self, program):
                super().__init__(program)
                recordings.append(self)

        monkeypatch.setattr(api, "Recording", Spy)
        cut = api.run(configs.ideal(32), spec, max_cycles=full.cycles - 1)
        assert cut.instructions < full.instructions
        assert recordings[0].record is not None     # the stream had ended
        assert len(api._records) == 0

    def test_execution_error_stores_nothing_and_surfaces_unchanged(self):
        b = ProgramBuilder("div0")
        b.li(R(1), 7)
        b.li(R(2), 0)
        b.div(R(3), R(1), R(2))
        b.halt()
        program = b.build()
        with pytest.raises(ExecutionError) as direct:
            run_functional(program)
        spec = _counting_spec("div0", program, [])
        for _ in range(2):
            with pytest.raises(ExecutionError) as via_api:
                api.run(configs.ideal(32), spec)
            assert type(via_api.value) is type(direct.value)
            assert str(via_api.value) == str(direct.value)
            assert len(api._records) == 0

    def test_same_name_different_build_never_share_a_record(self):
        short = _counting_spec("twin", _loop_program(50), [])
        long = _counting_spec("twin", _loop_program(80), [])
        params = configs.ideal(32)
        results = [api.run(params, spec) for spec in (short, long, short,
                                                      long)]
        assert len(api._records) == 2
        assert results[0].instructions < results[1].instructions
        assert [(r.instructions, r.cycles) for r in results[:2]] == \
            [(r.instructions, r.cycles) for r in results[2:]]


def _record_of(length):
    record = FunctionalRecord(_loop_program(1))
    record.pcs = array("i", bytes(4 * length))
    return record


class TestCap:
    def test_memo_never_exceeds_its_cap(self):
        memo = RecordMemo()
        sizes = [_CAPACITY // 3, _CAPACITY // 2, _CAPACITY // 4,
                 _CAPACITY // 2, 10, _CAPACITY]
        for key, size in enumerate(sizes):
            memo.put(key, _record_of(size))
            assert memo.size <= _CAPACITY
            assert memo.size == sum(len(memo.get(k)) for k in range(key + 1)
                                    if memo._records.get(k) is not None)
        assert list(memo._records) == [5]
        memo.put(6, _record_of(_CAPACITY + 1))
        assert memo.get(6) is None and memo.size == _CAPACITY

    def test_eviction_is_least_recently_used_first(self):
        memo = RecordMemo()
        for key in "abc":
            memo.put(key, _record_of(_CAPACITY // 3))
        memo.get("a")
        memo.put("d", _record_of(_CAPACITY // 3))
        assert list(memo._records) == ["c", "a", "d"]

    def test_a_stream_longer_than_the_cap_is_not_kept(self):
        program = _loop_program(1 << 20)
        recording = Recording(program)
        passed = sum(1 for _ in recording.stream(
            execute(program, max_instructions=_CAPACITY + 1)))
        assert passed == _CAPACITY + 1
        assert recording.record is None

    def test_an_abandoned_stream_is_not_kept(self):
        program = _loop_program(100)
        recording = Recording(program)
        stream = recording.stream(execute(program))
        next(stream)
        stream.close()
        assert recording.record is None
