"""The compiled fetch and commit stages against their Python twins, and
which runs.

``FrontEnd.cycle`` is the fetch stage and ``Processor._retire`` the
single-thread commit stage; on the compiled kernel backend a one-thread,
untraced run hands each fetch cycle to ``_ckernels.FetchStage`` (from
``FrontEnd.cycle``, which stays the entry point) and each commit cycle
to ``_ckernels.CommitStage`` (from ``Processor.step``).  The compiled
side is fed by the compiled replay of a functional record
(``_ckernels.Replay``), the py side by the functional simulator itself.
The backend parity suites in ``tests/core/test_kernels.py`` pass a
tracer, which keeps those runs on the Python bodies, so the runs here
carry no tracer: they compare ``py`` with ``compiled`` on cycles, every
stat, a per-instruction digest of each retired instruction's pipeline
timestamps, recorded through ``commit_listeners``, and the tables the run
leaves behind: the BTB's ``_pcs`` in MRU order, the branch predictor's
pattern tables, local histories and global history, and each cache's
``_tags``.  The compiled fetch stage predicts inline on those tables, so
a compiled run calls none of ``FrontEnd._predict``,
``BranchTargetBuffer.lookup``/``insert`` and
``HybridBranchPredictor.update``; the py run calls them all.
"""

import functools
import inspect
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.params import BranchPredictorParams
from repro.core.segmented import kernels
from repro.frontend.branch_predictor import HybridBranchPredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FrontEnd
from repro.harness import configs
from repro.harness.runner import resolve_workload
from repro.isa import ProgramBuilder, R, execute
from repro.isa.instruction import DynInst
from repro.isa.record import Recording
from repro.obs import RingBufferTracer
from repro.pipeline import Processor
from repro.workloads import WORKLOADS, WorkloadSpec
from repro.workloads.synthetic import SyntheticProfile, build_synthetic

INSTRUCTIONS = 1500


def _compiled_stage_available() -> bool:
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        return False
    finally:
        kernels.set_backend(None)
    return True


requires_stage = pytest.mark.skipif(
    not _compiled_stage_available(),
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build)")

#: A pointer-free scatter over 2 MB, past the 1 MB L2, with no data
#: warming: loads and stores miss to memory, so commit retires memory
#: ops through lsq.commit under long miss shadows.
_SCATTER_2MB = SyntheticProfile(
    name="scatter-2mb", iterations=200, loads_per_iteration=2,
    stores_per_iteration=1, footprint_words=1 << 18,
    access_pattern="scatter", fp_chain_depth=3, fp_parallel_ops=3,
    int_ops=2, seed=11)

SCATTER = WorkloadSpec(_SCATTER_2MB.name,
                       lambda scale=1: build_synthetic(_SCATTER_2MB),
                       default_instructions=INSTRUCTIONS, is_fp=True,
                       warm_data=False, description="scatter over 2 MB")


@functools.lru_cache(maxsize=None)
def _program_and_record(workload):
    """The workload's program and its recorded stream of INSTRUCTIONS."""
    spec = resolve_workload(workload)
    program = spec.build(1)
    recording = Recording(program)
    for _ in recording.stream(execute(program,
                                      max_instructions=INSTRUCTIONS)):
        pass
    assert recording.record is not None
    return spec, program, recording.record


def _stat_bytes(processor) -> str:
    """A run's stats as sorted-key JSON: byte equality also catches a
    value-type difference (``117`` against ``117.0``) that ``==``
    forgives."""
    return json.dumps(processor.stats.as_dict(), sort_keys=True)


def _simulate(params, workload, backend, *, tracer=None, event_driven=True,
              max_cycles=1_000_000, streams=1):
    """One untraced run (unless ``tracer``) under a forced backend; the
    compiled backend replays the workload's record, the py backend
    executes the program.  Returns (processor, digest)."""
    spec, program, record = _program_and_record(workload)
    kernels.set_backend(backend)
    try:
        source = record if backend == "compiled" else program
        stream = [execute(source, max_instructions=INSTRUCTIONS)
                  for _ in range(streams)]
        processor = Processor(params.replace(event_driven=event_driven),
                              stream if streams > 1 else stream[0],
                              tracer=tracer)
        for thread in range(streams):
            processor.warm_code(program, thread)
            if spec.warm_data:
                processor.warm_data(program, thread)
        digest = []
        processor.commit_listeners.append(
            lambda inst, now: digest.append((
                inst.seq, inst.fetched_cycle, inst.dispatched_cycle,
                inst.issued_cycle, inst.completed_cycle,
                inst.committed_cycle)))
        processor.run(max_cycles=max_cycles)
    finally:
        kernels.set_backend(None)
    return processor, digest


def _front_state(processor):
    """What a cut-off run leaves in fetch: the peeked instruction, the
    end-of-stream flag, the awaited branch and the decode pipeline."""
    frontend = processor.frontend
    seq = lambda inst: None if inst is None else inst.seq
    return (seq(frontend._peeked), frontend._stream_done,
            seq(frontend._waiting_branch),
            [(ready, inst.seq) for ready, inst in frontend._pipeline],
            [inst.seq for inst in processor.rob._entries],
            processor.committed, processor._last_commit_cycle,
            processor._halted)


def _tables(processor):
    """The tables a run leaves: the BTB (MRU order), the predictor's
    counters and histories, and every cache's lines with LRU order and
    dirty bits."""
    frontend, memory = processor.frontend, processor.memory
    bpred = frontend.bpred
    return (list(frontend.btb._pcs), bytes(bpred._global_pht),
            bytes(bpred._local_pht), bytes(bpred._choice_pht),
            list(bpred._local_histories), bpred._global_history,
            [list(cache._tags)
             for cache in (memory.l1i, memory.l1d, memory.l2)])


def _assert_same(params, workload, **options):
    py_proc, py_digest = _simulate(params, workload, "py", **options)
    c_proc, c_digest = _simulate(params, workload, "compiled", **options)
    assert py_proc.frontend._c_fetch is None and py_proc._c_commit is None
    assert c_proc.frontend._c_fetch is not None
    assert c_proc._c_commit is not None
    assert type(c_proc.frontend._stream).__name__ == "Replay"
    assert c_proc.committed == py_proc.committed > 0
    assert c_proc.cycle == py_proc.cycle
    assert _stat_bytes(c_proc) == _stat_bytes(py_proc)
    assert c_digest == py_digest
    assert _front_state(c_proc) == _front_state(py_proc)
    assert _tables(c_proc) == _tables(py_proc)
    return c_proc


# --------------------------------------------------------------- parity --
@requires_stage
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dense_segmented_stage_parity(workload):
    """seg-512/128ch comb, the dense design point, on every analog."""
    processor = _assert_same(configs.segmented(512, 128, "comb"), workload)
    assert processor.committed == INSTRUCTIONS


@requires_stage
@pytest.mark.parametrize("kind", sorted(configs.DESIGNS))
def test_every_model_stage_parity(kind):
    """Every IQ design between the two stages, on gcc."""
    _assert_same(configs.DESIGNS[kind].conformance_config(), "gcc")


@requires_stage
def test_beyond_l2_stage_parity():
    """Memory ops retire through lsq.commit after misses to memory."""
    processor = _assert_same(configs.segmented(512, 128, "comb"), SCATTER)
    stats = processor.stats.as_dict()
    assert stats["lsq.loads"] > 200
    assert stats["l2.misses"] > 100


@requires_stage
def test_mispredict_heavy_stage_parity():
    """gcc mispredicts often: fetch stops at each mispredict and waits on
    it, with the BTB and the predictor's tables trained alike."""
    processor = _assert_same(configs.segmented(256, 64, "comb"), "gcc")
    stats = processor.stats.as_dict()
    assert stats["bpred.mispredicts"] > 100
    assert stats["btb.hits"] > 100
    assert stats["fetch.branch_stall_cycles"] > 0


#: An 8-entry 4-way BTB over small pattern tables: random branch PCs
#: fill its two sets and evict.
_SMALL_TABLES = BranchPredictorParams(
    global_history_bits=5, global_pht_entries=32, local_history_regs=8,
    local_history_bits=4, local_pht_entries=16, choice_history_bits=5,
    choice_pht_entries=32, btb_entries=8, btb_assoc=4)


def _branch_statics():
    """A conditional branch, a jump and an add, by name."""
    b = ProgramBuilder("branches")
    b.label("top")
    b.bne(R(1), R(0), "top")
    b.jmp("top")
    b.addi(R(2), R(2), 1)
    b.halt()
    bne, jmp, addi, _halt = b.build().instructions
    return {"bne": bne, "jmp": jmp, "addi": addi}


@requires_stage
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11),
                          st.sampled_from(["bne", "jmp", "addi"]),
                          st.booleans()),
                min_size=1, max_size=60))
# A mispredicted taken branch enters the BTB with no lookup first, so
# the insert finds its PC in the middle of a set.
@example([(0, "jmp", True), (2, "jmp", True), (4, "jmp", True),
          (0, "bne", True)])
def test_random_branches_stage_parity(ops):
    """Random PCs of conditional branches and jumps over small tables:
    the fetch stage's inline BTB (hits, misses, evictions, MRU order)
    and predictor training leave what the Python twins leave."""
    statics = _branch_statics()
    params = configs.segmented(128, 64, "comb").replace(branch=_SMALL_TABLES)
    results = []
    for backend in ("py", "compiled"):
        stream = [DynInst(seq, pc, statics[kind],
                          taken=kind == "jmp" or (kind == "bne" and taken))
                  for seq, (pc, kind, taken) in enumerate(ops)]
        kernels.set_backend(backend)
        try:
            processor = Processor(params, iter(stream))
            processor.run()
        finally:
            kernels.set_backend(None)
        assert (processor.frontend._c_fetch is None) == (backend == "py")
        assert processor.committed == len(ops)
        results.append((processor.cycle, _stat_bytes(processor),
                        _tables(processor),
                        [(inst.predicted_taken, inst.mispredicted)
                         for inst in stream]))
    assert results[0] == results[1]


@requires_stage
@pytest.mark.parametrize("max_cycles", [120, 450])
def test_cut_off_stage_parity(max_cycles):
    """A max_cycles cut-off leaves the same fetch, ROB and commit state
    (compared by _assert_same, the peeked instruction included) with the
    stream part-read: at cycle 120 fetch waits on a mispredicted branch,
    at 450 the decode pipeline is full."""
    processor = _assert_same(configs.segmented(512, 128, "comb"), "swim",
                             max_cycles=max_cycles)
    assert processor.cycle == max_cycles
    assert 0 < processor.committed < INSTRUCTIONS
    frontend = processor.frontend
    assert not frontend._stream_done
    assert frontend._pipeline


@requires_stage
def test_icache_misses_stage_parity():
    """Cold code: fetch stalls on I-cache fills and coalesces same-line
    fetches after each one."""
    spec, program, record = _program_and_record("gcc")

    def run(backend):
        kernels.set_backend(backend)
        try:
            processor = Processor(
                configs.segmented(512, 128, "comb"),
                execute(record if backend == "compiled" else program,
                        max_instructions=INSTRUCTIONS))
            processor.run()
        finally:
            kernels.set_backend(None)
        return processor

    py_proc, c_proc = run("py"), run("compiled")
    assert c_proc.frontend._c_fetch is not None
    assert c_proc.stats.get("fetch.icache_stall_cycles") > 0
    assert c_proc.cycle == py_proc.cycle
    assert _stat_bytes(c_proc) == _stat_bytes(py_proc)


def _halting_program():
    b = ProgramBuilder("halts")
    b.li(R(1), 40)
    b.label("top")
    b.addi(R(1), R(1), -1)
    b.addi(R(2), R(2), 3)
    b.bne(R(1), R(0), "top")
    b.halt()
    return b.build()


def _halting_stream():
    """A loop that halts, with more instructions queued after the halt:
    fetch must stop at the halt, and commit must stop the run there."""
    program = _halting_program()
    stream = list(execute(program))
    assert stream[-1].static.is_halt
    tail = list(execute(program, max_instructions=12))
    for seq, inst in enumerate(tail, start=len(stream)):
        inst.seq = seq
    return program, stream + tail


@requires_stage
def test_halt_stage_parity():
    """Fetch ends its cycle at the halt, and commit records it: the run
    ends there with the instructions queued behind it uncommitted."""
    results = []
    for backend in ("py", "compiled"):
        program, stream = _halting_stream()
        kernels.set_backend(backend)
        try:
            processor = Processor(configs.segmented(512, 128, "comb"),
                                  iter(stream))
            processor.warm_code(program)
            processor.run()
        finally:
            kernels.set_backend(None)
        assert (processor._c_commit is None) == (backend == "py")
        halt = len(stream) - 12
        assert processor._halted == [True]
        assert processor.committed == halt
        assert stream[halt].fetched_cycle > stream[halt - 1].fetched_cycle
        assert all(inst.committed_cycle == -1 for inst in stream[halt:])
        results.append((processor.cycle, _stat_bytes(processor),
                        _front_state(processor),
                        [inst.fetched_cycle for inst in stream]))
    assert results[0] == results[1]


def _commit_twins(heads, now):
    """Each twin's view of one commit cycle over a ROB holding ``heads``
    ((completed cycle, is a memory op, is a halt) each), with two commit
    listeners."""
    program = _halting_program()
    halt, add = program.instructions[-1], program.instructions[1]
    out = []
    for stage in ("py", "compiled"):
        kernels.set_backend("compiled")
        try:
            processor = Processor(configs.segmented(128, 64, "comb"),
                                  iter(()))
        finally:
            kernels.set_backend(None)
        heard = []
        processor.commit_listeners.extend(
            (lambda inst, cycle, tag=tag: heard.append((tag, inst.seq,
                                                        cycle)))
            for tag in range(2))
        memory = []
        processor.lsq.commit = lambda inst, cycle: memory.append(
            (inst.seq, cycle))
        insts = []
        for seq, (completed, is_mem, is_halt) in enumerate(heads):
            inst = DynInst(seq, 0, halt if is_halt else add)
            inst.is_mem = is_mem
            inst.completed_cycle = completed
            insts.append(inst)
            processor.rob._entries.append(inst)
        processor.committed, processor._last_commit_cycle = 5, 3
        if stage == "py":
            processor._retire(0, processor._commit_width, now)
        else:
            processor._c_commit(processor, now)
        out.append((heard, memory, processor.committed,
                    processor._last_commit_cycle, processor._halted,
                    [inst.committed_cycle for inst in insts],
                    len(processor.rob._entries)))
    return out


@requires_stage
@pytest.mark.parametrize("heads", [
    [],
    [(-1, False, False)],
    [(9, False, False), (9, True, False)],      # completes next cycle
    [(8, False, False), (7, True, False), (8, False, False),
     (9, False, False)],
    [(8, True, False)] * 12,                    # past the commit width
    [(2, False, False), (8, False, True), (8, False, False)],
])
def test_commit_stage_op_parity(heads):
    """One commit cycle at cycle 8, op for op: which heads retire (only
    completed ones, in order, up to the width), their commit cycles, the
    LSQ commits, the listeners' calls in order, the halt flag and the
    commit count and cycle."""
    py, compiled = _commit_twins(heads, now=8)
    assert compiled == py


@requires_stage
@pytest.mark.parametrize("workload", ["gcc", "swim"])
def test_event_driven_matches_plain_loop_with_stages(workload):
    """Skipping quiescent cycles changes nothing with both stages on."""
    params = configs.segmented(512, 128, "comb")
    skip, skip_digest = _simulate(params, workload, "compiled")
    plain, plain_digest = _simulate(params, workload, "compiled",
                                    event_driven=False)
    for processor in (skip, plain):
        assert processor.frontend._c_fetch is not None
        assert processor._c_commit is not None
    assert skip.stats.get("skip.cycles_skipped") > 0
    assert skip.cycle == plain.cycle
    strip = lambda stats: {key: value for key, value in stats.items()
                           if not key.startswith("skip.")}
    assert strip(skip.stats.as_dict()) == strip(plain.stats.as_dict())
    assert skip_digest == plain_digest


# ----------------------------------------------------------------- path --
def _python_bodies(monkeypatch):
    """Count the runs of the Python fetch body (the lines of
    FrontEnd.cycle past its hand-off, seen by a line tracer) and of
    Processor._retire."""
    calls = {"fetch": 0, "retire": 0}
    code = FrontEnd.cycle.__code__
    lines, first = inspect.getsourcelines(FrontEnd.cycle)
    body = first + next(i for i, line in enumerate(lines)
                        if "self._icache_stalled" in line)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == body:
            calls["fetch"] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    retire = Processor._retire

    def counting_retire(self, thread, budget, now):
        calls["retire"] += 1
        return retire(self, thread, budget, now)

    monkeypatch.setattr(Processor, "_retire", counting_retire)
    return calls, tracer


def _traced(line_tracer, *args, **kwargs):
    """_simulate with ``line_tracer`` installed as the trace function."""
    previous = sys.gettrace()
    sys.settrace(line_tracer)
    try:
        return _simulate(*args, **kwargs)
    finally:
        sys.settrace(previous)


@requires_stage
def test_stages_run_for_plain_compiled_run(monkeypatch):
    """One thread, untraced, compiled: FrontEnd.cycle hands every cycle
    to the fetch stage, and _retire never runs."""
    calls, tracer = _python_bodies(monkeypatch)
    processor, digest = _traced(tracer, configs.segmented(512, 128, "comb"),
                                "mgrid", "compiled")
    assert processor.frontend._c_fetch is not None
    assert len(digest) == INSTRUCTIONS
    assert calls == {"fetch": 0, "retire": 0}


@requires_stage
def test_stages_run_for_clustered_run(monkeypatch):
    """Fetch and commit do not depend on clustering: a clustered run
    binds both stages."""
    calls, tracer = _python_bodies(monkeypatch)
    params = configs.segmented(512, 128, "comb").replace(clusters=2)
    processor, digest = _traced(tracer, params, "mgrid", "compiled")
    assert processor._c_dispatch is None
    assert processor._c_commit is not None
    assert len(digest) == INSTRUCTIONS
    assert calls == {"fetch": 0, "retire": 0}


@pytest.mark.parametrize("case", ["py", "traced", "multi_thread"])
def test_python_bodies_run(case, monkeypatch):
    """The py backend and traced and multi-thread runs fetch through the
    Python body of FrontEnd.cycle and commit through _retire."""
    if case != "py" and not _compiled_stage_available():
        pytest.skip("compiled kernel backend not built")
    calls, tracer = _python_bodies(monkeypatch)
    params = configs.segmented(512, 128, "comb")
    options = {}
    if case == "traced":
        options["tracer"] = RingBufferTracer()
    elif case == "multi_thread":
        options["streams"] = 2
    processor, digest = _traced(tracer, params, "mgrid",
                                "py" if case == "py" else "compiled",
                                **options)
    assert processor._c_commit is None
    assert all(frontend._c_fetch is None
               for frontend in processor.frontends)
    assert digest
    assert calls["fetch"] and calls["retire"]


#: The prediction twins the compiled fetch stage runs inline.
PREDICTION = {"FrontEnd._predict": (FrontEnd, "_predict"),
              "BranchTargetBuffer.lookup": (BranchTargetBuffer, "lookup"),
              "BranchTargetBuffer.insert": (BranchTargetBuffer, "insert"),
              "HybridBranchPredictor.update":
                  (HybridBranchPredictor, "update")}


@pytest.mark.parametrize("backend", ["py", "compiled"])
def test_prediction_runs_inline_in_the_stage(backend, monkeypatch):
    """A compiled run predicts in the fetch stage, calling none of the
    Python prediction methods; a py run calls every one of them."""
    if backend == "compiled" and not _compiled_stage_available():
        pytest.skip("compiled kernel backend not built")
    calls = dict.fromkeys(PREDICTION, 0)
    for name, (owner, attr) in PREDICTION.items():
        original = getattr(owner, attr)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, attr, counting)
    processor, _digest = _simulate(configs.segmented(256, 64, "comb"),
                                   "gcc", backend)
    assert processor.stats.get("btb.hits") > 100
    if backend == "compiled":
        assert processor.frontend._c_fetch is not None
        assert calls == dict.fromkeys(PREDICTION, 0)
    else:
        assert all(calls.values()), calls


@requires_stage
def test_extension_without_stages_falls_back(monkeypatch):
    """A processor that binds neither stage (the lookup finds no compiled
    module) runs the Python twins with the same results."""
    from repro.pipeline import processor as processor_module
    params = configs.segmented(512, 128, "comb")
    with_stages, digest = _simulate(params, "swim", "compiled")
    monkeypatch.setattr(processor_module, "compiled_module", lambda: None)
    calls, _tracer = _python_bodies(monkeypatch)
    without, fallback_digest = _simulate(params, "swim", "compiled")
    assert without.frontend._c_fetch is None and without._c_commit is None
    assert calls["retire"]
    assert without.cycle == with_stages.cycle
    assert _stat_bytes(without) == _stat_bytes(with_stages)
    assert fallback_digest == digest
