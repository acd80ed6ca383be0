"""Tests for multi-thread runs of the processor (the paper's section-7
SMT study): one stream per hardware thread on a shared back end."""

import pytest

from repro.common import ConfigurationError
from repro.core.segmented import kernels
from repro.harness import configs
from repro.isa import execute
from repro.pipeline import Processor
from repro.workloads import WORKLOADS

from tests.conftest import daxpy_program, dependent_chain_program


def run_smt(programs, params=None, budget=6000, max_cycles=2_000_000):
    params = params or configs.segmented(256, 64, "comb")
    streams = [execute(p, max_instructions=budget) for p in programs]
    processor = Processor(params, streams)
    for thread, program in enumerate(programs):
        processor.warm_code(program, thread)
    processor.run(max_cycles=max_cycles)
    return processor


def run_pair(names, params, budget=6000, max_cycles=5_000_000):
    """Co-schedule two benchmark analogs, warmed the way the section-7
    study warms them.  ``processor.digest`` records every retirement's
    thread, global seq and pipeline timestamps."""
    programs = [WORKLOADS[name].build(1) for name in names]
    streams = [execute(p, max_instructions=budget) for p in programs]
    processor = Processor(params, streams)
    for thread, (name, program) in enumerate(zip(names, programs)):
        processor.warm_code(program, thread)
        if WORKLOADS[name].warm_data:
            processor.warm_data(program, thread)
    processor.digest = []
    processor.commit_listeners.append(
        lambda inst, now: processor.digest.append((
            inst.thread, inst.seq, inst.dispatched_cycle, inst.issued_cycle,
            inst.completed_cycle, now)))
    processor.run(max_cycles=max_cycles)
    return processor


class TestBasics:
    def test_needs_at_least_one_stream(self):
        with pytest.raises(ConfigurationError):
            Processor(configs.ideal(64), [])

    def test_single_thread_commits_everything(self):
        program = daxpy_program(n=128)
        expected = sum(1 for _ in execute(program))
        processor = run_smt([program], budget=None)
        assert processor.done
        assert processor.committed == expected

    def test_two_threads_commit_everything(self):
        programs = [daxpy_program(n=64), dependent_chain_program(200)]
        expected = sum(sum(1 for _ in execute(p)) for p in programs)
        processor = run_smt(programs, budget=None)
        assert processor.done
        assert processor.committed == expected
        assert all(count > 0 for count in processor.committed_per_thread)

    def test_per_thread_ipc_sums_to_total(self):
        programs = [daxpy_program(n=64), daxpy_program(n=64)]
        processor = run_smt(programs, budget=None)
        total = sum(processor.thread_ipc(t) for t in range(2))
        assert total == pytest.approx(processor.ipc)

    def test_four_threads(self):
        programs = [daxpy_program(n=32) for _ in range(4)]
        processor = run_smt(programs, budget=None)
        assert processor.done
        assert processor.num_threads == 4


class TestIsolation:
    def test_threads_do_not_share_architectural_state(self):
        # Two copies of the same program must behave identically even
        # though they use the same register numbers and addresses.
        programs = [daxpy_program(n=64), daxpy_program(n=64)]
        processor = run_smt(programs, budget=None)
        assert processor.done
        assert (processor.committed_per_thread[0]
                == processor.committed_per_thread[1])

    def test_data_addresses_are_disjoint(self):
        from repro.pipeline.processor import DATA_SPACE_BYTES, thread_stream
        program = daxpy_program(n=16)
        tagged = list(thread_stream(execute(program), thread=1))
        for inst in tagged:
            assert inst.thread == 1
            if inst.mem_addr is not None:
                assert inst.mem_addr >= DATA_SPACE_BYTES

    def test_lsq_never_forwards_across_threads(self):
        # Same program twice: same thread-local addresses.  With the
        # per-thread address offset, cross-thread forwarding would show
        # up as nondeterministic forward counts vs running one copy.
        program = daxpy_program(n=64)
        single = run_smt([program], budget=None)
        double = run_smt([daxpy_program(n=64), daxpy_program(n=64)],
                         budget=None)
        assert (double.stats.get("lsq.forwards")
                == 2 * single.stats.get("lsq.forwards"))


class TestThroughput:
    def test_smt_beats_serial_execution(self):
        # Co-scheduling a memory-bound and a compute-bound analog should
        # finish faster than running them back to back.
        programs = [WORKLOADS["swim"].build(1), WORKLOADS["twolf"].build(1)]
        params = configs.segmented(512, 128, "comb")
        singles = [run_smt([p], params, budget=6000) for p in programs]
        serial_cycles = sum(p.cycle for p in singles)
        smt = run_smt(programs, params, budget=6000)
        assert smt.cycle < serial_cycles

    def test_segmented_smt_tracks_ideal_smt(self):
        # Section 7's hypothesis: chains from independent threads coexist;
        # the segmented IQ's SMT throughput should be a healthy fraction
        # of the ideal IQ's.
        programs = [WORKLOADS["swim"].build(1), WORKLOADS["twolf"].build(1)]
        seg = run_smt(programs, configs.segmented(512, 128, "comb"),
                      budget=6000)
        programs = [WORKLOADS["swim"].build(1), WORKLOADS["twolf"].build(1)]
        ideal = run_smt(programs, configs.ideal(512), budget=6000)
        assert seg.ipc > 0.55 * ideal.ipc


#: The section-7 study's results, recorded on the two-thread processor
#: this one replaced: (pair, design) -> (cycles, iq.issued).
SECTION7 = {
    (("swim", "twolf"), "segmented-512/128"): (5437, 11965),
    (("swim", "twolf"), "ideal-512"): (4949, 11965),
    (("equake", "vortex"), "segmented-512/128"): (6961, 12000),
    (("equake", "vortex"), "ideal-512"): (6199, 12000),
}
DESIGNS = {"segmented-512/128": lambda: configs.segmented(512, 128, "comb"),
           "ideal-512": lambda: configs.ideal(512)}


@pytest.mark.parametrize("backend", ["py", "compiled"])
@pytest.mark.parametrize("pair", [("swim", "twolf"), ("equake", "vortex")],
                         ids="+".join)
def test_section7_pairs_are_pinned(pair, backend):
    """Both kernel backends reproduce the pinned section-7 cycles,
    per-thread commits and issue counts."""
    kernels.set_backend(backend)
    try:
        kernels.backend()
    except RuntimeError:
        pytest.skip("compiled kernel backend not built")
    try:
        for design, params in DESIGNS.items():
            processor = run_pair(pair, params())
            cycles, issued = SECTION7[(pair, design)]
            assert processor.cycle == cycles, design
            assert processor.committed_per_thread == [6000, 6000]
            assert processor.stats.get("iq.issued") == issued
    finally:
        kernels.set_backend(None)


class TestContracts:
    """Multi-thread runs hold the contracts single-thread runs hold."""

    PAIR = ("equake", "vortex")

    @staticmethod
    def _run(kind, backend, event_driven=True, budget=1500):
        params = configs.DESIGNS[kind].conformance_config().replace(
            event_driven=event_driven)
        kernels.set_backend(backend)
        try:
            kernels.backend()
        except RuntimeError:
            pytest.skip("compiled kernel backend not built")
        try:
            return run_pair(TestContracts.PAIR, params, budget=budget)
        finally:
            kernels.set_backend(None)

    @staticmethod
    def _without_skip(processor):
        return {name: value
                for name, value in processor.stats.as_dict().items()
                if not name.startswith("skip.")}

    @pytest.mark.parametrize("kind", sorted(configs.DESIGNS))
    def test_event_driven_matches_plain_loop(self, kind):
        skipping = self._run(kind, "py")
        plain = self._run(kind, "py", event_driven=False)
        assert skipping.cycle == plain.cycle
        assert self._without_skip(skipping) == self._without_skip(plain)
        assert skipping.digest == plain.digest
        assert plain.stats.get("skip.cycles_skipped") == 0

    @pytest.mark.parametrize("kind", sorted(configs.DESIGNS))
    def test_backends_match(self, kind):
        py = self._run(kind, "py")
        compiled = self._run(kind, "compiled")
        assert compiled.cycle == py.cycle
        assert compiled.stats.as_dict() == py.stats.as_dict()
        assert compiled.digest == py.digest

    def test_lsq_blocked_windows_match_plain_loop(self):
        # A small LSQ leaves heads LSQ-blocked through skip windows; each
        # stepped refusal draws a fresh global seq, which the replay must
        # reproduce for the digest's seqs to agree.
        params = configs.segmented(256, 64, "comb").replace(lsq_size=16)
        skipping = run_pair(self.PAIR, params, budget=1500)
        plain = run_pair(self.PAIR, params.replace(event_driven=False),
                         budget=1500)
        assert skipping.stats.get("skip.cycles_skipped") > 0
        assert skipping.stats.get("dispatch.stall_lsq") > 0
        assert self._without_skip(skipping) == self._without_skip(plain)
        assert skipping.digest == plain.digest

    def test_segmented_pair_skips_quiescent_cycles(self):
        processor = run_pair(self.PAIR, configs.segmented(512, 128, "comb"))
        assert processor.stats.get("skip.cycles_skipped") > 0

    def test_single_stream_adds_no_thread_stats(self):
        program = daxpy_program(n=64)
        single = Processor(configs.ideal(64), execute(program))
        listed = Processor(configs.ideal(64), [execute(program)])
        single.run()
        listed.run()
        assert not any(name.startswith("thread")
                       for name in listed.stats.as_dict())
        assert listed.stats.as_dict() == single.stats.as_dict()
        assert listed.committed_per_thread == [listed.committed]

    def test_invariants_hold_per_thread(self):
        programs = [daxpy_program(n=64), dependent_chain_program(200)]
        params = configs.segmented(256, 64, "comb").replace(
            check_invariants=True)
        processor = run_smt(programs, params, budget=None)
        assert processor.done
        assert processor.invariant_checker.checks_run == processor.cycle
