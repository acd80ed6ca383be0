"""Tests for the benchmark-analog kernels.

Each kernel must (a) build and validate, (b) execute functionally to
completion, and (c) exhibit the memory/branch character DESIGN.md claims
for it (that character is what makes it an analog of its SPEC namesake).
"""

import pytest

from repro import api
from repro.harness import configs
from repro.isa import execute, run_functional
from repro.workloads import (FP_BENCHMARKS, INT_BENCHMARKS, WORKLOADS,
                             build_equake, build_gcc, build_swim,
                             build_vortex)

ALL_NAMES = sorted(WORKLOADS)


class TestRegistry:
    def test_eight_benchmarks(self):
        assert len(WORKLOADS) == 8
        assert set(ALL_NAMES) == {"ammp", "applu", "equake", "gcc", "mgrid",
                                  "swim", "twolf", "vortex"}

    def test_fp_int_split_matches_paper(self):
        # Paper section 5: five FP (ammp applu equake mgrid swim), plus
        # twolf, vortex, and gcc on the integer side.
        assert set(FP_BENCHMARKS) == {"ammp", "applu", "equake", "mgrid",
                                      "swim"}
        assert set(INT_BENCHMARKS) == {"gcc", "twolf", "vortex"}

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_builds_and_validates(self, name):
        program = WORKLOADS[name].build(1)
        program.validate()
        assert len(program) > 10

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_functional_execution_halts(self, name):
        spec = WORKLOADS[name]
        budget = spec.default_instructions * 3
        state = run_functional(spec.build(1), max_instructions=budget)
        assert state.halted, f"{name} did not halt within {budget} insts"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_default_budget_close_to_dynamic_length(self, name):
        spec = WORKLOADS[name]
        state = run_functional(spec.build(1),
                               max_instructions=spec.default_instructions * 3)
        # The declared budget should be within 2x of the true length so
        # benches simulate a meaningful slice.
        assert state.instruction_count <= spec.default_instructions * 2

    def test_scale_parameter_grows_work(self):
        small = run_functional(build_swim(1), max_instructions=500_000)
        large = run_functional(build_swim(2), max_instructions=500_000)
        assert large.instruction_count > 1.5 * small.instruction_count


class TestWorkloadCharacter:
    """Check the memory/branch profile that makes each analog valid."""

    def run(self, name, **kwargs):
        return api.run(configs.ideal(128), name, **kwargs)

    def test_swim_is_delayed_hit_dominated(self):
        result = self.run("swim")
        delayed = result.stats.get("l1d.delayed_hits", 0)
        misses = result.stats.get("l1d.misses", 0)
        hits = result.stats.get("l1d.hits", 0)
        # Paper: >90% of swim's loads miss (delayed hits included).
        assert (delayed + misses) / (delayed + misses + hits) > 0.5
        assert delayed > misses    # most are merges on in-flight lines

    def test_mgrid_rarely_reaches_main_memory(self):
        # Paper: mgrid has low cache-miss rates (its data is warmed into
        # the L2 here); what misses L1 is satisfied by the L2.
        result = self.run("mgrid")
        loads = result.stats.get("lsq.loads", 1)
        assert result.stats.get("mem.accesses", 0) / loads < 0.05

    def test_gcc_has_high_mispredict_rate(self):
        result = self.run("gcc")
        assert result.branch_accuracy < 0.92

    def test_twolf_vortex_predictable_branches(self):
        for name in ("twolf", "vortex"):
            result = self.run(name)
            assert result.branch_accuracy > 0.9, name

    def test_equake_uses_indirection(self):
        # Dependent scattered loads: L2 (or worse) traffic even though the
        # index arrays stream.
        result = self.run("equake")
        l2_accesses = result.stats.get("l2.accesses", 0)
        assert l2_accesses > 100

    def test_ammp_reaches_main_memory(self):
        result = self.run("ammp")
        assert result.stats.get("mem.accesses", 0) > 100

    def test_int_benchmarks_use_no_fp(self):
        for name in INT_BENCHMARKS:
            program = WORKLOADS[name].build(1)
            from repro.isa.opcodes import OpClass
            fp_ops = sum(1 for inst in program.instructions
                         if inst.info.op_class is OpClass.FP_ARITH)
            assert fp_ops == 0, name


class TestPaperShapeProperties:
    """The headline behaviours the analogs must reproduce."""

    def ipc(self, name, size):
        return api.run(configs.ideal(size), name).ipc

    def test_fp_benchmarks_gain_from_large_windows(self):
        for name in ("swim", "applu"):
            small = self.ipc(name, 32)
            large = self.ipc(name, 512)
            assert large > 2.0 * small, name

    def test_gcc_does_not_gain(self):
        small = self.ipc("gcc", 32)
        large = self.ipc("gcc", 512)
        assert large < 1.3 * small
