"""Tests for horizontal clustering with chain steering (paper section 7)."""

import pytest

from repro.common import ConfigurationError, ProcessorParams
from repro.harness import configs
from repro.isa import execute
from repro.pipeline import Processor
from repro.pipeline.fu import FUPool
from repro.common import StatGroup
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst

from tests.conftest import daxpy_program, dependent_chain_program


def clustered(steering="chain", clusters=2, iq_size=256):
    return configs.segmented(iq_size, 64, "comb").replace(
        clusters=clusters, cluster_steering=steering)


def run(program, params, max_instructions=None):
    processor = Processor(params, execute(
        program, max_instructions=max_instructions))
    processor.warm_code(program)
    processor.run(max_cycles=2_000_000)
    return processor


class TestConfiguration:
    def test_validates(self):
        clustered().validate()

    def test_uneven_fu_split_rejected(self):
        with pytest.raises(ConfigurationError):
            clustered(clusters=3).validate()   # 8 units / 3 clusters

    def test_unknown_steering_rejected(self):
        with pytest.raises(ConfigurationError):
            clustered(steering="magnetic").validate()

    def test_smt_rejects_clustering(self):
        with pytest.raises(ConfigurationError):
            Processor(clustered(), [iter([]), iter([])])


class TestClusteredFUPool:
    def inst(self, opcode=Opcode.ADD, cluster=0):
        dyn = DynInst(seq=0, pc=0, static=Instruction(
            opcode=opcode, dest=1, srcs=(2, 3)))
        dyn.cluster = cluster
        return dyn

    def test_units_split_across_clusters(self):
        pool = FUPool({"int_alu": 4, "int_mul": 2, "fp_add": 2,
                       "fp_mul": 2, "mem_port": 2}, StatGroup(), clusters=2)
        # Two ALUs per cluster: third same-cluster issue fails.
        assert pool.try_issue(self.inst(cluster=0), now=0)
        assert pool.try_issue(self.inst(cluster=0), now=0)
        assert not pool.try_issue(self.inst(cluster=0), now=0)
        # The other cluster's units are untouched.
        assert pool.try_issue(self.inst(cluster=1), now=0)

    def test_cache_ports_shared_across_clusters(self):
        pool = FUPool({"int_alu": 2, "int_mul": 2, "fp_add": 2,
                       "fp_mul": 2, "mem_port": 2}, StatGroup(), clusters=2)
        assert pool.try_cache_port(now=0)
        assert pool.try_cache_port(now=0)
        assert not pool.try_cache_port(now=0)


class TestClusteredExecution:
    def test_correctness_preserved(self):
        program = daxpy_program(n=128)
        expected = sum(1 for _ in execute(program))
        processor = run(program, clustered())
        assert processor.done
        assert processor.committed == expected

    def test_serial_chain_stays_in_one_cluster(self):
        # Chain steering keeps a dependence chain together: almost no
        # cross-cluster forwards.
        program = dependent_chain_program(length=400)
        processor = run(program, clustered("chain"))
        assert processor.stats.get("clusters.cross_forwards") < 20

    def test_balance_steering_pays_bypass_penalties(self):
        program = dependent_chain_program(length=400)
        balance = run(program, clustered("balance"))
        chain = run(program, clustered("chain"))
        assert (balance.stats.get("clusters.cross_forwards")
                > 10 * max(1, chain.stats.get("clusters.cross_forwards")))
        # A serial chain bounced between clusters pays +1 cycle per hop.
        assert balance.cycle > chain.cycle

    def test_chain_steering_tracks_unclustered_performance(self):
        program = daxpy_program(n=1024)
        unclustered = run(program, configs.segmented(256, 64, "comb"),
                          max_instructions=8000)
        chain = run(program, clustered("chain"), max_instructions=8000)
        # Section 7's hypothesis: chain assignment makes clustering cheap.
        assert chain.cycle <= unclustered.cycle * 1.15

    def test_both_clusters_used_on_parallel_code(self):
        from tests.conftest import independent_ops_program
        program = independent_ops_program(count=400)
        processor = run(program, clustered("chain"))
        stream_clusters = set()
        # Balance fallback must spread independent work.
        assert processor.done
        assert processor._cluster_load is not None
