"""Call-for-call parity of the two segmented-IQ engine backends.

``PyKernelEngine`` is the reference; the compiled ``Engine`` must agree
with it on every call, not only over whole runs.  A hypothesis state
machine drives both with the same random sequence of the calls the
segmented IQ makes — ``insert_entry``, ``alloc_chain``, ``chain_set`` +
``notify``, ``promote_all``, ``pop_eligible``, ``issue_select`` (with a
stub FU acquire), ``detach``/``attach``, ``p0_push``,
``set_threshold`` + ``reschedule_all`` — and after every call compares
the return values, the per-segment occupancies and membership order, the
segment of every live slot, and every chain's columns.

The dispatch ops run on a segmented IQ per engine, in the same machine:
``plan_links`` (the RIT scan), ``admit`` (entry, wakeup and RIT update)
and the compiled ``plan``, whose twin is ``SegmentedIQ._plan``.  Their
results are compared field by field, chains by cslot, together with the
two queues' stats, RITs and producer wakeup lists.

The same machine also drives the two function-unit engines of the
pipeline tier (``PyPipelineEngine`` and the compiled ``Pipeline``) with
``fu_accept``, ``fu_can_accept``, ``fu_cache_port`` and
``fu_next_event``, comparing every answer and their issue and
structural-stall counters.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.common.params import IQParams
from repro.common.stats import StatGroup
from repro.core.iq_base import Operand
from repro.core.segmented import kernels
from repro.core.segmented.chains import Chain
from repro.core.segmented.queue import SegmentedIQ
from repro.core.segmented.register_info import RITEntry
from repro.pipeline.kernels import PyPipelineEngine

NUM_SEGMENTS = 4
CAPACITY = 6
THRESHOLDS = [0, 2, 4, 6]
#: A queue whose engine has the shape above (thresholds 2 * j).
QUEUE = IQParams(kind="segmented", size=NUM_SEGMENTS * CAPACITY,
                 segment_size=CAPACITY, threshold_step=2)


#: Function units per class (split over FU_CLUSTERS clusters); the last
#: class is the data-cache port.
FU_COUNTS = [4, 2, 2]
FU_CLUSTERS = 2
FU_MEM_PORT = len(FU_COUNTS) - 1


def _fu_engine(cls):
    """A pipeline engine of that shape with its own counters."""
    stats = StatGroup()
    issued = [stats.counter(f"fu.{ci}.ops") for ci in range(len(FU_COUNTS))]
    engine = cls(len(FU_COUNTS), FU_CLUSTERS, FU_COUNTS, FU_MEM_PORT, issued,
                 stats.counter("fu.structural_stalls"), {})
    return engine, stats


def _queue(backend):
    """A segmented IQ on a forced engine backend (None if unbuilt)."""
    kernels.set_backend(backend)
    try:
        return SegmentedIQ(QUEUE, 4, StatGroup())
    except RuntimeError:
        return None
    finally:
        kernels.set_backend(None)


def _compiled_engine():
    queue = _queue("compiled")
    return None if queue is None else queue._engine


pytestmark = pytest.mark.skipif(
    _compiled_engine() is None,
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build)")


class Token:
    """Stands in for an IQEntry: the engines hand it back from issue and
    promotion, and issue_select passes ``token.inst`` to the acquire."""

    __slots__ = ("seq", "inst", "slot")

    def __init__(self, seq):
        self.seq = seq
        self.inst = self
        self.slot = -1


class Inst:
    """The DynInst fields dispatch planning and admission read."""

    __slots__ = ("seq", "pc", "thread", "cluster", "srcs", "is_mem",
                 "is_load", "latency", "dest", "value_ready_cycle",
                 "waiters")

    def __init__(self, seq, pc, srcs, is_mem, is_load, latency, dest,
                 value_ready_cycle=None):
        self.seq = seq
        self.pc = pc
        self.thread = 0
        self.cluster = 0
        self.srcs = srcs
        self.is_mem = is_mem
        self.is_load = is_load
        self.latency = latency
        self.dest = dest
        self.value_ready_cycle = value_ready_cycle
        self.waiters = []


small = st.integers(min_value=0, max_value=12)
regs = st.integers(min_value=0, max_value=3)     # few, so sources hit the RIT
instructions = st.tuples(
    st.integers(min_value=0, max_value=7),              # pc
    st.one_of(st.lists(regs, max_size=3).map(tuple),    # srcs
              st.just((1, 2))),
    st.sampled_from(["alu", "load", "store"]),
    st.integers(min_value=1, max_value=4),              # latency
    st.one_of(st.none(), regs))                         # dest


def _chain_key(chain):
    return None if chain is None else chain.cslot


def _links_key(links):
    return [("chain", pair[0].cslot, pair[1]) if type(pair) is tuple
            else pair for pair in links]


def _plan_key(plan):
    return (plan.countdown_ready, _links_key(plan.chain_pairs),
            plan.needs_chain, plan.lrp_choice, plan.lrp_consulted,
            plan.head_latency)


def _rit_key(rit):
    return {key: (entry.producer.seq, _chain_key(entry.chain), entry.dh,
                  entry.expected_ready)
            for key, entry in rit.items()}


class EngineParity(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.qpy = _queue("py")
        self.qc = _queue("compiled")
        self.py = self.qpy._engine
        self.c = self.qc._engine
        self.py.set_collect(True)
        self.c.set_collect(True)
        self.now = 0
        self.next_seq = 0
        self.live = {}          # slot -> Token or the py side's IQEntry
        self.chains = 0         # cslots allocated so far
        # cslot -> (py-side, compiled-side) Chain handles, made on demand
        self.chain_objs = {}
        self.predictors = (self.qpy.lrp, self.qpy.hmp,
                           self.qc.lrp, self.qc.hmp)
        from repro.core.segmented import _ckernels
        self.fu_py, self.fu_py_stats = _fu_engine(PyPipelineEngine)
        self.fu_c, self.fu_c_stats = _fu_engine(_ckernels.Pipeline)

    # ------------------------------------------------------- helpers --
    def both(self, name, *args):
        """Call ``name`` on both engines; their results must agree."""
        expected = getattr(self.py, name)(*args)
        got = getattr(self.c, name)(*args)
        assert got == expected, (name, args, got, expected)
        return expected

    def room(self, seg):
        return self.py.seg_occ(seg) < CAPACITY

    def cslot(self, data):
        return data.draw(st.sampled_from([-1] + list(range(self.chains))))

    def forget_issued(self, tokens):
        for token in tokens:
            slot = (token.slot if isinstance(token, Token)
                    else token.chain_state.slot)
            del self.live[slot]

    def chain_pair(self, cslot):
        """A Chain handle on each engine for ``cslot``, as ChainManager
        would hold them (only cslot, engine and freed are read)."""
        pair = self.chain_objs.get(cslot)
        if pair is None:
            pair = []
            for engine in (self.py, self.c):
                chain = object.__new__(Chain)
                chain.engine = engine
                chain.cslot = cslot
                chain.freed = False
                chain.cluster = 0
                pair.append(chain)
            pair = self.chain_objs[cslot] = tuple(pair)
        return pair

    def new_inst(self, spec):
        pc, srcs, kind, latency, dest = spec
        self.next_seq += 1
        return Inst(self.next_seq, pc, srcs, kind != "alu", kind == "load",
                    latency, dest)

    def use_predictors(self, which):
        lrp_p, hmp_p, lrp_c, hmp_c = self.predictors
        self.qpy.lrp = lrp_p if "lrp" in which else None
        self.qc.lrp = lrp_c if "lrp" in which else None
        self.qpy.hmp = hmp_p if "hmp" in which else None
        self.qc.hmp = hmp_c if "hmp" in which else None

    def same_queues(self):
        assert self.qc.stats.as_dict() == self.qpy.stats.as_dict()
        assert self.qc._occupancy == self.qpy._occupancy
        assert _rit_key(self.qc.rit._entries) == \
            _rit_key(self.qpy.rit._entries)

    # --------------------------------------------------------- rules --
    @initialize()
    def one_chain_per_mode(self):
        # A queued, a self-timed and a suspended chain for entries to
        # follow from the first step on.
        for mode, base, head_segment in ((0, 4, 2), (1, 0, 0), (2, 1, 0)):
            self.alloc_chain(mode, base, head_segment)

    @rule(mode=st.integers(min_value=0, max_value=2), base=small,
          head_segment=st.integers(min_value=0, max_value=NUM_SEGMENTS - 1))
    def alloc_chain(self, mode, base, head_segment):
        assert self.both("alloc_chain", mode, base, head_segment) \
            == self.chains
        self.chains += 1

    @rule(data=st.data(), batch=st.lists(
        st.tuples(st.integers(min_value=0, max_value=NUM_SEGMENTS - 1),
                  st.integers(min_value=-1, max_value=12), small, small,
                  st.booleans()),
        min_size=1, max_size=4))
    def insert_entries(self, data, batch):
        """Dispatch a few entries: (segment, countdown, dh0, dh1, is a
        chain head) each, following up to two drawn chains."""
        for seg, cd, dh0, dh1, head in batch:
            if not self.room(seg):
                continue
            c0 = self.cslot(data)
            c1 = self.cslot(data) if c0 >= 0 else -1
            own = -1
            if head:
                own = self.both("alloc_chain", 0, 2 * seg, seg)
                self.chains += 1
            token = Token(self.next_seq)
            self.next_seq += 1
            args = (token.seq, seg, cd, c0, dh0, c1, dh1, own, self.now)
            token.slot = self.py.insert_entry(token, *args)
            assert self.c.insert_entry(token, *args) == token.slot
            self.live[token.slot] = token

    @precondition(lambda self: self.chains)
    @rule(data=st.data(), mode=st.integers(min_value=0, max_value=2),
          base=small,
          head_segment=st.integers(min_value=0, max_value=NUM_SEGMENTS - 1))
    def chain_event(self, data, mode, base, head_segment):
        cslot = data.draw(st.integers(min_value=0,
                                      max_value=self.chains - 1))
        if mode == 1:
            base += self.now                 # issued around now
        self.both("chain_set", cslot, mode, base, head_segment)
        self.both("notify", cslot)

    @rule(width=st.integers(min_value=1, max_value=4),
          pushdown=st.booleans())
    def promote_all(self, width, pushdown):
        promotions, pushdowns, seg0 = self.py.promote_all(
            self.now, width, pushdown)
        got = self.c.promote_all(self.now, width, pushdown)
        assert got[0] == promotions and got[1] == pushdowns
        assert [t.seq for t in got[2]] == [t.seq for t in seg0]
        assert ([(t.seq, src, dst, push)
                 for t, src, dst, push in self.c.drain_events()]
                == [(t.seq, src, dst, push)
                    for t, src, dst, push in self.py.drain_events()])

    @rule(seg=st.integers(min_value=1, max_value=NUM_SEGMENTS - 1),
          limit=st.integers(min_value=1, max_value=4))
    def pop_eligible(self, seg, limit):
        self.both("pop_eligible", seg, self.now, limit)

    @rule(width=st.integers(min_value=1, max_value=4),
          modulus=st.integers(min_value=1, max_value=3))
    def issue_select(self, width, modulus):
        def acquire(inst):
            return inst.seq % modulus == 0

        count, issued = self.py.issue_select(self.now, width, None,
                                             acquire)
        got_count, got_issued = self.c.issue_select(self.now, width, None,
                                                    acquire)
        assert got_count == count
        assert [t.seq for t in got_issued] == [t.seq for t in issued]
        self.forget_issued(issued)

    @precondition(lambda self: self.live)
    @rule(data=st.data(),
          seg=st.integers(min_value=0, max_value=NUM_SEGMENTS - 1))
    def detach_attach(self, data, seg):
        slot = data.draw(st.sampled_from(sorted(self.live)))
        self.both("detach", slot)
        if not self.room(seg):
            seg = self.py.seg_of(slot)       # back where it came from
        self.both("attach", slot, seg, self.now)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), delay=st.integers(min_value=0, max_value=5))
    def p0_push(self, data, delay):
        slot = data.draw(st.sampled_from(sorted(self.live)))
        self.both("p0_push", slot, self.now + delay)

    @rule(seg=st.integers(min_value=1, max_value=NUM_SEGMENTS - 1),
          threshold=st.integers(min_value=0, max_value=10))
    def refit_threshold(self, seg, threshold):
        self.both("set_threshold", seg, threshold)
        self.both("reschedule_all", self.now)

    @rule(step=st.integers(min_value=1, max_value=3))
    def advance(self, step):
        self.now += step
        self.both("set_now", self.now)
        self.both("refresh_free_prev")

    @rule(width=st.integers(min_value=1, max_value=4),
          pushdown=st.booleans())
    def probes(self, width, pushdown):
        self.both("next_promote_cycle", self.now, width, pushdown)
        self.both("p0_next", self.now)

    @rule(data=st.data(), reg=st.integers(min_value=1, max_value=3),
          kind=st.sampled_from(["known", "chain", "chain", "expected"]),
          offset=st.integers(min_value=-2, max_value=6), dh=small,
          freed=st.sampled_from([False, False, True]))
    def write_rit(self, data, reg, kind, offset, dh, freed):
        """Point a register at a producer: exactly known, following a
        live or freed chain, or chainless with an expected-ready cycle."""
        producer = Inst(-reg, 0, (), False, False, 1, reg)
        pair = (None, None)
        if kind == "known":
            producer.value_ready_cycle = max(0, self.now + offset)
        elif kind == "chain" and self.chains:
            pair = self.chain_pair(data.draw(
                st.integers(min_value=0, max_value=self.chains - 1)))
            pair[0].freed = pair[1].freed = freed
        for queue, chain in zip((self.qpy, self.qc), pair):
            queue.rit._entries[reg] = RITEntry(
                producer, chain, dh, max(0, self.now + offset))

    @precondition(lambda self: self.chains)
    @rule(data=st.data(), dh0=small, dh1=small)
    def write_two_chains(self, data, dh0, dh1):
        """Registers 1 and 2 follow live chains (the two-chain case of
        section 3.4 when the chains differ)."""
        for reg, dh in ((1, dh0), (2, dh1)):
            producer = Inst(-reg, 0, (), False, False, 1, reg)
            pair = self.chain_pair(data.draw(
                st.integers(min_value=0, max_value=self.chains - 1)))
            pair[0].freed = pair[1].freed = False
            for queue, chain in zip((self.qpy, self.qc), pair):
                queue.rit._entries[reg] = RITEntry(producer, chain, dh, 0)

    @rule(spec=instructions)
    def plan_links(self, spec):
        inst = self.new_inst(spec)
        expected = self.py.plan_links(self.qpy.rit._entries, inst, self.now)
        got = self.c.plan_links(self.qc.rit._entries, inst, self.now)
        assert _links_key(got) == _links_key(expected)

    @rule(data=st.data(), spec=instructions,
          which=st.sampled_from([("lrp", "hmp"), ("lrp",), ("hmp",), ()]),
          again=st.booleans(), admit=st.booleans(),
          seg=st.integers(min_value=0, max_value=NUM_SEGMENTS - 1),
          operands=st.lists(st.one_of(st.none(), small), max_size=3))
    def plan_and_admit(self, data, spec, which, again, admit, seg,
                       operands):
        """Plan one instruction on both queues (SegmentedIQ._plan is the
        compiled plan op's twin), optionally admit it into ``seg``."""
        self.use_predictors(which)
        inst = self.new_inst(spec)
        expected = self.qpy._plan(inst, self.now)
        got = self.c.plan(self.qc, inst, self.now)
        assert _plan_key(got) == _plan_key(expected)
        if again:       # cached: the predictors are not consulted twice
            assert self.qpy._plan(inst, self.now) is expected
            assert self.c.plan(self.qc, inst, self.now) is got
        self.same_queues()
        del self.qpy._plan_cache[inst.seq]
        del self.qc._plan_cache[inst.seq]
        if not admit or not self.room(seg):
            return
        chains = (None, None)
        if expected.needs_chain:
            cslot = self.both("alloc_chain", 0, 2 * seg, seg)
            self.chains += 1
            chains = self.chain_pair(cslot)
        entries = []
        for queue, plan, chain in ((self.qpy, expected, chains[0]),
                                   (self.qc, got, chains[1])):
            ops = [Operand(index + 1,
                           Inst(-100 - index, 0, (), False, False, 1, None),
                           ready, 0)
                   for index, ready in enumerate(operands)]
            entry = queue._engine.admit(queue, queue.rit._entries, inst,
                                        ops, plan, chain, seg, self.now)
            entries.append((entry, ops))
        (entry_p, ops_p), (entry_c, ops_c) = entries
        state_p, state_c = entry_p.chain_state, entry_c.chain_state
        for name in ("seq", "unknown_count", "ready_cycle", "queue_cycle",
                     "issued"):
            assert getattr(entry_c, name) == getattr(entry_p, name), name
        assert entry_c.inst is entry_p.inst is inst
        for name in ("countdown_ready", "lrp_choice", "lrp_consulted",
                     "slot", "_links"):
            assert getattr(state_c, name) == getattr(state_p, name), name
        assert _links_key(state_c.chain_pairs) == \
            _links_key(state_p.chain_pairs)
        assert _chain_key(state_c.own_chain) == _chain_key(state_p.own_chain)
        waiters_p = [op.producer.waiters for op in ops_p]
        waiters_c = [op.producer.waiters for op in ops_c]
        assert ([[index for _q, _e, index in w] for w in waiters_c]
                == [[index for _q, _e, index in w] for w in waiters_p])
        assert all(q is self.qc and e is entry_c
                   for w in waiters_c for q, e, _i in w)
        assert all(q is self.qpy and e is entry_p
                   for w in waiters_p for q, e, _i in w)
        self.same_queues()
        self.live[state_p.slot] = entry_p

    def both_fu(self, name, *args):
        """Call ``name`` on both pipeline engines; results and counters
        must agree."""
        expected = getattr(self.fu_py, name)(*args)
        got = getattr(self.fu_c, name)(*args)
        assert got == expected, (name, args, got, expected)
        assert self.fu_c_stats.as_dict() == self.fu_py_stats.as_dict()
        return expected

    @rule(ci=st.integers(min_value=0, max_value=len(FU_COUNTS) - 1),
          cluster=st.integers(min_value=0, max_value=FU_CLUSTERS - 1),
          occupancy=st.integers(min_value=1, max_value=6))
    def fu_accept(self, ci, cluster, occupancy):
        self.both_fu("fu_accept", ci, cluster, occupancy, self.now)

    @rule(ci=st.integers(min_value=0, max_value=len(FU_COUNTS) - 1),
          cluster=st.integers(min_value=0, max_value=FU_CLUSTERS - 1))
    def fu_can_accept(self, ci, cluster):
        self.both_fu("fu_can_accept", ci, cluster, self.now)

    @rule()
    def fu_cache_port(self):
        self.both_fu("fu_cache_port", self.now)

    @rule()
    def fu_next_event(self):
        self.both_fu("fu_next_event", self.now)

    # ---------------------------------------------------- invariants --
    @invariant()
    def same_state(self):
        assert self.c.occupancies() == self.py.occupancies()
        for seg in range(NUM_SEGMENTS):
            assert self.c.slots_of(seg) == self.py.slots_of(seg)
        for slot in self.live:
            assert self.c.seg_of(slot) == self.py.seg_of(slot)
            assert self.c.slot_seq(slot) == self.py.slot_seq(slot)
        for cslot in range(self.chains):
            for column in ("mode_of", "base_of", "hseg_of"):
                assert (getattr(self.c, column)(cslot)
                        == getattr(self.py, column)(cslot))


EngineParity.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None,
    derandomize=True, suppress_health_check=[HealthCheck.too_slow])
TestEngineParity = EngineParity.TestCase
