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

The dispatch and issue policy runs on a segmented IQ per engine, in the
same machine, each engine driven through the calls ``SegmentedIQ``
makes: ``plan`` (the RIT scan and predictor consults), ``can_dispatch``
+ ``dispatch`` (target segment, chain allocation through the queue's
``ChainManager``, entry, wakeup and RIT update), ``select_issue``
(segment-0 issue and its per-entry bookkeeping) and
``on_entry_ready_known`` (reached through ``DynInst.set_value_ready``,
as operand wakeup reaches it).  Their results are compared field by
field, chains by cslot, together with the two queues' stats, RITs, head
chains and producer wakeup lists.

The rest of the policy runs on the same two queues: ``cycle`` (the
promotion sweep, segment-0 arrivals, deadlock detection with recovery
through each queue's ``_recover``, the samples and the resize
controller), ``load_miss`` and ``load_complete`` (chain suspend, resume
and free, hit/miss training) and ``writeback``.  After each, the two
queues' chain-wire pools, head chains (every ``Chain`` field) and
predictor tables are compared too.  The reads deadlock recovery makes
(``max_seq_slot``, ``min_seq_slot``, ``oldest_ineligible``,
``threshold``), the membership readers (``entries_of``, ``entry_obj``)
and ``free_entry`` have rules of their own, and every call that takes
a slot, segment or chain index is fed indices outside its column
(negative ones too): both engines raise ``IndexError``.

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

from repro.common.errors import SimulationError
from repro.common.params import IQParams
from repro.common.stats import StatGroup
from repro.core.iq_base import IQEntry, Operand
from repro.core.segmented import kernels
from repro.core.segmented.chains import Chain
from repro.core.segmented.queue import (DispatchPlan, SegmentedIQ,
                                        SegmentState)
from repro.core.segmented.register_info import RITEntry
from repro.isa.instruction import DynInst
from repro.pipeline.kernels import PyPipelineEngine

NUM_SEGMENTS = 4
CAPACITY = 6
THRESHOLDS = [0, 2, 4, 6]
#: A queue whose engine has the shape above (thresholds 2 * j), with
#: few enough chain wires that dispatch runs out of them.
QUEUE = IQParams(kind="segmented", size=NUM_SEGMENTS * CAPACITY,
                 segment_size=CAPACITY, threshold_step=2, max_chains=3)


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
    """Stands in for an IQEntry and its SegmentState: the engines hand it
    back from issue and promotion, issue_select passes ``token.inst`` to
    the acquire, and select_issue marks it issued (it heads no chain and
    trained no predictor)."""

    __slots__ = ("seq", "inst", "slot", "chain_state", "issued",
                 "own_chain", "lrp_consulted", "unknown_count",
                 "ready_cycle")

    @property
    def all_sources_known(self):
        return not self.unknown_count

    def __init__(self, seq):
        self.seq = seq
        self.inst = self
        self.slot = -1
        self.chain_state = self
        self.issued = False
        self.own_chain = None
        self.lrp_consulted = False
        self.unknown_count = 0
        self.ready_cycle = 0


class Inst:
    """The DynInst fields dispatch planning and admission read."""

    __slots__ = ("seq", "pc", "thread", "cluster", "srcs", "is_mem",
                 "is_load", "latency", "dest", "value_ready_cycle",
                 "waiters", "mem_level")

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
        self.mem_level = None


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


def _chain_fields(chain):
    return (chain.chain_id, chain.cslot, chain.head.seq, chain.head_latency,
            chain.issued_cycle, chain.suspended_since, chain.suspended_accum,
            chain.freed, chain.cluster)


def _pool_key(manager):
    """A chain-wire pool: its active chains field by field, the free ids
    in pool order, the next id and the peak."""
    return ({chain_id: _chain_fields(chain)
             for chain_id, chain in manager._active.items()},
            list(manager._free_ids), manager._next_id, manager.peak_in_use)


def _rit_key(rit):
    return {key: (type(entry), entry.producer.seq, _chain_key(entry.chain),
                  entry.dh, entry.expected_ready)
            for key, entry in rit.items()}


def _outcome(call, *args):
    """``call(*args)``, or the message of the SimulationError it raised."""
    try:
        return call(*args), None
    except SimulationError as exc:
        return None, str(exc)


predictor_sets = st.sampled_from([("lrp", "hmp"), ("lrp",), ("hmp",), ()])

#: The engine calls that take a slot, segment or chain index: (method,
#: the column the index names, its arguments around the index ``bad``).
_INDEXED = (
    ("entry_obj", "slot", lambda bad, now: (bad,)),
    ("slot_seq", "slot", lambda bad, now: (bad,)),
    ("seg_of", "slot", lambda bad, now: (bad,)),
    ("free_entry", "slot", lambda bad, now: (bad,)),
    ("detach", "slot", lambda bad, now: (bad,)),
    ("attach", "slot", lambda bad, now: (bad, 0, now)),
    ("attach", "segment", lambda bad, now: (0, bad, now)),
    ("p0_push", "slot", lambda bad, now: (bad, now)),
    ("seg_occ", "segment", lambda bad, now: (bad,)),
    ("threshold", "segment", lambda bad, now: (bad,)),
    ("set_threshold", "segment", lambda bad, now: (bad, 3)),
    ("slots_of", "segment", lambda bad, now: (bad,)),
    ("entries_of", "segment", lambda bad, now: (bad,)),
    ("min_seq_slot", "segment", lambda bad, now: (bad,)),
    ("max_seq_slot", "segment", lambda bad, now: (bad,)),
    ("mode_of", "chain", lambda bad, now: (bad,)),
    ("base_of", "chain", lambda bad, now: (bad,)),
    ("hseg_of", "chain", lambda bad, now: (bad,)),
)
#: Where a load was satisfied (None: the level is unknown).
levels = st.sampled_from(["l1", "forward", "l2", "mem", "delayed", None])


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
        self.twins = {}         # slot -> (py, compiled) dispatched IQEntry
        self.waiting = []       # (py, compiled) producers of unknown operands
        self.heads = {}         # seq -> dispatched instruction
        self.loads = {}         # seq -> dispatched load
        # cslot -> (py-side, compiled-side) Chain handles, made on demand
        self.chain_objs = {}
        self.predictors = (self.qpy.lrp, self.qpy.hmp,
                           self.qc.lrp, self.qc.hmp)
        from repro.core.segmented import _ckernels
        self.fu_py, self.fu_py_stats = _fu_engine(PyPipelineEngine)
        self.fu_c, self.fu_c_stats = _fu_engine(_ckernels.Pipeline)

    # ------------------------------------------------------- helpers --
    @property
    def chains(self):
        """Chain cslots allocated so far (by rules and by dispatch)."""
        return len(self.py.c_mode)

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

    def forget_issued(self, entries):
        for entry in entries:
            slot = entry.chain_state.slot
            del self.live[slot]
            self.twins.pop(slot, None)

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
        qpy, qc = self.qpy, self.qc
        assert qc.stats.as_dict() == qpy.stats.as_dict()
        for name in ("_occupancy", "_full_refusals", "blocked_on_chain",
                     "now", "_issued_this_cycle", "_promoted_this_cycle",
                     "_last_issue_cycle", "active_segments"):
            assert getattr(qc, name) == getattr(qpy, name), name
        assert _rit_key(qc.rit._entries) == _rit_key(qpy.rit._entries)
        assert ({seq: _chain_fields(chain)
                 for seq, chain in qc._head_chains.items()}
                == {seq: _chain_fields(chain)
                    for seq, chain in qpy._head_chains.items()})
        assert sorted(qc._plan_cache) == sorted(qpy._plan_cache)
        assert _pool_key(qc.chains) == _pool_key(qpy.chains)
        lrp_p, hmp_p, lrp_c, hmp_c = self.predictors
        assert lrp_c._counters == lrp_p._counters
        assert hmp_c._counters == hmp_p._counters
        assert hmp_c._outstanding == hmp_p._outstanding

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
        expected = self.chains
        assert self.both("alloc_chain", mode, base, head_segment) \
            == expected

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
            token = Token(self.next_seq)
            self.next_seq += 1
            args = (token.seq, seg, cd, c0, dh0, c1, dh1, own, self.now)
            token.slot = self.py.insert_entry(token, *args)
            assert self.c.insert_entry(token, *args) == token.slot
            self.live[token.slot] = token
            self.qpy._occupancy += 1
            self.qc._occupancy += 1

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
        # Arrivals in segment 0 with known operands become issue
        # candidates, as SegmentedIQ.cycle enters them.
        for entry in seg0:
            if not entry.unknown_count:
                self.both("p0_push", entry.chain_state.slot,
                          max(entry.ready_cycle, self.now + 1))

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
        for entry in issued + got_issued:
            entry.issued = True
        self.qpy._occupancy -= len(issued)
        self.qc._occupancy -= len(issued)
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

    @rule(call=st.sampled_from(_INDEXED), below=st.booleans(),
          offset=st.integers(min_value=0, max_value=1 << 30))
    def bad_index(self, call, below, offset):
        """An index outside its column, a negative one too, raises
        IndexError on both engines and changes nothing (the compiled
        engine touches no memory outside the column)."""
        name, column, arguments = call
        length = {"slot": len(self.py.e_seq), "segment": NUM_SEGMENTS,
                  "chain": self.chains}[column]
        bad = -1 - offset if below else length + offset
        for engine in (self.py, self.c):
            with pytest.raises(IndexError):
                getattr(engine, name)(*arguments(bad, self.now))

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

    @rule(specs=st.lists(instructions, min_size=1, max_size=4),
          which=predictor_sets, again=st.booleans())
    def plan(self, specs, which, again):
        """Plan a few instructions on both queues' engines; planning one
        again returns the cached plan (the predictors are consulted
        once)."""
        self.use_predictors(which)
        for spec in specs:
            inst = self.new_inst(spec)
            expected = self.py.plan(self.qpy, inst, self.now)
            got = self.c.plan(self.qc, inst, self.now)
            assert type(got) is type(expected) is DispatchPlan
            assert _plan_key(got) == _plan_key(expected)
            if again:
                assert self.py.plan(self.qpy, inst, self.now) is expected
                assert self.c.plan(self.qc, inst, self.now) is got
            self.same_queues()
            del self.qpy._plan_cache[inst.seq]
            del self.qc._plan_cache[inst.seq]

    @rule(data=st.data(), which=predictor_sets,
          batch=st.lists(st.tuples(
              instructions,
              st.lists(st.one_of(st.none(), small), min_size=3,
                       max_size=3),
              st.booleans(), st.booleans()), min_size=1, max_size=3),
          active=st.integers(min_value=1, max_value=NUM_SEGMENTS),
          bypass=st.booleans())
    def dispatch(self, data, which, batch, active, bypass):
        """can_dispatch + dispatch of a few instructions on both queues'
        engines: (instruction, operand readiness, probe, crowd) each."""
        self.use_predictors(which)
        for queue in (self.qpy, self.qc):
            queue.now = self.now
            queue.active_segments = active
            queue._enable_bypass = bypass
        for spec, operands, probe, crowd in batch:
            self.dispatch_one(data, self.new_inst(spec), operands, probe,
                              crowd)

    def dispatch_one(self, data, inst, operands, probe, crowd):
        """One instruction, with one operand per source, known (a ready
        cycle) or unknown (None).  ``probe`` False dispatches unprobed,
        which may refuse; ``crowd`` inserts an entry between the two
        calls, so dispatch must see that the target can_dispatch kept is
        stale."""
        if probe:
            admitted = self.py.can_dispatch(self.qpy, inst)
            assert self.c.can_dispatch(self.qc, inst) is admitted
            self.same_queues()
            if not admitted:
                self.qpy._plan_cache.pop(inst.seq, None)
                self.qc._plan_cache.pop(inst.seq, None)
                return
            if crowd and self.room(self.py.tc[1]):
                self.insert_entries(data, [(self.py.tc[1], -1, 0, 0, False)])
        entries = []
        for queue, engine in ((self.qpy, self.py), (self.qc, self.c)):
            ops = [Operand(index + 1,
                           Inst(-100 - index, 0, (), False, False, 1, None),
                           ready, 0)
                   for index, ready in enumerate(
                       operands[:len(inst.srcs)])]
            entries.append((_outcome(engine.dispatch, queue, inst, ops,
                                     self.now), ops))
        ((entry_p, error_p), ops_p), ((entry_c, error_c), ops_c) = entries
        assert error_c == error_p
        self.same_queues()
        if error_p is not None:
            return
        state_p, state_c = entry_p.chain_state, entry_c.chain_state
        assert type(entry_c) is type(entry_p) is IQEntry
        assert type(state_c) is type(state_p) is SegmentState
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
        self.waiting.extend(
            (op_p.producer, op_c.producer)
            for op_p, op_c in zip(ops_p, ops_c) if op_p.ready_cycle is None)
        if state_p.own_chain is not None:
            self.heads[inst.seq] = inst
        if inst.is_load:
            self.loads[inst.seq] = inst
        self.live[state_p.slot] = entry_p
        self.twins[state_p.slot] = (entry_p, entry_c)

    @rule(width=st.integers(min_value=1, max_value=4),
          modulus=st.integers(min_value=1, max_value=3),
          which=predictor_sets, cycles=st.integers(min_value=1, max_value=4))
    def select_issue(self, width, modulus, which, cycles):
        """A few cycles of segment-0 issue on both queues' engines (the
        issued entries, their heads' chain signals and LRP training),
        each followed by a promotion sweep, as the processor steps."""
        def acquire(inst):
            return inst.seq % modulus == 0

        self.use_predictors(which)
        self.qpy.issue_width = self.qc.issue_width = width
        for _ in range(cycles):
            issued = self.py.select_issue(self.qpy, self.now, acquire)
            got = self.c.select_issue(self.qc, self.now, acquire)
            assert [entry.seq for entry in got] == \
                [entry.seq for entry in issued]
            assert all(entry.issued for entry in issued + got)
            self.same_queues()
            self.forget_issued(issued)
            self.promote_all(width, False)
            self.advance(1)

    @precondition(lambda self: self.twins)
    @rule(data=st.data(),
          seg=st.integers(min_value=0, max_value=NUM_SEGMENTS - 1))
    def recover(self, data, seg):
        """Deadlock recovery moves a dispatched entry into ``seg``
        (``SegmentedIQ._place_recovered`` on each queue: a chain head
        re-broadcasts its segment, and a known entry placed in segment 0
        becomes an issue candidate)."""
        slot = data.draw(st.sampled_from(sorted(self.twins)))
        self.both("detach", slot)
        if not self.room(seg):
            seg = self.py.seg_of(slot)       # back where it came from
        for queue in (self.qpy, self.qc):
            queue._place_recovered(slot, seg, self.now)
        self.same_queues()

    @precondition(lambda self: self.waiting)
    @rule(data=st.data(), delay=st.integers(min_value=0, max_value=4))
    def operand_ready(self, data, delay):
        """The producer of an unknown operand learns its ready cycle.
        ``DynInst.set_value_ready`` wakes each queue's entry, which calls
        the queue's wakeup hook, the engine's on_entry_ready_known, once
        its last unknown operand is known."""
        index = data.draw(st.integers(min_value=0,
                                      max_value=len(self.waiting) - 1))
        for producer in self.waiting.pop(index):
            DynInst.set_value_ready(producer, self.now + delay)
        for entry_p, entry_c in self.twins.values():
            assert entry_c.unknown_count == entry_p.unknown_count
            assert entry_c.ready_cycle == entry_p.ready_cycle

    @precondition(lambda self: self.heads)
    @rule(data=st.data())
    def writeback(self, data):
        """A dispatched chain head writes back: each queue frees its
        chain wire (later plans see the chain freed)."""
        seq = data.draw(st.sampled_from(sorted(self.heads)))
        inst = self.heads.pop(seq)
        for queue in (self.qpy, self.qc):
            queue.on_writeback(inst, self.now)
        self.same_queues()

    def issue_alone(self, slot):
        """Place the dispatched entry in ``slot`` in segment 0 (as
        recovery places it, when there is room) and, once its operands
        are known, issue it alone on both queues: a chain it heads starts
        counting down, and a two-operand entry that consulted the LRP
        trains it."""
        entry_p, _entry_c = self.twins[slot]
        self.both("detach", slot)
        if not self.room(0):
            self.both("attach", slot, self.py.seg_of(slot), self.now)
            return
        for queue in (self.qpy, self.qc):
            queue._place_recovered(slot, 0, self.now)
        if entry_p.unknown_count:
            return
        self.advance(max(entry_p.ready_cycle - self.now, 1))
        for queue in (self.qpy, self.qc):
            issued = queue._engine.select_issue(
                queue, self.now, lambda inst: inst.seq == entry_p.seq)
            assert [entry.seq for entry in issued] == [entry_p.seq]
        self.forget_issued([entry_p])
        self.same_queues()

    def load_outcome(self, inst, miss, level):
        """The load ``inst`` misses (a chain it heads suspends on each
        queue) or completes at memory ``level`` (the hit/miss predictor
        trains, and the chain resumes and frees its wire)."""
        if not miss:
            self.loads.pop(inst.seq, None)
            self.heads.pop(inst.seq, None)
            inst.mem_level = level
        for queue in (self.qpy, self.qc):
            if miss:
                queue.notify_load_miss(inst, self.now)
            else:
                queue.notify_load_complete(inst, self.now)
        self.same_queues()

    @precondition(lambda self: self.twins)
    @rule(data=st.data(), which=predictor_sets)
    def issue_one(self, data, which):
        self.use_predictors(which)
        self.issue_alone(data.draw(st.sampled_from(sorted(self.twins))))

    @precondition(lambda self: self.loads)
    @rule(data=st.data(), which=predictor_sets, miss=st.booleans(),
          level=levels)
    def load_event(self, data, which, miss, level):
        self.use_predictors(which)
        seq = data.draw(st.sampled_from(sorted(self.loads)))
        self.load_outcome(self.loads[seq], miss, level)

    @rule(data=st.data(), which=predictor_sets, two_chain=st.booleans(),
          pc=st.integers(min_value=0, max_value=7),
          ready=st.lists(small, min_size=2, max_size=2),
          outcomes=st.lists(st.tuples(st.booleans(), levels), max_size=3))
    def head_life(self, data, which, two_chain, pc, ready, outcomes):
        """One instruction's life on both queues: a load, or a
        two-operand op whose sources follow two live chains (the LRP
        picks one, or without an LRP it heads a chain of its own),
        dispatches into an uncrowded queue and issues alone; a load then
        misses or completes (``(miss, level)`` each)."""
        self.use_predictors(which)
        if two_chain and self.chains:
            self.write_two_chains(data, ready[0], ready[1])
            inst = self.new_inst((pc, (1, 2), "alu", 2, None))
        else:
            inst = self.new_inst((pc, (), "load", 1, 3))
        for queue in (self.qpy, self.qc):
            queue.now = self.now
            queue.active_segments = NUM_SEGMENTS
            queue._enable_bypass = True
        self.dispatch_one(data, inst, ready + [None], True, False)
        slots = [slot for slot, (entry, _c) in self.twins.items()
                 if entry.seq == inst.seq]
        if not slots:
            return                          # refused
        self.issue_alone(slots[0])
        for miss, level in outcomes:
            if inst.seq in self.loads:
                self.load_outcome(inst, miss, level)

    @rule(data=st.data(), idle=st.booleans(),
          in_flight=st.integers(min_value=0, max_value=1),
          resize=st.booleans())
    def cycle(self, data, idle, in_flight, resize):
        """One cycle of each queue (the engines' ``cycle``): with nothing
        in flight and nothing issued or promoted the strict deadlock
        condition recovers, after an idle stretch since the last commit
        the patience backstop does, and ``resize`` runs the resize
        controller."""
        if idle:
            self.advance(SegmentedIQ.NO_ISSUE_PATIENCE + 1)
        commit = data.draw(st.integers(min_value=0, max_value=self.now))
        for queue in (self.qpy, self.qc):
            queue.in_flight = in_flight
            queue.last_commit_cycle = commit
            queue._dynamic_resize = resize
            queue.cycle(self.now)
        self.same_queues()

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free_entry(self, data):
        """An entry leaves its segment for good, as issue frees a slot."""
        slot = data.draw(st.sampled_from(sorted(self.live)))
        entries = self.twins.pop(slot, (self.live[slot],))
        del self.live[slot]
        self.both("free_entry", slot)
        for entry in entries:
            entry.issued = True
        self.qpy._occupancy -= 1
        self.qc._occupancy -= 1

    @rule(count=st.integers(min_value=1, max_value=4))
    def recovery_reads(self, count):
        """What deadlock recovery reads of each segment: its youngest and
        oldest occupants, its oldest ineligible ones and its threshold."""
        for seg in range(NUM_SEGMENTS):
            self.both("max_seq_slot", seg)
            self.both("min_seq_slot", seg)
            self.both("oldest_ineligible", seg, self.now, count)
            self.both("threshold", seg)

    @rule()
    def membership(self):
        """Each segment's entries in membership order, and the entry in
        every slot (None once freed)."""
        for seg in range(NUM_SEGMENTS):
            assert ([entry.seq for entry in self.c.entries_of(seg)]
                    == [entry.seq for entry in self.py.entries_of(seg)])
        for slot in range(len(self.py.e_seq)):
            got, expected = self.c.entry_obj(slot), self.py.entry_obj(slot)
            assert getattr(got, "seq", None) == getattr(expected, "seq", None)

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
        assert self.c.p0_next(self.now) == self.py.p0_next(self.now)
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
    max_examples=100, stateful_step_count=100, deadline=None,
    derandomize=True, suppress_health_check=[HealthCheck.too_slow])
TestEngineParity = EngineParity.TestCase
