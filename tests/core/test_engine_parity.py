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
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core.segmented import kernels
from repro.core.segmented.kernels import PyKernelEngine

NUM_SEGMENTS = 4
CAPACITY = 6
THRESHOLDS = [0, 2, 4, 6]


def _compiled_engine():
    kernels.set_backend("compiled")
    try:
        return kernels.make_engine(NUM_SEGMENTS, CAPACITY, THRESHOLDS)
    except RuntimeError:
        return None
    finally:
        kernels.set_backend(None)


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


small = st.integers(min_value=0, max_value=12)


class EngineParity(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.py = PyKernelEngine(NUM_SEGMENTS, CAPACITY, THRESHOLDS)
        self.c = _compiled_engine()
        self.py.set_collect(True)
        self.c.set_collect(True)
        self.now = 0
        self.next_seq = 0
        self.live = {}          # slot -> Token
        self.chains = 0         # cslots allocated so far

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
            del self.live[token.slot]

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
