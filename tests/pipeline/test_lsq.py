"""Unit tests for the load/store queue."""

import pytest

from repro.common import CacheParams, EventQueue, MemoryParams, StatGroup
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst
from repro.memory import MemoryHierarchy
from repro.pipeline import FUPool
from repro.pipeline.lsq import FORWARD_LATENCY, LoadStoreQueue


def make_lsq(size=32):
    events = EventQueue()
    stats = StatGroup()
    memory = MemoryHierarchy(MemoryParams(), events, stats)
    lsq = LoadStoreQueue(size, memory, events, stats)
    return lsq, events, stats, memory


def load_inst(seq, addr_reg=1):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=Opcode.LD, dest=5, srcs=(addr_reg,)))


def store_inst(seq, addr_reg=1, data_reg=2):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=Opcode.ST, dest=None, srcs=(addr_reg, data_reg)))


def step(lsq, events, cycles, start=0):
    for cycle in range(start, start + cycles):
        events.advance_to(cycle)
        lsq.cycle(cycle)
    return start + cycles


class TestLoadIssue:
    def test_load_with_no_stores_issues_to_cache(self):
        lsq, events, stats, _ = make_lsq()
        load = load_inst(0)
        load.mem_addr = 64
        lsq.dispatch(load, None, None)
        lsq.address_ready(load, cycle=1)
        step(lsq, events, 300)
        assert load.completed_cycle > 0
        assert load.value_ready_cycle == load.completed_cycle

    def test_load_waits_for_unknown_store_address(self):
        lsq, events, stats, _ = make_lsq()
        store = store_inst(0)
        lsq.dispatch(store, 0, None)
        load = load_inst(1)
        load.mem_addr = 64
        lsq.dispatch(load, None, None)
        lsq.address_ready(load, cycle=1)
        step(lsq, events, 20)
        # Conservative disambiguation: earlier store address unknown.
        assert load.completed_cycle < 0
        store.mem_addr = 128
        lsq.address_ready(store, cycle=21)
        step(lsq, events, 300, start=21)
        assert load.completed_cycle > 0

    def test_store_frontier_advances_in_order(self):
        lsq, events, _, _ = make_lsq()
        first, second = store_inst(0), store_inst(1)
        lsq.dispatch(first, 0, None)
        lsq.dispatch(second, 0, None)
        assert lsq.store_frontier == 0
        second.mem_addr = 128
        lsq.address_ready(second, cycle=1)
        assert lsq.store_frontier == 0      # first still unknown
        first.mem_addr = 64
        lsq.address_ready(first, cycle=2)
        assert lsq.store_frontier > 1


class TestForwarding:
    def test_load_forwards_from_completed_store(self):
        lsq, events, stats, _ = make_lsq()
        store = store_inst(0)
        store.mem_addr = 64
        lsq.dispatch(store, 0, None)       # data ready at dispatch
        lsq.address_ready(store, cycle=1)
        load = load_inst(1)
        load.mem_addr = 64
        lsq.dispatch(load, None, None)
        lsq.address_ready(load, cycle=2)
        step(lsq, events, 30)
        assert stats.get("lsq.forwards") == 1
        assert load.mem_level == "forward"
        assert load.completed_cycle - load.issued_cycle <= FORWARD_LATENCY + 4

    def test_load_waits_for_store_data(self):
        lsq, events, stats, _ = make_lsq()
        producer = DynInst(seq=0, pc=0, static=Instruction(
            opcode=Opcode.ADD, dest=2, srcs=(1, 1)))
        store = store_inst(1)
        store.mem_addr = 64
        lsq.dispatch(store, None, producer)   # data not ready yet
        lsq.address_ready(store, cycle=1)
        load = load_inst(2)
        load.mem_addr = 64
        lsq.dispatch(load, None, None)
        lsq.address_ready(load, cycle=2)
        step(lsq, events, 20)
        assert load.completed_cycle < 0       # blocked on store data
        assert stats.get("lsq.conflict_waits") == 1
        producer.set_value_ready(25)
        step(lsq, events, 40, start=20)
        assert load.completed_cycle > 0
        assert load.mem_level == "forward"

    def test_different_addresses_do_not_forward(self):
        lsq, events, stats, _ = make_lsq()
        store = store_inst(0)
        store.mem_addr = 64
        lsq.dispatch(store, 0, None)
        lsq.address_ready(store, cycle=1)
        load = load_inst(1)
        load.mem_addr = 128
        lsq.dispatch(load, None, None)
        lsq.address_ready(load, cycle=2)
        step(lsq, events, 300)
        assert stats.get("lsq.forwards") == 0
        assert load.completed_cycle > 0

    def test_youngest_earlier_store_wins(self):
        lsq, events, stats, _ = make_lsq()
        old = store_inst(0)
        old.mem_addr = 64
        lsq.dispatch(old, 0, None)
        lsq.address_ready(old, cycle=1)
        new = store_inst(1)
        new.mem_addr = 64
        lsq.dispatch(new, 0, None)
        lsq.address_ready(new, cycle=2)
        load = load_inst(2)
        load.mem_addr = 64
        lsq.dispatch(load, None, None)
        entry = lsq._entries[2]
        lsq.address_ready(load, cycle=3)
        blocker = lsq._conflicting_store(entry)
        assert blocker.seq == 1


class TestStoreCompletion:
    def test_store_completes_at_max_of_addr_and_data(self):
        lsq, events, _, _ = make_lsq()
        producer = DynInst(seq=0, pc=0, static=Instruction(
            opcode=Opcode.ADD, dest=2, srcs=(1, 1)))
        store = store_inst(1)
        store.mem_addr = 64
        lsq.dispatch(store, None, producer)
        lsq.address_ready(store, cycle=5)
        step(lsq, events, 10)
        assert store.completed_cycle < 0
        producer.set_value_ready(12)
        step(lsq, events, 10, start=10)
        assert store.completed_cycle == 12

    def test_commit_removes_and_writes_cache(self):
        lsq, events, stats, memory = make_lsq()
        store = store_inst(0)
        store.mem_addr = 64
        lsq.dispatch(store, 0, None)
        lsq.address_ready(store, cycle=1)
        step(lsq, events, 5)
        lsq.commit(store, now=5)
        assert lsq.occupancy == 0
        step(lsq, events, 300, start=5)
        assert memory.l1d.contains(64)       # write-allocated


class TestCapacity:
    def test_has_space_tracks_occupancy(self):
        lsq, events, _, _ = make_lsq(size=2)
        lsq.dispatch(load_inst(0), None, None)
        assert lsq.has_space()
        lsq.dispatch(load_inst(1), None, None)
        assert not lsq.has_space()


# ---------------------------------------------------------------------------
# Loads blocked on a full L1D: every candidate refused an MSHR.

#: Far beyond the first L1D fill (L1 + L2 + memory latency is over 100).
BEFORE_FILL = 60


def make_blocked_lsq(policy="conservative", fu_pool=None):
    """An LSQ over an L1D with two MSHRs, recording the byte address of
    each line the L1D allocates an MSHR for."""
    events = EventQueue()
    stats = StatGroup()
    params = MemoryParams(l1d=CacheParams(size_bytes=64 * 1024, assoc=2,
                                          hit_latency=3, mshr_entries=2))
    memory = MemoryHierarchy(params, events, stats)
    accesses = []
    real_allocate = memory.l1d._allocate_mshr

    def counted(line_addr, is_write, waiter):
        accesses.append(line_addr * params.l1d.line_bytes)
        return real_allocate(line_addr, is_write, waiter)

    memory.l1d._allocate_mshr = counted
    lsq = LoadStoreQueue(32, memory, events, stats, policy=policy,
                         fu_pool=fu_pool)
    return lsq, events, stats, memory, accesses


def line(n):
    """Byte address of the ``n``-th distinct L1D line."""
    return 4096 + 64 * n


def ready_loads(lsq, addrs, first_seq=0, cycle=0):
    loads = []
    for offset, addr in enumerate(addrs):
        load = load_inst(first_seq + offset)
        load.mem_addr = addr
        lsq.dispatch(load, None, None)
        lsq.address_ready(load, cycle)
        loads.append(load)
    return loads


def data_producer():
    """The (not yet executed) producer of a store's data register."""
    return DynInst(seq=99, pc=99, static=Instruction(
        opcode=Opcode.ADD, dest=2, srcs=(1, 1)))


def issued(lsq, load):
    return lsq._entries[load.seq].issued


def run_cycles(lsq, events, cycles, start=0, exhaustive=False):
    """Like :func:`step`; ``exhaustive`` forgets the refused loads before
    every cycle, so each candidate is attempted in full (the reference)."""
    for cycle in range(start, start + cycles):
        events.advance_to(cycle)
        if exhaustive:
            lsq._refused = 0
        lsq.cycle(cycle)
    return start + cycles


class TestMSHRBlocked:
    def test_retries_counted_once_per_candidate_per_cycle(self):
        lsq, events, stats, _, _ = make_blocked_lsq()
        ready_loads(lsq, [line(n) for n in range(5)])
        run_cycles(lsq, events, BEFORE_FILL)
        # Loads 0 and 1 take both MSHRs at cycle 0; loads 2-4 are refused
        # on every cycle until the first fill.
        assert stats.get("l1d.mshr_full_retries") == 3 * BEFORE_FILL
        assert stats.get("l1d.misses") == 2

    def test_data_access_only_for_accepted_loads(self):
        lsq, events, stats, _, accesses = make_blocked_lsq()
        ready_loads(lsq, [line(n) for n in range(5)])
        run_cycles(lsq, events, BEFORE_FILL)
        assert accesses == [line(0), line(1)]
        assert stats.get("l1d.accesses") == 2

    def test_identical_to_exhaustive_retry(self):
        outcomes = []
        for exhaustive in (False, True):
            lsq, events, stats, _, _ = make_blocked_lsq()
            loads = ready_loads(lsq, [line(n) for n in range(6)])
            run_cycles(lsq, events, 2000, exhaustive=exhaustive)
            outcomes.append(([load.completed_cycle for load in loads],
                             stats.as_dict()))
        assert outcomes[0] == outcomes[1]
        assert all(cycle > 0 for cycle in outcomes[0][0])
        assert outcomes[0][1]["l1d.mshr_full_retries"] > 0


class TestMSHRBlockedTriggers:
    """Each event that can let a refused load go on does so at once."""

    def test_fill_frees_an_mshr(self):
        lsq, events, _, memory, _ = make_blocked_lsq()
        loads = ready_loads(lsq, [line(n) for n in range(3)])
        cycle = 0
        while all(load.completed_cycle < 0 for load in loads[:2]):
            assert not issued(lsq, loads[2])
            cycle = run_cycles(lsq, events, 1, start=cycle)
        # The fill fired in the last cycle's events, before the LSQ ran.
        assert issued(lsq, loads[2])
        assert memory.l1d.outstanding_misses == 2

    def test_new_load_address(self):
        lsq, events, _, memory, _ = make_blocked_lsq()
        memory.l1d.warm_line(line(9))
        ready_loads(lsq, [line(n) for n in range(3)])
        cycle = run_cycles(lsq, events, 10)
        (hit,) = ready_loads(lsq, [line(9)], first_seq=3, cycle=cycle)
        run_cycles(lsq, events, 1, start=cycle)
        assert issued(lsq, hit)

    def test_store_address_releases_a_load(self):
        lsq, events, stats, memory, _ = make_blocked_lsq()
        memory.l1d.warm_line(line(9))
        ready_loads(lsq, [line(n) for n in range(3)])
        producer = data_producer()
        store = store_inst(3)
        lsq.dispatch(store, None, producer)     # data never arrives
        (behind,) = ready_loads(lsq, [line(9)], first_seq=4)
        cycle = run_cycles(lsq, events, 10)
        assert not issued(lsq, behind)      # held behind the store
        store.mem_addr = line(20)
        lsq.address_ready(store, cycle)
        run_cycles(lsq, events, 1, start=cycle)
        assert issued(lsq, behind)          # a hit, MSHRs still full
        assert stats.get("l1d.mshr_full_retries") == 11

    def test_store_address_gives_a_refused_load_a_conflict(self):
        # Store sets let the load go ahead of the store's address; when it
        # arrives, the refused load must see the conflict and forward.
        lsq, events, stats, _, _ = make_blocked_lsq(policy="store_sets")
        ready_loads(lsq, [line(n) for n in range(2)])
        store = store_inst(2)
        store.mem_addr = line(20)       # known to the functional model
        lsq.dispatch(store, 0, None)
        (load,) = ready_loads(lsq, [line(20)], first_seq=3)
        cycle = run_cycles(lsq, events, 10)
        assert stats.get("l1d.mshr_full_retries") == 10
        lsq.address_ready(store, cycle)
        run_cycles(lsq, events, 1, start=cycle)
        assert stats.get("lsq.forwards") == 1
        assert stats.get("l1d.mshr_full_retries") == 10

    def test_store_completion_releases_a_parked_load(self):
        lsq, events, stats, _, _ = make_blocked_lsq()
        ready_loads(lsq, [line(n) for n in range(3)])
        producer = data_producer()
        store = store_inst(4)
        store.mem_addr = line(20)
        lsq.dispatch(store, None, producer)
        lsq.address_ready(store, 0)
        (parked,) = ready_loads(lsq, [line(20)], first_seq=5)
        cycle = run_cycles(lsq, events, 10)
        assert stats.get("lsq.conflict_waits") == 1
        producer.set_value_ready(cycle)
        run_cycles(lsq, events, 1, start=cycle)
        assert store.completed_cycle == cycle
        assert issued(lsq, parked)
        assert stats.get("lsq.forwards") == 1

    def test_store_commit_releases_a_parked_load(self):
        lsq, events, _, memory, _ = make_blocked_lsq()
        memory.l1d.warm_line(line(20))
        ready_loads(lsq, [line(n) for n in range(3)])
        producer = data_producer()
        store = store_inst(4)
        store.mem_addr = line(20)
        lsq.dispatch(store, None, producer)
        lsq.address_ready(store, 0)
        (parked,) = ready_loads(lsq, [line(20)], first_seq=5)
        cycle = run_cycles(lsq, events, 10)
        assert not issued(lsq, parked)
        lsq.commit(store, cycle)
        run_cycles(lsq, events, 1, start=cycle)
        assert issued(lsq, parked)          # re-checked, hits the L1D

    def test_warm_line(self):
        lsq, events, _, memory, _ = make_blocked_lsq()
        loads = ready_loads(lsq, [line(n) for n in range(3)])
        cycle = run_cycles(lsq, events, 10)
        memory.l1d.warm_line(line(2))
        run_cycles(lsq, events, 1, start=cycle)
        assert issued(lsq, loads[2])

class TestPortStarvation:
    """Loads that found no cache port are not MSHR rejections."""

    def test_single_port_behind_a_hit(self):
        pool = FUPool({"mem_port": 1}, StatGroup())
        lsq, events, stats, memory, _ = make_blocked_lsq(fu_pool=pool)
        memory.l1d.warm_line(line(9))
        ready_loads(lsq, [line(9), line(0), line(1), line(2)])
        run_cycles(lsq, events, BEFORE_FILL)
        # One port: the hit, then the two misses, take cycles 0-2; the
        # last miss waits for a port until cycle 3, then for an MSHR.
        assert stats.get("l1d.mshr_full_retries") == BEFORE_FILL - 3

    def test_two_clusters(self):
        pool = FUPool({"mem_port": 2}, StatGroup(), clusters=2)
        lsq, events, stats, memory, _ = make_blocked_lsq(fu_pool=pool)
        memory.l1d.warm_line(line(9))
        ready_loads(lsq, [line(9), line(0), line(1), line(2)])
        run_cycles(lsq, events, BEFORE_FILL)
        # One port per cluster: the hit and the first miss at cycle 0;
        # the second miss at cycle 1, when the third is first refused.
        assert stats.get("l1d.mshr_full_retries") == BEFORE_FILL - 1

    @pytest.mark.parametrize("ports,clusters", [(1, 1), (2, 2)])
    def test_identical_to_exhaustive_retry(self, ports, clusters):
        outcomes = []
        for exhaustive in (False, True):
            fu_stats = StatGroup()
            pool = FUPool({"mem_port": ports}, fu_stats, clusters=clusters)
            lsq, events, stats, memory, _ = make_blocked_lsq(fu_pool=pool)
            memory.l1d.warm_line(line(9))
            loads = ready_loads(lsq, [line(9)] + [line(n) for n in range(5)])
            run_cycles(lsq, events, 2000, exhaustive=exhaustive)
            outcomes.append(([load.completed_cycle for load in loads],
                             stats.as_dict(), fu_stats.as_dict()))
        assert outcomes[0] == outcomes[1]


class TestDroppedStoreWrites:
    def test_store_write_refused_by_full_mshrs_is_counted(self):
        lsq, events, stats, memory, _ = make_blocked_lsq()
        ready_loads(lsq, [line(0), line(1)])
        store = store_inst(2)
        store.mem_addr = line(5)
        lsq.dispatch(store, 0, None)
        lsq.address_ready(store, 0)
        cycle = run_cycles(lsq, events, 5)
        lsq.commit(store, cycle)
        run_cycles(lsq, events, 300, start=cycle)
        assert stats.get("lsq.dropped_store_writes") == 1
        assert not memory.l1d.contains(line(5))

    def test_accepted_store_write_is_not_counted(self):
        lsq, events, stats, memory, _ = make_blocked_lsq()
        store = store_inst(0)
        store.mem_addr = line(5)
        lsq.dispatch(store, 0, None)
        lsq.address_ready(store, 0)
        cycle = run_cycles(lsq, events, 5)
        lsq.commit(store, cycle)
        run_cycles(lsq, events, 300, start=cycle)
        assert stats.get("lsq.dropped_store_writes") == 0
        assert memory.l1d.contains(line(5))
