"""Edge-case tests for the cache model: back-pressure, touch, geometry."""

import pytest

from repro.common import CacheParams, EventQueue, MemoryParams, StatGroup
from repro.memory import (BandwidthLink, Cache, MainMemory, MemRequest,
                          MemoryHierarchy)


def tiny_hierarchy(l2_mshrs=2):
    events = EventQueue()
    stats = StatGroup()
    mem_link = BandwidthLink("link.mem", 8, events, stats)
    memory = MainMemory(100, events, stats)
    l2 = Cache("l2", CacheParams(size_bytes=4096, assoc=2, line_bytes=64,
                                 hit_latency=10, mshr_entries=l2_mshrs),
               "l2", memory, mem_link, events, stats)
    l2_link = BandwidthLink("link.l2", 64, events, stats)
    l1 = Cache("l1d", CacheParams(size_bytes=512, assoc=1, line_bytes=64,
                                  hit_latency=3, mshr_entries=8),
               "l1", l2, l2_link, events, stats, classify_delayed=True)
    return events, stats, l1, l2


class TestL2BackPressure:
    def test_l2_mshr_overflow_queues_and_drains(self):
        # More distinct L1 misses than the L2 has MSHRs: the extra line
        # requests queue inside the L2 and complete later, not never.
        events, stats, l1, l2 = tiny_hierarchy(l2_mshrs=2)
        done = []
        for line in range(6):
            request = MemRequest(addr=line * 64,
                                 on_complete=lambda r: done.append(
                                     r.completed_cycle))
            assert l1.access(request)
        events.advance_to(5000)
        assert len(done) == 6
        # The queued ones finished strictly after the first wave.
        assert max(done) > min(done) + 100

    def test_queued_request_that_becomes_a_hit(self):
        events, stats, l1, l2 = tiny_hierarchy(l2_mshrs=1)
        done = []
        # Two L1 misses to lines mapping to the same L2 line? Use two
        # different L1 lines within one L2 line is impossible (same line
        # size); instead: same line from two different L1-set aliases
        # cannot happen either, so exercise the queue drain path simply.
        for line in (0, 8, 16):
            request = MemRequest(addr=line * 64,
                                 on_complete=lambda r: done.append(r.level))
            l1.access(request)
        events.advance_to(5000)
        assert len(done) == 3


class TestTouch:
    def test_touch_hits_resident_line(self):
        events, stats, l1, _ = tiny_hierarchy()
        l1.warm_line(128)
        assert l1.touch(128)
        assert stats.get("l1d.hits") == 1

    def test_touch_does_not_allocate(self):
        events, stats, l1, _ = tiny_hierarchy()
        assert not l1.touch(128)
        assert l1.outstanding_misses == 0
        assert stats.get("l1d.misses") == 0

    def test_touch_updates_lru(self):
        events, _, l1, _ = tiny_hierarchy()
        # Direct-mapped L1 (assoc=1, 8 sets): two addresses in set 0.
        l1.warm_line(0)
        assert l1.touch(0)
        l1.warm_line(512)       # evicts line 0 (same set, assoc 1)
        assert not l1.contains(0)


class TestRejectedAccessAccounting:
    def test_rejected_access_not_counted(self):
        events, stats, l1, _ = tiny_hierarchy()
        for line in range(8):
            l1.access(MemRequest(addr=line * 64))
        accesses_before = stats.get("l1d.accesses")
        assert not l1.access(MemRequest(addr=9 * 64))
        assert stats.get("l1d.accesses") == accesses_before
        assert stats.get("l1d.mshr_full_retries") == 1

    def test_rejected_then_accepted_after_fill(self):
        events, stats, l1, _ = tiny_hierarchy()
        for line in range(8):
            l1.access(MemRequest(addr=line * 64))
        assert not l1.access(MemRequest(addr=9 * 64))
        events.advance_to(5000)
        assert l1.access(MemRequest(addr=9 * 64))


class TestHierarchyFacade:
    def test_inst_and_data_share_the_l2(self):
        events = EventQueue()
        stats = StatGroup()
        hierarchy = MemoryHierarchy(MemoryParams(), events, stats)
        done = []
        hierarchy.inst_access(MemRequest(addr=0,
                                         on_complete=lambda r: done.append(
                                             ("i", r.level))))
        events.advance_to(1000)
        # The line now lives in the L2 (and L1I); a *data* access to the
        # same address must be an L2 hit, not a memory access.
        hierarchy.data_access(MemRequest(addr=0,
                                         on_complete=lambda r: done.append(
                                             ("d", r.level))))
        events.advance_to(2000)
        assert done[0] == ("i", "mem")
        assert done[1] == ("d", "l2")

    def test_would_hit_l1d(self):
        events = EventQueue()
        hierarchy = MemoryHierarchy(MemoryParams(), events, StatGroup())
        assert not hierarchy.would_hit_l1d(64)
        hierarchy.l1d.warm_line(64)
        assert hierarchy.would_hit_l1d(64)
