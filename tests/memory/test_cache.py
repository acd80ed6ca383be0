"""Tests for the cache model: hits, misses, MSHRs, LRU, writebacks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import CacheParams, EventQueue, StatGroup
from repro.common.events import _PyEventQueue
from repro.memory import (LEVEL_DELAYED, BandwidthLink, Cache, MainMemory,
                          MemRequest)


def make_system(l1_params=None, l2_params=None, mem_latency=100,
                events=None):
    """A two-level hierarchy (L1D -> L2 -> memory) for unit tests."""
    events = events if events is not None else EventQueue()
    stats = StatGroup()
    l1_params = l1_params or CacheParams(
        size_bytes=1024, assoc=2, line_bytes=64, hit_latency=3,
        mshr_entries=4)
    l2_params = l2_params or CacheParams(
        size_bytes=8192, assoc=4, line_bytes=64, hit_latency=10,
        mshr_entries=4)
    mem_link = BandwidthLink("link.mem", 8, events, stats)
    memory = MainMemory(mem_latency, events, stats)
    l2 = Cache("l2", l2_params, "l2", memory, mem_link, events, stats)
    l2_link = BandwidthLink("link.l2", 64, events, stats)
    l1 = Cache("l1d", l1_params, "l1", l2, l2_link, events, stats,
               classify_delayed=True)
    return events, stats, l1, l2


def issue(l1, addr, is_write=False):
    done = {}

    def on_complete(req):
        done["level"] = req.level
        done["cycle"] = req.completed_cycle

    req = MemRequest(addr=addr, is_write=is_write, on_complete=on_complete)
    accepted = l1.access(req)
    return req, done, accepted


class TestHitMissBasics:
    def test_cold_miss_goes_to_memory(self):
        events, stats, l1, l2 = make_system()
        req, done, accepted = issue(l1, 0)
        assert accepted
        events.advance_to(500)
        assert done["level"] == "mem"
        # L1 lookup(3) + L2 lookup(10) + mem latency(100) + line transfers.
        assert done["cycle"] >= 113

    def test_second_access_hits_l1(self):
        events, _, l1, _ = make_system()
        _, first, _ = issue(l1, 0)
        events.advance_to(500)
        _, second, _ = issue(l1, 8)     # same 64-byte line
        events.advance_to(events.now + 10)
        assert second["level"] == "l1"
        assert second["cycle"] == 500 + 3

    def test_l2_hit_after_l1_eviction(self):
        events, _, l1, _ = make_system()
        # l1: 1 KB, 2-way, 64 B lines -> 8 sets.  Three lines mapping to set
        # 0 (stride 8 lines = 512 bytes) overflow the 2 ways.
        for addr in (0, 512, 1024):
            issue(l1, addr)
            events.advance_to(events.now + 400)
        _, done, _ = issue(l1, 0)        # evicted from L1, still in L2
        events.advance_to(events.now + 400)
        assert done["level"] == "l2"

    def test_miss_callback_fires_before_completion(self):
        events, _, l1, _ = make_system()
        seen = []
        req = MemRequest(addr=0, on_miss=lambda r: seen.append(events.now),
                         on_complete=lambda r: seen.append("done"))
        l1.access(req)
        assert seen == [0]               # miss detected synchronously
        events.advance_to(500)
        assert seen == [0, "done"]

    def test_hit_does_not_fire_miss_callback(self):
        events, _, l1, _ = make_system()
        issue(l1, 0)
        events.advance_to(500)
        seen = []
        req = MemRequest(addr=0, on_miss=lambda r: seen.append("miss"))
        l1.access(req)
        events.advance_to(events.now + 10)
        assert seen == []


class TestDelayedHits:
    def test_merge_into_outstanding_mshr(self):
        events, stats, l1, _ = make_system()
        _, first, _ = issue(l1, 0)
        events.advance_to(2)             # fill still in flight
        _, merged, _ = issue(l1, 8)      # same line
        events.advance_to(500)
        assert first["level"] == "mem"
        assert merged["level"] == LEVEL_DELAYED
        assert stats.get("l1d.delayed_hits") == 1
        assert stats.get("l1d.misses") == 1

    def test_merged_request_completes_with_original(self):
        events, _, l1, _ = make_system()
        _, first, _ = issue(l1, 0)
        events.advance_to(2)
        _, merged, _ = issue(l1, 16)
        events.advance_to(500)
        assert merged["cycle"] == first["cycle"]

    def test_delayed_hit_counts_one_memory_access(self):
        events, stats, l1, _ = make_system()
        issue(l1, 0)
        issue(l1, 8)
        issue(l1, 16)
        events.advance_to(500)
        assert stats.get("mem.accesses") == 1


class TestTypedEventRecords:
    """Every event the caches schedule is a typed ``(callback, arg)``
    record on a method: one per hit and per fill, with no closure."""

    def test_hit_is_one_typed_record(self):
        events, _, l1, _ = make_system(events=_PyEventQueue())
        l1.warm_line(0)
        req, done, _ = issue(l1, 8, is_write=True)
        [(when, _seq, callback, arg)] = events._heap
        assert (when, callback, arg) == (3, l1._request_hit, req)
        events.advance_to(3)
        assert done == {"level": "l1", "cycle": 3}

    def test_miss_path_schedules_no_closure(self):
        events, _, l1, l2 = make_system(events=_PyEventQueue())
        _, done, _ = issue(l1, 0)
        installs = []
        while not done:
            for _when, _seq, callback, arg in events._heap:
                assert callback.__name__ != "<lambda>"
                if callback.__name__ == "_install":
                    installs.append((callback.__self__.name, arg))
            events.advance_to(events.next_event_cycle())
        assert done["level"] == "mem"
        assert sorted(set(installs)) == [("l1d", 0), ("l2", 0)]
        assert not l1._mshrs and not l2._mshrs


class TestMSHRLimits:
    def test_l1_rejects_when_mshrs_full(self):
        events, stats, l1, _ = make_system()
        accepted = [issue(l1, line * 64)[2] for line in range(5)]
        assert accepted == [True] * 4 + [False]
        assert stats.get("l1d.mshr_full_retries") == 1

    def test_mshr_frees_after_fill(self):
        events, _, l1, _ = make_system()
        for line in range(4):
            issue(l1, line * 64)
        assert l1.outstanding_misses == 4
        events.advance_to(1000)
        assert l1.outstanding_misses == 0
        _, _, accepted = issue(l1, 9999 * 64 % 1024)
        assert accepted

    def test_rejects_only_new_lines_when_full(self):
        events, stats, l1, _ = make_system()
        l1.warm_line(8 * 64)
        for line in range(4):
            issue(l1, line * 64)
        assert not l1.rejects(8 * 64 + 8)       # resident
        assert not l1.rejects(2 * 64 + 8)       # in flight: a delayed hit
        assert stats.get("l1d.mshr_full_retries") == 0
        assert l1.rejects(5 * 64)               # needs a fifth MSHR
        assert stats.get("l1d.mshr_full_retries") == 1
        _, _, accepted = issue(l1, 2 * 64 + 8)
        assert accepted
        assert stats.get("l1d.delayed_hits") == 1

    def test_version_moves_with_fills_and_warming(self):
        events, _, l1, _ = make_system()
        issue(l1, 0)
        start = l1.version
        events.advance_to(1000)                 # the fill installs
        filled = l1.version
        assert filled > start
        l1.warm_line(0)                         # already resident
        assert l1.version == filled
        l1.warm_line(64)
        assert l1.version > filled


class TestLRUAndWritebacks:
    def test_lru_evicts_least_recent(self):
        events, _, l1, _ = make_system()
        for addr in (0, 512):
            issue(l1, addr)
            events.advance_to(events.now + 400)
        issue(l1, 0)                     # touch line 0: now MRU
        events.advance_to(events.now + 10)
        issue(l1, 1024)                  # evicts line at 512, not 0
        events.advance_to(events.now + 400)
        assert l1.contains(0)
        assert not l1.contains(512)
        assert l1.contains(1024)

    def test_dirty_eviction_counts_writeback(self):
        events, stats, l1, _ = make_system()
        issue(l1, 0, is_write=True)
        events.advance_to(events.now + 400)
        for addr in (512, 1024):         # force eviction of dirty line 0
            issue(l1, addr)
            events.advance_to(events.now + 400)
        assert stats.get("l1d.writebacks") == 1

    def test_clean_eviction_no_writeback(self):
        events, stats, l1, _ = make_system()
        for addr in (0, 512, 1024):
            issue(l1, addr)
            events.advance_to(events.now + 400)
        assert stats.get("l1d.writebacks") == 0

    def test_write_hit_marks_dirty(self):
        events, stats, l1, _ = make_system()
        issue(l1, 0)
        events.advance_to(events.now + 400)
        issue(l1, 0, is_write=True)      # write hit dirties the line
        events.advance_to(events.now + 10)
        for addr in (512, 1024):
            issue(l1, addr)
            events.advance_to(events.now + 400)
        assert stats.get("l1d.writebacks") == 1


class TestWarmup:
    def test_warm_line_hits_immediately(self):
        events, _, l1, _ = make_system()
        l1.warm_line(128)
        _, done, _ = issue(l1, 128)
        events.advance_to(10)
        assert done["level"] == "l1"

    def test_would_hit_does_not_disturb_lru(self):
        events, _, l1, _ = make_system()
        l1.warm_line(0)
        l1.warm_line(512)                # LRU order: 512 (MRU), 0
        assert l1.would_hit(0)
        # A probe must not have promoted line 0; filling a third line
        # should still evict 0 (the true LRU).
        issue(l1, 1024)
        events.advance_to(500)
        assert not l1.contains(0)
        assert l1.contains(512)


class TestBandwidthLink:
    def test_transfers_serialize(self):
        events = EventQueue()
        stats = StatGroup()
        link = BandwidthLink("x", 8, events, stats)
        assert link.request(64) == 8
        assert link.request(64) == 16    # queued behind the first
        assert stats.get("x.queue_cycles") == 8

    def test_link_frees_over_time(self):
        events = EventQueue()
        link = BandwidthLink("x", 8, events, StatGroup())
        link.request(64)
        events.advance_to(100)
        assert link.request(64) == 8

    def test_memory_bandwidth_bounds_fill_rate(self):
        # With an 8 B/cycle memory link, 4 parallel line fills serialize:
        # the last completes ~4*8 cycles after the first could.
        events, _, l1, _ = make_system()
        completions = []
        for line in range(4):
            req = MemRequest(addr=line * 64,
                             on_complete=lambda r: completions.append(
                                 r.completed_cycle))
            l1.access(req)
        events.advance_to(2000)
        assert len(completions) == 4
        assert max(completions) - min(completions) >= 3 * 8


class _ListTags:
    """The reference tag store: one list of [line, dirty] per set, most
    recently used first."""

    def __init__(self, num_sets, assoc):
        self.assoc = assoc
        self.sets = [[] for _ in range(num_sets)]

    def touch(self, line):
        cache_set = self.sets[line % len(self.sets)]
        for position, entry in enumerate(cache_set):
            if entry[0] == line:
                cache_set.insert(0, cache_set.pop(position))
                return True
        return False

    def warm(self, line, dirty):
        if self.touch(line):
            return
        cache_set = self.sets[line % len(self.sets)]
        if len(cache_set) >= self.assoc:
            cache_set.pop()
        cache_set.insert(0, [line, dirty])

    def slots(self):
        """The flat layout: ``line << 1 | dirty`` per way, -1 empty."""
        out = []
        for cache_set in self.sets:
            out += [line << 1 | dirty for line, dirty in cache_set]
            out += [-1] * (self.assoc - len(cache_set))
        return out


def _stage_binder():
    """Binds a compiled cache stage to a cache, or None when the compiled
    kernels or event queue are not in use."""
    from repro.core.segmented import kernels
    from repro.memory.cache import _MSHR
    try:
        module = kernels.compiled_module()
    except RuntimeError:
        module = None
    if module is None or EventQueue is _PyEventQueue:
        return None

    def bind(cache):
        cache._c_stage = module.CacheStage(cache, cache.level_label,
                                           LEVEL_DELAYED, _MSHR)
    return bind


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 40),
                              st.booleans()), max_size=100))
def test_flat_tags_match_list_reference(ops):
    """Random touches and warm fills of a 4-set, 2-way cache, on the
    Python twin and (when built) the compiled stage: the same hits, and
    each set's lines in the reference's LRU order with its dirty bits."""
    binders = [None] + [bind for bind in [_stage_binder()] if bind]
    for bind in binders:
        _events, stats, l1, _l2 = make_system(CacheParams(
            size_bytes=512, assoc=2, line_bytes=64, hit_latency=3,
            mshr_entries=4))
        if bind is not None:
            bind(l1)
        reference = _ListTags(4, 2)
        hits = 0
        for is_touch, line, dirty in ops:
            if is_touch:
                found = reference.touch(line)
                assert l1.touch(line * 64) == found
                hits += found
            else:
                reference.warm(line, dirty)
                l1.warm_line(line * 64 + 8, dirty)
        assert stats.get("l1d.hits") == hits
        assert list(l1._tags) == reference.slots()
