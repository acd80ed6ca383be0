"""Tests for the cache model: hits, misses, MSHRs, LRU, writebacks."""

import pytest

from repro.common import CacheParams, EventQueue, StatGroup
from repro.memory import (LEVEL_DELAYED, BandwidthLink, Cache, MainMemory,
                          MemRequest)


def make_system(l1_params=None, l2_params=None, mem_latency=100):
    """A two-level hierarchy (L1D -> L2 -> memory) for unit tests."""
    events = EventQueue()
    stats = StatGroup()
    l1_params = l1_params or CacheParams(
        size_bytes=1024, assoc=2, line_bytes=64, hit_latency=3,
        mshr_entries=4)
    l2_params = l2_params or CacheParams(
        size_bytes=8192, assoc=4, line_bytes=64, hit_latency=10,
        mshr_entries=4)
    mem_link = BandwidthLink("link.mem", 8, events, stats)
    memory = MainMemory(mem_latency, mem_link, events, stats)
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
        warmed = l1.version
        l1.load_tag_state(l1.tag_state())
        assert l1.version > warmed


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
