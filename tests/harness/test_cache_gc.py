"""ResultCache under concurrency, GC bounds, and the quarantine path.

Two writers racing on one key, the size/age GC policy, and
corrupt-entry quarantine all need pinning.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.harness import configs
from repro.harness.cache import GCPolicy, GCStats, ResultCache, prune_dir
from repro.harness.runner import RunResult


def _result(ipc: float = 1.5) -> RunResult:
    return RunResult(workload="twolf", config="ideal-32", ipc=ipc,
                     cycles=1000, instructions=1500,
                     stats={"iq.dispatched": 1500.0})


def _racy_put(args):
    """Worker: hammer one key with interleaved put/get cycles."""
    directory, ipc, rounds = args
    cache = ResultCache(directory, token="race")
    key = cache.key_for("twolf", configs.ideal(32), max_instructions=500)
    seen = 0
    for _ in range(rounds):
        cache.put(key, _result(ipc))
        hit = cache.get(key)
        if hit is not None:
            assert hit.ipc in (1.0, 2.0), hit.ipc
            seen += 1
    return seen


class TestConcurrentWriters:
    def test_two_processes_writing_the_same_key(self, tmp_path):
        """Interleaved writers never produce a torn or unreadable entry.

        Each worker writes its own (valid) result under the same key and
        re-reads it; atomic os.replace means every read observes one of
        the two complete payloads, never a mix, and no read ever fails.
        """
        with ProcessPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(
                _racy_put, [(str(tmp_path), 1.0, 50),
                            (str(tmp_path), 2.0, 50)]))
        assert all(done == 50 for done in outcomes), outcomes
        cache = ResultCache(tmp_path, token="race")
        key = cache.key_for("twolf", configs.ideal(32), max_instructions=500)
        final = cache.get(key)
        assert final is not None and final.ipc in (1.0, 2.0)
        assert cache.evictions == 0

    def test_put_does_not_leave_tmp_droppings(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("twolf", configs.ideal(32))
        for _ in range(5):
            cache.put(key, _result())
        assert not list(tmp_path.glob("*.tmp"))


class TestGCPolicy:
    def _fill(self, cache, count):
        keys = []
        for index in range(count):
            key = cache.key_for("twolf", configs.ideal(32),
                                max_instructions=1000 + index)
            cache.put(key, _result())
            # Distinct mtimes so "oldest first" is deterministic.
            os.utime(cache._path(key), (index, index))
            keys.append(key)
        return keys

    def test_eviction_by_entry_count_is_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._fill(cache, 6)
        stats = cache.gc(GCPolicy(max_entries=3))
        assert stats.removed == 3 and stats.scanned == 6
        for key in keys[:3]:
            assert not cache._path(key).exists()
        for key in keys[3:]:
            assert cache.get(key) is not None

    def test_eviction_by_size_bound(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._fill(cache, 4)
        entry_bytes = cache._path(keys[0]).stat().st_size
        stats = cache.gc(GCPolicy(max_bytes=2 * entry_bytes + 1))
        assert stats.removed == 2
        assert stats.bytes_freed >= 2 * entry_bytes
        survivors = [key for key in keys if cache._path(key).exists()]
        assert survivors == keys[2:]

    def test_eviction_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._fill(cache, 3)
        fresh = cache.key_for("twolf", configs.ideal(64))
        cache.put(fresh, _result())
        stats = cache.gc(GCPolicy(max_age_seconds=3600))
        assert stats.removed == 3          # the utime(epoch)-aged trio
        assert cache.get(fresh) is not None
        assert all(not cache._path(key).exists() for key in keys)

    def test_unbounded_policy_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3)
        assert cache.gc(GCPolicy()) == GCStats()
        assert cache.gc() == GCStats()     # no policy prunes nothing
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_prune_dir_missing_directory(self, tmp_path):
        stats = prune_dir(tmp_path / "nope", GCPolicy(max_entries=1))
        assert stats.removed == 0


class TestQuarantine:
    def test_corrupt_entry_moves_to_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("twolf", configs.ideal(32))
        cache.put(key, _result())
        cache._path(key).write_text("{torn write")
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not cache._path(key).exists()
        held = list(cache.quarantine_dir.iterdir())
        assert [path.name for path in held] == [f"{key}.json"]
        assert held[0].read_text() == "{torn write"
        # The slot is reusable and the quarantined copy stays put.
        cache.put(key, _result())
        assert cache.get(key) is not None
        assert held[0].exists()

    def test_quarantine_is_bounded(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(cache.MAX_QUARANTINE + 5):
            key = cache.key_for("twolf", configs.ideal(32),
                                max_instructions=index + 1)
            cache.put(key, _result())
            path = cache._path(key)
            path.write_text("not json")
            os.utime(path, (index, index))
            assert cache.get(key) is None
        held = list(cache.quarantine_dir.iterdir())
        assert len(held) <= cache.MAX_QUARANTINE

    def test_schema_mismatch_quarantines_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("twolf", configs.ideal(32))
        cache.put(key, _result())
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert (cache.quarantine_dir / f"{key}.json").exists()

    def test_gc_leaves_quarantine_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("twolf", configs.ideal(32))
        cache.put(key, _result())
        cache._path(key).write_text("junk")
        cache.get(key)
        before = time.time()
        stats = cache.gc(GCPolicy(max_entries=0))
        assert stats.removed == 0          # nothing left in the main dir
        assert (cache.quarantine_dir / f"{key}.json").exists()
        assert before  # silence lints; timing not asserted
