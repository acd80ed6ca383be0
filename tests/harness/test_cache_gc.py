"""ResultCache under concurrency, and the bounded quarantine path.

Two writers racing on one key, the keep-newest prune, and corrupt-entry
quarantine all need pinning.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

from repro.harness import configs
from repro.harness.cache import ResultCache, prune_dir
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


class TestPruneDir:
    def test_keeps_the_newest_and_deletes_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = []
        for index in range(6):
            key = cache.key_for("twolf", configs.ideal(32),
                                max_instructions=1000 + index)
            cache.put(key, _result())
            # Distinct mtimes so "oldest first" is deterministic.
            os.utime(cache._path(key), (index, index))
            keys.append(key)
        prune_dir(tmp_path, 3)
        for key in keys[:3]:
            assert not cache._path(key).exists()
        for key in keys[3:]:
            assert cache.get(key) is not None

    def test_prune_dir_missing_directory(self, tmp_path):
        prune_dir(tmp_path / "nope", 1)
        assert not (tmp_path / "nope").exists()


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
