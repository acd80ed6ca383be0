"""Tests for the on-disk result cache: keying, invalidation, corruption."""

import shutil
from pathlib import Path

import repro
from repro.harness import configs
from repro.harness.cache import (ResultCache, canonical_params,
                                 default_cache_dir, run_key,
                                 source_version_token, tree_token)
from repro.harness.runner import RunResult


def _result(config="ideal-32") -> RunResult:
    return RunResult(workload="twolf", config=config, ipc=1.5,
                     cycles=1000, instructions=1500,
                     stats={"iq.dispatched": 1500.0})


class TestKeys:
    def test_identical_params_share_a_key(self):
        a = run_key("twolf", configs.ideal(32), max_instructions=500)
        b = run_key("twolf", configs.ideal(32), max_instructions=500)
        assert a == b

    def test_any_param_field_changes_the_key(self):
        base = run_key("twolf", configs.ideal(32), max_instructions=500)
        assert run_key("twolf", configs.ideal(64),
                       max_instructions=500) != base
        assert run_key("swim", configs.ideal(32),
                       max_instructions=500) != base
        assert run_key("twolf", configs.ideal(32),
                       max_instructions=501) != base
        assert run_key("twolf", configs.ideal(32), max_instructions=500,
                       warm_code=False) != base
        deeper = configs.ideal(32).replace(rob_factor=5)
        assert run_key("twolf", deeper, max_instructions=500) != base

    def test_source_token_changes_the_key(self):
        a = run_key("twolf", configs.ideal(32), token="aaaa")
        b = run_key("twolf", configs.ideal(32), token="bbbb")
        assert a != b
        # The default token is derived from the package sources.
        assert len(source_version_token()) == 16

    def test_edit_to_the_c_kernels_alone_changes_the_token(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, root,
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
        assert tree_token(root) == source_version_token()
        source = root / "core" / "segmented" / "_ckernels.c"
        source.write_text(source.read_text() + "/* edited */\n")
        assert tree_token(root) != source_version_token()

    def test_canonical_params_is_construction_independent(self):
        assert canonical_params(configs.ideal(32)) == \
            canonical_params(configs.ideal(32))

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("twolf", configs.ideal(32), max_instructions=500)
        assert cache.get(key) is None
        cache.put(key, _result())
        hit = cache.get(key)
        assert hit is not None
        assert hit.ipc == 1.5 and hit.stats["iq.dispatched"] == 1500.0
        assert cache.hits == 1 and cache.misses == 1

    def test_token_invalidation_misses(self, tmp_path):
        old = ResultCache(tmp_path, token="old-source")
        key = old.key_for("twolf", configs.ideal(32))
        old.put(key, _result())
        new = ResultCache(tmp_path, token="new-source")
        assert new.get(new.key_for("twolf", configs.ideal(32))) is None

    def test_corrupt_entry_discarded_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("twolf", configs.ideal(32))
        cache.put(key, _result())
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not path.exists()        # dropped, not left to fail again
        cache.put(key, _result())
        assert cache.get(key) is not None

    def test_wrong_schema_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("twolf", configs.ideal(32))
        cache.put(key, _result())
        text = cache._path(key).read_text().replace(
            '"schema": 1', '"schema": 999')
        cache._path(key).write_text(text)
        assert cache.get(key) is None
        assert cache.evictions == 1

    def test_disabled_cache_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        key = cache.key_for("twolf", configs.ideal(32))
        cache.put(key, _result())
        assert cache.get(key) is None
        assert list(tmp_path.iterdir()) == []
        assert cache.hits == 0 and cache.misses == 0
