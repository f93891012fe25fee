"""Result cache: round-trips, key sensitivity, and corruption tolerance."""

import pickle

import pytest

import repro.perf.cache as cache_module
from repro.perf.cache import CACHE_DIR_ENV, ResultCache, code_fingerprint, default_cache_dir


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRoundTrip:
    def test_miss_returns_none(self, cache):
        assert cache.get(cache.key("figure5")) is None

    def test_put_then_get(self, cache):
        key = cache.key("figure5", {"method": "sim"})
        cache.put(key, {"payload": [1, 2, 3]})
        assert cache.get(key) == {"payload": [1, 2, 3]}


class TestKeys:
    def test_key_distinguishes_names(self, cache):
        assert cache.key("figure5") != cache.key("table1")

    def test_key_distinguishes_params(self, cache):
        assert cache.key("x", {"method": "sim"}) != cache.key("x", {"method": "analytic"})
        assert cache.key("x", {"servers": 3}) != cache.key("x", {"servers": 4})

    def test_key_ignores_param_order(self, cache):
        assert cache.key("x", {"a": 1, "b": 2}) == cache.key("x", {"b": 2, "a": 1})

    def test_key_changes_with_code_fingerprint(self, cache, monkeypatch):
        before = cache.key("figure5")
        monkeypatch.setattr(cache_module, "_FINGERPRINT", "0" * 64)
        assert cache.key("figure5") != before

    def test_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestRobustness:
    def test_corrupt_entry_treated_as_miss_and_removed(self, cache):
        key = cache.key("broken")
        cache.put(key, "good")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()

    def test_truncated_pickle_treated_as_miss(self, cache):
        key = cache.key("short")
        cache.put(key, list(range(100)))
        path = cache._path(key)
        path.write_bytes(pickle.dumps(list(range(100)))[:10])
        assert cache.get(key) is None

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultCache().directory == tmp_path / "elsewhere"
