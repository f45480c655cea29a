"""Property-based tests for the on-disk result cache and spec hashing.

Hypothesis drives three invariants the cache's correctness rests on:
random specs round-trip ``store -> load`` unchanged, the content hash is
invariant under dictionary key ordering, and a package-version bump
invalidates every entry.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec import ResultCache, SimJobSpec, canonical_json, matmul_spec
from repro.machine import ExecutionMode, PrototypeConfig

MODES = (ExecutionMode.SERIAL, ExecutionMode.SIMD, ExecutionMode.SMIMD,
         ExecutionMode.MIMD)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def specs(draw):
    mode = draw(st.sampled_from(MODES))
    p = 1 if mode is ExecutionMode.SERIAL else draw(st.sampled_from((1, 4, 8)))
    n = p * draw(st.sampled_from((1, 2, 4, 16)))
    return matmul_spec(
        mode, n, p,
        added_multiplies=draw(st.integers(min_value=0, max_value=16)),
        engine=draw(st.sampled_from(("micro", "macro"))),
        seed=draw(st.integers(min_value=0, max_value=2 ** 31 - 1)),
        b_max=draw(st.sampled_from((None, 16, 256))),
    )


json_scalars = (st.integers(min_value=-2 ** 53, max_value=2 ** 53)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.booleans()
                | st.text(max_size=20))

payloads = st.dictionaries(
    st.text(min_size=1, max_size=10),
    json_scalars | st.lists(json_scalars, max_size=4)
    | st.dictionaries(st.text(min_size=1, max_size=10), json_scalars,
                      max_size=4),
    min_size=1,
    max_size=6,
)


def _scramble(obj):
    """Rebuild nested dicts with reversed key insertion order."""
    if isinstance(obj, dict):
        return {k: _scramble(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_scramble(x) for x in obj]
    return obj


@SETTINGS
@given(spec=specs(), payload=payloads)
def test_store_load_round_trip(tmp_path, spec, payload):
    cache = ResultCache(tmp_path, version="1.0")
    cache.store(spec, payload)
    assert cache.load(spec) == payload


@SETTINGS
@given(spec=specs())
def test_content_hash_invariant_under_key_ordering(spec):
    scrambled = SimJobSpec.from_dict(_scramble(spec.to_dict()))
    assert scrambled.content_hash == spec.content_hash
    assert canonical_json(spec.to_dict()) == canonical_json(
        _scramble(spec.to_dict()))


@SETTINGS
@given(spec=specs(), payload=payloads)
def test_version_bump_invalidates(tmp_path, spec, payload):
    old = ResultCache(tmp_path, version="1.0")
    old.store(spec, payload)
    bumped = ResultCache(tmp_path, version="2.0")
    assert bumped.load(spec) is None
    # and the old generation is still intact
    assert old.load(spec) == payload


def test_default_version_is_package_version(tmp_path):
    from repro import __version__

    cache = ResultCache(tmp_path)
    assert cache.version == __version__
    assert cache.dir == tmp_path / __version__


def test_corrupt_entry_is_a_miss_then_repaired(tmp_path):
    spec = matmul_spec(ExecutionMode.SIMD, 16, 4)
    cache = ResultCache(tmp_path, version="1.0")
    cache.store(spec, {"cycles": 1.0})
    path = cache.entry_path(spec)
    path.write_text("{not json")
    assert cache.load(spec) is None
    cache.store(spec, {"cycles": 2.0})
    assert cache.load(spec) == {"cycles": 2.0}


def test_entry_with_wrong_version_field_is_a_miss(tmp_path):
    spec = matmul_spec(ExecutionMode.SIMD, 16, 4)
    cache = ResultCache(tmp_path, version="1.0")
    cache.store(spec, {"cycles": 1.0})
    path = cache.entry_path(spec)
    entry = json.loads(path.read_text())
    entry["version"] = "0.9"
    path.write_text(json.dumps(entry))
    assert cache.load(spec) is None


def test_len_and_clear(tmp_path):
    cache = ResultCache(tmp_path, version="1.0")
    assert len(cache) == 0
    for m in range(3):
        cache.store(matmul_spec(ExecutionMode.SIMD, 16, 4,
                                added_multiplies=m), {"m": m})
    assert len(cache) == 3
    cache.clear()
    assert len(cache) == 0
    assert cache.load(matmul_spec(ExecutionMode.SIMD, 16, 4)) is None


def test_env_var_sets_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    cache = ResultCache(version="1.0")
    cache.store(matmul_spec(ExecutionMode.SIMD, 16, 4), {"x": 1})
    assert (tmp_path / "alt").exists()


def test_stored_entry_records_spec_for_inspection(tmp_path):
    spec = matmul_spec(ExecutionMode.MIMD, 64, 4, added_multiplies=9)
    cache = ResultCache(tmp_path, version="1.0")
    cache.store(spec, {"cycles": 5.0})
    entry = json.loads(cache.entry_path(spec).read_text())
    assert entry["spec"] == spec.to_dict()
    assert SimJobSpec.from_dict(entry["spec"]) == spec


# ---------------------------------------------------------------------------
# LRU size cap (--cache-max-mb / $REPRO_CACHE_MAX_MB)
#
# Eviction recency is the sqlite index's last_access column — never the
# file atime, which noatime/relatime mounts freeze or lazily update.
# These tests therefore stamp recency through the store API, and the
# regression test below pins file atimes in the *opposite* order to
# prove the filesystem cannot influence eviction.
# ---------------------------------------------------------------------------
import os  # noqa: E402

from repro.errors import ConfigurationError  # noqa: E402
from repro.exec import resolve_cache_max_bytes  # noqa: E402


def _spec(m):
    return matmul_spec(ExecutionMode.SIMD, 16, 4, added_multiplies=m)


def _set_access(cache, spec, when):
    cache.backend.set_last_access(spec.content_hash, when)


class TestCacheMaxResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "100")
        assert resolve_cache_max_bytes(2) == 2 * 1024 * 1024

    def test_env_fallback_and_unbounded_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert resolve_cache_max_bytes(None) is None
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.5")
        assert resolve_cache_max_bytes(None) == 512 * 1024

    def test_bad_values_name_their_source(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="--cache-max-mb"):
            resolve_cache_max_bytes("lots")
        with pytest.raises(ConfigurationError, match="positive"):
            resolve_cache_max_bytes(0)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "huge")
        with pytest.raises(ConfigurationError, match="REPRO_CACHE_MAX_MB"):
            resolve_cache_max_bytes(None)


class TestLruEviction:
    def test_store_evicts_oldest_access_first(self, tmp_path):
        """Regression (noatime mounts): eviction follows the index's
        last_access column, touched in a controlled order here, even
        when every file atime says the opposite."""
        cache = ResultCache(tmp_path, version="1.0", max_mb=1)
        for m in range(4):
            cache.store(_spec(m), {"m": m})
        entry_size = cache.entry_path(_spec(0)).stat().st_size
        # Stamp distinct access times: entry 2 oldest, then 0, 1, 3.
        for m, age in ((2, 100), (0, 200), (1, 300), (3, 400)):
            _set_access(cache, _spec(m), age)
        # Adversarial filesystem: atimes claim the REVERSE recency
        # (entry 2 "newest").  A frozen or scrambled atime — what
        # noatime mounts produce — must not change the outcome.
        for m, age in ((2, 4000), (0, 3000), (1, 2000), (3, 1000)):
            os.utime(cache.entry_path(_spec(m)), (age, age))
        # Cap to exactly two entries' worth: the two oldest must go.
        evicted = cache.prune(max_bytes=2 * entry_size)
        assert evicted == 2
        assert cache.load(_spec(2)) is None
        assert cache.load(_spec(0)) is None
        assert cache.load(_spec(1)) == {"m": 1}
        assert cache.load(_spec(3)) == {"m": 3}

    def test_load_refreshes_recency_and_protects_entry(self, tmp_path):
        cache = ResultCache(tmp_path, version="1.0", max_mb=1)
        for m in range(3):
            cache.store(_spec(m), {"m": m})
            _set_access(cache, _spec(m), 100 + m)
        entry_size = cache.entry_path(_spec(0)).stat().st_size
        # A hit on the oldest entry must move it to the young end —
        # via the index column, not os.utime (pin atimes to prove it).
        assert cache.load(_spec(0)) == {"m": 0}
        for m in range(3):
            os.utime(cache.entry_path(_spec(m)), (50, 50))
        assert cache.prune(max_bytes=2 * entry_size) == 1
        assert cache.load(_spec(1)) is None  # now the oldest: evicted
        assert cache.load(_spec(0)) == {"m": 0}

    def test_store_prunes_automatically_under_cap(self, tmp_path):
        spec = _spec(0)
        probe = ResultCache(tmp_path, version="1.0")
        probe.store(spec, {"m": 0})
        entry_size = probe.entry_path(spec).stat().st_size
        probe.clear()
        cap_mb = (2.5 * entry_size) / (1024 * 1024)
        cache = ResultCache(tmp_path, version="1.0", max_mb=cap_mb)
        for m in range(6):
            cache.store(_spec(m), {"m": m})
            _set_access(cache, _spec(m), 100 + m)
        assert cache.size_bytes() <= cache.max_bytes
        assert len(cache) == 2
        # Youngest survivors only.
        assert cache.load(_spec(5)) == {"m": 5}

    def test_prune_spans_versions_and_skips_races(self, tmp_path):
        old = ResultCache(tmp_path, version="0.9")
        new = ResultCache(tmp_path, version="1.0", max_mb=1)
        old.store(_spec(0), {"gen": "old"})
        new.store(_spec(0), {"gen": "new"})
        _set_access(old, _spec(0), 100)  # dead generation, oldest access
        _set_access(new, _spec(0), 200)
        entry_size = new.entry_path(_spec(0)).stat().st_size
        assert new.prune(max_bytes=entry_size) >= 1
        assert old.load(_spec(0)) is None
        assert new.load(_spec(0)) == {"gen": "new"}

    def test_prune_tolerates_corrupt_and_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path, version="1.0", max_mb=1)
        cache.store(_spec(0), {"m": 0})
        (tmp_path / "1.0" / "garbage.json").write_text("{not json")
        (tmp_path / "README.txt").write_text("not an entry")
        _set_access(cache, _spec(0), 100)
        # Unindexed foreign files fall back to mtime for ordering.
        os.utime(tmp_path / "1.0" / "garbage.json", (50, 50))
        # Corrupt entries are counted, evictable, and never fatal.
        assert cache.size_bytes() > 0
        assert cache.prune(max_bytes=1) >= 1
        assert cache.prune(max_bytes=10 ** 9) == 0  # under cap: no-op

    def test_unbounded_cache_never_prunes(self, tmp_path):
        cache = ResultCache(tmp_path, version="1.0")
        assert cache.max_bytes is None
        for m in range(5):
            cache.store(_spec(m), {"m": m})
        assert cache.prune() == 0
        assert len(cache) == 5

    def test_env_var_bounds_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.25")
        cache = ResultCache(tmp_path, version="1.0")
        assert cache.max_bytes == 256 * 1024
