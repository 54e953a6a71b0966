"""Artifact store: round-trips, corruption handling, atomicity, stats."""

import copy
import json
import pickle

import pytest

from repro import observe
from repro.errors import CacheError
from repro.resilience import faultplane
from repro.resilience.faultplane import FaultPlan
from repro.runtime import cache
from repro.runtime.cache import (
    ArtifactStore,
    QUARANTINE_DIR,
    STORE_FORMAT,
    default_store,
)

KEY_A = "a" * 64
KEY_B = "b" * 64


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get(self, store):
        payload = {"profile": {"name": "x"}, "n": 3}
        store.put(KEY_A, payload)
        assert store.get(KEY_A) == payload

    def test_miss_returns_none(self, store):
        assert store.get(KEY_A) is None
        assert store.stats.misses == 1

    def test_stats_track_traffic(self, store):
        store.put(KEY_A, {"v": 1})
        store.get(KEY_A)
        store.get(KEY_B)
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 1, "writes": 1, "invalid": 0,
            "quarantined": 0,
        }

    def test_sharded_layout(self, store):
        path = store.put(KEY_A, {"v": 1})
        assert path.parent.name == "aa"
        assert path.name == f"{KEY_A}.json"

    def test_overwrite_is_atomic_replace(self, store):
        store.put(KEY_A, {"v": 1})
        store.put(KEY_A, {"v": 2})
        assert store.get(KEY_A) == {"v": 2}
        assert len(store) == 1


class TestCorruption:
    def test_truncated_document_is_a_miss(self, store):
        path = store.put(KEY_A, {"v": 1})
        path.write_text(path.read_text()[:10])
        assert store.get(KEY_A) is None
        assert store.stats.invalid == 1

    def test_key_mismatch_is_a_miss(self, store):
        path = store.put(KEY_A, {"v": 1})
        moved = store.path_for(KEY_B)
        moved.parent.mkdir(parents=True, exist_ok=True)
        path.rename(moved)
        assert store.get(KEY_B) is None

    def test_wrong_envelope_format_is_a_miss(self, store):
        path = store.put(KEY_A, {"v": 1})
        document = json.loads(path.read_text())
        document["format"] = STORE_FORMAT + 1
        path.write_text(json.dumps(document))
        assert store.get(KEY_A) is None

    def test_malformed_key_rejected(self, store):
        with pytest.raises(CacheError):
            store.path_for("not-hex!")


class TestMaintenance:
    def test_clear_removes_everything(self, store):
        store.put(KEY_A, {"v": 1})
        store.put(KEY_B, {"v": 2})
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get(KEY_A) is None

    def test_len_on_missing_root(self, tmp_path):
        assert len(ArtifactStore(tmp_path / "never-created")) == 0


class TestDefaultStore:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        assert default_store().root == tmp_path / "envstore"

    def test_explicit_root_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        assert default_store(tmp_path / "mine").root == tmp_path / "mine"


class TestLru:
    """The handle's LRU of verified payloads."""

    def test_a_second_get_is_an_lru_hit(self, store):
        store.put(KEY_A, {"v": [1, 2]})
        observe.enable(reset=True)
        try:
            first = store.get(KEY_A)
            second = store.get(KEY_A)
            hits = observe.counter_value("cache.artifact.hits")
            lru_hits = observe.counter_value("cache.artifact.lru_hits")
        finally:
            observe.disable()
        assert first == second == {"v": [1, 2]}
        assert (hits, lru_hits) == (2, 1)
        assert store.stats.hits == 2

    def test_byte_bound_evicts_least_recently_used(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(cache, "LRU_MAX_BYTES", 300)
        store = ArtifactStore(tmp_path / "store")
        keys = [c * 64 for c in "abcd"]
        for key in keys:
            store.put(key, {"v": key[:40]})
        observe.enable(reset=True)
        try:
            for key in keys:
                assert store.get(key) == {"v": key[:40]}
            evictions = observe.counter_value("cache.artifact.lru_evictions")
        finally:
            observe.disable()
        assert 0 < store.lru.cost <= 300
        assert evictions == len(keys) - len(store.lru) > 0
        assert keys[0] not in store.lru and keys[-1] in store.lru

    def test_corrupt_document_is_never_admitted(self, store):
        path = store.put(KEY_A, {"v": 1})
        document = json.loads(path.read_text())
        document["payload"]["v"] = 2  # digest no longer matches
        path.write_text(json.dumps(document))
        assert store.get(KEY_A) is None
        assert KEY_A not in store.lru and len(store.lru) == 0
        assert store.stats.quarantined == 1

    def test_mutating_a_payload_cannot_change_a_later_hit(self, store):
        store.put(KEY_A, {"run": {"trace": [1, 2]}, "n": 3})
        store.get(KEY_A)  # admitted
        payload = store.get(KEY_A)  # an LRU hit
        mutations = [
            lambda: payload.__setitem__("n", 4),
            lambda: payload.update(n=4),
            lambda: payload.pop("n"),
            lambda: payload["run"].setdefault("x", 1),
            lambda: payload["run"]["trace"].append(3),
            lambda: payload["run"]["trace"].__setitem__(0, 9),
        ]
        for mutate in mutations:
            with pytest.raises(TypeError):
                mutate()
        mine = copy.deepcopy(payload)
        mine["run"]["trace"].append(3)
        assert store.get(KEY_A) == {"run": {"trace": [1, 2]}, "n": 3}
        # Worker transport and JSON see plain values.
        assert type(pickle.loads(pickle.dumps(payload))["run"]) is dict
        assert json.loads(json.dumps(payload)) == payload

    def test_fault_plan_reaches_the_disk_for_a_cached_key(self, store):
        path = store.put(KEY_A, {"v": 1})
        assert store.get(KEY_A) == {"v": 1}
        assert KEY_A in store.lru
        plan = FaultPlan(seed=0, schedule={"cache.read.corrupt": (1,)})
        with faultplane.installed(plan):
            assert store.get(KEY_A) is None
        assert not path.exists()
        assert (store.root / QUARANTINE_DIR / path.name).exists()
        assert store.stats.quarantined == 1
        assert KEY_A not in store.lru
        assert store.get(KEY_A) is None  # self-heals only through a put
