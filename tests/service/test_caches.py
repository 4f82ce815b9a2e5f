"""Cache tier: LRU accounting, spec normalisation, and the warm
pipeline's stage-counter contract (a warm hit costs zero stages, a
what-if costs exactly one managed replay)."""

from __future__ import annotations

import pytest

from repro.service.caches import (
    LRUCache,
    SpecError,
    STAGES,
    WarmPipeline,
    cell_key,
    normalize_spec,
    spec_key,
)

pytestmark = pytest.mark.service


# -- LRUCache ---------------------------------------------------------


def test_lru_evicts_least_recently_used():
    cache = LRUCache("t", capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)  # evicts b, the stalest
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["size"] == 2


def test_lru_counters_and_hit_rate():
    cache = LRUCache("t", capacity=4)
    cache.put("k", "v")
    assert cache.get("k") == "v"
    assert cache.get("missing") is None
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["hit_rate_pct"] == 50.0


def test_lru_put_updates_in_place():
    cache = LRUCache("t", capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # update, not insert: no eviction
    assert cache.stats()["evictions"] == 0
    assert cache.get("a") == 10


# -- normalize_spec ---------------------------------------------------


def test_normalize_fills_defaults():
    spec = normalize_spec({"app": "alya", "nranks": 8})
    assert spec["seed"] == 1234
    assert spec["scaling"] == "strong"
    assert spec["kernel"] == "fast"
    assert spec["faults"] == "none"
    assert spec["iterations"] > 0


@pytest.mark.parametrize(
    "broken, match",
    [
        ({"nranks": 8}, "app"),
        ({"app": "nosuch", "nranks": 8}, "app"),
        ({"app": "alya"}, "nranks"),
        ({"app": "alya", "nranks": 1}, "nranks"),
        ({"app": "alya", "nranks": 8, "displacement": 1.0}, "displacement"),
        ({"app": "alya", "nranks": 8, "displacement": -0.1}, "displacement"),
        ({"app": "alya", "nranks": 8, "scaling": "sideways"}, "scaling"),
        ({"app": "alya", "nranks": 8, "kernel": "turbo"}, "kernel"),
        # a removed field fails as unknown, whatever its old value
        ({"app": "alya", "nranks": 8, "scheduler": "heap"}, "scheduler"),
        ({"app": "alya", "nranks": 8, "bogus": 1}, "bogus"),
    ],
)
def test_normalize_rejects_bad_specs(broken, match):
    with pytest.raises(SpecError, match=match):
        normalize_spec(broken)


def test_cell_key_ignores_displacement_only():
    a = normalize_spec({"app": "alya", "nranks": 8, "displacement": 0.1})
    b = normalize_spec({"app": "alya", "nranks": 8, "displacement": 0.7})
    assert cell_key(a) == cell_key(b)
    assert spec_key(a) != spec_key(b)
    c = normalize_spec({"app": "alya", "nranks": 8, "displacement": 0.1,
                        "topology": "torus:n=2"})
    assert cell_key(a) != cell_key(c)


# -- WarmPipeline stage counters --------------------------------------


def test_warm_pipeline_stage_contract():
    pipe = WarmPipeline(cell_capacity=2, result_capacity=8)
    spec = {"app": "alya", "nranks": 8, "displacement": 0.5,
            "iterations": 4}
    cold_payload, cold_ran = pipe.query(spec)
    assert cold_ran == list(STAGES)

    warm_payload, warm_ran = pipe.query(spec)
    assert warm_ran == []
    assert warm_payload == cold_payload

    _, whatif_ran = pipe.query({**spec, "displacement": 0.25})
    assert whatif_ran == ["managed_replay"]

    # bundle eviction: result cache still hits, so zero stages
    pipe.query({**spec, "topology": "torus:n=2"})
    pipe.query({**spec, "topology": "fattree2:leaf=8,ratio=4"})
    assert pipe.cells.stats()["evictions"] >= 1
    again, again_ran = pipe.query(spec)
    assert again_ran == []
    assert again == cold_payload


def test_rebuilt_bundle_reproduces_payload_bit_for_bit():
    # evict both the bundle AND the result: the full cold rebuild must
    # produce the identical payload (fingerprint included)
    pipe = WarmPipeline(cell_capacity=1, result_capacity=1)
    spec = {"app": "alya", "nranks": 8, "displacement": 0.5,
            "iterations": 4}
    first, _ = pipe.query(spec)
    pipe.query({**spec, "topology": "torus:n=2"})  # evicts everything
    second, second_ran = pipe.query(spec)
    assert second_ran == list(STAGES)
    assert second == first
