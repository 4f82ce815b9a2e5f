"""Cache tier: LRU accounting, spec normalisation, and the warm
pipeline's stage-counter contract (a warm hit costs zero stages, a
what-if costs exactly one managed replay)."""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass

import pytest

from repro.experiments.common import run_cell
from repro.workloads import PROCESS_COUNTS

from repro.service.caches import (
    MAX_ITERATIONS,
    MAX_NRANKS,
    LRUCache,
    SpecError,
    STAGES,
    WarmPipeline,
    _jsonable,
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
        ({"app": "alya", "nranks": 8, "iterations": "x"}, "iterations"),
        ({"app": "alya", "nranks": 8, "seed": [1]}, "seed"),
    ],
)
def test_normalize_rejects_bad_specs(broken, match):
    with pytest.raises(SpecError, match=match):
        normalize_spec(broken)


@pytest.mark.parametrize("broken, match", [
    ({"nranks": MAX_NRANKS + 1}, "nranks"),
    ({"iterations": MAX_ITERATIONS + 1}, "iterations"),
    ({"nranks": 10**9, "iterations": 10**9}, "nranks"),
])
def test_normalize_bounds_cell_size(broken, match):
    with pytest.raises(SpecError, match=match):
        normalize_spec({"app": "alya", "nranks": 8, **broken})


def test_bounds_admit_every_paper_cell():
    assert max(max(sizes) for sizes in PROCESS_COUNTS.values()) <= MAX_NRANKS
    spec = normalize_spec({"app": "alya", "nranks": MAX_NRANKS,
                           "iterations": MAX_ITERATIONS})
    assert (spec["nranks"], spec["iterations"]) == (MAX_NRANKS,
                                                    MAX_ITERATIONS)


def test_cell_key_ignores_displacement_only():
    a = normalize_spec({"app": "alya", "nranks": 8, "displacement": 0.1})
    b = normalize_spec({"app": "alya", "nranks": 8, "displacement": 0.7})
    assert cell_key(a) == cell_key(b)
    assert spec_key(a) != spec_key(b)
    c = normalize_spec({"app": "alya", "nranks": 8, "displacement": 0.1,
                        "topology": "torus:n=2"})
    assert cell_key(a) != cell_key(c)


@pytest.mark.parametrize("field, bad", [
    ("topology", "torus:bogus=3"),
    ("faults", "faults:horizon_us=inf"),
    ("policy", "policy:hca=gate:t_react_us=nan"),
])
def test_bad_spec_strings_are_spec_errors_on_a_miss(field, bad):
    pipe = WarmPipeline(cell_capacity=1, result_capacity=1)
    with pytest.raises(SpecError):
        pipe.query({"app": "alya", "nranks": 8, field: bad})
    assert sum(pipe.stage_runs.values()) == 0  # failed before any stage


def test_a_result_hit_parses_no_spec_string(monkeypatch):
    import repro.service.caches as caches

    checked = []
    real = caches.check_spec_strings
    monkeypatch.setattr(
        caches, "check_spec_strings",
        lambda spec: (checked.append(spec), real(spec)),
    )
    pipe = WarmPipeline(cell_capacity=1, result_capacity=2)
    spec = {"app": "alya", "nranks": 8, "displacement": 0.5,
            "iterations": 4}
    pipe.query(spec)
    pipe.query(spec)
    assert len(checked) == 1


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

    # cell eviction: result cache still hits, so zero stages
    pipe.query({**spec, "topology": "torus:n=2"})
    pipe.query({**spec, "topology": "fattree2:leaf=8,ratio=4"})
    assert pipe.cells.stats()["evictions"] >= 1
    again, again_ran = pipe.query(spec)
    assert again_ran == []
    assert again == cold_payload


def test_rebuilt_bundle_reproduces_payload_bit_for_bit():
    # evict both the cell AND the result: the full cold rebuild must
    # produce the identical payload (fingerprint included)
    pipe = WarmPipeline(cell_capacity=1, result_capacity=1)
    spec = {"app": "alya", "nranks": 8, "displacement": 0.5,
            "iterations": 4}
    first, _ = pipe.query(spec)
    pipe.query({**spec, "topology": "torus:n=2"})  # evicts everything
    second, second_ran = pipe.query(spec)
    assert second_ran == list(STAGES)
    assert second == first


# -- cell_payload's dataclass walk ------------------------------------


def _jsonable_via_asdict(value):
    """The detail record's former walk: ``asdict`` first, then a walk
    of the copy."""

    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable_via_asdict(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable_via_asdict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_via_asdict(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@pytest.mark.parametrize("options", [
    {},
    {"policy": "policy:hca=width"},
    {"topology": "fattree2:leaf=8,ratio=4",
     "policy": "policy:hca=gate,trunk=width:levels=3,switch=gate"},
    {"faults": "faults:seed=7,link_fail=0.15,flap=0.2,degrade=0.2,"
               "wake_timeout=0.25,horizon_us=4000"},
], ids=["gate", "width", "trunk-switch", "faulted"])
def test_jsonable_walks_fields_like_asdict(options):
    cell = run_cell("alya", 8, iterations=4, displacements=(0.5,),
                    use_cache=False, **options)
    managed = cell.managed[0.5]
    parts = [managed.power, list(managed.counters),
             list(managed.class_savings), managed.faults]
    if "trunk" in options.get("policy", ""):
        assert {r.link_class for r in managed.class_savings} >= {
            "trunk", "switch"}
    if "faults" in options:
        assert managed.faults
    for part in parts:
        got = _jsonable(part)
        want = _jsonable_via_asdict(part)
        assert got == want
        assert (json.dumps(got, sort_keys=True)
                == json.dumps(want, sort_keys=True))
