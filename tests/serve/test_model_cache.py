"""Per-worker model cache: LRU eviction under pressure, byte-identical
evict-and-reload, and hit/miss/eviction counters through both the
cache's own stats and the observability layer.
"""

import numpy as np
import pytest

from repro.observability import metrics as obs_metrics
from repro.serve import InProcessClient, ModelRegistry
from repro.serve.fleet import ModelCache, ReplicaService
from tests.serve.conftest import assert_datasets_identical


@pytest.fixture()
def registry(trained_dg_gcut, tmp_path):
    """Three names over the same trained model (content addressing
    shares one blob; each name is a distinct cache entry)."""
    registry = ModelRegistry(tmp_path / "reg")
    for name in ("alpha", "beta", "gamma"):
        registry.publish(name, trained_dg_gcut)
    return registry


def _generate(batcher, n, seed):
    return batcher.generate(n, seed=seed)


def test_lru_eviction_with_three_hot_models(registry, trained_dg_gcut):
    """Capacity 2, three hot models: the LRU entry is evicted, and the
    evicted model reloads from the registry byte-identically."""
    cache = ModelCache(registry, capacity=2)
    direct = trained_dg_gcut.generate(6, rng=np.random.default_rng(3))

    first = _generate(cache.get("alpha@1"), 6, 3)
    cache.get("beta@1")
    assert cache.specs() == ["alpha@1", "beta@1"]

    cache.get("alpha@1")  # refresh alpha: beta becomes LRU
    cache.get("gamma@1")  # evicts beta
    assert cache.specs() == ["alpha@1", "gamma@1"]
    assert cache.stats()["evictions"] == 1

    # Reload the evicted model: a fresh miss, byte-identical output.
    reloaded = _generate(cache.get("beta@1"), 6, 3)
    assert_datasets_identical(reloaded, direct)
    assert_datasets_identical(first, direct)
    assert cache.specs() == ["gamma@1", "beta@1"]  # alpha evicted now

    stats = cache.stats()
    assert stats["capacity"] == 2
    assert stats["cached"] == 2
    assert stats["hits"] == 1          # the alpha refresh
    assert stats["misses"] == 4        # alpha, beta, gamma, beta again
    assert stats["evictions"] == 2     # beta, then alpha
    cache.close()


def test_cache_counters_reach_the_observability_layer(registry):
    """serve.cache.{hits,misses,evictions} are collected when a metrics
    registry is installed."""
    with obs_metrics.use(obs_metrics.MetricsRegistry()) as collected:
        cache = ModelCache(registry, capacity=2)
        cache.get("alpha")         # miss (alias of alpha@1)
        cache.get("alpha@1")       # hit: same canonical spec
        cache.get("beta@1")        # miss
        cache.get("gamma@latest")  # miss + evicts alpha@1
        cache.close()
    counters = collected.dump()["counters"]
    assert counters["serve.cache.hits"] == 1
    assert counters["serve.cache.misses"] == 3
    assert counters["serve.cache.evictions"] == 1


def test_replica_service_serves_through_the_cache(registry,
                                                  trained_dg_gcut):
    """The full service path (validation, dispatch, error mapping)
    works over lazy cache loads, and the stats op exposes the cache."""
    service = ReplicaService(registry, model_cache=2)
    client = InProcessClient(service)
    direct = trained_dg_gcut.generate(5, rng=np.random.default_rng(8))
    try:
        for spec in ("alpha", "beta@1", "gamma@latest", "alpha@1"):
            assert_datasets_identical(client.generate(spec, 5, seed=8),
                                      direct)
        stats = client.stats()
        assert stats["cache"]["capacity"] == 2
        assert stats["cache"]["cached"] == 2
        assert stats["cache"]["evictions"] >= 1
        # Unpublished specs still map to the protocol error.
        from repro.serve import ServeError
        with pytest.raises(ServeError) as err:
            client.generate("nope", 3, seed=0)
        assert err.value.code == "model_not_found"
    finally:
        service.close()


def test_eviction_race_is_retried_inside_handle(registry,
                                                trained_dg_gcut):
    """A batcher evicted between lookup and generate surfaces as a
    reload, not an error: force it by closing the looked-up batcher."""
    service = ReplicaService(registry, model_cache=2)
    client = InProcessClient(service)
    direct = trained_dg_gcut.generate(4, rng=np.random.default_rng(2))
    try:
        batcher = service.lookup("alpha@1")
        # Simulate the concurrent eviction: the cached batcher closes
        # but stays in the cache until the next get() replaces it.
        batcher.close(drain=True)
        with service.cache._lock:
            del service.cache._entries["alpha@1"]
        assert_datasets_identical(client.generate("alpha@1", 4, seed=2),
                                  direct)
    finally:
        service.close()
