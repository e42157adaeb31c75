"""Serving determinism: served output is byte-identical to direct
generation, however many requests run concurrently."""

import threading

import numpy as np
import pytest

from repro.core import DoppelGANger
from repro.serve import MicroBatcher, ServeClient, GenerationService, Server
from tests.conftest import tiny_dg_config


@pytest.fixture(scope="module")
def served_model(tiny_gcut):
    model = DoppelGANger(tiny_gcut.schema, tiny_dg_config(iterations=6))
    model.fit(tiny_gcut)
    return model


def _identical(a, b):
    assert np.array_equal(a.attributes, b.attributes)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.lengths, b.lengths)


def test_coalesced_requests_match_direct_generation(served_model):
    """Eight concurrent seeds through one batcher == eight direct calls."""
    results = {}
    with MicroBatcher(served_model) as batcher:
        def request(seed):
            results[seed] = batcher.generate(11 + seed, seed=seed)

        threads = [threading.Thread(target=request, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert sorted(results) == list(range(8))
    for seed, served in results.items():
        _identical(served,
                   served_model.generate(11 + seed,
                                         rng=np.random.default_rng(seed)))


def test_socket_serving_matches_direct_generation(served_model):
    """The full transport stack preserves the bytes under load."""
    service = GenerationService({"m@1": served_model})
    with Server(service) as server:
        host, port = server.address
        results = {}

        def request(seed):
            with ServeClient(host, port) as client:
                results[seed] = client.generate("m@1", 17, seed=seed)

        threads = [threading.Thread(target=request, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    for seed, served in results.items():
        _identical(served,
                   served_model.generate(17,
                                         rng=np.random.default_rng(seed)))


def test_save_bytes_roundtrip_preserves_served_output(served_model):
    """Publish-shaped roundtrip (save_bytes/load_bytes) is inert."""
    clone = DoppelGANger.load_bytes(served_model.save_bytes())
    with MicroBatcher(clone) as batcher:
        served = batcher.generate(13, seed=21)
    _identical(served,
               served_model.generate(13, rng=np.random.default_rng(21)))
