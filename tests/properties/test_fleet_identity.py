"""Fleet invariance battery: a multi-replica fleet is byte-identical to
a single ``GenerationService`` -- for every replica count, every request
interleaving, and across an ``@latest`` flip.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import DoppelGANger
from repro.serve import Fleet, ModelRegistry, ServeClient, Server
from tests.conftest import tiny_dg_config
from tests.serve.conftest import assert_datasets_identical


@pytest.fixture(scope="module")
def fleet_world(tiny_gcut, tmp_path_factory):
    """Two model versions, the first published to a registry."""
    v1 = DoppelGANger(tiny_gcut.schema, tiny_dg_config(iterations=6))
    v1.fit(tiny_gcut)
    v2 = DoppelGANger(tiny_gcut.schema, tiny_dg_config(iterations=4))
    v2.fit(tiny_gcut)
    registry = ModelRegistry(tmp_path_factory.mktemp("fleet-reg"))
    registry.publish("wwt", v1)
    return SimpleNamespace(registry=registry, v1=v1, v2=v2)


def _direct(model, n, seed):
    return model.generate(n, rng=np.random.default_rng(seed))


#: (spec, n, seed) requests covering alias forms, repeated seeds, and
#: n values that straddle the tiny model's batch size.
REQUESTS = [("wwt", 5, 0), ("wwt@latest", 9, 1), ("wwt@1", 16, 2),
            ("wwt", 3, 3), ("wwt@latest", 7, 0), ("wwt@1", 12, 5),
            ("wwt", 20, 6), ("wwt@latest", 1, 7)]


@pytest.mark.parametrize("replicas", [1, 2, 4])
def test_fleet_identity_per_replica_count(fleet_world, replicas):
    """Every reply equals direct generation, at any replica count."""
    with Fleet(fleet_world.registry, replicas=replicas,
               model_cache=2) as fleet:
        with Server(fleet) as server:
            host, port = server.address
            with ServeClient(host, port, timeout=120) as client:
                for spec, n, seed in REQUESTS:
                    assert_datasets_identical(
                        client.generate(spec, n, seed=seed),
                        _direct(fleet_world.v1, n, seed))


def test_fleet_identity_across_interleavings(fleet_world):
    """Request order and concurrency never change any response."""
    with Fleet(fleet_world.registry, replicas=2, model_cache=2) as fleet:
        with Server(fleet) as server:
            host, port = server.address
            # Sequential, in three deterministically shuffled orders.
            for ordering_seed in range(3):
                order = np.random.default_rng(ordering_seed).permutation(
                    len(REQUESTS))
                with ServeClient(host, port, timeout=120) as client:
                    for i in order:
                        spec, n, seed = REQUESTS[int(i)]
                        assert_datasets_identical(
                            client.generate(spec, n, seed=seed),
                            _direct(fleet_world.v1, n, seed))
            # Fully concurrent: one thread per request.
            results: dict[int, object] = {}

            def issue(i, spec, n, seed):
                with ServeClient(host, port, timeout=120) as client:
                    results[i] = client.generate(spec, n, seed=seed)

            threads = [threading.Thread(target=issue,
                                        args=(i, *REQUESTS[i]))
                       for i in range(len(REQUESTS))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            for i, (spec, n, seed) in enumerate(REQUESTS):
                assert_datasets_identical(results[i],
                                          _direct(fleet_world.v1, n, seed))


def test_fleet_identity_across_latest_flip(fleet_world):
    """A mid-run ``@latest`` upgrade flips new requests to v2 bytes while
    pinned ``@1`` requests keep returning v1 bytes -- zero downtime."""
    with Fleet(fleet_world.registry, replicas=2, model_cache=2) as fleet:
        with Server(fleet) as server:
            host, port = server.address
            with ServeClient(host, port, timeout=120) as client:
                assert_datasets_identical(
                    client.generate("wwt@latest", 6, seed=9),
                    _direct(fleet_world.v1, 6, 9))
                record = fleet_world.registry.publish("wwt",
                                                      fleet_world.v2)
                assert record.version == 2
                # Not yet re-pinned: @latest still serves v1.
                assert_datasets_identical(
                    client.generate("wwt@latest", 6, seed=9),
                    _direct(fleet_world.v1, 6, 9))
                aliases = client.reload_models()
                assert aliases["wwt@latest"] == "wwt@2"
                assert_datasets_identical(
                    client.generate("wwt@latest", 6, seed=9),
                    _direct(fleet_world.v2, 6, 9))
                # The pinned old version is still served, byte-identical.
                assert_datasets_identical(
                    client.generate("wwt@1", 6, seed=9),
                    _direct(fleet_world.v1, 6, 9))
