"""Transport: TCP_NODELAY on every serving socket, small-request latency,
per-stage request timing, and a structural check of block planning."""

import socket
import statistics
import threading
import time

import pytest

from repro.observability import metrics as obs_metrics
from repro.serve import Fleet, ModelRegistry, ServeClient, Server
from repro.serve.protocol import FLEET_STAGES, SERVE_STAGES
from repro.serve.server import GenerationService


def _nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


@pytest.fixture
def service(trained_dg_gcut):
    svc = GenerationService({"gcut@1": trained_dg_gcut})
    yield svc
    svc.close(drain=False)


class TestNoDelay:
    def test_accepted_and_client_sockets(self, service):
        with Server(service) as server:
            with ServeClient(*server.address) as client:
                assert client.ping()
                assert _nodelay(client._sock) == 1
                with server._conn_lock:
                    accepted = list(server._threads)
                assert len(accepted) == 1
                assert _nodelay(accepted[0]) == 1

    def test_pooled_router_to_replica_client(self, tmp_path,
                                             trained_dg_gcut):
        registry = ModelRegistry(tmp_path / "reg")
        spec = registry.publish("gcut", trained_dg_gcut).spec
        metrics = obs_metrics.MetricsRegistry()
        with obs_metrics.use(metrics):
            with Fleet(registry, replicas=1, model_cache=1) as fleet, \
                    Server(fleet) as server, \
                    ServeClient(*server.address) as client:
                for seed in range(3):
                    client.generate(spec, 4, seed=seed)
                pooled = fleet._handles[0]._clients
                assert pooled
                assert all(_nodelay(c._sock) == 1 for c in pooled)
                stats = client.stats()
        # The router times its own stages and surfaces them in stats.
        for stage in FLEET_STAGES:
            name = f"fleet.stage_seconds.{stage}"
            assert stats["metrics"]["histograms"][name]["count"] == 3
            assert metrics.dump()["histograms"][name]["count"] == 3


def test_small_request_round_trip_is_not_stalled(service):
    """An idle n=16 request must not wait out a delayed ACK (~40 ms)."""
    with Server(service) as server, \
            ServeClient(*server.address) as client:
        client.generate("gcut@1", 16, seed=1000)  # warm the block plans
        latencies = []
        for seed in range(25):
            started = time.perf_counter()
            client.generate("gcut@1", 16, seed=seed)
            latencies.append(time.perf_counter() - started)
    assert statistics.median(latencies) < 0.015, latencies


def test_stage_histograms_cover_each_request(trained_dg_gcut):
    metrics = obs_metrics.MetricsRegistry()
    with obs_metrics.use(metrics):
        service = GenerationService({"gcut@1": trained_dg_gcut})
        server = Server(service)
        with ServeClient(*server.address) as client:
            for seed in range(20):
                client.generate("gcut@1", 16, seed=seed)
        # Joins the handlers, which observe after writing the response.
        server.shutdown(drain=True)
    histograms = metrics.dump()["histograms"]
    prefix = "serve.stage_seconds."
    stages = {name[len(prefix):]: hist for name, hist in histograms.items()
              if name.startswith(prefix)}
    assert set(stages) == set(SERVE_STAGES)
    assert all(hist["count"] == 20 for hist in stages.values())
    request = histograms["serve.request_seconds"]
    assert request["count"] == 20
    # The stages tile the server's first-byte-to-last-byte time.
    covered = sum(hist["total"] for hist in stages.values())
    assert covered <= request["total"]
    assert covered >= 0.9 * request["total"], (covered, request["total"])


def test_model_passes_per_request(trained_dg_gcut):
    """Batching is structural: an n=16 request is one model pass,
    however many clients share the server."""
    metrics = obs_metrics.MetricsRegistry()
    errors = []
    with obs_metrics.use(metrics):
        service = GenerationService({"gcut@1": trained_dg_gcut})
        with Server(service) as server:
            def request(seed):
                try:
                    with ServeClient(*server.address) as client:
                        client.generate("gcut@1", 16, seed=seed)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=request, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        service.close()
    assert not errors
    counters = metrics.dump()["counters"]
    assert counters["serve.completed"] == 8
    assert counters["serve.model_passes"] == counters["serve.completed"]
