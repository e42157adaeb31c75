"""Socket server: framing, identity, backpressure, graceful drain."""

import io
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import protocol
from repro.serve.client import (InProcessClient, ServeClient, ServeError,
                                ServerBusy)
from repro.serve.registry import ModelNotFound, ModelRegistry
from repro.serve.server import GenerationService, Server
from tests.serve.conftest import assert_datasets_identical


@pytest.fixture
def service(trained_dg_gcut):
    svc = GenerationService({"gcut@1": trained_dg_gcut},
                            aliases={"gcut": "gcut@1",
                                     "gcut@latest": "gcut@1"})
    yield svc
    svc.close(drain=False)


@pytest.fixture
def server(service):
    with Server(service) as srv:
        yield srv


def _client(server) -> ServeClient:
    return ServeClient(*server.address)


class TestProtocol:
    def test_roundtrip(self):
        buffer = io.BytesIO()
        protocol.write_message(buffer, {"op": "ping"}, b"abc")
        buffer.seek(0)
        header, payload = protocol.read_message(buffer)
        assert header == {"op": "ping"}
        assert payload == b"abc"

    def test_clean_eof(self):
        with pytest.raises(EOFError):
            protocol.read_message(io.BytesIO())

    def test_truncated_frame(self):
        buffer = io.BytesIO()
        protocol.write_message(buffer, {"op": "ping"}, b"payload")
        data = buffer.getvalue()[:-3]
        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            protocol.read_message(io.BytesIO(data))

    def test_bad_magic(self):
        buffer = io.BytesIO()
        protocol.write_message(buffer, {"op": "ping"})
        data = b"XXXX" + buffer.getvalue()[4:]
        with pytest.raises(protocol.ProtocolError, match="magic"):
            protocol.read_message(io.BytesIO(data))

    def test_header_must_be_object(self):
        head = b'["not", "an", "object"]'
        frame = protocol._PREFIX.pack(protocol.MAGIC, protocol.VERSION,
                                      len(head), 0) + head
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.read_message(io.BytesIO(frame))

    def test_oversized_header_is_rejected(self):
        frame = protocol._PREFIX.pack(protocol.MAGIC, protocol.VERSION,
                                      protocol.MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(protocol.ProtocolError, match="cap"):
            protocol.read_message(io.BytesIO(frame))


class TestGenerateRoundtrip:
    def test_served_equals_direct(self, server, trained_dg_gcut):
        with _client(server) as client:
            served = client.generate("gcut@1", 21, seed=7)
        direct = trained_dg_gcut.generate(21,
                                          rng=np.random.default_rng(7))
        assert_datasets_identical(served, direct)

    def test_aliases_resolve(self, server, trained_dg_gcut):
        with _client(server) as client:
            a = client.generate("gcut", 5, seed=3)
            b = client.generate("gcut@latest", 5, seed=3)
        direct = trained_dg_gcut.generate(5, rng=np.random.default_rng(3))
        assert_datasets_identical(a, direct)
        assert_datasets_identical(b, direct)

    def test_ping_and_models(self, server):
        with _client(server) as client:
            assert client.ping()
            rows = client.models()
        assert rows[0]["spec"] == "gcut@1"
        assert "gcut" in rows[0]["aliases"]

    def test_concurrent_clients_each_identical(self, server,
                                               trained_dg_gcut):
        # 6 client threads x 2 sequential requests, seeds 0..11.
        served, errors = {}, []

        def issue(index):
            try:
                with _client(server) as client:
                    for i in range(2):
                        seed = index * 2 + i
                        served[seed] = client.generate("gcut", 10, seed)
            except ServeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=issue, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        assert sorted(served) == list(range(12))
        for seed, dataset in served.items():
            assert_datasets_identical(
                dataset, trained_dg_gcut.generate(
                    10, rng=np.random.default_rng(seed)))


class TestRequestValidation:
    @pytest.mark.parametrize("n", [-1, 1.5, "ten", True, None])
    def test_bad_n_raises_bad_request(self, server, n):
        with _client(server) as client:
            header, _ = client._call({"op": "generate", "model": "gcut",
                                      "n": n})
        assert header["code"] == protocol.ERR_BAD_REQUEST
        assert "non-negative integer" in header["error"]

    def test_bad_seed_raises_bad_request(self, server):
        with _client(server) as client:
            header, _ = client._call({"op": "generate", "model": "gcut",
                                      "n": 1, "seed": "lucky"})
        assert header["code"] == protocol.ERR_BAD_REQUEST

    def test_request_cap(self, trained_dg_gcut):
        service = GenerationService({"m@1": trained_dg_gcut},
                                    max_request_n=100)
        try:
            header, _ = service.handle({"op": "generate", "model": "m@1",
                                        "n": 101, "seed": 0})
            assert header["code"] == protocol.ERR_BAD_REQUEST
            assert "split" in header["error"]
        finally:
            service.close(drain=False)

    def test_negative_seed_is_a_bad_request(self, server):
        """A negative seed used to kill the handler thread inside
        ``default_rng`` and drop the connection without a response."""
        with _client(server) as client:
            header, _ = client._call({"op": "generate", "model": "gcut",
                                      "n": 1, "seed": -1})
            assert header["code"] == protocol.ERR_BAD_REQUEST
            assert header["error"] == "seed must be non-negative, got -1"
            assert client.ping()  # the connection survived

    def test_validator_is_shared_by_server_and_router(self):
        check = protocol.validate_generate
        assert check({"model": "m", "n": 3}, 10) == ("m", 3, 0)
        assert check({"model": "m", "n": 3, "seed": 5}, 10) == ("m", 3, 5)
        assert check({"n": 11}, 10) == ("n=11 exceeds the per-request "
                                         "cap of 10; split the request")
        assert check({"n": True}, 10) == ("n must be a non-negative "
                                          "integer, got True")
        assert check({"n": 1, "seed": 1.0}, 10) == ("seed must be an "
                                                    "integer, got 1.0")

    def test_unknown_model(self, server):
        with _client(server) as client:
            with pytest.raises(ServeError) as excinfo:
                client.generate("nope", 1, seed=0)
        assert excinfo.value.code == protocol.ERR_MODEL_NOT_FOUND

    def test_unknown_op(self, server):
        with _client(server) as client:
            header, _ = client._call({"op": "frobnicate"})
        assert header["code"] == protocol.ERR_BAD_REQUEST

    def test_malformed_stream_drops_connection(self, server):
        raw = socket.create_connection(server.address, timeout=10)
        raw.sendall(b"GET / HTTP/1.1\r\n\r\n")
        assert raw.recv(1024) == b""  # server hung up, no response bytes
        raw.close()
        # the server is still healthy for well-formed clients
        with _client(server) as client:
            assert client.ping()


class TestBackpressure:
    def test_busy_is_surfaced_through_the_socket(self, monkeypatch,
                                                 trained_dg_gcut):
        release = threading.Event()
        started = threading.Event()
        original = type(trained_dg_gcut)._generate_block

        def held(size, noise, cond):
            started.set()
            assert release.wait(20)
            return original(trained_dg_gcut, size, noise, cond)

        monkeypatch.setattr(trained_dg_gcut, "_generate_block", held)
        service = GenerationService({"m@1": trained_dg_gcut},
                                    max_queue_rows=40)
        try:
            with Server(service) as server:
                background = []
                for seed in (1, 2):
                    client = _client(server)
                    thread = threading.Thread(
                        target=client.generate, args=("m@1", 16, seed),
                        daemon=True)
                    thread.start()
                    background.append((client, thread))
                assert started.wait(10)
                # wait until both requests are admitted (16 + 16 rows);
                # only then is a 16-row probe guaranteed to be shed
                batcher = service.batchers["m@1"]
                for _ in range(200):
                    with batcher._lock:
                        if batcher._queued_rows >= 32:
                            break
                    time.sleep(0.01)
                else:
                    pytest.fail("queue never filled to the shed point")
                with _client(server) as probe:
                    with pytest.raises(ServerBusy) as excinfo:
                        probe.generate("m@1", 16, seed=3)
                assert excinfo.value.code == protocol.ERR_BUSY
                release.set()
                for client, thread in background:
                    thread.join(timeout=30)
                    client.close()
        finally:
            release.set()
            service.close(drain=False)


class TestDrain:
    def test_shutdown_completes_in_flight_then_refuses(
            self, monkeypatch, trained_dg_gcut):
        release = threading.Event()
        started = threading.Event()
        original = type(trained_dg_gcut)._generate_block

        def held(size, noise, cond):
            started.set()
            assert release.wait(20)
            return original(trained_dg_gcut, size, noise, cond)

        monkeypatch.setattr(trained_dg_gcut, "_generate_block", held)
        service = GenerationService({"m@1": trained_dg_gcut})
        server = Server(service)
        host, port = server.address
        result = {}

        def request():
            with ServeClient(host, port) as client:
                result["dataset"] = client.generate("m@1", 16, seed=4)

        requester = threading.Thread(target=request, daemon=True)
        requester.start()
        assert started.wait(10)

        shutter = threading.Thread(target=server.shutdown,
                                   kwargs={"drain": True}, daemon=True)
        shutter.start()
        # in-flight work must survive the shutdown request
        release.set()
        shutter.join(timeout=30)
        assert not shutter.is_alive()
        requester.join(timeout=30)
        assert_datasets_identical(
            result["dataset"],
            trained_dg_gcut.generate(16, rng=np.random.default_rng(4)))
        # the socket is closed once the drain finished
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)

    def test_handle_after_close_reports_shutting_down(self, service):
        service.close(drain=True)
        header, _ = service.handle({"op": "generate", "model": "gcut",
                                    "n": 1, "seed": 0})
        assert header["code"] == protocol.ERR_SHUTTING_DOWN


class TestConnectionBookkeeping:
    def test_finished_connections_are_forgotten(self, server):
        """Handlers drop their own entry, so closed connections leave no
        dead threads behind and shutdown has nothing stale to join."""
        for _ in range(200):
            with _client(server) as client:
                assert client.ping()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with server._conn_lock:
                if len(server._threads) <= 1:
                    break
            time.sleep(0.01)
        assert len(server._threads) <= 1
        started = time.monotonic()
        server.shutdown(drain=True)
        assert time.monotonic() - started < 5
        assert not server._threads


class TestThreads:
    def test_served_models_start_no_batcher_thread(self, trained_dg_gcut):
        """Each request runs on its caller's thread: serving three
        models starts no per-model worker."""
        before = set(threading.enumerate())
        service = GenerationService({f"m{i}@1": trained_dg_gcut
                                     for i in range(3)})
        try:
            client = InProcessClient(service)
            for spec in service.batchers:
                assert len(client.generate(spec, 4, seed=1)) == 4
            started = [thread.name for thread in threading.enumerate()
                       if thread not in before]
        finally:
            service.close()
        assert not [name for name in started
                    if name.startswith("repro-serve-batcher-")], started


class TestInProcessClient:
    def test_parity_with_socket(self, server, service, trained_dg_gcut):
        inproc = InProcessClient(service)
        with _client(server) as sock_client:
            via_socket = sock_client.generate("gcut", 9, seed=11)
        via_handle = inproc.generate("gcut", 9, seed=11)
        assert_datasets_identical(via_socket, via_handle)
        assert inproc.ping()
        assert inproc.models()[0]["spec"] == "gcut@1"


class TestFromRegistry:
    def test_latest_of_every_model_with_aliases(self, tmp_path,
                                                trained_dg_gcut):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish("gcut", trained_dg_gcut)
        service = GenerationService.from_registry(registry)
        try:
            assert set(service.batchers) == {"gcut@1"}
            assert service.aliases == {"gcut": "gcut@1",
                                       "gcut@latest": "gcut@1"}
        finally:
            service.close(drain=False)

    def test_empty_registry_is_an_error(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(ModelNotFound, match="no published models"):
            GenerationService.from_registry(registry)
