"""Protocol fuzzing: hostile bytes against a bare ``Server`` and a fleet
router never hang a listener, never crash it, and never produce anything
but a structured error frame or a dropped connection.

The corpus is derived deterministically from a seeded rng plus
systematic mutations of one known-good frame (every truncation point,
oversized length prefixes, bad magic/version, junk JSON), so failures
reproduce exactly.  A second corpus mutates the npz payload of a
``submit``: each hostile dataset archive gets ``bad_request``.
"""

import io
import json
import socket
import struct

import numpy as np
import pytest

from repro.data.dataset import TimeSeriesDataset
from repro.data.schema import schema_to_dict
from repro.data.simulators import generate_gcut
from repro.npz import write_npz
from repro.serve import (Fleet, GenerationService, ModelRegistry,
                         ServeClient, Server)
from repro.serve import protocol
from repro.serve.jobs import JobStore, JobSupervisor

_PREFIX = struct.Struct(">4sBIQ")


def _frame(header: dict, payload: bytes = b"") -> bytes:
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return (_PREFIX.pack(protocol.MAGIC, protocol.VERSION, len(head),
                         len(payload)) + head + payload)


def _raw_frame(magic: bytes, version: int, head_len: int,
               payload_len: int, body: bytes) -> bytes:
    return _PREFIX.pack(magic, version, head_len, payload_len) + body


def build_corpus() -> list[tuple[str, bytes]]:
    """Deterministic corpus of hostile byte strings (name, bytes)."""
    rng = np.random.default_rng(0)
    good = _frame({"op": "generate", "model": "m@1", "n": 4, "seed": 0})
    corpus: list[tuple[str, bytes]] = []
    # Truncations at every boundary of a valid frame.
    for cut in range(len(good)):
        corpus.append((f"truncated-at-{cut}", good[:cut]))
    # Length-prefix lies.
    head = b'{"op":"ping"}'
    corpus.append(("oversized-header-length",
                   _raw_frame(protocol.MAGIC, protocol.VERSION,
                              protocol.MAX_HEADER_BYTES + 1, 0, head)))
    corpus.append(("oversized-payload-length",
                   _raw_frame(protocol.MAGIC, protocol.VERSION,
                              len(head), protocol.MAX_PAYLOAD_BYTES + 1,
                              head)))
    corpus.append(("header-longer-than-sent",
                   _raw_frame(protocol.MAGIC, protocol.VERSION,
                              len(head) + 64, 0, head)))
    corpus.append(("payload-longer-than-sent",
                   _raw_frame(protocol.MAGIC, protocol.VERSION,
                              len(head), 1 << 16, head + b"x" * 7)))
    # Framing lies.
    corpus.append(("bad-magic",
                   _raw_frame(b"EVIL", protocol.VERSION, len(head), 0,
                              head)))
    corpus.append(("wrong-version",
                   _raw_frame(protocol.MAGIC, protocol.VERSION + 7,
                              len(head), 0, head)))
    # Junk headers inside well-formed framing.
    for junk in (b"not json at all", b'"a bare string"', b"[1,2,3]",
                 b'{"op": ', b"\xff\xfe\xfd\xfc"):
        corpus.append((f"junk-header-{junk[:8]!r}",
                       _raw_frame(protocol.MAGIC, protocol.VERSION,
                                  len(junk), 0, junk)))
    # Pure noise, deterministic lengths and bytes.
    for i, size in enumerate((1, 7, 17, 64, 257, 1024)):
        corpus.append((f"random-{i}",
                       rng.integers(0, 256, size=size,
                                    dtype=np.uint8).tobytes()))
    return corpus


UNKNOWN_OPS = [{"op": "evil"}, {"op": None}, {"op": 42}, {},
               {"op": "generate", "model": "m@1", "n": "lots"},
               {"op": "generate", "model": "m@1", "n": 4,
                "seed": "zero"}]


def _fire(address, blob: bytes) -> None:
    """Send hostile bytes; the connection must resolve within the
    timeout (response, or dropped) -- a hang fails the test."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.settimeout(10)
        sock.sendall(blob)
        sock.shutdown(socket.SHUT_WR)
        # Drain whatever comes back until EOF; raises on hang.
        while sock.recv(4096):
            pass


@pytest.fixture(scope="module")
def bare_server():
    service = GenerationService({})
    server = Server(service)
    yield server.address
    server.shutdown(drain=True)


@pytest.fixture(scope="module")
def fleet_server(tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("fuzz-reg"))
    fleet = Fleet(registry, replicas=1, model_cache=1)
    server = Server(fleet)
    yield server.address
    server.shutdown(drain=True)


@pytest.mark.parametrize("target", ["bare", "fleet"])
def test_corpus_never_hangs_and_listener_survives(target, bare_server,
                                                  fleet_server, request):
    address = bare_server if target == "bare" else fleet_server
    for name, blob in build_corpus():
        try:
            _fire(address, blob)
        except TimeoutError:  # pragma: no cover
            pytest.fail(f"corpus item {name} hung the connection")
    # The listener survived all of it.
    with ServeClient(*address, timeout=10) as client:
        assert client.ping()


@pytest.mark.parametrize("target", ["bare", "fleet"])
def test_unknown_ops_get_structured_errors(target, bare_server,
                                           fleet_server):
    address = bare_server if target == "bare" else fleet_server
    for header in UNKNOWN_OPS:
        with socket.create_connection(address, timeout=10) as sock:
            sock.settimeout(10)
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            protocol.write_message(wfile, header)
            response, payload = protocol.read_message(rfile)
            assert response["status"] == "error"
            assert response["code"] in (protocol.ERR_BAD_REQUEST,
                                        protocol.ERR_MODEL_NOT_FOUND)
            assert payload == b""
    with ServeClient(*address, timeout=10) as client:
        assert client.ping()


def test_interleaved_garbage_does_not_poison_other_connections(
        bare_server):
    """A connection mid-garbage never corrupts a parallel good one."""
    for _, blob in build_corpus()[:8]:
        bad = socket.create_connection(bare_server, timeout=10)
        try:
            bad.sendall(blob)
            with ServeClient(*bare_server, timeout=10) as client:
                assert client.ping()
        finally:
            bad.close()


def _payload_corpus() -> list[tuple[str, bytes]]:
    """Deterministic hostile ``submit`` payloads: broken archives and
    well-formed archives that do not hold a dataset."""
    data = generate_gcut(2, np.random.default_rng(0), max_length=4)
    good = data.to_bytes()
    arrays = {"attributes": data.attributes, "features": data.features,
              "lengths": data.lengths}
    schema = np.frombuffer(json.dumps(schema_to_dict(data.schema)).encode(),
                           np.uint8)

    def archive(**changes) -> bytes:
        return write_npz({"__schema__": schema, **arrays, **changes})

    corpus = [(f"truncated-at-{cut}", good[:cut])
              for cut in range(0, len(good), 97)]
    for offset in range(0, len(good), 53):
        flipped = bytearray(good)
        flipped[offset] ^= 0xFF
        try:
            TimeSeriesDataset.from_bytes(bytes(flipped))
        except ValueError:
            corpus.append((f"flipped-at-{offset}", bytes(flipped)))
    compressed = io.BytesIO()
    np.savez_compressed(compressed, __schema__=schema, **arrays)
    pickled = io.BytesIO()
    np.savez(pickled, __schema__=np.array([{"x": 1}], dtype=object),
             **arrays)
    renamed = bytearray(archive(extra=np.zeros(2)))
    for at in (i for i in range(len(renamed))
               if renamed[i:i + 9] == b"extra.npy"):
        renamed[at:at + 9] = b"lengths.n"
    corpus += [
        ("compressed", compressed.getvalue()),
        ("object-dtype", pickled.getvalue()),
        ("duplicate-names", bytes(renamed)),
        ("no-schema", write_npz(arrays)),
        ("schema-not-json", archive(
            __schema__=np.frombuffer(b"not json", np.uint8))),
        ("schema-a-list", archive(
            __schema__=np.frombuffer(b"[1, 2]", np.uint8))),
        ("schema-missing-keys", archive(
            __schema__=np.frombuffer(b'{"attributes": []}', np.uint8))),
        ("features-1d", archive(features=data.features.reshape(-1))),
        ("text-attributes", archive(attributes=np.array([["a", "b"]] * 2))),
        ("lengths-out-of-range", archive(lengths=np.array([0, 9]))),
        ("noise", np.random.default_rng(1).integers(
            0, 256, 600, dtype=np.uint8).tobytes()),
    ]
    return corpus


@pytest.fixture(scope="module")
def jobs_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-jobs")
    service = GenerationService({})
    # Never started: a hostile payload must be refused before a job is.
    service.attach_jobs(JobSupervisor(JobStore(root / "jobs"),
                                      root / "registry"))
    server = Server(service)
    yield server.address
    server.shutdown(drain=True)


def test_hostile_submit_payloads_get_bad_request(jobs_server):
    header = {"op": "submit", "name": "fuzz", "backend": "hmm"}
    for name, payload in _payload_corpus():
        with socket.create_connection(jobs_server, timeout=10) as sock:
            sock.settimeout(10)
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            protocol.write_message(wfile, header, payload)
            wfile.flush()
            response, _ = protocol.read_message(rfile)
        assert response["status"] == "error", name
        assert response["code"] == protocol.ERR_BAD_REQUEST, (name,
                                                               response)
    with ServeClient(*jobs_server, timeout=10) as client:
        assert client.ping()
