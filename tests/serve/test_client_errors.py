"""Transport failure mapping: raw socket errors never reach callers.

The satellite guarantee: the client ``timeout`` bounds the connect as
well as every read, and a server that dies mid-request surfaces as a
:class:`ServeError` with a machine-readable ``timeout`` / ``connection``
code -- never a naked ``socket.timeout`` or ``ConnectionResetError``.
"""

import socket
import threading
import time

import pytest

from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _MisbehavingServer:
    """Accepts one connection, then misbehaves per ``mode``."""

    def __init__(self, mode: str):
        self.mode = mode
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        conn, _ = self.sock.accept()
        if self.mode == "die":
            # Read a little of the request, then vanish mid-exchange.
            conn.recv(16)
            conn.close()
        elif self.mode == "hang":
            conn.recv(16)
            time.sleep(5.0)
            conn.close()
        elif self.mode == "truncate":
            # Read the whole request, then die part-way through a reply
            # whose prefix declares more payload bytes than are sent.
            protocol.read_message(conn.makefile("rb"))
            head = b'{"ok":true}'
            conn.sendall(protocol._PREFIX.pack(protocol.MAGIC,
                                               protocol.VERSION,
                                               len(head), 64)
                         + head + b"\0" * 10)
            conn.close()

    def close(self):
        self.sock.close()


class TestConnectErrors:
    def test_refused_connect_is_a_serve_error(self):
        port = _free_port()  # nothing listening here
        with pytest.raises(ServeError) as exc:
            ServeClient("127.0.0.1", port, timeout=2.0)
        assert exc.value.code == protocol.ERR_CONNECTION
        assert str(port) in str(exc.value)

    def test_connect_retries_still_fail_cleanly(self):
        port = _free_port()
        started = time.monotonic()
        with pytest.raises(ServeError) as exc:
            ServeClient("127.0.0.1", port, timeout=2.0,
                        connect_retries=2)
        assert exc.value.code == protocol.ERR_CONNECTION
        # Two deterministic backoffs happened: 0.05 + 0.1 seconds.
        assert time.monotonic() - started >= 0.15

    def test_connect_retries_ride_out_a_slow_bind(self):
        port = _free_port()
        listener = socket.socket()

        def late_bind():
            time.sleep(0.08)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)

        thread = threading.Thread(target=late_bind, daemon=True)
        thread.start()
        try:
            client = ServeClient("127.0.0.1", port, timeout=2.0,
                                 connect_retries=5)
            client.close()
        finally:
            thread.join()
            listener.close()


class TestMidRequestErrors:
    def test_server_dying_mid_request_maps_to_connection(self):
        server = _MisbehavingServer("die")
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=5.0)
            with pytest.raises(ServeError) as exc:
                client.ping()
            assert exc.value.code in (protocol.ERR_CONNECTION,)
            client.close()
        finally:
            server.close()

    def test_truncated_response_maps_to_connection(self):
        """A reply cut off mid-payload is a transport failure the fleet
        router retries, not a protocol error escaping to its caller."""
        server = _MisbehavingServer("truncate")
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=5.0)
            with pytest.raises(ServeError) as exc:
                client.ping()
            assert exc.value.code == protocol.ERR_CONNECTION
            assert "mid-frame" in str(exc.value)
            client.close()
        finally:
            server.thread.join(timeout=5.0)
            server.close()

    def test_unresponsive_server_maps_to_timeout(self):
        server = _MisbehavingServer("hang")
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=0.3)
            with pytest.raises(ServeError) as exc:
                client.ping()
            assert exc.value.code == protocol.ERR_TIMEOUT
            client.close()
        finally:
            server.close()

    def test_raw_socket_exceptions_never_escape(self):
        """Whatever the failure, callers only ever see ServeError."""
        for mode in ("die", "hang"):
            server = _MisbehavingServer(mode)
            try:
                client = ServeClient("127.0.0.1", server.port,
                                     timeout=0.3)
                with pytest.raises(ServeError):
                    client.models()
                client.close()
            finally:
                server.close()
