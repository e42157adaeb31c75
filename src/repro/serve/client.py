"""Clients for the generation service: socket and in-process.

:class:`ServeClient` speaks the loopback protocol over a TCP connection;
:class:`InProcessClient` presents the identical API directly over a
:class:`~repro.serve.server.GenerationService` (no sockets -- the
service tests and perfbench's traced serve workloads use it to separate
scheduler effects from socket effects).  Both raise :class:`ServerBusy` when the
server sheds a request (backpressure is an *expected* outcome a caller
must handle, not an exotic failure).

Transport failures never leak raw socket exceptions: the client's
``timeout`` bounds the TCP *connect* as well as every read, and a server
that dies mid-request surfaces as a :class:`ServeError` with a
machine-readable ``timeout`` or ``connection`` code.  Connects may also
retry briefly (``connect_retries``) on a deterministic backoff
(:mod:`repro.resilience.retry`) to ride out a server that is still
binding its port.
"""

from __future__ import annotations

import socket

from repro.data.dataset import TimeSeriesDataset
from repro.resilience.retry import RetryPolicy, retry_call
from repro.serve import protocol

__all__ = ["ServeError", "ServerBusy", "RateLimited", "ServeClient",
           "InProcessClient"]


class ServeError(RuntimeError):
    """An error response from the service; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServerBusy(ServeError):
    """The admission queue was full and the request was shed."""


class RateLimited(ServeError):
    """The fleet router shed the request: client quota exhausted."""


def _result_dataset(header: dict, payload: bytes) -> TimeSeriesDataset:
    status = header.get("status")
    if status == "ok":
        return protocol.dataset_from_bytes(payload)
    _raise_error(header)


def _raise_error(header: dict):
    code = header.get("code", protocol.ERR_INTERNAL)
    message = header.get("error", "unknown server error")
    if code == protocol.ERR_BUSY:
        raise ServerBusy(code, message)
    if code == protocol.ERR_RATE_LIMITED:
        raise RateLimited(code, message)
    raise ServeError(code, message)


def _dataset_bytes(dataset) -> bytes:
    """Accept a TimeSeriesDataset, raw npz bytes, or a file path."""
    if isinstance(dataset, (bytes, bytearray)):
        return bytes(dataset)
    if isinstance(dataset, str):
        with open(dataset, "rb") as handle:
            return handle.read()
    return dataset.to_bytes()


class _ClientOps:
    """The request API shared by every transport.

    Subclasses provide ``_call(header, payload) -> (header, payload)``.
    """

    def _call(self, header: dict, payload: bytes = b""
              ) -> tuple[dict, bytes]:
        raise NotImplementedError

    def _ok(self, header: dict) -> dict:
        if header.get("status") != "ok":
            _raise_error(header)
        return header

    def ping(self) -> bool:
        header, _ = self._call({"op": "ping"})
        return header.get("status") == "ok"

    def models(self) -> list[dict]:
        return self._ok(self._call({"op": "models"})[0])["models"]

    def generate(self, model: str, n: int, seed: int = 0,
                 client: str | None = None) -> TimeSeriesDataset:
        """Request ``n`` objects from ``model``; deterministic in seed.

        ``client`` is the quota identity a fleet router bills the
        request to (ignored by single servers; unset shares the
        ``anonymous`` bucket).
        """
        header = {"op": "generate", "model": model,
                  "n": int(n), "seed": int(seed)}
        if client is not None:
            header["client"] = str(client)
        header, payload = self._call(header)
        return _result_dataset(header, payload)

    # -- fleet ---------------------------------------------------------------
    def stats(self) -> dict:
        """Server-side counters: cache/metrics on a single server, the
        fleet digest on a router (both under the returned dict)."""
        header = self._ok(self._call({"op": "stats"})[0])
        return {key: value for key, value in header.items()
                if key != "status"}

    def fleet_status(self) -> dict:
        """Replica health, routing totals, aliases, quota config."""
        return self._ok(self._call({"op": "fleet_status"})[0])["fleet"]

    def reload_models(self) -> dict:
        """Ask a fleet router to re-pin ``@latest`` aliases; returns the
        new alias map (the zero-downtime upgrade flip)."""
        return self._ok(self._call({"op": "reload"})[0])["aliases"]

    # -- training jobs -------------------------------------------------------
    def submit_job(self, name: str, dataset, *,
                   backend: str = "doppelganger",
                   train: dict | None = None,
                   max_attempts: int | None = None,
                   faults: list | None = None,
                   evaluate: dict | None = None) -> dict:
        """Submit a training job; returns the queued job's record.

        ``dataset`` may be a :class:`TimeSeriesDataset`, npz bytes, or a
        dataset file path.  ``train`` carries the overrides listed in
        :data:`repro.serve.jobs.TRAIN_KEYS`; ``evaluate`` (keys in
        :data:`repro.serve.jobs.EVALUATE_KEYS`) asks the worker to score
        the published model and attach the scores to its registry
        version; ``faults`` is the test-only fault-injection channel.
        """
        header = {"op": "submit", "name": str(name),
                  "backend": str(backend), "train": dict(train or {})}
        if max_attempts is not None:
            header["max_attempts"] = int(max_attempts)
        if faults:
            header["faults"] = list(faults)
        if evaluate is not None:
            header["evaluate"] = dict(evaluate)
        response, _ = self._call(header, _dataset_bytes(dataset))
        return self._ok(response)["job"]

    def job_status(self, job_id: str) -> dict:
        """Durable record + live telemetry progress of one job."""
        response, _ = self._call({"op": "status",
                                  "job_id": str(job_id)})
        return self._ok(response)["job"]

    def cancel_job(self, job_id: str) -> dict:
        """Cancel a queued or running job (terminal jobs: no-op)."""
        response, _ = self._call({"op": "cancel",
                                  "job_id": str(job_id)})
        return self._ok(response)["job"]

    def jobs(self) -> list[dict]:
        """All job records on the server, in submission order."""
        return self._ok(self._call({"op": "jobs"})[0])["jobs"]


class ServeClient(_ClientOps):
    """A blocking client over one TCP connection (reusable, sequential).

    The socket has ``TCP_NODELAY`` set, like every server-side socket.
    ``timeout`` bounds the connect *and* every subsequent read;
    ``connect_retries`` extra connection attempts ride out a server
    still binding its port (deterministic backoff, no wall-clock
    randomness).
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 connect_retries: int = 0):
        self._address = f"{host}:{port}"
        self._timeout = float(timeout)
        policy = RetryPolicy(max_attempts=max(int(connect_retries), 0) + 1,
                             base_delay=0.05, multiplier=2.0,
                             max_delay=1.0)
        try:
            self._sock = retry_call(
                lambda: socket.create_connection((host, port),
                                                 timeout=self._timeout),
                retry_on=(ConnectionRefusedError,), policy=policy)
        except TimeoutError:
            raise ServeError(
                protocol.ERR_TIMEOUT,
                f"connecting to {self._address} timed out after "
                f"{self._timeout}s") from None
        except OSError as exc:
            raise ServeError(
                protocol.ERR_CONNECTION,
                f"cannot connect to {self._address}: {exc}") from None
        # create_connection leaves the timeout on the socket, so reads
        # (and writes) inherit the same bound as the connect.
        self._sock.settimeout(self._timeout)
        # A request frame bigger than the buffered writer (a submit's
        # dataset) leaves as two sends; without NODELAY the second waits
        # out the server's delayed ACK.  See Server.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    def _call(self, header: dict, payload: bytes = b""
              ) -> tuple[dict, bytes]:
        sent = False
        try:
            protocol.write_message(self._wfile, header, payload)
            sent = True
            return protocol.read_message(self._rfile)
        except EOFError:
            raise ServeError(
                protocol.ERR_CONNECTION,
                f"server {self._address} closed the connection without "
                f"a response") from None
        except protocol.ProtocolError as exc:
            if not sent:
                raise
            # A response cut off mid-frame (the server died while writing
            # it) leaves the connection as unusable as a reset does.
            raise ServeError(
                protocol.ERR_CONNECTION,
                f"broken response from {self._address}: {exc}") from None
        except TimeoutError:
            raise ServeError(
                protocol.ERR_TIMEOUT,
                f"no response from {self._address} within "
                f"{self._timeout}s") from None
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ServeError(
                protocol.ERR_CONNECTION,
                f"connection to {self._address} was lost mid-request "
                f"({exc}); the server likely died") from None
        except OSError as exc:
            raise ServeError(
                protocol.ERR_CONNECTION,
                f"transport failure talking to {self._address}: "
                f"{exc}") from None

    def close(self) -> None:
        for handle in (self._rfile, self._wfile, self._sock):
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessClient(_ClientOps):
    """The client API bound directly to a service (no sockets)."""

    def __init__(self, service):
        self.service = service

    def _call(self, header: dict, payload: bytes = b""
              ) -> tuple[dict, bytes]:
        return self.service.handle(header, payload)

    def close(self) -> None:
        pass

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc) -> None:
        pass
