"""The generation service and its threaded loopback-socket server.

Two layers, deliberately separable:

- :class:`GenerationService` is transport-independent: a mapping of model
  specs to :class:`~repro.serve.batcher.MicroBatcher` instances plus a
  ``handle(header, payload) -> (header, payload)`` request dispatcher.
  Tests and the in-process client
  (:class:`repro.serve.client.InProcessClient`) call it directly; the
  socket server is a thin framing shim over it.  With a
  :class:`~repro.serve.jobs.JobSupervisor` attached the service also
  speaks the training-job verbs (``submit`` / ``status`` / ``cancel`` /
  ``jobs``) and hot-loads each auto-published model the moment its job
  completes, so ``generate`` picks it up without a restart.
- :class:`Server` owns a listening socket, an accept thread, and one
  handler thread per connection.  Each handler runs its own requests'
  model passes once the model's batcher gives it the turn -- concurrency
  is bounded by the batcher's admission queue, so a flooded server
  *sheds* (``busy`` responses) instead of accumulating unbounded work.

Shutdown contract (``Server.shutdown(drain=True)``): stop accepting, stop
admitting, complete every already-admitted request and write its
response, then close connections and the listening socket.  Requests that
arrive during the drain get a well-formed ``shutting_down`` error.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.observability import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.batcher import BatcherClosed, MicroBatcher, QueueFull
from repro.serve.registry import (ModelNotFound, ModelRegistry,
                                  RegistryError)

__all__ = ["GenerationService", "Server", "DEFAULT_MAX_REQUEST_N"]

# A single request may ask for at most this many objects; bigger asks get
# a bad_request telling the caller to split (keeps one client from
# monopolising the admission queue).
DEFAULT_MAX_REQUEST_N = 1 << 20


class GenerationService:
    """Named models behind batchers, plus request dispatch.

    Args:
        models: Mapping of spec -> trained DoppelGANger.  Specs are the
            strings clients send (conventionally ``name@version``).
        aliases: Optional extra spec -> canonical-spec mapping (e.g.
            ``{"wwt": "wwt@3", "wwt@latest": "wwt@3"}``).
        max_queue_rows: Admission bound of every model's batcher (see
            :class:`MicroBatcher`).
        max_request_n: Per-request object cap (``bad_request`` beyond).
    """

    def __init__(self, models: dict, aliases: dict | None = None, *,
                 max_queue_rows: int = 4096,
                 max_request_n: int = DEFAULT_MAX_REQUEST_N,
                 registry: ModelRegistry | None = None):
        self._batcher_kwargs = dict(max_queue_rows=max_queue_rows)
        self.batchers: dict[str, MicroBatcher] = {
            spec: MicroBatcher(model, name=spec, **self._batcher_kwargs)
            for spec, model in models.items()
        }
        self.aliases = dict(aliases or {})
        self.max_request_n = int(max_request_n)
        self.registry = registry
        self.jobs = None  # a JobSupervisor, via attach_jobs()
        self._newest: dict[str, int] = {}
        for spec in self.batchers:
            name, _, version = spec.partition("@")
            if version.isdigit():
                self._newest[name] = max(self._newest.get(name, 0),
                                         int(version))
        self._models_lock = threading.Lock()
        self._closed = False

    @classmethod
    def from_registry(cls, registry: ModelRegistry,
                      specs: list[str] | None = None,
                      allow_empty: bool = False,
                      **kwargs) -> "GenerationService":
        """Load models out of a registry and alias bare/latest specs.

        ``specs=None`` serves the latest version of every published
        model.  Each resolved model is served under its canonical
        ``name@version`` spec; ``name`` and ``name@latest`` alias to the
        newest resolved version of that name.  ``allow_empty`` permits
        starting with no published models (a jobs-only server whose
        first models arrive by training).
        """
        specs = list(specs) if specs else registry.models()
        if not specs and not allow_empty:
            raise ModelNotFound(
                f"registry {registry.root!r} has no published models")
        records = [registry.resolve(spec) for spec in specs]
        models: dict = {}
        newest: dict[str, int] = {}
        for record in records:
            if record.spec not in models:
                models[record.spec] = registry.load(record)
            newest[record.name] = max(newest.get(record.name, 0),
                                      record.version)
        aliases = {}
        for name, version in newest.items():
            aliases[name] = f"{name}@{version}"
            aliases[f"{name}@latest"] = f"{name}@{version}"
        return cls(models, aliases, registry=registry, **kwargs)

    # -- dynamic model management -------------------------------------------
    def add_model(self, spec: str, model) -> None:
        """Start serving ``model`` under canonical ``name@version``.

        Newer versions steal the bare-``name`` and ``name@latest``
        aliases; older ones are served under their pinned spec only.
        Adding an already-served spec is a no-op (content addressing
        means the model bytes are the same).
        """
        name, _, version = str(spec).partition("@")
        if not version.isdigit():
            raise ValueError(f"add_model needs a canonical name@version "
                             f"spec, got {spec!r}")
        with self._models_lock:
            if self._closed or spec in self.batchers:
                return
            self.batchers[spec] = MicroBatcher(model, name=spec,
                                               **self._batcher_kwargs)
            if int(version) >= self._newest.get(name, 0):
                self._newest[name] = int(version)
                self.aliases[name] = spec
                self.aliases[f"{name}@latest"] = spec
        obs_metrics.counter("serve.models_loaded").inc()

    def attach_jobs(self, supervisor) -> None:
        """Enable the job verbs and hot-load models the jobs publish."""
        self.jobs = supervisor
        supervisor.on_publish = self._on_job_publish

    def _on_job_publish(self, record) -> None:
        """Supervisor hook: load the freshly published model and serve
        it immediately (``record.result`` is the publish receipt)."""
        if self.registry is None or not record.result:
            return
        spec = record.result["spec"]
        self.add_model(spec, self.registry.load(spec))

    # -- dispatch ------------------------------------------------------------
    def _error(self, code: str, message: str) -> tuple[dict, bytes]:
        obs_metrics.counter(f"serve.errors.{code}").inc()
        return {"status": "error", "code": code, "error": message}, b""

    def lookup(self, spec) -> MicroBatcher:
        """The batcher serving ``spec`` (aliases resolved)."""
        spec = str(spec)
        batcher = self.batchers.get(self.aliases.get(spec, spec))
        if batcher is None:
            raise ModelNotFound(
                f"no model {spec!r} is being served "
                f"(serving: {sorted(self.batchers)})")
        return batcher

    def cache_stats(self) -> dict | None:
        """Model-cache counters for the ``stats`` op.

        The base service holds every model pinned, so there is no cache;
        :class:`repro.serve.fleet.ReplicaService` overrides this with
        its LRU hit/miss/eviction counts.
        """
        return None

    def describe(self) -> list[dict]:
        """One row per served model, for the ``models`` op."""
        rows = []
        for spec in sorted(self.batchers):
            rows.append({"spec": spec,
                         "aliases": sorted(a for a, c in
                                           self.aliases.items()
                                           if c == spec)})
        return rows

    def handle(self, header: dict, payload: bytes = b"",
               stages: dict | None = None) -> tuple[dict, bytes]:
        """Serve one request; returns ``(header, payload)``.

        Never raises for request-level problems -- they become
        well-formed error responses.  This is the single entry point for
        every transport (sockets, in-process).  ``payload`` carries the
        training dataset of a ``submit``; every other op ignores it.

        A ``generate`` stores the seconds of its stages (``admit``,
        ``queue``, ``model``, ``assemble``, ``encode``) in ``stages``
        when given; :class:`Server` observes them, with ``read`` and
        ``write``, once the response is written.  They tile the call
        from validation to the encoded response.
        """
        op = header.get("op")
        if op == "ping":
            return {"status": "ok"}, b""
        if op == "models":
            return {"status": "ok", "models": self.describe()}, b""
        if op == "stats":
            info = {"status": "ok", "models": self.describe()}
            cache = self.cache_stats()
            if cache is not None:
                info["cache"] = cache
            if obs_metrics.enabled():
                info["metrics"] = obs_metrics.current().dump()
            return info, b""
        if op in ("submit", "status", "cancel", "jobs"):
            return self._handle_job_op(op, header, payload)
        if op != "generate":
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"unknown op {op!r} (expected ping, "
                               f"models, generate, stats, submit, "
                               f"status, cancel, or jobs)")

        stages = {} if stages is None else stages
        started = time.perf_counter()
        checked = protocol.validate_generate(header, self.max_request_n)
        if isinstance(checked, str):
            return self._error(protocol.ERR_BAD_REQUEST, checked)
        spec, n, seed = checked
        # lookup + generate retries: a lazily-loading service (the
        # fleet's ReplicaService) may evict-and-close the looked-up
        # batcher from another thread before it admits this request;
        # re-looking-up reloads the model.  The base service never
        # evicts, so the loop runs once.
        dataset = None
        for _ in range(3):
            try:
                batcher = self.lookup(spec)
            except ModelNotFound as exc:
                return self._error(protocol.ERR_MODEL_NOT_FOUND, str(exc))
            except RegistryError as exc:
                return self._error(protocol.ERR_INTERNAL,
                                   f"model load failed: {exc}")
            try:
                dataset = batcher.generate(n, seed, stages)
                break
            except QueueFull as exc:
                return self._error(protocol.ERR_BUSY, str(exc))
            except BatcherClosed as exc:
                if self._closed:
                    return self._error(protocol.ERR_SHUTTING_DOWN,
                                       str(exc))
            except Exception as exc:
                return self._error(protocol.ERR_INTERNAL,
                                   f"generation failed: {exc}")
        if dataset is None:
            return self._error(protocol.ERR_INTERNAL,
                               f"model {spec!r} kept closing during "
                               f"admission (eviction thrash)")
        decoded = time.perf_counter()
        # Whatever the batcher did not time as queue, model or assemble
        # -- validation, lookup, planning, admission -- is ``admit``.
        stages["admit"] = decoded - started - sum(
            stages.get(stage, 0.0) for stage in ("queue", "model",
                                                 "assemble"))
        payload = protocol.dataset_to_bytes(dataset)
        stages["encode"] = time.perf_counter() - decoded
        return {"status": "ok", "n": n, "seed": seed,
                "model": self.aliases.get(str(spec), str(spec)),
                "payload_bytes": len(payload)}, payload

    # -- job verbs -----------------------------------------------------------
    def _handle_job_op(self, op: str, header: dict, payload: bytes
                       ) -> tuple[dict, bytes]:
        from repro.serve.jobs import (JobError, UnknownJob,
                                      validate_train_overrides)

        if self.jobs is None:
            return self._error(
                protocol.ERR_JOBS_DISABLED,
                f"this server has no job orchestration (op {op!r}); "
                f"start it with a job store (--jobs-dir)")
        if op == "jobs":
            return {"status": "ok", "jobs": self.jobs.jobs()}, b""
        if op == "submit":
            return self._handle_submit(header, payload,
                                       validate_train_overrides,
                                       JobError)
        job_id = header.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"op {op!r} needs a job_id string, "
                               f"got {job_id!r}")
        try:
            if op == "status":
                return {"status": "ok",
                        "job": self.jobs.status(job_id)}, b""
            return {"status": "ok", "job": self.jobs.cancel(job_id)}, b""
        except UnknownJob as exc:
            return self._error(protocol.ERR_JOB_NOT_FOUND, str(exc))
        except JobError as exc:
            return self._error(protocol.ERR_INTERNAL, str(exc))

    def _handle_submit(self, header: dict, payload: bytes,
                       validate_train_overrides, job_error
                       ) -> tuple[dict, bytes]:
        from repro.backends import UnknownBackend, get_backend
        from repro.serve.jobs import validate_evaluate_options
        from repro.serve.registry import _NAME_RE

        name = header.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name or ""):
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"submit needs a valid model name "
                               f"(letters, digits, '.', '_', '-'), "
                               f"got {name!r}")
        backend_name = header.get("backend", "doppelganger")
        try:
            backend = get_backend(backend_name)
        except UnknownBackend as exc:
            return self._error(protocol.ERR_BAD_REQUEST, str(exc))
        train = header.get("train") or {}
        if not isinstance(train, dict):
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"train must be a JSON object, "
                               f"got {train!r}")
        try:
            train = validate_train_overrides(train)
        except job_error as exc:
            return self._error(protocol.ERR_BAD_REQUEST, str(exc))
        if not payload:
            return self._error(protocol.ERR_BAD_REQUEST,
                               "submit needs the training dataset as "
                               "the request payload (npz bytes)")
        try:
            protocol.dataset_from_bytes(payload)
        except protocol.ProtocolError as exc:
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"submit payload is not a dataset "
                               f"archive: {exc}")
        evaluate = header.get("evaluate") or {}
        if not isinstance(evaluate, dict):
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"evaluate must be a JSON object, "
                               f"got {evaluate!r}")
        try:
            evaluate = validate_evaluate_options(evaluate)
        except job_error as exc:
            return self._error(protocol.ERR_BAD_REQUEST, str(exc))
        faults_spec = header.get("faults") or []
        if not isinstance(faults_spec, list):
            return self._error(protocol.ERR_BAD_REQUEST,
                               "faults must be a list of fault specs")
        max_attempts = header.get("max_attempts")
        if max_attempts is not None and (
                not isinstance(max_attempts, int)
                or isinstance(max_attempts, bool) or max_attempts < 1):
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"max_attempts must be a positive "
                               f"integer, got {max_attempts!r}")
        record = self.jobs.submit(name, backend.name, payload,
                                  train=train, max_attempts=max_attempts,
                                  faults=faults_spec, evaluate=evaluate)
        return {"status": "ok", "job": record.public()}, b""

    # -- lifecycle -----------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop admission on every batcher; with ``drain``, finish all."""
        with self._models_lock:
            if self._closed:
                return
            self._closed = True  # also blocks late add_model calls
            batchers = list(self.batchers.values())
        for batcher in batchers:
            batcher.close(drain=drain)


class Server:
    """Threaded loopback-socket front end for a :class:`GenerationService`.

    ``port=0`` binds an ephemeral port; the bound address is available as
    :attr:`address` immediately after construction.

    Every accepted connection gets ``TCP_NODELAY``: a response larger
    than the buffered writer's 8 KiB leaves as two sends, and with
    Nagle's algorithm on the second waits for the peer's delayed ACK of
    the first (~40 ms on Linux) -- most of a small request's latency.
    """

    def __init__(self, service: GenerationService,
                 host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 64):
        self.service = service
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._closing = False
        self._conn_lock = threading.Lock()
        # Live connections and their handler threads; each handler drops
        # its own entry when it exits.
        self._threads: dict[socket.socket, threading.Thread] = {}
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept",
            daemon=True)
        self._accept_thread.start()

    # -- connection handling -------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed -> shutdown
                return
            with self._conn_lock:
                if self._closing:
                    conn.close()
                    continue
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name=f"repro-serve-conn-{conn.fileno()}", daemon=True)
                self._threads[conn] = thread
            obs_metrics.counter("serve.connections").inc()
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    header, request_payload, arrived = \
                        protocol.read_message_timed(rfile)
                except EOFError:
                    return
                except (protocol.ProtocolError, OSError):
                    return  # drop malformed/broken connections
                read = time.perf_counter()
                stages: dict[str, float] = {}
                if self._closing:
                    response, payload = (
                        {"status": "error",
                         "code": protocol.ERR_SHUTTING_DOWN,
                         "error": "server is draining"}, b"")
                else:
                    response, payload = self.service.handle(
                        header, request_payload, stages)
                started = time.perf_counter()
                try:
                    protocol.write_message(wfile, response, payload)
                except (OSError, ValueError):
                    return  # peer went away mid-response
                if header.get("op") == "generate":
                    # Observed once the response is out, so recording
                    # never delays it.
                    written = time.perf_counter()
                    protocol.observe_stages("serve", written - arrived,
                                            read=read - arrived,
                                            write=written - started,
                                            **stages)
        except OSError:
            return  # the peer reset before NODELAY could be set
        finally:
            for handle in (rfile, wfile, conn):
                try:
                    handle.close()
                except OSError:
                    pass
            with self._conn_lock:
                self._threads.pop(conn, None)

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful stop: drain admitted work, then close the socket.

        Order matters: (1) refuse new connections, (2) mark draining so
        freshly read requests get ``shutting_down``, (3) close the
        service -- with ``drain=True`` this blocks until every admitted
        request has completed and its handler can write the response,
        (4) nudge idle connections closed and join handler threads.
        """
        with self._conn_lock:
            if self._closing:
                return
            self._closing = True
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutting the socket down first makes accept() return.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._accept_thread.join(timeout=timeout)
        self.service.close(drain=drain)
        # Handlers blocked in read_message on idle connections never see
        # the flag; shutting down the read side unblocks them.  Handlers
        # mid-response finish their write first (SHUT_RD leaves the write
        # side open).
        with self._conn_lock:
            live = list(self._threads.items())
        for conn, _ in live:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for _, thread in live:
            thread.join(timeout=timeout)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
