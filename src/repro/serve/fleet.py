"""Multi-replica serving fleet: a router over N replica worker processes.

One :class:`Fleet` owns N replica processes, each running a full
:class:`~repro.serve.server.Server` over a :class:`ReplicaService` -- a
:class:`~repro.serve.server.GenerationService` that loads registry
models *lazily* through a per-worker LRU :class:`ModelCache`, so one
fleet serves every ``name@version`` in the registry without pinning them
all in every worker's memory.  The router itself is transport-agnostic:
it exposes the same ``handle(header, payload)`` / ``close(drain)``
surface as ``GenerationService``, so the existing :class:`Server` is its
socket front end unchanged (``Server(Fleet(...))``) and the existing
:class:`~repro.serve.client.ServeClient` talks to a fleet without
knowing it.

Determinism contract (the point of the whole design):

- Generation is a pure function of ``(model bytes, n, seed)`` -- the
  registry content-addresses the bytes and the batcher runs each
  request's own blocks without repacking rows -- so **any** replica
  returns the same bytes for the same request.
- Routing is therefore free to be a pure function of the request:
  ``crc32(f"{spec}|{n}|{seed}") % replicas`` picks the preferred
  replica; an unhealthy replica shifts the request to the next healthy
  index.  Health changes where a request *runs*, never what it
  *returns*, so fleet output is byte-identical to a single
  ``GenerationService`` for every replica count and under any kill
  schedule.

Failure handling: the router marks a replica *suspect* on any transport
failure and retries the in-flight request on the next healthy replica
before the client sees anything; a background supervisor probes suspect
replicas, reaps dead ones, and respawns them on a bounded deterministic
backoff (:class:`~repro.resilience.retry.RetryPolicy`), the same
machinery as :mod:`repro.serve.jobs`.  Per-client token-bucket quotas
(``rate_limited`` error code) shed abusive clients before any routing
work happens.  ``reload`` re-resolves ``name`` / ``name@latest``
aliases against the registry -- a zero-downtime ``@latest`` flip,
because replicas lazy-load the newly-pinned version on first use and
LRU-evict the old one.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import signal
import tempfile
import threading
import time
import zlib

from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.parallel.pool import mp_context
from repro.resilience.atomic import write_atomic
from repro.resilience.retry import RetryPolicy
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher
from repro.serve.client import ServeClient, ServeError
from repro.serve.registry import ModelNotFound, ModelRegistry
from repro.serve.server import (DEFAULT_MAX_REQUEST_N, GenerationService,
                                Server)

__all__ = ["TokenBucket", "ClientQuotas", "ModelCache", "ReplicaService",
           "ReplicaHandle", "Fleet", "route_index", "replica_main"]

#: Transport-level client codes and the replica's own drain code are the
#: retryable outcomes: the request never produced (or can no longer
#: produce) a response on that replica, so replaying it elsewhere is
#: safe and invisible to the client.
_RETRYABLE_CODES = frozenset({protocol.ERR_TIMEOUT,
                              protocol.ERR_CONNECTION,
                              protocol.ERR_SHUTTING_DOWN})


def route_index(spec: str, n: int, seed: int, replicas: int) -> int:
    """The preferred replica for a generate request.

    A pure function of the request and the replica count -- ``crc32``
    rather than ``hash()`` because Python salts string hashes per
    process, which would make routing differ between router restarts.
    """
    key = f"{spec}|{int(n)}|{int(seed)}".encode("utf-8")
    return zlib.crc32(key) % int(replicas)


# -- client quotas -----------------------------------------------------------

class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` deep.

    ``clock`` is injectable (monotonic seconds) so quota behaviour is
    testable without wall-clock sleeps.
    """

    def __init__(self, rate: float, burst: int,
                 clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/second")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_take(self) -> bool:
        """Take one token if available; never blocks."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp)
                               * self.rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class ClientQuotas:
    """Per-client token buckets keyed by the request's ``client`` field.

    ``rate=None`` disables quotas entirely (the default -- a fleet
    without quotas is byte-for-byte a bigger single server).  Clients
    that send no ``client`` id share the ``"anonymous"`` bucket.
    """

    def __init__(self, rate: float | None, burst: int | None = None,
                 clock=time.monotonic):
        self.rate = None if rate is None else float(rate)
        self.burst = (max(1, int(burst if burst is not None
                                 else (rate or 1))))
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.rate is not None

    def allow(self, client: str | None) -> bool:
        """Admit one request for ``client``; ``True`` when within quota."""
        if self.rate is None:
            return True
        key = str(client) if client else "anonymous"
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst,
                                     clock=self._clock)
                self._buckets[key] = bucket
        return bucket.try_take()


# -- per-worker model cache --------------------------------------------------

class ModelCache:
    """An LRU of :class:`MicroBatcher` instances over registry models.

    Keys are canonical ``name@version`` specs (aliases resolve through
    the registry on every ``get``, so an ``@latest`` flip is picked up
    without invalidation).  Evicting an entry drains its batcher, and
    because the registry is content-addressed, reloading the model later
    reproduces it -- and its generations -- byte-identically.
    """

    def __init__(self, registry: ModelRegistry, capacity: int = 4,
                 batcher_kwargs: dict | None = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1 model")
        self.registry = registry
        self.capacity = int(capacity)
        self._batcher_kwargs = dict(batcher_kwargs or {})
        self._entries: "collections.OrderedDict[str, MicroBatcher]" = \
            collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, spec: str) -> MicroBatcher:
        """The batcher serving ``spec``, loading and evicting as needed.

        Raises :class:`ModelNotFound` for unpublished specs and other
        :class:`RegistryError` subclasses for damaged registries --
        callers (``GenerationService.handle``) map those to protocol
        error codes.
        """
        record = self.registry.resolve(spec)
        evicted: list[MicroBatcher] = []
        with self._lock:
            batcher = self._entries.get(record.spec)
            if batcher is not None:
                self._entries.move_to_end(record.spec)
                self.hits += 1
                obs_metrics.counter("serve.cache.hits").inc()
                return batcher
            self.misses += 1
            obs_metrics.counter("serve.cache.misses").inc()
            model = self.registry.load(record)
            batcher = MicroBatcher(model, name=record.spec,
                                   **self._batcher_kwargs)
            self._entries[record.spec] = batcher
            while len(self._entries) > self.capacity:
                _, old = self._entries.popitem(last=False)
                evicted.append(old)
                self.evictions += 1
                obs_metrics.counter("serve.cache.evictions").inc()
        # Draining the evicted batcher outside the lock keeps other
        # lookups responsive; a racing generate on the evicted batcher
        # sees BatcherClosed and the service's lookup retry reloads.
        for old in evicted:
            old.close(drain=True)
        return batcher

    def specs(self) -> list[str]:
        """Currently cached canonical specs, least-recent first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {"capacity": self.capacity,
                    "cached": len(self._entries),
                    "specs": list(self._entries),
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}

    def close(self, drain: bool = True) -> None:
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for batcher in entries:
            batcher.close(drain=drain)


class ReplicaService(GenerationService):
    """A generation service that lazy-loads registry models via LRU.

    Unlike the base service (which pins an explicit model dict at
    construction), a replica starts empty and materialises batchers on
    first request for any spec the registry can resolve -- ``name``,
    ``name@latest``, or ``name@<version>``.  The dispatch logic,
    validation, and error mapping are all inherited.
    """

    def __init__(self, registry: ModelRegistry, *, model_cache: int = 4,
                 **kwargs):
        super().__init__({}, registry=registry, **kwargs)
        self.cache = ModelCache(registry, capacity=model_cache,
                                batcher_kwargs=self._batcher_kwargs)

    def lookup(self, spec) -> MicroBatcher:
        return self.cache.get(str(spec))

    def cache_stats(self) -> dict:
        return self.cache.stats()

    def describe(self) -> list[dict]:
        """One row per *cached* model (the working set, not the registry)."""
        rows = []
        for spec in sorted(self.cache.specs()):
            rows.append({"spec": spec, "cached": True})
        return rows

    def close(self, drain: bool = True) -> None:
        with self._models_lock:
            if self._closed:
                return
            self._closed = True
        self.cache.close(drain=drain)


# -- replica process ---------------------------------------------------------

def replica_main(index: int, registry_root: str, port_path: str,
                 options: dict) -> None:
    """Entry point of one replica worker process (module-level: spawn-safe).

    Builds a :class:`ReplicaService` over the registry, serves it on an
    ephemeral loopback port, publishes ``{"port", "pid"}`` atomically to
    ``port_path``, then waits for SIGTERM (graceful drain) or the death
    of its parent router (orphan exit).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # router owns shutdown
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    with obs_metrics.use(obs_metrics.MetricsRegistry()):
        registry = ModelRegistry(registry_root)
        service = ReplicaService(registry, **dict(options))
        server = Server(service)
        payload = json.dumps({"port": server.address[1],
                              "pid": os.getpid(),
                              "replica": int(index)},
                             sort_keys=True).encode("utf-8")
        write_atomic(port_path, payload)
        parent = os.getppid()
        while not stop.wait(0.2):
            if os.getppid() != parent:
                break  # router died without SIGTERMing us
        server.shutdown(drain=True)


# -- router ------------------------------------------------------------------

class ReplicaHandle:
    """The router's view of one replica: process, port, health, clients.

    States: ``starting`` (spawned, port not yet published), ``healthy``
    (serving), ``suspect`` (a forward failed; awaiting probe), ``dead``
    (process exited; awaiting respawn backoff).  Socket clients to the
    replica are pooled per handle and discarded wholesale whenever the
    replica is suspected or replaced.
    """

    def __init__(self, index: int):
        self.index = int(index)
        self.process = None
        self.port_path = None
        self.port: int | None = None
        self.pid: int | None = None
        self.state = "starting"
        self.restarts = 0
        self.routed = 0
        self.failures = 0          # consecutive ready-failures (backoff)
        self.probes = 0            # failed probes while suspect
        self.respawn_due = 0.0     # monotonic deadline for next respawn
        self._clients: list[ServeClient] = []
        self._lock = threading.Lock()

    # -- client pool ---------------------------------------------------------
    def borrow(self, timeout: float) -> ServeClient:
        with self._lock:
            if self._clients:
                return self._clients.pop()
            port = self.port
        if port is None:
            raise ServeError(protocol.ERR_CONNECTION,
                             f"replica {self.index} has no port yet")
        return ServeClient("127.0.0.1", port, timeout=timeout,
                           connect_retries=2)

    def give_back(self, client: ServeClient) -> None:
        with self._lock:
            self._clients.append(client)

    def discard_clients(self) -> None:
        with self._lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()

    def alive(self) -> bool:
        return self.process is not None and self.process.exitcode is None

    def status_row(self) -> dict:
        return {"replica": self.index, "pid": self.pid,
                "port": self.port, "state": self.state,
                "restarts": self.restarts, "routed": self.routed}


class Fleet:
    """Router + supervisor over N replica processes.

    Exposes ``handle(header, payload) -> (header, payload)`` and
    ``close(drain)``, so :class:`~repro.serve.server.Server` serves a
    fleet exactly as it serves a single ``GenerationService``.

    Args:
        registry: A :class:`ModelRegistry` or its root path.  Replicas
            open their own registry instance over the same directory.
        replicas: Worker process count (>= 1).
        model_cache: Per-replica LRU capacity (models held hot).
        quota_rps / quota_burst: Per-client token-bucket rate limit;
            ``quota_rps=None`` (default) disables quotas.
        request_timeout: Seconds the router waits on one replica for
            one forwarded request before suspecting it.
        max_queue_rows / max_request_n: Passed through to every
            replica's service.
        respawn_policy: Backoff schedule for respawning dead replicas.
        clock: Injectable monotonic clock (quota + backoff tests).
    """

    def __init__(self, registry, *, replicas: int = 2,
                 model_cache: int = 4,
                 quota_rps: float | None = None,
                 quota_burst: int | None = None,
                 request_timeout: float = 60.0,
                 max_queue_rows: int = 4096,
                 max_request_n: int = DEFAULT_MAX_REQUEST_N,
                 respawn_policy: RetryPolicy | None = None,
                 clock=time.monotonic):
        if replicas < 1:
            raise ValueError("a fleet needs at least 1 replica")
        self.registry = (registry if isinstance(registry, ModelRegistry)
                         else ModelRegistry(registry))
        self.replicas = int(replicas)
        self.request_timeout = float(request_timeout)
        self.max_request_n = int(max_request_n)
        self.quotas = ClientQuotas(quota_rps, quota_burst, clock=clock)
        self.respawn_policy = respawn_policy or RetryPolicy(
            max_attempts=8, base_delay=0.1, multiplier=2.0, max_delay=5.0)
        self._clock = clock
        self._replica_options = {
            "model_cache": int(model_cache),
            "max_queue_rows": int(max_queue_rows),
            "max_request_n": int(max_request_n),
        }
        self.aliases: dict[str, str] = {}
        self._resolve_cache: dict[str, str] = {}
        self._alias_lock = threading.Lock()
        self._refresh_aliases()

        self._state_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        self._handles = [ReplicaHandle(i) for i in range(self.replicas)]
        self._closing = False
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self.totals = {"routed": 0, "retried": 0, "respawns": 0,
                       "rate_limited": 0}
        self._totals_lock = threading.Lock()

        for handle in self._handles:
            self._spawn(handle)
        deadline = time.monotonic() + 60.0
        for handle in self._handles:
            if not self._await_ready(handle, deadline):
                # Leave it to the supervisor's respawn loop.
                handle.state = "dead"
                handle.respawn_due = time.monotonic()

        self._supervisor_stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor",
            daemon=True)
        self._supervisor.start()

    # -- alias management ----------------------------------------------------
    def _refresh_aliases(self) -> None:
        """Pin ``name`` / ``name@latest`` to the newest published version.

        Called at construction and by the ``reload`` op -- the
        ``@latest`` flip.  Pinning happens at the router so every
        replica (and every retry of one request) resolves an alias to
        the *same* version even while a publish is racing.
        """
        aliases: dict[str, str] = {}
        for name in self.registry.models():
            record = self.registry.resolve(name)
            aliases[name] = record.spec
            aliases[f"{name}@latest"] = record.spec
        with self._alias_lock:
            self.aliases = aliases
            self._resolve_cache = dict(aliases)

    def _canonical_spec(self, spec: str) -> str:
        """Resolve a request spec to a canonical ``name@version``."""
        spec = str(spec)
        with self._alias_lock:
            cached = self._resolve_cache.get(spec)
        if cached is not None:
            return cached
        canonical = self.registry.resolve(spec).spec
        with self._alias_lock:
            self._resolve_cache[spec] = canonical
        return canonical

    # -- replica lifecycle ---------------------------------------------------
    def _spawn(self, handle: ReplicaHandle) -> None:
        handle.port_path = os.path.join(
            self._state_dir,
            f"replica-{handle.index}-{handle.restarts}.json")
        handle.port = None
        handle.pid = None
        handle.probes = 0
        handle.state = "starting"
        handle.discard_clients()
        context = mp_context()
        handle.process = context.Process(
            target=replica_main,
            args=(handle.index, self.registry.root, handle.port_path,
                  self._replica_options),
            name=f"repro-fleet-replica-{handle.index}", daemon=True)
        handle.process.start()

    def _await_ready(self, handle: ReplicaHandle,
                     deadline: float) -> bool:
        """Wait for the replica's port file, then a successful ping."""
        stop = getattr(self, "_supervisor_stop", None)
        while time.monotonic() < deadline:
            if stop is not None and stop.is_set():
                return False  # fleet is closing; don't block it
            if not handle.alive():
                return False
            if os.path.exists(handle.port_path):
                try:
                    with open(handle.port_path, encoding="utf-8") as fh:
                        info = json.load(fh)
                except (OSError, ValueError):
                    time.sleep(0.01)
                    continue
                handle.port = int(info["port"])
                handle.pid = int(info["pid"])
                try:
                    client = handle.borrow(timeout=5.0)
                except ServeError:
                    return False
                try:
                    ok = client.ping()
                except ServeError:
                    client.close()
                    return False
                handle.give_back(client)
                if ok:
                    handle.state = "healthy"
                    handle.failures = 0
                    return True
                return False
            time.sleep(0.01)
        return False

    def _mark_suspect(self, handle: ReplicaHandle) -> None:
        if handle.state == "healthy":
            handle.state = "suspect"
        handle.discard_clients()

    def _respawn(self, handle: ReplicaHandle) -> None:
        handle.restarts += 1
        handle.failures += 1
        with self._totals_lock:
            self.totals["respawns"] += 1
        obs_metrics.counter("fleet.respawns").inc()
        obs_events.emit("fleet.respawn",
                        {"replica": handle.index,
                         "restarts": handle.restarts}, transient=True)
        self._spawn(handle)
        if self._await_ready(handle, time.monotonic() + 30.0):
            return
        # Still not up: reap and schedule the next attempt.
        if handle.process is not None and handle.alive():
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        handle.state = "dead"
        attempt = min(handle.failures, self.respawn_policy.max_attempts)
        handle.respawn_due = (time.monotonic()
                              + self.respawn_policy.delay(attempt))

    def _supervise(self) -> None:
        """Background health loop: reap dead replicas, probe suspects,
        respawn on a bounded deterministic backoff."""
        while not self._supervisor_stop.wait(0.05):
            for handle in self._handles:
                if self._supervisor_stop.is_set():
                    return
                if handle.state in ("healthy", "suspect") \
                        and not handle.alive():
                    handle.state = "dead"
                    handle.respawn_due = time.monotonic()
                    handle.discard_clients()
                if handle.state == "suspect":
                    self._probe(handle)
                if handle.state == "dead" \
                        and time.monotonic() >= handle.respawn_due:
                    self._respawn(handle)

    def _probe(self, handle: ReplicaHandle) -> None:
        ok = False
        client = None
        try:
            client = handle.borrow(timeout=2.0)
            ok = client.ping()
        except ServeError:
            ok = False
        if client is not None:
            if ok:
                handle.give_back(client)
            else:
                client.close()
        if ok:
            handle.state = "healthy"
            handle.probes = 0
            handle.failures = 0
            return
        handle.probes += 1
        if handle.probes >= 3 and handle.alive():
            # Alive but unresponsive (hung): replace it.
            handle.process.terminate()
            handle.process.join(timeout=5.0)
            if handle.alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
            handle.state = "dead"
            handle.respawn_due = time.monotonic()

    # -- request routing -----------------------------------------------------
    def _healthy_order(self, preferred: int) -> list[ReplicaHandle]:
        """Healthy replicas starting at ``preferred``, wrapping forward."""
        ordered = []
        for offset in range(self.replicas):
            handle = self._handles[(preferred + offset) % self.replicas]
            if handle.state == "healthy":
                ordered.append(handle)
        return ordered

    def _forward(self, handle: ReplicaHandle, header: dict,
                 payload: bytes) -> tuple[dict, bytes, float]:
        """One attempt on one replica; returns the response and the
        seconds spent in the replica round trip.  Raises ServeError on
        transport failure (the caller suspects the replica and
        retries)."""
        client = handle.borrow(timeout=self.request_timeout)
        started = time.perf_counter()
        try:
            response, body = client._call(header, payload)
        except ServeError:
            client.close()
            raise
        elapsed = time.perf_counter() - started
        handle.give_back(client)
        return response, body, elapsed

    def _route_generate(self, header: dict) -> tuple[dict, bytes]:
        started = time.perf_counter()
        checked = protocol.validate_generate(header, self.max_request_n)
        if isinstance(checked, str):
            return self._error(protocol.ERR_BAD_REQUEST, checked)
        spec, n, seed = checked
        if not self.quotas.allow(header.get("client")):
            with self._totals_lock:
                self.totals["rate_limited"] += 1
            obs_metrics.counter("fleet.rate_limited").inc()
            return self._error(
                protocol.ERR_RATE_LIMITED,
                f"client {header.get('client') or 'anonymous'!r} is over "
                f"its {self.quotas.rate:g} req/s quota "
                f"(burst {self.quotas.burst}); back off and retry")
        try:
            canonical = self._canonical_spec(spec)
        except ModelNotFound as exc:
            return self._error(protocol.ERR_MODEL_NOT_FOUND, str(exc))

        forwarded = {"op": "generate", "model": canonical,
                     "n": int(n), "seed": int(seed)}
        validated = time.perf_counter()
        preferred = route_index(canonical, n, seed, self.replicas)
        last_error = "no healthy replica"
        for attempt in range(1, self.respawn_policy.max_attempts + 1):
            for handle in self._healthy_order(preferred):
                try:
                    response, body, forward = self._forward(
                        handle, forwarded, b"")
                except ServeError as exc:
                    self._mark_suspect(handle)
                    self._note_retry(handle, exc.code)
                    last_error = str(exc)
                    continue
                if response.get("code") in _RETRYABLE_CODES:
                    # The replica is draining; it produced no result.
                    self._note_retry(handle, response.get("code"))
                    last_error = response.get("error", "replica draining")
                    continue
                handle.routed += 1
                with self._totals_lock:
                    self.totals["routed"] += 1
                obs_metrics.counter("fleet.routed").inc()
                # route: replica choice, client borrow and failed
                # attempts; forward: the answering round trip.
                protocol.observe_stages(
                    "fleet", validate=validated - started,
                    route=time.perf_counter() - validated - forward,
                    forward=forward)
                return response, body
            # No healthy replica produced an answer this pass; give the
            # supervisor a deterministic beat to respawn one.
            time.sleep(self.respawn_policy.delay(attempt))
        return self._error(protocol.ERR_INTERNAL,
                           f"no healthy replica could serve the request "
                           f"after {self.respawn_policy.max_attempts} "
                           f"passes (last: {last_error})")

    def _note_retry(self, handle: ReplicaHandle, code) -> None:
        with self._totals_lock:
            self.totals["retried"] += 1
        obs_metrics.counter("fleet.retries").inc()
        obs_events.emit("fleet.retry",
                        {"replica": handle.index, "code": code},
                        transient=True)

    # -- dispatch ------------------------------------------------------------
    def _error(self, code: str, message: str) -> tuple[dict, bytes]:
        obs_metrics.counter(f"serve.errors.{code}").inc()
        return {"status": "error", "code": code, "error": message}, b""

    def describe(self) -> list[dict]:
        """One row per pinned alias target (the ``models`` op)."""
        with self._alias_lock:
            aliases = dict(self.aliases)
        rows: dict[str, dict] = {}
        for alias, canonical in aliases.items():
            row = rows.setdefault(canonical,
                                  {"spec": canonical, "aliases": []})
            row["aliases"].append(alias)
        for row in rows.values():
            row["aliases"].sort()
            row["replicas"] = sum(1 for h in self._handles
                                  if h.state == "healthy")
        return [rows[spec] for spec in sorted(rows)]

    def fleet_status(self) -> dict:
        with self._alias_lock:
            aliases = dict(self.aliases)
        with self._totals_lock:
            totals = dict(self.totals)
        return {
            "replicas": [h.status_row() for h in self._handles],
            "totals": totals,
            "aliases": aliases,
            "quota": ({"rps": self.quotas.rate,
                       "burst": self.quotas.burst}
                      if self.quotas.enabled else None),
        }

    def reload(self) -> dict:
        """Re-pin aliases against the registry (zero-downtime upgrade).

        After a new version is published, ``reload`` flips ``name`` and
        ``name@latest`` to it; replicas lazy-load the new version on
        first request and LRU-evict the old one.  No process restarts,
        no dropped requests.
        """
        self._refresh_aliases()
        obs_events.emit("fleet.reload", transient=True)
        with self._alias_lock:
            return dict(self.aliases)

    def handle(self, header: dict, payload: bytes = b"",
               stages: dict | None = None) -> tuple[dict, bytes]:
        """Serve one request (the same contract as GenerationService).

        ``stages`` is left empty: the replicas time their own stages,
        and the router observes ``fleet.stage_seconds.*`` itself.
        """
        with self._inflight_cv:
            if self._closing:
                return self._error(protocol.ERR_SHUTTING_DOWN,
                                   "fleet is draining")
            self._inflight += 1
        try:
            return self._dispatch(header, payload)
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def _dispatch(self, header: dict, payload: bytes
                  ) -> tuple[dict, bytes]:
        op = header.get("op")
        if op == "ping":
            return {"status": "ok"}, b""
        if op == "models":
            return {"status": "ok", "models": self.describe()}, b""
        if op in ("stats", "fleet_status"):
            info = {"status": "ok", "fleet": self.fleet_status()}
            if op == "stats" and obs_metrics.enabled():
                info["metrics"] = obs_metrics.current().dump()
            return info, b""
        if op == "reload":
            return {"status": "ok", "aliases": self.reload()}, b""
        if op == "generate":
            return self._route_generate(header)
        if op in ("submit", "status", "cancel", "jobs"):
            return self._error(
                protocol.ERR_JOBS_DISABLED,
                f"the fleet router does not orchestrate training jobs "
                f"(op {op!r}); submit to a single server with --jobs-dir")
        return self._error(protocol.ERR_BAD_REQUEST,
                           f"unknown op {op!r} (expected ping, models, "
                           f"generate, stats, fleet_status, or reload)")

    # -- lifecycle -----------------------------------------------------------
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain in-flight requests, then stop replicas and clean up.

        Ordering matters: requests already inside :meth:`handle` must
        finish their replica round-trips *before* replicas get SIGTERM,
        otherwise a drain would kill the very backends serving it.
        """
        with self._inflight_cv:
            if self._closing:
                return
            self._closing = True
            if drain:
                deadline = time.monotonic() + timeout
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cv.wait(remaining)
        self._supervisor_stop.set()
        self._supervisor.join(timeout=timeout)
        for handle in self._handles:
            handle.discard_clients()
            if handle.process is not None and handle.alive():
                handle.process.terminate()  # SIGTERM -> graceful drain
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(timeout=timeout)
                if handle.alive():
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
            handle.state = "dead"
        shutil.rmtree(self._state_dir, ignore_errors=True)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
