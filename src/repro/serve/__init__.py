"""repro.serve: model registry + generation service.

The serving stack between a trained :class:`DoppelGANger` and its
consumers (docs/serving.md):

- :mod:`repro.serve.registry` -- on-disk, versioned, content-addressed
  model storage (``publish`` / ``resolve`` / ``load``).
- :mod:`repro.serve.batcher` -- per-model admission gate that runs
  concurrent ``generate(n, seed)`` requests one at a time, in admission
  order, on their callers' threads, byte-identical to direct
  generation.
- :mod:`repro.serve.protocol` -- length-prefixed JSON + npz framing.
- :mod:`repro.serve.server` / :mod:`repro.serve.client` -- threaded
  loopback-socket server with bounded admission and graceful drain, plus
  socket and in-process clients.
- :mod:`repro.serve.jobs` / :mod:`repro.serve.worker` -- crash-
  recoverable training-as-a-service: durable job records, a supervisor
  that auto-resumes killed workers from their latest checkpoint, and
  auto-publish of finished models back into the registry.
- :mod:`repro.serve.fleet` -- multi-replica serving: a router over N
  supervised replica processes with deterministic routing, per-worker
  LRU model caches, per-client quotas, and replica-death retry -- all
  byte-identical to a single ``GenerationService``.
"""

from repro.serve.batcher import BatcherClosed, MicroBatcher, QueueFull
from repro.serve.client import (InProcessClient, RateLimited, ServeClient,
                                ServeError, ServerBusy)
from repro.serve.fleet import (ClientQuotas, Fleet, ModelCache,
                               ReplicaService, TokenBucket, route_index)
from repro.serve.jobs import (JobError, JobRecord, JobStore,
                              JobSupervisor, UnknownJob, job_progress)
from repro.serve.registry import (CorruptModelBlob, ModelNotFound,
                                  ModelRecord, ModelRegistry,
                                  RegistryError)
from repro.serve.server import GenerationService, Server

__all__ = [
    "ModelRegistry", "ModelRecord", "RegistryError", "ModelNotFound",
    "CorruptModelBlob",
    "MicroBatcher", "QueueFull", "BatcherClosed",
    "GenerationService", "Server",
    "ServeClient", "InProcessClient", "ServeError", "ServerBusy",
    "RateLimited",
    "Fleet", "ReplicaService", "ModelCache", "TokenBucket",
    "ClientQuotas", "route_index",
    "JobStore", "JobRecord", "JobSupervisor", "JobError", "UnknownJob",
    "job_progress",
]
