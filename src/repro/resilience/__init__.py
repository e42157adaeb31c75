"""Training resilience layer: checkpoint/resume, divergence rollback,
deterministic fault injection, and structured sweep-failure records.

WGAN-GP training (the paper's substrate, §4.3-4.4) is unstable by nature;
long unattended runs additionally face process kills and partial writes.
This package makes the training loop survive all of it:

- :mod:`repro.resilience.checkpoint` -- full-state snapshots (parameters,
  Adam moments, RNG state, iteration counter, loss history) written
  atomically; a killed run resumes bit-identically.
- :mod:`repro.resilience.sentinel` -- per-step NaN/Inf/runaway detection
  with rollback to the last good snapshot and a bounded retry policy.
- :mod:`repro.resilience.faults` -- deterministic fault injection used by
  tests to prove every recovery path.
- :mod:`repro.resilience.failures` -- :class:`FailureRecord` used by the
  experiment harness to isolate per-model failures in a sweep.
- :mod:`repro.resilience.retry` -- bounded, deterministic
  retry-with-backoff used by the serve client, registry reads, and the
  job supervisor.
- :mod:`repro.resilience.atomic` -- the one atomic-write primitive
  (temp file + fsync + ``os.replace``) behind every durable file.
"""

from repro.resilience import faults
from repro.resilience.checkpoint import (load_checkpoint, restore_trainer,
                                         save_checkpoint, snapshot_trainer,
                                         trainer_params_finite)
from repro.resilience.failures import FailureRecord
from repro.resilience.faults import FaultInjected, SimulatedKill
from repro.resilience.retry import RetryPolicy, retry_call
from repro.resilience.sentinel import (DivergenceDetected,
                                       DivergenceSentinel, SentinelPolicy,
                                       TrainingDiverged)

__all__ = [
    "faults", "FaultInjected", "SimulatedKill",
    "SentinelPolicy", "DivergenceSentinel", "DivergenceDetected",
    "TrainingDiverged",
    "FailureRecord",
    "RetryPolicy", "retry_call",
    "save_checkpoint", "load_checkpoint", "snapshot_trainer",
    "restore_trainer", "trainer_params_finite",
]
