"""Crash-recoverable training jobs: durable records + a supervisor.

The paper's data-holder workflow -- train a GAN on private traces, then
share the generator -- assumes a long, failure-prone WGAN-GP run
completes reliably.  :mod:`repro.resilience` made a *single* training
loop survive kills and divergence; this module supervises the whole job
lifecycle so training can run as a service::

    submit -> queued -> running -> completed (auto-published)
                          |-> crashed -> queued (auto-resume, bounded)
                          |-> cancelled / failed

Three pieces:

- :class:`JobStore` -- one directory per job holding a ``job.json``
  record plus the job's dataset, checkpoint, model archive, per-attempt
  telemetry event logs, and the publish receipt.  Every record update is
  an atomic tmp + ``fsync`` + ``os.replace`` write (the same discipline
  as checkpoints and registry manifests), so a crash at any instant
  leaves either the old record or the new one -- and ``status`` keeps
  working after the supervising process itself is restarted.
- :class:`JobSupervisor` -- a background thread that launches one worker
  subprocess per runnable job (``python -m repro.serve.worker``),
  detects worker death (crash, SIGKILL, injected
  :mod:`repro.resilience.faults`), and requeues the job with bounded
  retries on a deterministic exponential backoff
  (:class:`~repro.resilience.retry.RetryPolicy`).  Because the worker
  checkpoints through :mod:`repro.resilience.checkpoint` and publishes
  through the content-addressed registry, a resumed job publishes a
  model **byte-identical** to an uninterrupted run of the same
  config/seed -- the PR 2 kill/resume guarantee, extended from one
  training loop to the full submit->publish lifecycle.
- :func:`job_progress` -- live progress (iteration, losses, sentinel
  rollbacks) streamed out of the worker's telemetry event log
  (:mod:`repro.observability.events`), merged with the durable record
  for the ``status`` protocol verb.

Supervisor restart semantics: jobs found ``running`` at startup lost
their supervisor, so they are requeued and resume from their latest
checkpoint.  An orphaned worker that somehow survived double-runs
harmlessly: checkpoints are atomic, the model archive write is atomic,
and publishing identical bytes into the content-addressed registry is an
idempotent no-op.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.resilience.atomic import canonical_json, write_atomic
from repro.resilience.retry import RetryPolicy

__all__ = ["JobError", "UnknownJob", "JobRecord", "JobStore",
           "JobSupervisor", "job_progress", "JOB_STATES",
           "TRAIN_KEYS", "validate_train_overrides",
           "EVALUATE_KEYS", "validate_evaluate_options"]

#: The job lifecycle state machine (docs/robustness.md).
JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("completed", "failed", "cancelled")

#: Training overrides a submission may carry; everything else is a
#: ``bad_request`` at the protocol boundary, not a silent ignore.
TRAIN_KEYS = {
    "iterations": int, "batch_size": int, "hidden": int,
    "sample_len": int, "seed": int, "checkpoint_every": int,
    "max_retries": int, "sentinel": bool,
}

#: Auto-evaluation options a submission may carry (``evaluate``); the
#: worker scores the published model against the job's own training
#: dataset and attaches the scores to the registry version.
EVALUATE_KEYS = {"n": int, "seed": int, "downstream": bool}

_JOB_ID_RE = re.compile(r"^job-(\d{6})$")


class JobError(RuntimeError):
    """A job-orchestration failure with a user-facing message."""


class UnknownJob(JobError):
    """No job record exists under the requested id."""


def validate_train_overrides(train: dict | None) -> dict:
    """Check a submission's training overrides; returns a clean copy.

    Raises :class:`JobError` naming the offending key so the protocol
    layer can forward it as a ``bad_request``.
    """
    clean: dict = {}
    for key, value in dict(train or {}).items():
        expected = TRAIN_KEYS.get(key)
        if expected is None:
            raise JobError(
                f"unknown training option {key!r} "
                f"(supported: {', '.join(sorted(TRAIN_KEYS))})")
        if expected is bool:
            if not isinstance(value, bool):
                raise JobError(f"training option {key!r} must be a "
                               f"boolean, got {value!r}")
        elif not isinstance(value, int) or isinstance(value, bool):
            raise JobError(f"training option {key!r} must be an "
                           f"integer, got {value!r}")
        clean[key] = value
    return clean


def validate_evaluate_options(evaluate: dict | None) -> dict:
    """Check a submission's auto-evaluation options; returns a clean copy.

    Mirrors :func:`validate_train_overrides`: an unknown or mistyped key
    is a :class:`JobError` (-> ``bad_request``), never a silent ignore.
    """
    clean: dict = {}
    for key, value in dict(evaluate or {}).items():
        expected = EVALUATE_KEYS.get(key)
        if expected is None:
            raise JobError(
                f"unknown evaluate option {key!r} "
                f"(supported: {', '.join(sorted(EVALUATE_KEYS))})")
        if expected is bool:
            if not isinstance(value, bool):
                raise JobError(f"evaluate option {key!r} must be a "
                               f"boolean, got {value!r}")
        elif not isinstance(value, int) or isinstance(value, bool):
            raise JobError(f"evaluate option {key!r} must be an "
                           f"integer, got {value!r}")
        clean[key] = value
    return clean


@dataclass
class JobRecord:
    """The durable facts of one training job (``job.json``).

    ``attempts`` counts worker launches (1 on the first run); ``result``
    is the publish receipt once the job completes.  ``faults`` is a
    test-only list of :mod:`repro.resilience.faults` specs the worker
    arms for a given attempt -- production submissions leave it empty.
    """

    job_id: str
    name: str
    backend: str
    train: dict = field(default_factory=dict)
    evaluate: dict = field(default_factory=dict)
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = 3
    cancel_requested: bool = False
    error: str | None = None
    result: dict | None = None
    faults: list = field(default_factory=list)

    def to_json(self) -> str:
        return canonical_json(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "JobRecord":
        record = json.loads(text)
        return cls(**{key: record[key] for key in
                      cls.__dataclass_fields__ if key in record})

    def public(self) -> dict:
        """The protocol/CLI view of this record."""
        return {"job_id": self.job_id, "name": self.name,
                "backend": self.backend, "state": self.state,
                "attempts": self.attempts,
                "max_attempts": self.max_attempts,
                "error": self.error, "result": self.result,
                "train": dict(self.train),
                "evaluate": dict(self.evaluate)}


class JobStore:
    """A directory of job records with atomic state transitions.

    Layout (one subdirectory per job)::

        ROOT/job-000001/
          job.json            # durable JobRecord (atomic replace)
          data.npz            # the submitted training dataset
          checkpoint.npz      # resumable training state (worker-owned)
          model.npz           # finished model archive (atomic)
          result.json         # publish receipt (atomic; completion marker)
          events-<k>.jsonl    # attempt-k telemetry event log
          worker.log          # worker stdout/stderr (debugging only)
    """

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------------
    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.root, job_id)

    def record_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "job.json")

    def data_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "data.npz")

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "checkpoint.npz")

    def model_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "model.npz")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    def events_path(self, job_id: str, attempt: int) -> str:
        return os.path.join(self.job_dir(job_id),
                            f"events-{int(attempt)}.jsonl")

    def log_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "worker.log")

    # -- records -------------------------------------------------------------
    def create(self, name: str, backend: str, data_bytes: bytes,
               train: dict | None = None, max_attempts: int = 3,
               faults: list | None = None,
               evaluate: dict | None = None) -> JobRecord:
        """Persist a new queued job; ids are dense and ordered."""
        with self._lock:
            job_id = f"job-{self._next_index():06d}"
            record = JobRecord(job_id=job_id, name=str(name),
                               backend=str(backend),
                               train=validate_train_overrides(train),
                               evaluate=validate_evaluate_options(evaluate),
                               max_attempts=int(max_attempts),
                               faults=list(faults or []))
            os.makedirs(self.job_dir(job_id), exist_ok=True)
            write_atomic(self.data_path(job_id), bytes(data_bytes))
            self._write(record)
        obs_metrics.counter("jobs.submitted").inc()
        obs_events.emit("jobs.submit",
                        {"job_id": job_id, "name": record.name,
                         "backend": record.backend},
                        transient=True)
        return record

    def _next_index(self) -> int:
        highest = 0
        for entry in os.listdir(self.root):
            match = _JOB_ID_RE.match(entry)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    def _write(self, record: JobRecord) -> None:
        write_atomic(self.record_path(record.job_id),
                     record.to_json().encode("utf-8"))

    def update(self, record: JobRecord) -> JobRecord:
        """Atomically persist ``record`` (tmp + fsync + replace)."""
        with self._lock:
            self._write(record)
        return record

    def get(self, job_id: str) -> JobRecord:
        try:
            with open(self.record_path(job_id), encoding="utf-8") as fh:
                return JobRecord.from_json(fh.read())
        except FileNotFoundError:
            known = ", ".join(self.job_ids()) or "<none>"
            raise UnknownJob(f"no job {job_id!r} in store {self.root!r} "
                             f"(jobs: {known})") from None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise JobError(f"job record for {job_id!r} is unreadable "
                           f"({exc})") from exc

    def job_ids(self) -> list[str]:
        """All job ids in the store, in submission order."""
        return sorted(entry for entry in os.listdir(self.root)
                      if _JOB_ID_RE.match(entry))

    def list(self) -> list[JobRecord]:
        return [self.get(job_id) for job_id in self.job_ids()]

    def read_result(self, job_id: str) -> dict | None:
        """The worker's publish receipt, or None before completion."""
        try:
            with open(self.result_path(job_id), encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise JobError(f"publish receipt for {job_id!r} is "
                           f"unreadable ({exc})") from exc


# -- progress from telemetry -------------------------------------------------

def job_progress(store: JobStore, record: JobRecord) -> dict:
    """Live progress of ``record`` from its latest attempt's event log.

    The worker streams ``train.start`` / ``train.iteration`` /
    ``sentinel.rollback`` events (the PR 4 instrumentation) into a
    per-attempt JSONL file; this distils them into the ``status`` view.
    Returns zeros before the first iteration lands.
    """
    progress = {"iteration": None, "iterations": None, "d_loss": None,
                "g_loss": None, "rollbacks": 0, "resumed_from": None}
    attempt = max(record.attempts, 1)
    events = obs_events.read_events(store.events_path(record.job_id,
                                                      attempt))
    started = False
    for event in events:
        if event.kind == "train.start":
            progress["iterations"] = event.payload.get("iterations")
            # Only an attempt's first stage can resume; a later stage of
            # a multi-stage fit (DLGAN) starts where the earlier stopped.
            start = event.payload.get("start_iteration", 0)
            if start and not started:
                progress["resumed_from"] = start
            started = True
        elif event.kind == "train.iteration":
            progress["iteration"] = event.payload.get("iteration")
            progress["d_loss"] = event.payload.get("d_loss")
            progress["g_loss"] = event.payload.get("g_loss")
        elif event.kind == "sentinel.rollback":
            progress["rollbacks"] += 1
    return progress


# -- the supervisor ----------------------------------------------------------

class JobSupervisor:
    """Run queued jobs in worker subprocesses; resume the ones that die.

    Args:
        store: The durable job store (shared with ``status`` readers).
        registry_root: Registry directory workers publish into.
        max_workers: Concurrent worker subprocesses.
        retry: Backoff schedule between relaunches of a crashed job
            (deterministic; see :class:`~repro.resilience.retry.RetryPolicy`).
            A job's total launch budget is its record's ``max_attempts``.
        poll_interval: Supervisor loop cadence in seconds.
        on_publish: Optional ``on_publish(record)`` hook fired when a
            job completes, with the publish receipt already on the
            record and before the completed state is persisted -- the
            serving layer uses it to hot-load the new model so
            ``generate`` picks it up immediately.
    """

    def __init__(self, store: JobStore, registry_root: str | os.PathLike,
                 *, max_workers: int = 1,
                 retry: RetryPolicy | None = None,
                 poll_interval: float = 0.05, on_publish=None):
        self.store = store
        self.registry_root = os.fspath(registry_root)
        self.max_workers = int(max_workers)
        self.retry = retry or RetryPolicy(max_attempts=3, base_delay=0.1,
                                          multiplier=2.0, max_delay=5.0)
        self.poll_interval = float(poll_interval)
        self.on_publish = on_publish
        self._procs: dict[str, subprocess.Popen] = {}
        self._logs: dict[str, object] = {}
        self._backoff_until: dict[str, float] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "JobSupervisor":
        """Recover the store, then start the supervision thread."""
        self.recover()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-jobs-supervisor",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, kill_workers: bool = True,
             timeout: float = 10.0) -> None:
        """Stop supervising.  Running workers are killed by default --
        their jobs stay ``running`` on disk and a later supervisor's
        :meth:`recover` requeues them (resume from checkpoint)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        with self._lock:
            procs = dict(self._procs)
        for job_id, proc in procs.items():
            if kill_workers and proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            self._close_log(job_id)

    def recover(self) -> list[str]:
        """Requeue jobs found ``running`` with no live worker.

        Called at startup: a ``running`` record whose supervisor died
        means the worker is gone (or orphaned -- harmless, see module
        docstring); the job resumes from its latest checkpoint.
        Returns the requeued job ids.
        """
        requeued = []
        for record in self.store.list():
            if record.state != "running" or record.job_id in self._procs:
                continue
            result = self.store.read_result(record.job_id)
            if result is not None:
                # The worker finished but the old supervisor never saw
                # it; complete the job rather than re-running it.
                self._complete(record, result)
                continue
            record.state = "queued"
            self.store.update(record)
            requeued.append(record.job_id)
            obs_metrics.counter("jobs.recovered").inc()
        return requeued

    def __enter__(self) -> "JobSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- public operations ---------------------------------------------------
    def submit(self, name: str, backend: str, data_bytes: bytes,
               train: dict | None = None, max_attempts: int | None = None,
               faults: list | None = None,
               evaluate: dict | None = None) -> JobRecord:
        """Persist and queue a new job; the loop picks it up."""
        budget = (self.retry.max_attempts if max_attempts is None
                  else int(max_attempts))
        return self.store.create(name, backend, data_bytes, train=train,
                                 max_attempts=max(budget, 1),
                                 faults=faults, evaluate=evaluate)

    def status(self, job_id: str) -> dict:
        """The durable record merged with live telemetry progress."""
        record = self.store.get(job_id)
        view = record.public()
        view["progress"] = job_progress(self.store, record)
        return view

    def cancel(self, job_id: str) -> dict:
        """Cancel a job; a running worker is killed, a queued job never
        starts.  Cancelling a terminal job is a no-op."""
        with self._lock:
            record = self.store.get(job_id)
            if record.state in TERMINAL_STATES:
                return record.public()
            record.cancel_requested = True
            if record.state == "queued":
                record.state = "cancelled"
                self.store.update(record)
                self._backoff_until.pop(job_id, None)
            else:
                self.store.update(record)
                proc = self._procs.get(job_id)
                if proc is not None and proc.poll() is None:
                    proc.kill()
            obs_metrics.counter("jobs.cancelled").inc()
            return record.public()

    def jobs(self) -> list[dict]:
        """One public row per job, in submission order."""
        return [record.public() for record in self.store.list()]

    # -- the loop ------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.tick()
            except Exception:
                # The supervisor must outlive any single bad record;
                # errors surface on the affected job, not the loop.
                pass
            self._stop.wait(self.poll_interval)

    def tick(self, now: float | None = None) -> None:
        """One supervision round: reap exits, launch runnable jobs.

        Exposed (with an injectable clock) so tests can drive the state
        machine deterministically without the background thread.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            self._reap()
            self._launch_runnable(now)

    def _reap(self) -> None:
        for job_id, proc in list(self._procs.items()):
            returncode = proc.poll()
            if returncode is None:
                continue
            del self._procs[job_id]
            self._close_log(job_id)
            record = self.store.get(job_id)
            result = self.store.read_result(job_id)
            if result is not None:
                self._complete(record, result)
            elif record.cancel_requested:
                record.state = "cancelled"
                self.store.update(record)
            elif record.attempts >= record.max_attempts:
                record.state = "failed"
                record.error = (
                    f"worker exited with code {returncode} on attempt "
                    f"{record.attempts}/{record.max_attempts}; retry "
                    f"budget exhausted")
                self.store.update(record)
                obs_metrics.counter("jobs.failed").inc()
            else:
                # Crash -> requeue with deterministic backoff; the next
                # attempt resumes from the latest checkpoint.
                record.state = "queued"
                record.error = (f"worker exited with code {returncode} "
                                f"on attempt {record.attempts}; "
                                f"resuming")
                self.store.update(record)
                self._backoff_until[job_id] = (
                    time.monotonic()
                    + self.retry.delay(record.attempts))
                obs_metrics.counter("jobs.resumes").inc()

    def _launch_runnable(self, now: float) -> None:
        if len(self._procs) >= self.max_workers:
            return
        for record in self.store.list():
            if len(self._procs) >= self.max_workers:
                return
            if record.state != "queued" or record.job_id in self._procs:
                continue
            deadline = self._backoff_until.get(record.job_id)
            if deadline is not None and now < deadline:
                continue
            self._backoff_until.pop(record.job_id, None)
            self._launch(record)

    def _launch(self, record: JobRecord) -> None:
        record.attempts += 1
        record.state = "running"
        self.store.update(record)
        log = open(self.store.log_path(record.job_id), "ab")
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__import__("repro").__file__)))
        env["PYTHONPATH"] = package_root + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.worker",
             "--job-dir", self.store.job_dir(record.job_id),
             "--registry", self.registry_root],
            stdout=log, stderr=subprocess.STDOUT, env=env)
        self._procs[record.job_id] = proc
        self._logs[record.job_id] = log
        obs_metrics.counter("jobs.launched").inc()

    def _complete(self, record: JobRecord, result: dict) -> None:
        record.state = "completed"
        record.result = dict(result)
        record.error = None
        # Hot-load before the completed state is persisted, so a client
        # that reads "completed" can generate from the model at once.
        if self.on_publish is not None:
            try:
                self.on_publish(record)
            except Exception:
                # Serving hot-load is best-effort; the registry holds
                # the published model either way.
                pass
        self.store.update(record)
        obs_metrics.counter("jobs.completed").inc()

    def _close_log(self, job_id: str) -> None:
        log = self._logs.pop(job_id, None)
        if log is not None:
            try:
                log.close()
            except OSError:
                pass

    # -- introspection -------------------------------------------------------
    def running(self) -> list[str]:
        """Job ids with a live worker right now."""
        with self._lock:
            return sorted(job_id for job_id, proc in self._procs.items()
                          if proc.poll() is None)
