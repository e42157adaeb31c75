"""The supervised training worker (``python -m repro.serve.worker``).

One invocation executes one *attempt* of a job directory written by
:class:`repro.serve.jobs.JobStore`: train (resuming from the latest
checkpoint when one exists), write the model archive atomically, publish
it into the content-addressed registry with the correct backend tag, and
drop an atomic ``result.json`` receipt that the supervisor treats as the
completion marker.

Every step is idempotent, so the worker can die *anywhere* and a relaunch
converges on the same bytes:

- killed mid-training -> the next attempt resumes from ``checkpoint.npz``
  (bit-identical continuation);
- killed between the model write and the publish -> the next attempt
  skips training and just publishes (content addressing makes a double
  publish of identical bytes a no-op);
- killed between the publish and the receipt -> the next attempt
  republishes (no-op) and rewrites the receipt.

Every GAN backend (DoppelGANger, DLGAN, the naive GAN) trains through
the adversarial loop and resumes from its checkpoint.  The others
(HMM, AR, RNN) retrain from scratch on each attempt; their training is a
pure function of (config, seed, data), so the final bytes are identical
anyway.

Fault injection: a job record may carry test-only fault specs
(:mod:`repro.resilience.faults`) scoped to an attempt number; a ``kill``
action exits the process via ``os._exit`` -- no cleanup, no buffered
flushes -- the closest in-process stand-in for SIGKILL.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.backends import FitOptions, get_backend
from repro.data.dataset import TimeSeriesDataset
from repro.observability import events as obs_events
from repro.resilience import SentinelPolicy, faults
from repro.resilience.atomic import canonical_json, write_atomic
from repro.serve.jobs import JobRecord, JobStore
from repro.serve.registry import ModelRegistry

__all__ = ["run_job", "main"]

#: Exit code of a simulated kill (mirrors 128 + SIGKILL).
KILL_EXIT_CODE = 137


def _arm_faults(record: JobRecord) -> None:
    """Install the record's fault specs that target this attempt."""
    armed = []
    for spec in record.faults:
        if int(spec.get("attempt", 1)) != record.attempts:
            continue
        armed.append(faults.Fault(site=str(spec["site"]),
                                  action=str(spec["action"]),
                                  step=spec.get("step"),
                                  times=int(spec.get("times", 1))))
    if armed:
        faults.install(*armed)


def _train(record: JobRecord, data: TimeSeriesDataset, checkpoint: str):
    """Fit the job's model; a GAN resumes from ``checkpoint`` when one
    exists and runs the sentinel when the job asks for it."""
    backend = get_backend(record.backend)
    train = record.train
    config = backend.train_config(
        data.schema, iterations=int(train.get("iterations", 400)),
        batch_size=int(train.get("batch_size", 32)),
        hidden=int(train.get("hidden", 32)),
        seed=int(train.get("seed", 0)), sample_len=train.get("sample_len"))
    model = backend.from_config(data.schema, config)
    options = FitOptions()
    if backend.adversarial:
        sentinel = None
        if train.get("sentinel"):
            sentinel = SentinelPolicy(
                max_retries=int(train.get("max_retries", 3)))
        options = FitOptions(
            checkpoint_path=checkpoint,
            checkpoint_every=int(train.get("checkpoint_every", 25)),
            resume_from=checkpoint if os.path.exists(checkpoint) else None,
            sentinel=sentinel)
    backend.fit(model, data, options)
    return model


def _attach_scores(record: JobRecord, store: JobStore,
                   registry: ModelRegistry, published, blob: bytes):
    """Evaluate the published model and attach its quality scores."""
    from repro.quality import evaluate_model, scores_summary

    opts = record.evaluate
    data = TimeSeriesDataset.load(store.data_path(record.job_id))
    report = evaluate_model(
        blob, data,
        n=int(opts.get("n", min(len(data), 64))),
        seed=int(opts.get("seed", 0)),
        downstream=bool(opts.get("downstream", False)))
    return registry.attach_scores(published, scores_summary(report))


def run_job(job_dir: str, registry_root: str) -> int:
    """Execute one attempt of the job in ``job_dir``; returns exit code."""
    store = JobStore(os.path.dirname(os.path.abspath(job_dir)))
    job_id = os.path.basename(os.path.normpath(job_dir))
    record = store.get(job_id)
    _arm_faults(record)

    if store.read_result(job_id) is not None:
        return 0  # a previous attempt already finished everything

    backend = get_backend(record.backend)
    model_path = store.model_path(job_id)
    if not os.path.exists(model_path):
        data = TimeSeriesDataset.load(store.data_path(job_id))
        events_path = store.events_path(job_id, max(record.attempts, 1))
        with obs_events.capture(obs_events.EventLog(events_path,
                                                    run_id=job_id)):
            model = _train(record, data, store.checkpoint_path(job_id))
        write_atomic(model_path, backend.save_bytes(model))

    # Publish boundary: a kill here leaves the finished model archive on
    # disk; the relaunch takes the publish-only path above.
    faults.fire("jobs.pre_publish")
    with open(model_path, "rb") as handle:
        blob = handle.read()
    registry = ModelRegistry(registry_root)
    published = registry.publish(record.name, blob,
                                 backend=backend.name,
                                 meta={"job_id": job_id})
    if record.evaluate:
        # Score the published version against the job's own training
        # dataset.  Evaluation is a pure function of (model bytes, data,
        # options), so a crash-and-relaunch re-attaches identical scores
        # -- the step is idempotent like everything else here.
        published = _attach_scores(record, store, registry, published,
                                   blob)
    faults.fire("jobs.pre_receipt")
    receipt = {"spec": published.spec, "name": published.name,
               "version": published.version, "sha256": published.sha256,
               "nbytes": published.nbytes, "backend": published.backend}
    if published.scores is not None:
        receipt["scores"] = published.scores
    write_atomic(store.result_path(job_id),
                 canonical_json(receipt).encode("utf-8"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.worker",
        description="one supervised attempt of a training job")
    parser.add_argument("--job-dir", required=True)
    parser.add_argument("--registry", required=True)
    args = parser.parse_args(argv)
    try:
        return run_job(args.job_dir, args.registry)
    except faults.SimulatedKill as exc:
        # Die like SIGKILL would: no unwinding, no buffered writes.
        print(f"simulated kill: {exc}", file=sys.stderr, flush=True)
        os._exit(KILL_EXIT_CODE)
    except Exception as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
