"""The ISSUE 7 acceptance battery: kill a training job at every
checkpoint/publish boundary and prove the auto-resumed job publishes a
model byte-identical to an uninterrupted run.

Real worker subprocesses, real SIGKILL, durable records surviving a
supervisor restart -- the integration-level counterpart of the unit
tests in tests/serve/test_jobs_*.py.
"""

import io
import os
import signal
import time

import numpy as np
import pytest

from repro.data.simulators import generate_gcut
from repro.resilience.retry import RetryPolicy
from repro.serve.jobs import JobStore, JobSupervisor, job_progress
from repro.serve.registry import ModelRegistry

# The proven seconds-scale config: ~0.5s per uninterrupted run.
TRAIN = {"iterations": 10, "batch_size": 8, "hidden": 8,
         "sample_len": 4, "seed": 5, "checkpoint_every": 3}

#: Kill sites spanning the whole lifecycle: mid-training (between
#: checkpoints), inside the atomic model write, before the publish, and
#: between the publish and the receipt.
KILL_SITES = [
    {"site": "trainer.step", "action": "kill", "step": 6, "attempt": 1},
    {"site": "serialization.pre_rename", "action": "kill", "attempt": 1},
    {"site": "jobs.pre_publish", "action": "kill", "attempt": 1},
    {"site": "jobs.pre_receipt", "action": "kill", "attempt": 1},
]

#: Extra kills per backend.  DLGAN numbers its refinement stage on from
#: its pattern stage (iterations 10..19 here), so step 6 above kills
#: inside the pattern stage and step 16 inside the refinement stage.
EXTRA_KILL_SITES = {
    "dlgan": [{"site": "trainer.step", "action": "kill", "step": 16,
               "attempt": 1}],
}

#: The other GAN backends the kill battery covers besides DoppelGANger.
OTHER_GAN_BACKENDS = ["dlgan", "naive_gan"]


@pytest.fixture(scope="module")
def data_bytes():
    dataset = generate_gcut(30, np.random.default_rng(0), max_length=12)
    buffer = io.BytesIO()
    dataset.save(buffer)
    return buffer.getvalue()


def _supervisor(tmp_path, tag):
    return JobSupervisor(
        JobStore(tmp_path / f"jobs-{tag}"), tmp_path / f"registry-{tag}",
        retry=RetryPolicy(max_attempts=4, base_delay=0.02,
                          multiplier=2.0, max_delay=0.1),
        poll_interval=0.02)


def _run_to_completion(supervisor, data_bytes, *, backend="doppelganger",
                       faults=None, timeout=120.0):
    record = supervisor.submit("m", backend, data_bytes,
                               train=TRAIN, faults=faults)
    with supervisor:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            current = supervisor.store.get(record.job_id)
            if current.state in ("completed", "failed", "cancelled"):
                return current
            time.sleep(0.05)
    raise AssertionError(f"job {record.job_id} did not finish")


def _assert_kills_publish_byte_identical_models(tmp_path, data_bytes,
                                                backend):
    control = _run_to_completion(_supervisor(tmp_path, "control"),
                                 data_bytes, backend=backend)
    assert control.state == "completed", control.error
    assert control.attempts == 1
    control_sha = control.result["sha256"]

    kills = KILL_SITES + EXTRA_KILL_SITES.get(backend, [])
    for index, fault in enumerate(kills):
        tag = f"kill-{index}"
        survivor = _run_to_completion(_supervisor(tmp_path, tag),
                                      data_bytes, backend=backend,
                                      faults=[fault])
        assert survivor.state == "completed", (fault, survivor.error)
        # Exactly one crash, one auto-resume.
        assert survivor.attempts == 2, fault
        if fault["site"] == "trainer.step":
            # The second attempt resumed from the last checkpoint before
            # the kill instead of retraining from scratch.
            store = JobStore(tmp_path / f"jobs-{tag}")
            last = fault["step"] - fault["step"] % TRAIN["checkpoint_every"]
            assert job_progress(store, survivor)["resumed_from"] == last
        # The published bytes match the uninterrupted run exactly --
        # content addressing makes the sha a byte-identity proof.
        assert survivor.result["sha256"] == control_sha, fault
        assert survivor.result["spec"] == "m@1"
        registry = ModelRegistry(tmp_path / f"registry-{tag}")
        assert registry.resolve("m@1").sha256 == control_sha


@pytest.mark.slow
def test_killed_jobs_publish_byte_identical_models(tmp_path, data_bytes):
    _assert_kills_publish_byte_identical_models(tmp_path, data_bytes,
                                                "doppelganger")


@pytest.mark.slow
@pytest.mark.parametrize("backend", OTHER_GAN_BACKENDS)
def test_killed_jobs_publish_byte_identical_models_per_backend(
        tmp_path, data_bytes, backend):
    _assert_kills_publish_byte_identical_models(tmp_path, data_bytes,
                                                backend)


@pytest.mark.slow
def test_real_sigkill_mid_training_auto_resumes(tmp_path, data_bytes):
    supervisor = _supervisor(tmp_path, "sigkill")
    # Slow the job down enough to catch its worker alive.
    train = dict(TRAIN, iterations=60)
    record = supervisor.submit("m", "doppelganger", data_bytes,
                               train=train)
    with supervisor:
        deadline = time.monotonic() + 60.0
        pid = None
        while time.monotonic() < deadline and pid is None:
            with supervisor._lock:
                proc = supervisor._procs.get(record.job_id)
                if proc is not None and proc.poll() is None:
                    pid = proc.pid
            time.sleep(0.01)
        assert pid is not None, "worker never started"
        time.sleep(0.3)  # let some iterations (and a checkpoint) land
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # finished before the kill landed; resume not needed
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            current = supervisor.store.get(record.job_id)
            if current.state in ("completed", "failed"):
                break
            time.sleep(0.05)
    assert current.state == "completed", current.error

    # The SIGKILLed-and-resumed run matches an uninterrupted control
    # with the same (slowed-down) config.
    control2 = _supervisor(tmp_path, "sigkill-control")
    record2 = control2.submit("m", "doppelganger", data_bytes,
                              train=train)
    with control2:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            done = control2.store.get(record2.job_id)
            if done.state in ("completed", "failed"):
                break
            time.sleep(0.05)
    assert done.state == "completed", done.error
    assert current.result["sha256"] == done.result["sha256"]


@pytest.mark.slow
def test_records_survive_supervisor_restart(tmp_path, data_bytes):
    jobs_dir = tmp_path / "jobs"
    registry_dir = tmp_path / "registry"
    retry = RetryPolicy(max_attempts=4, base_delay=0.02,
                        multiplier=2.0, max_delay=0.1)

    first = JobSupervisor(JobStore(jobs_dir), registry_dir, retry=retry,
                          poll_interval=0.02)
    record = first.submit("m", "doppelganger", data_bytes,
                          train=dict(TRAIN, iterations=60))
    first.start()
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and not first.running():
        time.sleep(0.01)
    assert first.running() == [record.job_id]
    time.sleep(0.3)
    # The supervisor "crashes": workers die with it, records stay.
    first.stop(kill_workers=True)

    # A brand-new supervisor over the same directories can answer
    # status immediately (durable records) ...
    second = JobSupervisor(JobStore(jobs_dir), registry_dir, retry=retry,
                           poll_interval=0.02)
    status = second.status(record.job_id)
    assert status["job_id"] == record.job_id
    assert status["state"] == "running"  # as left behind by the crash

    # ... and recover() requeues the orphaned job, which then resumes
    # from its checkpoint and completes.
    requeued = second.recover()
    assert requeued == [record.job_id]
    with second:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            current = second.store.get(record.job_id)
            if current.state in ("completed", "failed"):
                break
            time.sleep(0.05)
    assert current.state == "completed", current.error
    assert current.result["spec"] == "m@1"
    assert ModelRegistry(registry_dir).resolve("m@1").sha256 == \
        current.result["sha256"]
