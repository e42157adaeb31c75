"""Self-tests of the benchmark itself.

Run from the root of a checkout (about two minutes)::

    python3 perfbench/selftest.py

- smoke: a few ops of every workload, traced and untraced, through the
  real command line; every metric named in BENCHMARK.json must be
  emitted with its unit, and no op may fail;
- the checks can fail: a corrupted serve response, a corrupted model
  blob and a perturbed trainer must each be counted as failed ops;
- outside a full checkout the command must exit non-zero without
  printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

import hostenv

hostenv.pin()

import numpy as np  # noqa: E402  (after pin: one BLAS thread)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL  # noqa: E402

BENCHMARK = os.path.join(hostenv.ROOT, "BENCHMARK.json")
RUN = os.path.join("perfbench", "run.py")


def _run_cli(workload: str, seconds: float, trace: int,
             cwd: str = hostenv.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    emitted = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    expected = {entry["name"]: entry["unit"] for entry in declared}
    assert emitted == expected, (
        f"emitted {sorted(set(emitted) ^ set(expected))} differ")
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert np.isfinite(entry["value"]), name


def test_smoke():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    # BENCHMARK.json names a subset of the streams as workloads (see
    # README); every stream must still run and emit every metric.
    assert set(w["name"] for w in spec["workloads"]) <= set(run.ORDER)
    for name in run.ORDER:
        result = _result(_run_cli(name, 1, 0))
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        _assert_metrics(result, spec["end_to_end"])
    result = _result(_run_cli("serve-small", 4, 1))
    assert result["correct"] and result["failed"] == 0, result
    _assert_metrics(result, spec["per_layer"])


def _stream(workload, ops: int) -> dict:
    workload.min_ops = ops
    return run.measure(workload, 0.0, NULL)


def test_corrupted_response_fails():
    with tempfile.TemporaryDirectory(dir=hostenv.OUT) as workdir:
        workload = workloads.ServeSmall(3, workdir)
        try:
            workload.setup()
            served = workload.client.generate

            def corrupted(*args, **kwargs):
                dataset = served(*args, **kwargs)
                dataset.features[0, 0, 0] += 1e-6
                return dataset

            workload.client.generate = corrupted
            stream = _stream(workload, 3)
        finally:
            workload.close()
    assert stream["attempted"] == 3 and stream["failed"] == 3, stream


def test_corrupted_blob_fails():
    with tempfile.TemporaryDirectory(dir=hostenv.OUT) as workdir:
        workload = workloads.ReleaseGcut(3, workdir)
        try:
            workload.setup()
            registry = workload.registry
            publish = registry.publish

            def publish_then_corrupt(*args, **kwargs):
                record = publish(*args, **kwargs)
                path = os.path.join(registry.root, "blobs",
                                    f"{record.sha256}.npz")
                with open(path, "r+b") as fh:
                    fh.seek(record.nbytes // 2)
                    byte = fh.read(1)
                    fh.seek(record.nbytes // 2)
                    fh.write(bytes([byte[0] ^ 0xFF]))
                return record

            registry.publish = publish_then_corrupt
            stream = _stream(workload, 1)
        finally:
            workload.close()
    assert stream["attempted"] == 1 and stream["failed"] == 1, stream
    assert "CorruptModelBlob" in stream["problems"][0], stream


def test_perturbed_trainer_fails():
    with tempfile.TemporaryDirectory(dir=hostenv.OUT) as workdir:
        workload = workloads.TrainWWT(3, workdir)
        try:
            workload.setup()
            workload.model.trainer.generator_params[0].data[0] += 1e-3
            stream = _stream(workload, workload.sha_after)
            run._finish(workload, stream)
        finally:
            workload.close()
    assert stream["failed"] == 1, stream
    assert "parameter sha" in stream["problems"][0], stream


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=hostenv.OUT) as bare:
        shutil.copy(BENCHMARK, bare)
        shutil.copytree(os.path.join(hostenv.ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_cli("serve-small", 1, 0, cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    os.makedirs(hostenv.OUT, exist_ok=True)
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    failures = 0
    for test in tests:
        try:
            test()
        except Exception:
            failures += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
