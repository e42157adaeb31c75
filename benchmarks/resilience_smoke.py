"""Resilience smoke check for CI: SIGKILL a training run mid-flight and
verify that resuming from its last checkpoint reproduces the loss trace
of an uninterrupted run bit for bit.

Usage::

    PYTHONPATH=src python benchmarks/resilience_smoke.py [--backend NAME]

``--backend`` picks any GAN backend (default: doppelganger); every one of
them trains through the same checkpointing loop.  Exits non-zero (with a
diff summary) on any mismatch, or when the victim finished before the
kill landed.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, os.path.abspath(SRC))

from repro.nn.serialization import load_training_state  # noqa: E402

TRAIN_ARGS = ["--iterations", "60", "--hidden", "16", "--batch-size", "8",
              "--sample-len", "4", "--seed", "11",
              "--checkpoint-every", "4"]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + \
        env.get("PYTHONPATH", "")
    return env


def _cli(args, cwd) -> None:
    proc = subprocess.run([sys.executable, "-m", "repro.cli"] + args,
                          cwd=cwd, env=_env(), capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"cli {args} failed:\n{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="doppelganger")
    backend = parser.parse_args(argv).backend
    train_args = TRAIN_ARGS + ["--backend", backend]
    with tempfile.TemporaryDirectory() as workdir:
        print("[smoke] simulating dataset ...")
        _cli(["simulate", "--dataset", "gcut", "--n", "40", "--length",
              "16", "--out", "data.npz"], workdir)

        print(f"[smoke] reference {backend} run (uninterrupted) ...")
        _cli(["train", "--data", "data.npz", "--out", "model_a.npz",
              "--checkpoint", "ckpt_a.npz"] + train_args, workdir)
        reference = load_training_state(
            os.path.join(workdir, "ckpt_a.npz"))

        print("[smoke] victim run (SIGKILL after first checkpoint) ...")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "train", "--data",
             "data.npz", "--out", "model_b.npz", "--checkpoint",
             "ckpt_b.npz"] + train_args,
            cwd=workdir, env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        ckpt_b = os.path.join(workdir, "ckpt_b.npz")
        deadline = time.time() + 180
        while not os.path.exists(ckpt_b) and victim.poll() is None:
            if time.time() > deadline:
                victim.kill()
                raise SystemExit("[smoke] victim produced no checkpoint")
            time.sleep(0.02)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        killed_at = load_training_state(ckpt_b).iteration
        if killed_at >= reference.iteration:
            print("[smoke] FAIL: the victim finished before the kill "
                  "landed, so nothing was resumed")
            return 1
        print(f"[smoke] victim killed at iteration {killed_at}")

        print("[smoke] resuming victim ...")
        _cli(["train", "--data", "data.npz", "--out", "model_b.npz",
              "--checkpoint", "ckpt_b.npz", "--resume"] + train_args,
             workdir)
        resumed = load_training_state(ckpt_b)

        failures = []
        if resumed.iteration != reference.iteration:
            failures.append(f"iteration {resumed.iteration} != "
                            f"{reference.iteration}")
        for trace in ("history_iterations", "history_d_loss",
                      "history_g_loss", "history_wasserstein"):
            if not np.array_equal(resumed.extra_arrays[trace],
                                  reference.extra_arrays[trace]):
                failures.append(f"{trace} differs")
        with np.load(os.path.join(workdir, "model_a.npz")) as a, \
                np.load(os.path.join(workdir, "model_b.npz")) as b:
            for name in a.files:
                if not np.array_equal(a[name], b[name]):
                    failures.append(f"model weight {name} differs")
                    break
        if failures:
            print("[smoke] FAIL: " + "; ".join(failures))
            return 1
        print(f"[smoke] OK: resumed run is bit-identical to the "
              f"uninterrupted run ({reference.iteration} iterations, "
              f"killed at {killed_at})")
        return 0


if __name__ == "__main__":
    sys.exit(main())
