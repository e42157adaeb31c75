"""CI serving smoke: publish -> serve -> concurrent clients -> drain.

End-to-end check of the serving stack against a freshly trained TINY
model, exercising every contract docs/serving.md promises:

1. **Byte identity** -- concurrent served responses are compared
   byte-for-byte (down to the serialized npz payload) against direct
   ``DoppelGANger.generate`` calls with the same seeds.
2. **Backpressure** -- with the model's forward pass held and a small
   admission queue, an overflowing request must be shed with the ``busy``
   error code, not parked or hung.
3. **Graceful drain** -- a shutdown issued while a request is in flight
   must complete that request, deliver its (still byte-identical)
   response, and only then refuse new connections.
4. **Stage telemetry** -- ``repro.cli serve --telemetry`` must report
   every ``serve.stage_seconds.<stage>`` histogram in its ``stats``
   response once it has served a ``generate``.

Exits non-zero on any violation.  Run::

    PYTHONPATH=src python benchmarks/serving_smoke.py
"""

from __future__ import annotations

import os
import socket
import subprocess
import time
import sys
import tempfile
import threading

import numpy as np

from repro.serve import (GenerationService, ModelRegistry, ServeClient,
                        ServerBusy, Server)
from repro.serve.protocol import SERVE_STAGES, dataset_to_bytes

from tiny_model import train_tiny_model


def fail(message: str) -> None:
    raise SystemExit(f"[serving_smoke] FAILURE: {message}")


def check_identity(model, host: str, port: int, concurrency: int = 6
                   ) -> None:
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def request(seed: int) -> None:
        try:
            with ServeClient(host, port) as client:
                results[seed] = client.generate("tiny", 14, seed=seed)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=request, args=(seed,))
               for seed in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        fail(f"concurrent requests errored: {errors}")
    if len(results) != concurrency:
        fail(f"only {len(results)}/{concurrency} responses arrived")
    for seed, served in results.items():
        direct = model.generate(14, rng=np.random.default_rng(seed))
        if dataset_to_bytes(served) != dataset_to_bytes(direct):
            fail(f"served output for seed {seed} is not byte-identical "
                 f"to direct generation")
    print(f"[serving_smoke] identity: {concurrency} concurrent requests "
          f"byte-identical to direct generation")


def check_shed_and_drain(model) -> None:
    release = threading.Event()
    started = threading.Event()
    original = type(model)._generate_block

    def held(size, noise, cond):
        started.set()
        if not release.wait(60):
            raise RuntimeError("smoke test never released the model")
        return original(model, size, noise, cond)

    model._generate_block = held
    try:
        batch = int(model.config.batch_size)
        service = GenerationService({"tiny@1": model},
                                    aliases={"tiny": "tiny@1"},
                                    max_queue_rows=2 * batch)
        server = Server(service)
        host, port = server.address
        response: dict = {}

        def in_flight():
            with ServeClient(host, port) as client:
                response["dataset"] = client.generate("tiny", batch,
                                                      seed=77)

        requester = threading.Thread(target=in_flight, daemon=True)
        requester.start()
        if not started.wait(30):
            fail("held request never reached the model")
        with ServeClient(host, port) as filler:
            # fills the admission queue to exactly max_queue_rows
            filler_future = threading.Thread(
                target=lambda: filler.generate("tiny", batch, seed=78),
                daemon=True)
            filler_future.start()
            batcher = service.batchers["tiny@1"]
            for _ in range(500):
                with batcher._lock:
                    if batcher._queued_rows >= 2 * batch:
                        break
                time.sleep(0.01)
            else:
                fail("admission queue never filled")
            try:
                with ServeClient(host, port) as prober:
                    prober.generate("tiny", batch, seed=79)
                fail("overflowing request was not shed")
            except ServerBusy as exc:
                if exc.code != "busy":
                    fail(f"shed used code {exc.code!r}, expected 'busy'")
            print("[serving_smoke] backpressure: overflow shed with "
                  "code 'busy'")

            shutter = threading.Thread(
                target=server.shutdown, kwargs={"drain": True},
                daemon=True)
            shutter.start()
            release.set()
            shutter.join(timeout=60)
            if shutter.is_alive():
                fail("drain did not complete")
            requester.join(timeout=60)
            filler_future.join(timeout=60)
        if "dataset" not in response:
            fail("in-flight request was dropped by the drain")
        direct = model.generate(batch, rng=np.random.default_rng(77))
        if dataset_to_bytes(response["dataset"]) != \
                dataset_to_bytes(direct):
            fail("drained response is not byte-identical to direct "
                 "generation")
        try:
            socket.create_connection((host, port), timeout=2).close()
            fail("server still accepts connections after drain")
        except OSError:
            pass
        print("[serving_smoke] drain: in-flight request completed "
              "byte-identically; socket closed after")
    finally:
        release.set()
        del model._generate_block


def check_stage_telemetry(registry_root: str, workdir: str) -> None:
    """Serve the registry through the CLI with --telemetry; its stats
    must carry every stage histogram after two generates."""
    port_file = os.path.join(workdir, "port.txt")
    stop_file = os.path.join(workdir, "stop.txt")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--registry",
         registry_root, "--port", "0", "--port-file", port_file,
         "--stop-file", stop_file, "--telemetry",
         os.path.join(workdir, "telemetry")],
        stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(port_file):
            if server.poll() is not None or time.monotonic() > deadline:
                fail("CLI server never published its port")
            time.sleep(0.05)
        with open(port_file, encoding="utf-8") as handle:
            port = int(handle.read())
        with ServeClient("127.0.0.1", port, timeout=60) as client:
            for seed in range(2):
                client.generate("tiny", 14, seed=seed)
            histograms = client.stats().get("metrics", {}).get(
                "histograms", {})
        missing = [stage for stage in SERVE_STAGES
                   if histograms.get(f"serve.stage_seconds.{stage}",
                                     {}).get("count", 0) < 1]
        if missing:
            fail(f"stats under --telemetry lacks stage histograms "
                 f"{missing}")
    finally:
        with open(stop_file, "w", encoding="utf-8"):
            pass
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("CLI server did not drain on its stop file")
    print(f"[serving_smoke] telemetry: stats reports all "
          f"{len(SERVE_STAGES)} stage histograms")


def main() -> None:
    print("[serving_smoke] training TINY model...")
    model = train_tiny_model()
    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        record = registry.publish("tiny", model)
        print(f"[serving_smoke] published {record.spec} "
              f"(sha256 {record.sha256[:12]}...)")
        service = GenerationService.from_registry(registry)
        with Server(service) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                if not client.ping():
                    fail("ping failed")
            check_identity(registry.load("tiny"), host, port)
        with tempfile.TemporaryDirectory() as workdir:
            check_stage_telemetry(root, workdir)
    check_shed_and_drain(model)
    print("[serving_smoke] OK")


if __name__ == "__main__":
    sys.exit(main())
