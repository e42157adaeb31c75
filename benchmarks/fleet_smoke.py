"""CI fleet smoke: 3 replicas, two models, a SIGKILL, byte-level cmp.

End-to-end check of the multi-replica fleet against freshly trained
TINY models, exercising every contract docs/serving.md promises for
``repro.serve.fleet``:

1. **Byte identity at fleet scale** -- two models served concurrently
   through a 3-replica fleet; every response is compared byte-for-byte
   (down to the serialized npz payload) against direct generation.
2. **Chaos invisibility** -- one replica is SIGKILLed between request
   waves; the next wave must still complete byte-identically (router
   retry), and the supervisor must respawn the victim.
3. **Graceful close** -- the fleet drains and its replica processes all
   exit.

Exits non-zero on any violation.  Run::

    PYTHONPATH=src python benchmarks/fleet_smoke.py
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import threading
import time

import numpy as np

from repro.serve import Fleet, ModelRegistry, ServeClient, Server
from repro.serve.protocol import dataset_to_bytes

from tiny_model import train_tiny_model


def fail(message: str) -> None:
    raise SystemExit(f"[fleet_smoke] FAILURE: {message}")


def request_wave(host: int, port: int, models: dict, wave: int) -> None:
    """One concurrent wave: 3 requests per model, all byte-compared."""
    results: dict[tuple, object] = {}
    errors: list[BaseException] = []

    def request(name: str, seed: int) -> None:
        try:
            with ServeClient(host, port, timeout=120) as client:
                results[(name, seed)] = client.generate(name, 9,
                                                        seed=seed)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=request, args=(name, wave * 10 + i))
               for name in models for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        fail(f"wave {wave} requests errored: {errors}")
    if len(results) != 3 * len(models):
        fail(f"wave {wave}: only {len(results)}/{3 * len(models)} "
             f"responses arrived")
    for (name, seed), served in results.items():
        direct = models[name].generate(9, rng=np.random.default_rng(seed))
        if dataset_to_bytes(served) != dataset_to_bytes(direct):
            fail(f"wave {wave}: response for {name} seed {seed} is not "
                 f"byte-identical to direct generation")
    print(f"[fleet_smoke] wave {wave}: {len(results)} concurrent "
          f"responses across {len(models)} models byte-identical")


def main() -> None:
    print("[fleet_smoke] training two TINY models...")
    models = {"alpha": train_tiny_model(seed=7),
              "beta": train_tiny_model(seed=8)}
    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        for name, model in models.items():
            record = registry.publish(name, model)
            print(f"[fleet_smoke] published {record.spec} "
                  f"(sha256 {record.sha256[:12]}...)")
        fleet = Fleet(registry, replicas=3, model_cache=2,
                      request_timeout=60.0)
        with Server(fleet) as server:
            host, port = server.address
            with ServeClient(host, port, timeout=120) as client:
                if not client.ping():
                    fail("ping failed")
                request_wave(host, port, models, wave=0)

                status = client.fleet_status()
                victim = status["replicas"][0]
                os.kill(victim["pid"], signal.SIGKILL)
                print(f"[fleet_smoke] SIGKILLed replica "
                      f"{victim['replica']} (pid {victim['pid']})")

                request_wave(host, port, models, wave=1)

                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    status = client.fleet_status()
                    if all(r["state"] == "healthy"
                           for r in status["replicas"]):
                        break
                    time.sleep(0.2)
                else:
                    fail(f"fleet never returned to full health: "
                         f"{status}")
                if status["replicas"][0]["restarts"] < 1:
                    fail("victim replica was not respawned")
                print(f"[fleet_smoke] respawn: replica "
                      f"{victim['replica']} restarted "
                      f"(totals: {status['totals']})")

                request_wave(host, port, models, wave=2)
            server.shutdown(drain=True)
        pids = [r["pid"] for r in status["replicas"]]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            live = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                    live.append(pid)
                except OSError:
                    pass
            if not live:
                break
            time.sleep(0.2)
        else:
            fail(f"replica processes survived close: {live}")
        print("[fleet_smoke] close: all replica processes exited")
    print("[fleet_smoke] OK")


if __name__ == "__main__":
    sys.exit(main())
