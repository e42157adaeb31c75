"""Serving benchmark: micro-batching on vs off, plus the identity check.

Measures request throughput and tail latency of the socket server under
concurrent load in two modes:

- **batched** -- the default :class:`MicroBatcher` planning
  (``max_batch_rows = model batch_size``): each request runs as
  batch-size-row model passes and concurrent requests' blocks share
  worker wake-ups.
- **unbatched** -- ``max_batch_rows=1``: every sample is its own model
  pass, i.e. batch-size-1 per-request serving.  This is the baseline the
  ``>=2x`` acceptance target compares against; on the numpy substrate a
  forward pass costs nearly the same for 1 row as for ``batch_size``
  rows, so the batched mode wins on Python graph overhead alone (no
  multi-core requirement -- the note in the JSON records ``cpu_count``
  for honesty, as ``BENCH_parallel.json`` does).

The run also replays one served response against direct
:meth:`DoppelGANger.generate` with the same seed and records whether the
bytes matched (``served_identical`` -- the determinism contract CI
enforces separately through ``benchmarks/serving_smoke.py``).

Results land in ``BENCH_serving.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core import DoppelGANger
from repro.serve.client import ServeClient, run_load
from repro.serve.server import GenerationService, Server

__all__ = ["run_serving_benchmark", "train_tiny_model",
           "check_result_schema", "DEFAULT_OUTPUT", "RESULT_KEYS"]

DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "BENCH_serving.json"

# The committed BENCH_serving.json must carry exactly these top-level
# keys; the CI bench smoke fails on drift so the schema cannot rot
# silently under downstream consumers.
RESULT_KEYS = frozenset({
    "model", "cpu_count", "concurrency", "requests_per_client",
    "request_n", "max_wait_ms", "batched", "unbatched",
    "throughput_speedup", "served_identical", "fleet", "note",
})

_MODE_KEYS = frozenset({
    "max_batch_rows", "concurrency", "requests", "ok", "shed", "errors",
    "wall_seconds", "throughput_rps", "p50_ms", "p99_ms",
})

_FLEET_ROW_KEYS = (_MODE_KEYS - {"max_batch_rows"}) | {
    "replicas", "served_identical"}


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def train_tiny_model(seed: int = 7) -> DoppelGANger:
    """Train the benchmark model: TINY-scale DoppelGANger on GCUT."""
    from repro.core import DGConfig
    from repro.data.simulators import generate_gcut

    data = generate_gcut(80, np.random.default_rng(3), max_length=16)
    config = DGConfig(
        sample_len=4, batch_size=16, iterations=40,
        attribute_hidden=(24, 24), minmax_hidden=(24, 24),
        feature_rnn_units=24, feature_mlp_hidden=(24,),
        discriminator_hidden=(32, 32), aux_discriminator_hidden=(32, 32),
        seed=seed,
    )
    model = DoppelGANger(data.schema, config)
    model.fit(data)
    return model


def _measure_mode(model, spec: str, *, max_batch_rows: int | None,
                  max_wait_ms: float, concurrency: int,
                  requests_per_client: int, n: int) -> dict:
    service = GenerationService({spec: model},
                                max_batch_rows=max_batch_rows,
                                max_wait_ms=max_wait_ms,
                                max_queue_rows=1 << 20)
    with Server(service) as server:
        host, port = server.address
        report = run_load(lambda: ServeClient(host, port), model=spec,
                          concurrency=concurrency,
                          requests_per_client=requests_per_client, n=n)
    summary = report.summary()
    summary["max_batch_rows"] = (max_batch_rows if max_batch_rows
                                 else int(model.config.batch_size))
    return summary


def _measure_fleet(model, *, replica_counts, concurrency: int,
                   requests_per_client: int, n: int,
                   max_wait_ms: float) -> dict:
    """Throughput per replica count through a real multi-process fleet.

    One registry publish, then one fleet per count; each run also
    byte-compares one served response against direct generation, so the
    fleet rows carry the same identity evidence as the single-server
    modes.
    """
    import tempfile

    from repro.serve.fleet import Fleet
    from repro.serve.registry import ModelRegistry

    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as root:
        registry = ModelRegistry(root)
        spec = registry.publish("bench", model).spec
        seed_check = 20200902
        direct = model.generate(n, rng=np.random.default_rng(seed_check))
        for replicas in replica_counts:
            fleet = Fleet(registry, replicas=replicas, model_cache=2,
                          max_wait_ms=max_wait_ms,
                          max_queue_rows=1 << 20)
            try:
                with Server(fleet) as server:
                    host, port = server.address
                    report = run_load(
                        lambda: ServeClient(host, port, timeout=300),
                        model=spec, concurrency=concurrency,
                        requests_per_client=requests_per_client, n=n)
                    with ServeClient(host, port, timeout=300) as client:
                        served = client.generate(spec, n, seed_check)
            finally:
                fleet.close()
            row = report.summary()
            row["replicas"] = int(replicas)
            row["served_identical"] = bool(
                np.array_equal(served.attributes, direct.attributes)
                and np.array_equal(served.features, direct.features)
                and np.array_equal(served.lengths, direct.lengths))
            rows.append(row)
    return {
        "concurrency": concurrency,
        "requests_per_client": requests_per_client,
        "request_n": n,
        "per_replica_count": rows,
        "note": ("replica processes share the host's cores, so "
                 "throughput scales with replica count only when "
                 "cpu_count >= replicas; on a 1-core host the fleet "
                 "rows demonstrate identity and stability under "
                 "concurrency, not speedup (same caveat as "
                 "BENCH_parallel.json)"),
    }


def _identity_check(model, spec: str, n: int, seed: int) -> bool:
    """One served request, byte-compared against direct generation."""
    service = GenerationService({spec: model})
    with Server(service) as server:
        host, port = server.address
        with ServeClient(host, port) as client:
            served = client.generate(spec, n, seed)
    direct = model.generate(n, rng=np.random.default_rng(seed))
    return (np.array_equal(served.attributes, direct.attributes)
            and np.array_equal(served.features, direct.features)
            and np.array_equal(served.lengths, direct.lengths))


def run_serving_benchmark(model: DoppelGANger | None = None, *,
                          concurrency: int = 8,
                          requests_per_client: int = 8,
                          n: int = 16, max_wait_ms: float = 0.0,
                          fleet_concurrency: int = 32,
                          fleet_replica_counts=(1, 2, 4),
                          output: Path | str | None = DEFAULT_OUTPUT,
                          smoke: bool = False) -> dict:
    """Benchmark batched vs unbatched serving; write BENCH_serving.json.

    The result always carries a ``fleet`` section: multi-replica rows
    measured at ``fleet_concurrency`` (>= 32 by default, per the
    scaling acceptance bar) for each count in ``fleet_replica_counts``.
    ``smoke=True`` shrinks the load (fewer, smaller requests, fewer
    replica counts) for CI; schema and identity checks are exercised
    identically.  ``output=None`` skips writing.
    """
    if concurrency < 1 or requests_per_client < 1 or n < 1:
        raise ValueError("concurrency, requests_per_client, n must be "
                         ">= 1")
    fleet_requests = requests_per_client
    if smoke:
        requests_per_client = min(requests_per_client, 2)
        n = min(n, 8)
        fleet_concurrency = min(fleet_concurrency, 8)
        fleet_requests = 1
        fleet_replica_counts = tuple(fleet_replica_counts)[:2]
    if model is None:
        model = train_tiny_model()
    spec = "bench@1"

    batched = _measure_mode(
        model, spec, max_batch_rows=None, max_wait_ms=max_wait_ms,
        concurrency=concurrency, requests_per_client=requests_per_client,
        n=n)
    unbatched = _measure_mode(
        model, spec, max_batch_rows=1, max_wait_ms=max_wait_ms,
        concurrency=concurrency, requests_per_client=requests_per_client,
        n=n)
    identical = _identity_check(model, spec, n, seed=20200901)
    fleet = _measure_fleet(model, replica_counts=fleet_replica_counts,
                           concurrency=fleet_concurrency,
                           requests_per_client=fleet_requests, n=n,
                           max_wait_ms=max_wait_ms)

    speedup = (batched["throughput_rps"] / unbatched["throughput_rps"]
               if unbatched["throughput_rps"] else float("inf"))
    result = {
        "model": {"scale": "tiny-gcut",
                  "batch_size": int(model.config.batch_size)},
        "cpu_count": _cpu_count(),
        "concurrency": concurrency,
        "requests_per_client": requests_per_client,
        "request_n": n,
        "max_wait_ms": max_wait_ms,
        "batched": batched,
        "unbatched": unbatched,
        "throughput_speedup": speedup,
        "served_identical": identical,
        "fleet": fleet,
        "note": ("unbatched = max_batch_rows=1 (every sample its own "
                 "model pass, i.e. batch-size-1 per-request serving); "
                 "the >=2x target comes from the batch dimension of the "
                 "forward pass, not from cores, so it applies at any "
                 "cpu_count (recorded for honesty)"),
    }
    if output is not None:
        Path(output).write_text(json.dumps(result, indent=2) + "\n")
    print(f"[bench_serving] concurrency={concurrency} n={n} on "
          f"{result['cpu_count']} core(s)")
    print(f"[bench_serving] batched:   "
          f"{batched['throughput_rps']:.1f} req/s  "
          f"(p50 {batched['p50_ms']:.1f}ms, p99 {batched['p99_ms']:.1f}ms)")
    print(f"[bench_serving] unbatched: "
          f"{unbatched['throughput_rps']:.1f} req/s  "
          f"(p50 {unbatched['p50_ms']:.1f}ms, "
          f"p99 {unbatched['p99_ms']:.1f}ms)")
    for row in fleet["per_replica_count"]:
        print(f"[bench_serving] fleet x{row['replicas']}: "
              f"{row['throughput_rps']:.1f} req/s at concurrency "
              f"{fleet['concurrency']}  (p50 {row['p50_ms']:.1f}ms, "
              f"identical={row['served_identical']})")
    print(f"[bench_serving] speedup {speedup:.2f}x, "
          f"served_identical={identical}"
          + (f" -> {output}" if output is not None else ""))
    return result


def check_result_schema(result: dict,
                        reference: Path | str | None = None) -> list[str]:
    """Schema-drift guard: returns a list of problems (empty = ok).

    Compares ``result``'s key structure against :data:`RESULT_KEYS` and,
    when ``reference`` (a committed BENCH_serving.json) is given, against
    that file's keys too.
    """
    problems = []
    missing = RESULT_KEYS - set(result)
    extra = set(result) - RESULT_KEYS
    if missing:
        problems.append(f"missing top-level keys: {sorted(missing)}")
    if extra:
        problems.append(f"unexpected top-level keys: {sorted(extra)}")
    for mode in ("batched", "unbatched"):
        summary = result.get(mode)
        if not isinstance(summary, dict):
            problems.append(f"{mode!r} is not an object")
            continue
        mode_missing = _MODE_KEYS - set(summary)
        if mode_missing:
            problems.append(f"{mode!r} misses keys: "
                            f"{sorted(mode_missing)}")
    fleet = result.get("fleet")
    if not isinstance(fleet, dict) \
            or not isinstance(fleet.get("per_replica_count"), list) \
            or not fleet["per_replica_count"]:
        problems.append("'fleet' must be an object with a non-empty "
                        "per_replica_count list")
    else:
        for row in fleet["per_replica_count"]:
            row_missing = _FLEET_ROW_KEYS - set(row)
            if row_missing:
                problems.append(
                    f"fleet row (replicas={row.get('replicas')}) misses "
                    f"keys: {sorted(row_missing)}")
    if reference is not None:
        try:
            committed = json.loads(Path(reference).read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"committed reference {reference} unreadable: "
                            f"{exc}")
        else:
            drift = set(committed) ^ set(result)
            if drift:
                problems.append(
                    f"keys drifted vs committed {reference}: "
                    f"{sorted(drift)}")
    return problems
