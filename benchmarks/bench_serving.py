"""Serving benchmark wrapper: micro-batching on vs off.

Thin entry point over :func:`repro.serve.bench.run_serving_benchmark`.
Measures request throughput and tail latency of the loopback socket
server at concurrency 8, comparing default micro-batched planning against
batch-size-1 per-request serving, verifies one served response
byte-for-byte against direct generation, and writes
``BENCH_serving.json`` at the repo root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke \
        --output BENCH_serving_ci.json

or as part of the benchmark suite::

    pytest benchmarks/bench_serving.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.serve.bench import (DEFAULT_OUTPUT, check_result_schema,
                               run_serving_benchmark)

COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def test_serving_throughput_and_identity(tmp_path):
    """Acceptance: byte-identity always; batching clearly beats
    batch-size-1 serving; every fleet row is byte-identical too."""
    result = run_serving_benchmark(
        smoke=True, output=tmp_path / "BENCH_serving.json")
    assert result["served_identical"]
    # Batched serving used to sit under a ~40 ms Nagle/delayed-ACK stall
    # on every response over 8 KiB, which compressed this ratio to
    # ~1.3-2.1x; with TCP_NODELAY on every serving socket the smoke size
    # measures ~2.3-2.8x (2-core host).
    assert result["throughput_speedup"] >= 2.0
    assert all(row["served_identical"]
               for row in result["fleet"]["per_replica_count"])
    reference = COMMITTED if COMMITTED.exists() else None
    assert check_result_schema(result, reference=reference) == []


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per client thread")
    parser.add_argument("--n", type=int, default=16,
                        help="objects per request")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--replicas", type=int, nargs="*", default=None,
                        help="fleet replica counts to measure "
                             "(default: 1 2 4)")
    parser.add_argument("--fleet-concurrency", type=int, default=32,
                        help="client threads driving the fleet rows "
                             "(the scaling bar measures at >= 32)")
    parser.add_argument("--smoke", action="store_true",
                        help="small load; exit non-zero on identity or "
                             "schema drift vs the committed JSON")
    args = parser.parse_args(argv)
    fleet_kwargs = {}
    if args.replicas:
        fleet_kwargs["fleet_replica_counts"] = tuple(args.replicas)
    result = run_serving_benchmark(
        concurrency=args.concurrency, requests_per_client=args.requests,
        n=args.n, output=args.output, smoke=args.smoke,
        fleet_concurrency=args.fleet_concurrency, **fleet_kwargs)
    if not result["served_identical"]:
        raise SystemExit("[bench_serving] FAILURE: served output drifted "
                         "from direct generation")
    if not all(row["served_identical"]
               for row in result["fleet"]["per_replica_count"]):
        raise SystemExit("[bench_serving] FAILURE: a fleet response "
                         "drifted from direct generation")
    if args.smoke:
        reference = COMMITTED if COMMITTED.exists() else None
        problems = check_result_schema(result, reference=reference)
        if problems:
            raise SystemExit("[bench_serving] FAILURE: "
                             + "; ".join(problems))


if __name__ == "__main__":
    main()
