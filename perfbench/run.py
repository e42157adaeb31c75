"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-small --seed 1 \
        --seconds 36 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs its closed op loop for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` is the separate traced run: it sets
up every workload, runs each op stream with spans around the calls into
each layer and reports the per-layer metrics of all four streams, plus
the tracing overhead of ``--workload`` (its traced op p50 minus the p50
of an untraced stream of the same ops).  Spans are written to
``.perfbench_out/``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host fingerprint.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import hostenv
from tracing import NULL, Tracer, percentile

ORDER = ("train-wwt", "release-gcut", "serve-small", "serve-fleet")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _stream_key(name: str) -> str:
    return name.replace("-", "_")


def trace_units(workloads) -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for name in ORDER:
        units.update(workloads.WORKLOADS[name].layer_units)
        units[f"trace.{_stream_key(name)}.op_p50_ms"] = "ms"
        units[f"trace.{_stream_key(name)}.path_share"] = "ratio"
    units["trace.overhead_ms"] = "ms"
    return units


def measure(workload, seconds: float, tracer) -> dict:
    """Run ``workload``'s closed op loop for ``seconds`` of wall time.

    Only ``op`` is timed; the correctness check (and, traced, the layer
    probes) run after the clock stops.  A raising op or a failed check
    is a failed op.
    """
    durations, problems = [], []
    attempted = failed = 0
    workload.begin(tracer)
    try:
        started = time.perf_counter()
        while (attempted < workload.min_ops
               or time.perf_counter() - started < seconds):
            index = workload.next_index
            workload.next_index += 1
            attempted += 1
            tracer.op_id = f"{workload.name}:{index}"
            op_started = time.perf_counter()
            try:
                with tracer.span("op"):
                    result = workload.op(index, tracer)
            except Exception as exc:
                failed += 1
                problems.append(f"op {index} raised {exc!r}")
                continue
            durations.append(time.perf_counter() - op_started)
            try:
                problem = workload.check(index, result)
                if tracer.enabled and problem is None:
                    workload.trace_extras(index, result, tracer)
            except Exception as exc:
                problem = f"check of op {index} raised {exc!r}"
            if problem is not None:
                failed += 1
                problems.append(problem)
    finally:
        workload.end(tracer)
        tracer.op_id = None
    return {"durations": durations, "attempted": attempted,
            "failed": failed, "problems": problems}


def _finish(workload, stream: dict) -> None:
    """Fold the run-level checks into the stream: each is a failed op."""
    for problem in workload.finish():
        stream["failed"] += 1
        stream["problems"].append(problem)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(cls, seed: int, seconds: float, workdir: str):
    setups = []
    workload = None
    try:
        for _ in range(cls.setup_repeats):
            if workload is not None:
                workload.close()
            workload = cls(seed, workdir)
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        stream = measure(workload, seconds, NULL)
        rss = _peak_rss_mb() + workload.children_rss_mb()
        _finish(workload, stream)
    finally:
        if workload is not None:
            workload.close()
    times = stream["durations"]
    ok = stream["attempted"] - stream["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1e3 * percentile(times, 50),
        "op_p90_ms": 1e3 * percentile(times, 90),
        "ops_per_s": ok / sum(times) if times else 0.0,
        "peak_rss_mb": rss,
    }
    return stream, {name: (value, END_TO_END_UNITS[name])
                    for name, value in metrics.items()}


def run_traced(name: str, seed: int, seconds: float, workdir: str,
               workloads, host: dict):
    share = seconds / (len(ORDER) + 1)
    # Untraced reference for the overhead: a fresh instance, so it runs
    # exactly the ops the traced stream of the same workload runs.
    base_workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        base_workload.setup()
        base = measure(base_workload, share, NULL)
        _finish(base_workload, base)
    finally:
        base_workload.close()

    tracer = Tracer()
    instances = {}
    streams = {}
    metrics = {}
    try:
        for stream_name in ORDER:
            instances[stream_name] = workloads.WORKLOADS[stream_name](
                seed, workdir, traced=True)
            instances[stream_name].setup()
        for stream_name, workload in instances.items():
            streams[stream_name] = measure(workload, share, tracer)
            _finish(workload, streams[stream_name])
            prefix = f"{stream_name}:"
            key = _stream_key(stream_name)
            metrics.update(workload.layer_metrics(tracer, prefix))
            metrics[f"trace.{key}.op_p50_ms"] = 1e3 * percentile(
                tracer.durations("op", prefix), 50)
            metrics[f"trace.{key}.path_share"] = workload.path_share(
                tracer, prefix)
    finally:
        for workload in reversed(list(instances.values())):
            workload.close()
    metrics["trace.overhead_ms"] = (
        metrics[f"trace.{_stream_key(name)}.op_p50_ms"]
        - 1e3 * percentile(base["durations"], 50))

    path = os.path.join(hostenv.OUT, f"trace-{name}-seed{seed}.json")
    tracer.write(path, {
        "workload": name, "seed": seed, "seconds": seconds, "host": host,
        "self_ms": {stream_name: tracer.layer_self_ms(f"{stream_name}:")
                    for stream_name in ORDER}})
    print(f"perfbench: {len(tracer.spans)} spans -> {path}",
          file=sys.stderr)
    merged = {"attempted": base["attempted"], "failed": base["failed"],
              "problems": list(base["problems"])}
    for stream in streams.values():
        for field in ("attempted", "failed", "problems"):
            merged[field] += stream[field]
    units = trace_units(workloads)
    return merged, {metric: (metrics[metric], units[metric])
                    for metric in units}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=ORDER)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        hostenv.pin()
    except hostenv.HostError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports numpy: only after pin()

    host = hostenv.fingerprint()
    print(json.dumps({"host": host}, sort_keys=True))
    os.makedirs(hostenv.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=hostenv.OUT)
    # Fleet state dirs and every other temp file stay in the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        if args.trace:
            stream, metrics = run_traced(args.workload, args.seed,
                                         args.seconds, workdir, workloads,
                                         host)
        else:
            stream, metrics = run_end_to_end(
                workloads.WORKLOADS[args.workload], args.seed,
                args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in stream["problems"][:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": stream["failed"] == 0,
        "attempted": stream["attempted"],
        "failed": stream["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
