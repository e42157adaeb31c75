"""Command-line interface for the Figure-2 workflow.

Lets a data holder and a data consumer run the full release pipeline
without writing code:

    # data holder: simulate (or load) a dataset, train, release parameters
    python -m repro.cli simulate --dataset gcut --n 400 --out data.npz
    python -m repro.cli train --data data.npz --out model.npz \
        --iterations 400 --sample-len 4

    # data consumer: generate any quantity of synthetic data
    python -m repro.cli generate --model model.npz --n 1000 --out synth.npz

    # inspect a dataset
    python -m repro.cli inspect --data synth.npz

    # scored quality report + privacy attack battery (docs/quality.md)
    python -m repro.cli report --data data.npz --model model.npz \
        --privacy --json report.json --md report.md

    # benchmark sweep (optionally process-parallel; --workers never
    # changes the result, see docs/architecture.md "Parallel execution")
    python -m repro.cli sweep --datasets gcut --models hmm ar \
        --scale tiny --workers 2 --report report.md

    # serving (docs/serving.md): publish to a registry, serve it
    python -m repro.cli publish --model model.npz --registry reg/ \
        --name wwt
    python -m repro.cli serve --registry reg/ --port 7777

    # training-as-a-service: submit a job to a server started with
    # --jobs-dir; the supervisor survives worker crashes (auto-resume
    # from checkpoint) and auto-publishes the finished model
    python -m repro.cli serve --registry reg/ --jobs-dir jobs/ --port 7777
    python -m repro.cli jobs submit --port 7777 --data data.npz \
        --name wwt --iterations 400 --watch
    python -m repro.cli jobs status --port 7777 --job-id job-000001

Every command exits 2 with a one-line ``error: ...`` on stderr for
missing or unreadable inputs; ``--out``-style paths auto-create their
parent directories.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.data.dataset import TimeSeriesDataset
from repro.data.simulators import (generate_flashcrowd, generate_gcut,
                                   generate_mba, generate_regime,
                                   generate_wwt)
from repro.resilience.atomic import atomic_open, canonical_json, write_atomic

__all__ = ["main", "build_parser"]

_DATASET_CHOICES = ("wwt", "mba", "gcut", "flashcrowd", "regime")
_BACKEND_CHOICES = ("doppelganger", "dg", "dlgan", "hmm", "ar", "rnn",
                    "naive_gan")


class _CliError(Exception):
    """A user-facing failure: printed as one line, exit code 2."""


def _ensure_parent(path: str | None) -> str | None:
    """Create the parent directory of an output path (returns ``path``)."""
    if path:
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
    return path


def _load_dataset(path: str) -> TimeSeriesDataset:
    try:
        return TimeSeriesDataset.load(path)
    except FileNotFoundError:
        raise _CliError(f"dataset file {path!r} does not exist; create "
                        f"one with 'simulate' or 'generate'") from None
    except (OSError, ValueError) as exc:
        raise _CliError(f"cannot read dataset {path!r}: the file is not "
                        f"a dataset archive or is corrupted "
                        f"({exc})") from None


def _load_model(path: str):
    """Load a model file of any backend; returns ``(model, backend)``.

    The archive's backend is sniffed from its self-describing metadata,
    so files written before ``--backend`` existed load as DoppelGANger.
    """
    from repro.backends import load_model_file

    try:
        return load_model_file(path)
    except FileNotFoundError:
        raise _CliError(f"cannot load model {path!r}: the file does not "
                        f"exist; train one with 'train' first") from None
    except (OSError, ValueError, KeyError) as exc:
        raise _CliError(f"cannot load model {path!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DoppelGANger data-release workflow")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic source "
                                          "dataset (WWT/MBA/GCUT simulator)")
    sim.add_argument("--dataset", choices=_DATASET_CHOICES, required=True)
    sim.add_argument("--n", type=int, default=400)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--length", type=int, default=None,
                     help="series length (dataset-specific default)")
    sim.add_argument("--out", required=True)

    train = sub.add_parser("train", help="train a generator on a dataset "
                                         "(any registered backend)")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--backend", choices=_BACKEND_CHOICES,
                       default="doppelganger",
                       help="generator architecture (default: the "
                            "paper's DoppelGANger)")
    train.add_argument("--iterations", type=int, default=400)
    train.add_argument("--sample-len", type=int, default=None,
                       help="batching parameter S (default: auto, T/S~25)")
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--hidden", type=int, default=64)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--no-minmax", action="store_true",
                       help="disable the auto-normalisation generator")
    train.add_argument("--no-aux", action="store_true",
                       help="disable the auxiliary discriminator")
    train.add_argument("--checkpoint", default=None,
                       help="write resumable training state to this file")
    train.add_argument("--checkpoint-every", type=int, default=25,
                       help="iterations between checkpoint writes")
    train.add_argument("--resume", action="store_true",
                       help="resume from --checkpoint if it exists "
                            "(bit-identical continuation)")
    train.add_argument("--sentinel", action="store_true",
                       help="enable the divergence sentinel "
                            "(NaN/runaway detection with rollback)")
    train.add_argument("--max-retries", type=int, default=3,
                       help="sentinel rollback budget per snapshot window")
    train.add_argument("--telemetry", default=None, metavar="DIR",
                       help="collect an event log and metric dump into DIR "
                            "(deterministic; never changes the model)")

    gen = sub.add_parser("generate", help="sample a trained model")
    gen.add_argument("--model", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--workers", type=int, default=1,
                     help="generation worker processes (any value gives "
                          "bit-identical output)")
    gen.add_argument("--telemetry", default=None, metavar="DIR",
                     help="collect an event log and metric dump into DIR")
    gen.add_argument("--out", required=True)

    ins = sub.add_parser("inspect", help="print a dataset summary")
    ins.add_argument("--data", required=True)

    sweep = sub.add_parser("sweep", help="train a (dataset x model x seed) "
                                         "grid, optionally in parallel")
    sweep.add_argument("--datasets", nargs="+", required=True,
                       choices=_DATASET_CHOICES)
    sweep.add_argument("--models", nargs="+", required=True,
                       choices=_BACKEND_CHOICES)
    sweep.add_argument("--scale", choices=("bench", "tiny"), default="bench")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (any value gives identical "
                            "models)")
    sweep.add_argument("--seeds", type=int, default=None,
                       help="replicas per cell with spawned seeds "
                            "(default: one cell at the scale's seed)")
    sweep.add_argument("--cache-dir", default=None,
                       help="on-disk result cache of model archives "
                            "(<key>.npz); repeated sweeps skip finished "
                            "cells")
    sweep.add_argument("--report", default=None,
                       help="write the deterministic sweep report "
                            "(digests + failures) to this markdown file")
    sweep.add_argument("--digest-n", type=int, default=16,
                       help="objects generated per cell for the report "
                            "digest")
    sweep.add_argument("--telemetry", default=None, metavar="DIR",
                       help="collect per-cell event logs and metric dumps "
                            "into DIR, merged into worker-count-invariant "
                            "canonical exports")
    sweep.add_argument("--quality", action="store_true",
                       help="score every trained cell with a quality "
                            "report; the sweep report ranks cells by "
                            "overall score (docs/quality.md)")
    sweep.add_argument("--quality-n", type=int, default=64,
                       help="synthetic objects generated per cell for "
                            "the quality scores")

    rep = sub.add_parser("report", help="scored quality report for a "
                                        "model vs a real dataset "
                                        "(docs/quality.md)")
    rep.add_argument("--data", required=True,
                     help="real dataset the model should match "
                          "(typically its training data)")
    rep.add_argument("--holdout", default=None,
                     help="real data NOT used for training; enables the "
                          "memorization property")
    rep.add_argument("--model", default=None,
                     help="model parameter file (any backend; sniffed)")
    rep.add_argument("--registry", default=None,
                     help="registry directory to load --spec from "
                          "instead of --model")
    rep.add_argument("--spec", default=None,
                     help="registry spec, e.g. wwt or wwt@2")
    rep.add_argument("--n", type=int, default=None,
                     help="synthetic objects to generate "
                          "(default: len of --data)")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--no-downstream", action="store_true",
                     help="skip the train-on-synthetic/test-on-real "
                          "property (the slowest section)")
    rep.add_argument("--privacy", action="store_true",
                     help="also run the membership-inference battery "
                          "(splits --data in half: first half treated "
                          "as members)")
    rep.add_argument("--json", default=None, metavar="FILE",
                     help="write the canonical JSON document here")
    rep.add_argument("--md", default=None, metavar="FILE",
                     help="write the rendered markdown here")
    rep.add_argument("--attach", action="store_true",
                     help="attach the scores to the registry version "
                          "(needs --registry/--spec)")

    met = sub.add_parser("metrics", help="inspect a telemetry directory "
                                         "written by --telemetry")
    met.add_argument("action", choices=("dump", "report"),
                     help="dump: print metrics.json; report: print "
                          "report.md")
    met.add_argument("--dir", required=True,
                     help="telemetry directory of a finished run")

    pub = sub.add_parser("publish", help="publish a trained model into "
                                         "a registry (docs/serving.md)")
    pub.add_argument("--model", required=True,
                     help="model parameter file written by 'train'")
    pub.add_argument("--registry", required=True,
                     help="registry directory (created if missing)")
    pub.add_argument("--name", required=True,
                     help="model name; each publish appends a version")
    pub.add_argument("--meta", default=None,
                     help="JSON object stored with the version entry")
    pub.add_argument("--evaluate", action="store_true",
                     help="score the model against --data and attach "
                          "the scores to the published version")
    pub.add_argument("--data", default=None,
                     help="real dataset for --evaluate")
    pub.add_argument("--holdout", default=None,
                     help="held-out real data for --evaluate "
                          "(enables the memorization score)")
    pub.add_argument("--eval-n", type=int, default=None,
                     help="synthetic objects generated for --evaluate "
                          "(default: len of --data)")
    pub.add_argument("--eval-seed", type=int, default=0)

    srv = sub.add_parser("serve", help="serve registry models over a "
                                       "loopback socket")
    srv.add_argument("--registry", required=True)
    srv.add_argument("--models", nargs="*", default=None,
                     help="specs to serve, e.g. wwt@2 (default: latest "
                          "version of every published model)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="0 binds an ephemeral port (printed, and "
                          "written to --port-file)")
    srv.add_argument("--queue-rows", type=int, default=4096,
                     help="admission bound; beyond it requests are shed "
                          "with a 'busy' error")
    srv.add_argument("--port-file", default=None,
                     help="write the bound port here once listening "
                          "(for scripts and tests)")
    srv.add_argument("--stop-file", default=None,
                     help="drain and exit when this file appears "
                          "(alternative to SIGINT)")
    srv.add_argument("--telemetry", default=None, metavar="DIR",
                     help="collect serving metrics into DIR on exit")
    srv.add_argument("--replicas", type=int, default=0,
                     help="serve through a fleet of N supervised "
                          "replica processes instead of in-process "
                          "batchers (deterministic routing, "
                          "byte-identical output; docs/serving.md)")
    srv.add_argument("--model-cache", type=int, default=4,
                     help="models each replica holds hot in its LRU "
                          "cache (fleet mode)")
    srv.add_argument("--quota-rps", type=float, default=None,
                     help="per-client token-bucket rate limit in "
                          "requests/second (fleet mode; default: no "
                          "quotas)")
    srv.add_argument("--quota-burst", type=int, default=None,
                     help="token-bucket depth (fleet mode; default: "
                          "--quota-rps rounded down, at least 1)")
    srv.add_argument("--jobs-dir", default=None, metavar="DIR",
                     help="enable training-as-a-service: durable job "
                          "records live here; finished models are "
                          "auto-published to --registry and served "
                          "immediately (docs/serving.md)")
    srv.add_argument("--train-workers", type=int, default=1,
                     help="concurrent training worker subprocesses")
    srv.add_argument("--job-attempts", type=int, default=3,
                     help="default worker-launch budget per job "
                          "(crashed workers auto-resume from their "
                          "latest checkpoint until it is exhausted)")

    jobs = sub.add_parser("jobs", help="manage training jobs on a "
                                       "running server (serve --jobs-dir)")
    jobs.add_argument("action", choices=("submit", "status", "cancel",
                                         "list"))
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument("--port", type=int, required=True)
    jobs.add_argument("--timeout", type=float, default=60.0,
                      help="connect/read timeout in seconds")
    jobs.add_argument("--job-id", default=None,
                      help="job to inspect or cancel")
    jobs.add_argument("--data", default=None,
                      help="training dataset file (submit)")
    jobs.add_argument("--name", default=None,
                      help="registry name the finished model publishes "
                           "under (submit)")
    jobs.add_argument("--backend", choices=_BACKEND_CHOICES,
                      default="doppelganger")
    jobs.add_argument("--iterations", type=int, default=None)
    jobs.add_argument("--batch-size", type=int, default=None)
    jobs.add_argument("--hidden", type=int, default=None)
    jobs.add_argument("--sample-len", type=int, default=None)
    jobs.add_argument("--seed", type=int, default=None)
    jobs.add_argument("--checkpoint-every", type=int, default=None,
                      help="iterations between resumable checkpoint "
                           "writes (GAN backends)")
    jobs.add_argument("--sentinel", action="store_true",
                      help="enable the divergence sentinel for the job")
    jobs.add_argument("--max-attempts", type=int, default=None,
                      help="worker-launch budget for this job")
    jobs.add_argument("--watch", action="store_true",
                      help="poll status until the job reaches a "
                           "terminal state (submit/status)")

    fst = sub.add_parser("fleet-status",
                         help="inspect a running fleet router: replica "
                              "health, routing totals, aliases, quotas")
    fst.add_argument("--host", default="127.0.0.1")
    fst.add_argument("--port", type=int, required=True)
    fst.add_argument("--timeout", type=float, default=10.0)
    fst.add_argument("--reload", action="store_true",
                     help="re-pin name/@latest aliases to the newest "
                          "registry versions first (zero-downtime "
                          "upgrade flip)")

    return parser


def _cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.dataset == "wwt":
        data = generate_wwt(args.n, rng, length=args.length or 56,
                            long_period=28)
    elif args.dataset == "mba":
        data = generate_mba(args.n, rng, length=args.length or 56)
    elif args.dataset == "flashcrowd":
        data = generate_flashcrowd(args.n, rng, length=args.length or 56)
    elif args.dataset == "regime":
        data = generate_regime(args.n, rng, max_length=args.length or 48)
    else:
        data = generate_gcut(args.n, rng, max_length=args.length or 24)
    data.save(_ensure_parent(args.out))
    print(f"wrote {len(data)} objects to {args.out}")
    return 0


def _cmd_train(args) -> int:
    from repro.backends import FitOptions, get_backend

    data = _load_dataset(args.data)
    _ensure_parent(args.out)
    _ensure_parent(args.checkpoint)
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    backend = get_backend(args.backend)
    config = backend.train_config(
        data.schema, iterations=args.iterations, batch_size=args.batch_size,
        hidden=args.hidden, seed=args.seed, sample_len=args.sample_len,
        use_minmax_generator=not args.no_minmax,
        use_auxiliary_discriminator=not args.no_aux)
    model = backend.from_config(data.schema, config)
    resume_from = None
    if args.resume and os.path.exists(args.checkpoint):
        resume_from = args.checkpoint
        print(f"resuming from {args.checkpoint}")
    sentinel = None
    if args.sentinel:
        from repro.resilience import SentinelPolicy
        sentinel = SentinelPolicy(max_retries=args.max_retries)
    try:
        options = FitOptions(
            checkpoint_path=args.checkpoint,
            checkpoint_every=(args.checkpoint_every if args.checkpoint
                              else None),
            resume_from=resume_from, sentinel=sentinel)
        if args.telemetry:
            from repro.observability import TelemetryRun
            with TelemetryRun(args.telemetry, run_id="train") as run:
                backend.fit(model, data, options)
            paths = run.finalize()
            print(f"telemetry written to {paths['events']}")
        else:
            backend.fit(model, data, options)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    write_atomic(args.out, backend.save_bytes(model))
    print(f"model parameters written to {args.out} "
          f"(backend {backend.name})")
    history = getattr(model, "history", None)
    if history is not None and history.iterations:
        print(f"iteration {history.iterations[-1]}: "
              f"d_loss={history.d_loss[-1]:.3f} "
              f"g_loss={history.g_loss[-1]:.3f}")
        if history.rollbacks or history.nan_events \
                or history.runaway_events:
            print(f"sentinel events: nan={history.nan_events} "
                  f"runaway={history.runaway_events} "
                  f"rollbacks={history.rollbacks} "
                  f"lr_decays={history.lr_decays}")
    return 0


def _cmd_generate(args) -> int:
    model, backend = _load_model(args.model)
    _ensure_parent(args.out)
    if args.telemetry:
        from repro.observability import TelemetryRun
        with TelemetryRun(args.telemetry, run_id="generate") as run:
            synthetic = backend.generate(
                model, args.n, rng=np.random.default_rng(args.seed),
                workers=args.workers)
        paths = run.finalize()
        print(f"telemetry written to {paths['events']}")
    else:
        synthetic = backend.generate(
            model, args.n, rng=np.random.default_rng(args.seed),
            workers=args.workers)
    synthetic.save(args.out)
    print(f"wrote {args.n} synthetic objects to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.configs import SCALES
    from repro.experiments.harness import run_sweep
    from repro.experiments.report import render_sweep_report, timing_summary

    quality = {"n": args.quality_n} if args.quality else False
    result = run_sweep(args.datasets, args.models, scale=SCALES[args.scale],
                       workers=args.workers, seeds=args.seeds,
                       cache_dir=args.cache_dir, telemetry=args.telemetry,
                       quality=quality)
    if result.quality:
        for key in sorted(result.quality, key=str):
            label = "/".join(str(p) for p in key) \
                if isinstance(key, tuple) else str(key)
            print(f"quality {label}: "
                  f"{result.quality[key].overall:.4f}")
    summary = timing_summary(result.timings)
    if summary:
        print(summary)
    if args.report:
        report = render_sweep_report(result, n=args.digest_n)
        with open(_ensure_parent(args.report), "w") as handle:
            handle.write(report + "\n")
        print(f"sweep report written to {args.report}")
    print(f"trained {len(result.models)} cells, "
          f"{len(result.failures)} failed")
    return 1 if result.failures else 0


def _cmd_metrics(args) -> int:
    """Print the canonical exports of a finished telemetry run."""
    if args.action == "dump":
        path = os.path.join(args.dir, "metrics.json")
        try:
            with open(path, encoding="utf-8") as handle:
                sys.stdout.write(handle.read())
        except FileNotFoundError:
            print(f"no metrics dump at {path} (run with --telemetry first)",
                  file=sys.stderr)
            return 2
        return 0
    path = os.path.join(args.dir, "report.md")
    try:
        with open(path, encoding="utf-8") as handle:
            sys.stdout.write(handle.read())
        return 0
    except FileNotFoundError:
        pass
    # No rendered report: re-render from the canonical event log.
    from repro.observability import read_events, render_run_report
    events = read_events(os.path.join(args.dir, "events.jsonl"))
    if not events:
        print(f"no telemetry run found in {args.dir}", file=sys.stderr)
        return 2
    print(render_run_report(events))
    return 0


def _cmd_publish(args) -> int:
    from repro.serve import ModelRegistry, RegistryError

    model, backend = _load_model(args.model)
    meta = {}
    if args.meta:
        try:
            meta = json.loads(args.meta)
        except ValueError as exc:
            raise _CliError(f"--meta is not valid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise _CliError("--meta must be a JSON object")
    scores = None
    if args.evaluate:
        from repro.quality import evaluate_model, scores_summary

        if not args.data:
            raise _CliError("publish --evaluate needs --data (the real "
                            "dataset to score the model against)")
        data = _load_dataset(args.data)
        holdout = _load_dataset(args.holdout) if args.holdout else None
        report = evaluate_model(model, data, holdout=holdout,
                                n=args.eval_n, seed=args.eval_seed)
        scores = scores_summary(report)
    try:
        registry = ModelRegistry(args.registry)
        record = registry.publish(args.name, model, meta=meta,
                                  backend=backend.name, scores=scores)
    except RegistryError as exc:
        raise _CliError(str(exc)) from None
    print(f"published {record.spec} (backend {record.backend}, sha256 "
          f"{record.sha256[:12]}..., {record.nbytes} bytes) to "
          f"{args.registry}")
    if record.scores is not None:
        print(f"scores attached: overall "
              f"{record.scores['overall']:.4f}")
    return 0


def _cmd_report(args) -> int:
    from repro.quality import (evaluate_model, privacy_battery,
                               scores_summary)

    if bool(args.model) == bool(args.spec):
        raise _CliError("report needs exactly one of --model or "
                        "--registry/--spec")
    data = _load_dataset(args.data)
    holdout = _load_dataset(args.holdout) if args.holdout else None
    record = None
    registry = None
    if args.model:
        model, _ = _load_model(args.model)
        source = args.model
    else:
        from repro.serve import ModelRegistry, RegistryError

        if not args.registry:
            raise _CliError("--spec needs --registry")
        try:
            registry = ModelRegistry(args.registry)
            record = registry.resolve(args.spec)
            model = registry.load(record)
        except RegistryError as exc:
            raise _CliError(str(exc)) from None
        source = record.spec
    if args.attach and record is None:
        raise _CliError("--attach needs --registry/--spec (a model "
                        "file has no manifest to attach scores to)")

    report = evaluate_model(model, data, holdout=holdout, n=args.n,
                            seed=args.seed,
                            downstream=not args.no_downstream)
    battery = None
    if args.privacy:
        from repro.data.splits import make_split

        split = make_split(data, np.random.default_rng(args.seed))
        half = min(len(split.train_real), len(split.test_real))
        battery = privacy_battery(model, split.train_real[:half],
                                  split.test_real[:half],
                                  seed=args.seed)
    document = {"quality": report.to_dict()}
    if battery is not None:
        document["privacy"] = battery.to_dict()
    if args.json:
        with open(_ensure_parent(args.json), "w",
                  encoding="utf-8") as handle:
            handle.write(canonical_json(document))
        print(f"JSON report written to {args.json}")
    markdown = report.render_markdown(title=f"Quality report: {source}")
    if battery is not None:
        markdown += "\n" + battery.render_markdown()
    if args.md:
        with open(_ensure_parent(args.md), "w",
                  encoding="utf-8") as handle:
            handle.write(markdown + "\n")
        print(f"markdown report written to {args.md}")
    if args.attach:
        registry.attach_scores(record, scores_summary(report, battery))
        print(f"scores attached to {record.spec}")
    print(f"overall quality score: {report.overall:.4f} "
          f"({len(report.properties)} properties)")
    if battery is not None:
        print(f"privacy grade: {battery.grade} (worst attacker "
              f"advantage {battery.worst_advantage:.4f})")
    return 0


def _print_job(job: dict) -> None:
    line = (f"{job['job_id']}  {job['state']:<10}  name={job['name']}  "
            f"backend={job['backend']}  attempts={job['attempts']}"
            f"/{job['max_attempts']}")
    progress = job.get("progress") or {}
    if progress.get("iteration") is not None:
        line += (f"  iter={progress['iteration']}"
                 f"/{progress.get('iterations')}"
                 f"  d_loss={progress['d_loss']:.3f}"
                 f"  g_loss={progress['g_loss']:.3f}")
        if progress.get("rollbacks"):
            line += f"  rollbacks={progress['rollbacks']}"
    if job.get("result"):
        line += (f"  published={job['result']['spec']} "
                 f"(sha256 {job['result']['sha256'][:12]}...)")
    if job.get("error"):
        line += f"  error: {job['error']}"
    print(line)


def _cmd_jobs(args) -> int:
    import time

    from repro.serve import ServeClient, ServeError

    try:
        client = ServeClient(args.host, args.port, timeout=args.timeout,
                             connect_retries=2)
    except ServeError as exc:
        raise _CliError(str(exc)) from None

    def watch(job_id: str) -> int:
        while True:
            job = client.job_status(job_id)
            _print_job(job)
            if job["state"] in ("completed", "failed", "cancelled"):
                return 0 if job["state"] == "completed" else 1
            time.sleep(0.2)

    try:
        if args.action == "list":
            rows = client.jobs()
            if not rows:
                print("no jobs")
            for job in rows:
                _print_job(job)
            return 0
        if args.action == "submit":
            if not args.data or not args.name:
                raise _CliError("jobs submit needs --data and --name")
            _load_dataset(args.data)  # fail fast on unreadable input
            train = {key: value for key, value in [
                ("iterations", args.iterations),
                ("batch_size", args.batch_size),
                ("hidden", args.hidden),
                ("sample_len", args.sample_len),
                ("seed", args.seed),
                ("checkpoint_every", args.checkpoint_every),
            ] if value is not None}
            if args.sentinel:
                train["sentinel"] = True
            job = client.submit_job(args.name, args.data,
                                    backend=args.backend, train=train,
                                    max_attempts=args.max_attempts)
            _print_job(job)
            return watch(job["job_id"]) if args.watch else 0
        if not args.job_id:
            raise _CliError(f"jobs {args.action} needs --job-id")
        if args.action == "cancel":
            _print_job(client.cancel_job(args.job_id))
            return 0
        if args.watch:
            return watch(args.job_id)
        _print_job(client.job_status(args.job_id))
        return 0
    except ServeError as exc:
        raise _CliError(str(exc)) from None
    finally:
        client.close()


def _cmd_serve(args) -> int:
    import time

    from repro.serve import (Fleet, GenerationService, ModelRegistry,
                             Server)
    from repro.serve.registry import RegistryError

    if args.replicas and args.replicas > 0:
        if args.jobs_dir:
            raise _CliError(
                "--replicas and --jobs-dir are mutually exclusive: the "
                "fleet router does not orchestrate training jobs; run "
                "a separate single server with --jobs-dir")
        if args.models:
            raise _CliError(
                "--replicas serves the whole registry (replicas "
                "lazy-load any published name@version); drop --models")
        try:
            registry = ModelRegistry(args.registry)
            service = Fleet(registry, replicas=args.replicas,
                            model_cache=args.model_cache,
                            quota_rps=args.quota_rps,
                            quota_burst=args.quota_burst,
                            max_queue_rows=args.queue_rows)
        except RegistryError as exc:
            raise _CliError(str(exc)) from None
        print(f"fleet of {args.replicas} replicas "
              f"(model cache: {args.model_cache}/replica"
              + (f", quota: {args.quota_rps:g} req/s per client"
                 if args.quota_rps else "") + ")")
    else:
        try:
            registry = ModelRegistry(args.registry)
            service = GenerationService.from_registry(
                registry, specs=args.models or None,
                allow_empty=bool(args.jobs_dir),
                max_queue_rows=args.queue_rows)
        except RegistryError as exc:
            raise _CliError(str(exc)) from None

    supervisor = None
    if args.jobs_dir:
        from repro.resilience import RetryPolicy
        from repro.serve import JobStore, JobSupervisor

        supervisor = JobSupervisor(
            JobStore(args.jobs_dir), args.registry,
            max_workers=args.train_workers,
            retry=RetryPolicy(max_attempts=max(args.job_attempts, 1),
                              base_delay=0.1, multiplier=2.0,
                              max_delay=5.0))
        service.attach_jobs(supervisor)
        requeued = supervisor.recover()
        for job_id in requeued:
            print(f"requeued interrupted job {job_id} (will resume "
                  f"from its latest checkpoint)")
        supervisor.start()
        print(f"training jobs enabled (store: {args.jobs_dir}, "
              f"workers: {args.train_workers})")

    telemetry = None
    if args.telemetry:
        from repro.observability import TelemetryRun
        telemetry = TelemetryRun(args.telemetry, run_id="serve")
        telemetry.__enter__()
    server = Server(service, host=args.host, port=args.port)
    host, port = server.address
    for row in service.describe():
        print(f"serving {row['spec']} "
              f"(aliases: {', '.join(row['aliases']) or '-'})")
    print(f"listening on {host}:{port}")
    if args.port_file:
        _ensure_parent(args.port_file)
        with atomic_open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    try:
        while True:
            if args.stop_file and os.path.exists(args.stop_file):
                print(f"stop file {args.stop_file} found")
                break
            time.sleep(0.1)
    except KeyboardInterrupt:
        print("interrupt received")
    if supervisor is not None:
        print("stopping job supervisor (running jobs resume on the "
              "next start)...")
        supervisor.stop()
    print("draining in-flight requests...")
    server.shutdown(drain=True)
    if telemetry is not None:
        telemetry.__exit__(None, None, None)
        paths = telemetry.finalize()
        print(f"telemetry written to {paths['events']}")
    print("server stopped")
    return 0


def _cmd_fleet_status(args) -> int:
    from repro.serve import ServeClient, ServeError

    try:
        with ServeClient(args.host, args.port,
                         timeout=args.timeout) as client:
            if args.reload:
                aliases = client.reload_models()
                print("aliases re-pinned:")
                for alias in sorted(aliases):
                    print(f"  {alias} -> {aliases[alias]}")
            status = client.fleet_status()
    except ServeError as exc:
        raise _CliError(str(exc)) from None
    for row in status["replicas"]:
        print(f"replica {row['replica']}: {row['state']}  "
              f"pid={row['pid']} port={row['port']} "
              f"restarts={row['restarts']} routed={row['routed']}")
    totals = status["totals"]
    print(f"totals: routed={totals['routed']} "
          f"retried={totals['retried']} "
          f"respawns={totals['respawns']} "
          f"rate_limited={totals['rate_limited']}")
    quota = status.get("quota")
    print(f"quota: " + (f"{quota['rps']:g} req/s per client "
                        f"(burst {quota['burst']})" if quota
                        else "disabled"))
    for alias in sorted(status["aliases"]):
        print(f"alias {alias} -> {status['aliases'][alias]}")
    return 0


def _cmd_inspect(args) -> int:
    data = _load_dataset(args.data)
    schema = data.schema
    print(f"objects: {len(data)}")
    print(f"max length: {schema.max_length} "
          f"(observed {data.lengths.min()}..{data.lengths.max()})")
    print("attributes:")
    for spec in schema.attributes:
        kind = (f"categorical({spec.dimension})" if spec.is_categorical
                else "continuous")
        print(f"  - {spec.name}: {kind}")
    print("features:")
    for spec in schema.features:
        kind = (f"categorical({spec.dimension})" if spec.is_categorical
                else "continuous")
        print(f"  - {spec.name}: {kind}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "train": _cmd_train,
                "generate": _cmd_generate, "inspect": _cmd_inspect,
                "sweep": _cmd_sweep, "metrics": _cmd_metrics,
                "publish": _cmd_publish, "report": _cmd_report,
                "serve": _cmd_serve,
                "jobs": _cmd_jobs, "fleet-status": _cmd_fleet_status}
    try:
        return handlers[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
