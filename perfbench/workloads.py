"""The four benchmark workloads: train-wwt, release-gcut, serve-small and
serve-fleet.

Every workload is a closed loop driven from this process: :meth:`op` runs
one operation and is the only timed call; :meth:`check` verifies its
output afterwards, outside the timed interval.  The workload seed fixes
all inputs, so two runs with one seed do the same work.

Each op calls the program only through public APIs.  In a traced run the
calls are wrapped in spans and :meth:`trace_extras` times the per-layer
probes that are not on the op's blocking path (the in-process handle,
payload codecs, direct generation, a single-server round trip);
:meth:`layer_metrics` turns the spans into per-layer numbers.  Import this
module only after :func:`hostenv.pin`.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import tempfile
import time

import numpy as np

from repro.core import DGConfig, DoppelGANger
from repro.data.encoding import DataEncoder
from repro.data.simulators import generate_gcut, generate_wwt
from repro.nn import profiler
from repro.observability import metrics as obs_metrics
from repro.quality import QualityReport
from repro.resilience.checkpoint import save_checkpoint
from repro.serve import protocol
from repro.serve.client import InProcessClient, ServeClient
from repro.serve.fleet import Fleet
from repro.serve.registry import ModelRegistry
from repro.serve.server import GenerationService, Server

from tracing import NULL, percentile

__all__ = ["WORKLOADS", "TrainWWT", "ReleaseGcut", "ServeSmall",
           "ServeFleet", "same_dataset"]


def _tiny_config(seed: int) -> DGConfig:
    """The ``repro.serve.bench.train_tiny_model`` config at ``seed``."""
    return DGConfig(
        sample_len=4, batch_size=16, iterations=40,
        attribute_hidden=(24, 24), minmax_hidden=(24, 24),
        feature_rnn_units=24, feature_mlp_hidden=(24,),
        discriminator_hidden=(32, 32), aux_discriminator_hidden=(32, 32),
        seed=seed)


#: The tiny-gcut model of ``repro.serve.bench.train_tiny_model``: 80
#: GCUT objects of length <= 16 drawn at data seed 3, model seed 7.
TINY_DATA_SEED = 3
TINY_MODEL_SEED = 7


def _gcut(seed, n: int = 80):
    return generate_gcut(n, np.random.default_rng(seed), max_length=16)


def _request_seed(seed: int, index: int) -> int:
    """Distinct generation seed of request ``index`` (stable per seed)."""
    return (seed % (1 << 20)) * (1 << 20) + index


def _array_bytes(dataset) -> tuple:
    return tuple((a.dtype.str, a.shape, a.tobytes())
                 for a in (dataset.attributes, dataset.features,
                           dataset.lengths))


def same_dataset(a, b) -> bool:
    """Byte identity of two datasets' arrays (dtype, shape and bytes)."""
    return a.schema == b.schema and _array_bytes(a) == _array_bytes(b)


def _ms(seconds) -> float:
    return 1e3 * percentile(seconds, 50)


def _timed(fn, *args, **kwargs) -> float:
    started = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - started


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live child process, from procfs."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Workload:
    """One closed-loop op stream; subclasses fill in the hooks.

    Everything a workload starts (servers, fleets, clients, temp files)
    is registered on ``self.stack`` and released by :meth:`close`.
    """

    name = ""
    #: Every run, traced or not, runs at least this many ops per stream.
    min_ops = 1
    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setup_repeats = 5
    #: Per-layer metrics this stream reports: name -> unit.
    layer_units: dict[str, str] = {}

    def __init__(self, seed: int, workdir: str, traced: bool = False):
        self.seed = int(seed)
        self.traced = traced
        self.next_index = 0
        self.stack = contextlib.ExitStack()
        self.workdir = tempfile.mkdtemp(prefix=self.name + "-", dir=workdir)
        self.stack.callback(shutil.rmtree, self.workdir, True)

    def setup(self) -> None:
        """Everything ``setup_s`` covers."""

    def begin(self, tracer) -> None:
        """Called before each op stream."""

    def end(self, tracer) -> None:
        """Called after each op stream."""

    def op(self, index: int, tracer):
        raise NotImplementedError

    def check(self, index: int, result) -> str | None:
        """A problem description, or None when the op's output is right."""
        return None

    def trace_extras(self, index: int, result, tracer) -> None:
        """Traced runs only: per-layer probes off the op's blocking path."""

    def finish(self) -> list[str]:
        """Run-level checks after the last op."""
        return []

    def layer_metrics(self, tracer, prefix: str) -> dict[str, float]:
        return {}

    def path_share(self, tracer, prefix: str) -> float:
        """Median share of an op covered by directly timed layer calls."""
        return percentile(tracer.child_share("op", prefix), 50)

    def children_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        self.stack.close()


# -- train-wwt ---------------------------------------------------------------

class TrainWWT(Workload):
    """One ``DGTrainer`` iteration (critic step(s) + generator step) on the
    ``BENCH_engine.json`` WWT config: 96 objects x length 224, sample_len
    7, batch 32, 48 LSTM units, compiled plans, no checkpoints."""

    name = "train-wwt"
    #: The parameter sha is taken after this many timed iterations and
    #: compared with a fresh trainer run for the same count.
    sha_after = 20
    min_ops = sha_after
    warmup_steps = 2
    layer_units = {"core.trainer.d_step_ms": "ms",
                   "core.trainer.g_step_ms": "ms",
                   "core.trainer.trace_s": "s",
                   "nn.ops_per_iter": "count",
                   "nn.allocs_per_iter": "count"}

    def _fitted(self):
        data = generate_wwt(96, np.random.default_rng([self.seed, 0]),
                            length=224, short_period=7, long_period=28)
        config = DGConfig(
            sample_len=7, batch_size=32, iterations=1,
            attribute_hidden=(64, 64), minmax_hidden=(64, 64),
            feature_rnn_units=48, feature_mlp_hidden=(64,),
            discriminator_hidden=(64, 64),
            aux_discriminator_hidden=(64, 64), seed=self.seed)
        model = DoppelGANger(data.schema, config)
        # One iteration encodes, builds and traces the step plans (plan
        # replay is pinned on by hostenv).
        model.fit(data, iterations=1)
        self.encoded = model.encoder.transform(data)
        # The first replays still fill the plans' arenas.
        for _ in range(self.warmup_steps):
            self._step(model.trainer, NULL)
        return model

    def setup(self):
        self.model = self._fitted()
        self.sha = None
        if self.traced:
            self._probe_fresh_trainer()

    def _probe_fresh_trainer(self):
        """Plan-tracing cost, and op/alloc counts of one steady step, on
        an untraced copy (the timed trainer is left untouched)."""
        fresh = DoppelGANger.load_bytes(self.model.save_bytes()).trainer
        self.trace_s = _timed(self._step, fresh, NULL)
        with profiler.profile() as prof:
            self._step(fresh, NULL)
        self.ops_per_iter = prof.total_calls()
        self.allocs_per_iter = prof.total_allocs()

    def _step(self, trainer, tracer):
        for _ in range(trainer.config.discriminator_steps):
            with tracer.span("core.trainer.d_step"):
                d_loss, w = trainer.discriminator_step(self.encoded)
        with tracer.span("core.trainer.g_step"):
            g_loss = trainer.generator_step()
        return d_loss, w, g_loss

    def op(self, index, tracer):
        return self._step(self.model.trainer, tracer)

    def check(self, index, result):
        if not np.all(np.isfinite(result)):
            return f"non-finite losses {result} at iteration {index}"
        if index == self.sha_after - 1:
            self.sha = _params_sha(self.model.trainer)
        return None

    def finish(self):
        if self.sha is None:
            return [f"run ended before iteration {self.sha_after}"]
        reference = self._fitted()
        for _ in range(self.sha_after):
            self._step(reference.trainer, NULL)
        if _params_sha(reference.trainer) != self.sha:
            return [f"parameter sha after {self.sha_after} iterations "
                    f"differs from a fresh run of the same seed"]
        return []

    def layer_metrics(self, tracer, prefix):
        return {"core.trainer.d_step_ms": _ms(tracer.durations(
                    "core.trainer.d_step", prefix)),
                "core.trainer.g_step_ms": _ms(tracer.durations(
                    "core.trainer.g_step", prefix)),
                "core.trainer.trace_s": self.trace_s,
                "nn.ops_per_iter": self.ops_per_iter,
                "nn.allocs_per_iter": self.allocs_per_iter}


def _params_sha(trainer) -> str:
    digest = hashlib.sha256()
    for p in trainer.generator_params + trainer.discriminator_params:
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


# -- release-gcut ------------------------------------------------------------

class ReleaseGcut(Workload):
    """One model release of the tiny-gcut model: fit with train-state
    checkpoints every 20 iterations and the sentinel on, generate 80
    objects, score them with ``QualityReport`` (held-out set, downstream
    on), publish, load back.

    Op ``k`` trains model seed ``k`` on the tiny-gcut training data and
    generates at seed ``k``: the seed list is 0, 1, 2, ... in every run.
    Whether the downstream section runs depends on the model and its
    samples (seeds 1 and 7 collapse to a single synthetic class, and
    seed 4 does for some generation seeds), so seeds drawn from the
    workload seed would change the share of cheap releases from run to
    run.  The workload seed fixes the held-out data.
    """

    name = "release-gcut"
    min_ops = 4
    setup_repeats = 3
    model_name = "tiny-gcut"
    #: Model seed of the untimed warm-up release in setup.
    warmup_model_seed = 1_000_000
    layer_units = {"data.encode_ms": "ms",
                   "core.fit_ms": "ms",
                   "core.fit_iter_ms": "ms",
                   "core.generate_n80_ms": "ms",
                   "resilience.checkpoint_save_ms": "ms",
                   "quality.report_ms": "ms",
                   "quality.downstream_ms": "ms",
                   "quality.sections_skipped": "count",
                   "registry.publish_ms": "ms",
                   "registry.load_ms": "ms",
                   "registry.blob_bytes": "bytes"}

    def setup(self):
        self.real = _gcut(TINY_DATA_SEED)
        self.holdout = _gcut([self.seed, 1], n=40)
        self.registry = ModelRegistry(os.path.join(self.workdir,
                                                   "registry"))
        self.state_path = os.path.join(self.workdir, "train-state.npz")
        self.skipped: list[int] = []
        self.fit_iters: list[float] = []
        self.downstream: list[float] = []
        # Pays first-call costs (imports, plan tracing of the tiny
        # shapes) and publishes version 1.  The warm-up report scores the
        # held-out data itself, so every section runs whatever the model.
        model = DoppelGANger(self.real.schema,
                             _tiny_config(self.warmup_model_seed))
        model.fit(self.real, train_state_path=self.state_path,
                  checkpoint_every=20, sentinel=True)
        model.generate(80, rng=np.random.default_rng(self.seed))
        QualityReport(self.real, self.holdout, holdout=self.holdout,
                      downstream=True, mlp_iterations=10)
        record = self.registry.publish(self.model_name, model)
        self.registry.load(record)
        self.version = record.version

    def _release(self, model_seed, tracer, **fit_kwargs):
        model = DoppelGANger(self.real.schema, _tiny_config(model_seed))
        with tracer.span("core.fit"):
            model.fit(self.real, train_state_path=self.state_path,
                      checkpoint_every=20, sentinel=True, **fit_kwargs)
        with tracer.span("core.generate_n80"):
            synthetic = model.generate(80, rng=np.random.default_rng(
                model_seed))
        with tracer.span("quality.report"):
            report = QualityReport(self.real, synthetic,
                                   holdout=self.holdout, seed=model_seed,
                                   downstream=True)
        with tracer.span("registry.publish"):
            record = self.registry.publish(self.model_name, model)
        with tracer.span("registry.load"):
            loaded = self.registry.load(record)
        return model, record, loaded, report

    def op(self, index, tracer):
        if not tracer.enabled:
            return self._release(index, tracer)
        ticks = []
        result = self._release(
            index, tracer, log_every=1,
            callback=lambda it, history: ticks.append(time.perf_counter()))
        # The first interval holds encoding, build and plan tracing.
        self.fit_iters.extend(np.diff(ticks[1:]))
        return result

    def check(self, index, result):
        model, record, loaded, _ = result
        expected = self.version + 1
        self.version = record.version
        if record.version != expected:
            return (f"publish returned version {record.version}, "
                    f"expected {expected}")
        seed = [self.seed, index, 1]
        if not same_dataset(
                loaded.generate(80, rng=np.random.default_rng(seed)),
                model.generate(80, rng=np.random.default_rng(seed))):
            return "loaded model regenerates different data"
        return None

    def _encode(self, config):
        encoder = DataEncoder(self.real.schema,
                              auto_normalize=config.use_minmax_generator,
                              target_range=config.target_range)
        encoder.fit(self.real)
        encoder.transform(self.real)

    def trace_extras(self, index, result, tracer):
        model, record, _, report = result
        tracer.record("data.encode", _timed(self._encode, model.config))
        tracer.record("resilience.checkpoint_save", _timed(
            save_checkpoint, model.trainer,
            os.path.join(self.workdir, "probe-state.npz"),
            model.config.iterations, model.history))
        self.downstream.append(report.timings.get("downstream", 0.0))
        if len(self.skipped) < self.min_ops:
            self.skipped.append(len(report.skipped))
        self.blob_bytes = record.nbytes

    def layer_metrics(self, tracer, prefix):
        metrics = {f"{name}_ms": _ms(tracer.durations(name, prefix))
                   for name in ("data.encode", "core.fit",
                                "core.generate_n80",
                                "resilience.checkpoint_save",
                                "quality.report", "registry.publish",
                                "registry.load")}
        metrics.update({
            "core.fit_iter_ms": _ms(self.fit_iters),
            "quality.downstream_ms": _ms(self.downstream),
            # Over the first min_ops releases, which every traced run
            # completes: equal between runs of the same code and seed.
            "quality.sections_skipped": sum(self.skipped),
            "registry.blob_bytes": self.blob_bytes,
        })
        return metrics


# -- serving -----------------------------------------------------------------

class _Serve(Workload):
    """One closed-loop ``ServeClient`` issuing ``generate`` requests with
    distinct seeds; every response is byte-compared with direct
    ``model.generate`` for the same seed."""

    request_n = 16
    tag = ""

    def _train(self):
        data = _gcut(TINY_DATA_SEED)
        model = DoppelGANger(data.schema, _tiny_config(TINY_MODEL_SEED))
        model.fit(data)
        return model

    def _connect(self, server) -> ServeClient:
        return self.stack.enter_context(ServeClient(*server.address))

    def op(self, index, tracer):
        return self.client.generate(self.spec, self.request_n,
                                    _request_seed(self.seed, index))

    def check(self, index, result):
        direct = self.model.generate(self.request_n, rng=np.random
                                     .default_rng(_request_seed(self.seed,
                                                                index)))
        if not same_dataset(result, direct):
            return f"request {index}: served data differs from direct"
        return None

    def _probe(self, index, tracer, service):
        """Time the layers of one request off the socket path."""
        seed = _request_seed(self.seed, index)
        n, tag = self.request_n, self.tag
        tracer.record(f"core.generate_n{n}", _timed(
            self.model.generate, n, rng=np.random.default_rng(seed)))
        started = time.perf_counter()
        dataset = InProcessClient(service).generate(self.spec, n, seed)
        tracer.record(f"serve.{tag}.handle", time.perf_counter() - started)
        started = time.perf_counter()
        payload = protocol.dataset_to_bytes(dataset)
        tracer.record(f"serve.{tag}.encode", time.perf_counter() - started)
        tracer.record(f"serve.{tag}.decode", _timed(
            protocol.dataset_from_bytes, payload))
        self.response_bytes = len(payload)

    def _serve_metrics(self, tracer, prefix, roundtrip: str,
                       passes: float) -> dict[str, float]:
        n, tag = self.request_n, self.tag
        handle = tracer.durations(f"serve.{tag}.handle", prefix)
        return {
            f"core.generate_n{n}_ms": _ms(tracer.durations(
                f"core.generate_n{n}", prefix)),
            f"serve.{tag}.handle_ms": _ms(handle),
            f"serve.{tag}.encode_ms": _ms(tracer.durations(
                f"serve.{tag}.encode", prefix)),
            f"serve.{tag}.decode_ms": _ms(tracer.durations(
                f"serve.{tag}.decode", prefix)),
            f"serve.{tag}.response_bytes": self.response_bytes,
            # Derived: socket round trip minus the in-process handle.
            f"serve.{tag}.transport_ms": _ms(np.subtract(
                tracer.durations(roundtrip, prefix), handle)),
            f"serve.{tag}.model_passes_per_request": passes,
        }

    def path_share(self, tracer, prefix):
        # Transport is derived, so the handle is the directly timed share.
        return percentile(np.divide(
            tracer.durations(f"serve.{self.tag}.handle", prefix),
            tracer.durations("op", prefix)), 50)


def _passes_per_request(before: dict, after: dict) -> float:
    """Model passes per completed request between two counter dumps.

    ``serve.completed`` and ``serve.model_passes`` are bumped together
    after a bundle runs, so the ratio never sees half a request.
    """
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in ("serve.model_passes", "serve.completed")}
    return delta["serve.model_passes"] / max(delta["serve.completed"], 1)


class ServeSmall(_Serve):
    """n=16 requests to one ``Server`` over a ``GenerationService``
    holding the tiny-gcut model: transport dominates the round trip."""

    name = "serve-small"
    tag = "small"
    request_n = 16
    min_ops = 20
    spec = "tiny-gcut@1"
    layer_units = {"core.generate_n16_ms": "ms",
                   "serve.small.handle_ms": "ms",
                   "serve.small.encode_ms": "ms",
                   "serve.small.decode_ms": "ms",
                   "serve.small.response_bytes": "bytes",
                   "serve.small.transport_ms": "ms",
                   "serve.small.model_passes_per_request": "count"}

    def setup(self):
        self.model = self._train()
        self.service = GenerationService({self.spec: self.model})
        self.stack.callback(self.service.close)
        server = self.stack.enter_context(Server(self.service))
        self.client = self._connect(server)
        for index in range(3):
            self.client.generate(self.spec, self.request_n,
                                 _request_seed(self.seed, -1 - index))
        self.metrics = obs_metrics.MetricsRegistry()
        self._scope = contextlib.ExitStack()

    def begin(self, tracer):
        if tracer.enabled:
            # The batcher worker counts model passes into this scope.
            self._scope.enter_context(obs_metrics.use(self.metrics))

    def end(self, tracer):
        self._scope.close()

    def trace_extras(self, index, result, tracer):
        self._probe(index, tracer, self.service)

    def layer_metrics(self, tracer, prefix):
        passes = _passes_per_request({}, self.metrics.dump()["counters"])
        return self._serve_metrics(tracer, prefix, "op", passes)


class ServeFleet(_Serve):
    """n=256 requests to a ``Server`` fronting ``Fleet(replicas=2,
    model_cache=2)`` over a registry holding the tiny-gcut model: the
    model pass dominates, the router hop and replica caches are on the
    path."""

    name = "serve-fleet"
    tag = "fleet"
    request_n = 256
    min_ops = 10
    replicas = 2
    layer_units = {"core.generate_n256_ms": "ms",
                   "serve.fleet.handle_ms": "ms",
                   "serve.fleet.encode_ms": "ms",
                   "serve.fleet.decode_ms": "ms",
                   "serve.fleet.response_bytes": "bytes",
                   "serve.fleet.transport_ms": "ms",
                   "serve.fleet.model_passes_per_request": "count",
                   "fleet.router_hop_ms": "ms",
                   **{f"fleet.routed.{i}": "count" for i in range(2)},
                   "fleet.retries": "count"}

    def setup(self):
        self.model = self._train()
        registry = ModelRegistry(os.path.join(self.workdir, "registry"))
        self.spec = registry.publish("tiny-gcut", self.model).spec
        self.fleet = self.stack.enter_context(
            Fleet(registry, replicas=self.replicas, model_cache=2))
        server = self.stack.enter_context(Server(self.fleet))
        self.client = self._connect(server)
        # Fill every replica's model cache and trace its block plans.
        warm = 0
        while min(self._routed()) < 2:
            if warm >= 64:
                raise RuntimeError("fleet warm-up never reached every "
                                   "replica")
            self.client.generate(self.spec, self.request_n,
                                 _request_seed(self.seed, -1 - warm))
            warm += 1
        if self.traced:
            # The single-server reference for the router hop, transport
            # and in-process handle.
            self.single = GenerationService({self.spec: self.model})
            self.stack.callback(self.single.close)
            self.single_client = self._connect(
                self.stack.enter_context(Server(self.single)))
            self.single_client.generate(self.spec, self.request_n, 0)

    def _routed(self) -> list[int]:
        return [row["routed"]
                for row in self.fleet.fleet_status()["replicas"]]

    def _replica_counters(self) -> dict[str, int]:
        """Sum of the replicas' own metrics counters."""
        total: dict[str, int] = {}
        for row in self.fleet.fleet_status()["replicas"]:
            with ServeClient("127.0.0.1", row["port"]) as client:
                counters = client.stats().get("metrics", {}).get(
                    "counters", {})
            for name, value in counters.items():
                total[name] = total.get(name, 0) + int(value)
        return total

    def begin(self, tracer):
        if tracer.enabled:
            self._counters_before = self._replica_counters()
            self._routed_before = self._routed()

    def trace_extras(self, index, result, tracer):
        tracer.record("serve.fleet.single_roundtrip", _timed(
            self.single_client.generate, self.spec, self.request_n,
            _request_seed(self.seed, index)))
        self._probe(index, tracer, self.single)

    def finish(self):
        status = self.fleet.fleet_status()
        problems = []
        if status["totals"]["retried"]:
            problems.append(f"fleet retried {status['totals']['retried']} "
                            f"requests")
        unhealthy = [row["replica"] for row in status["replicas"]
                     if row["state"] != "healthy"]
        if unhealthy:
            problems.append(f"replicas {unhealthy} are not healthy")
        return problems

    def layer_metrics(self, tracer, prefix):
        passes = _passes_per_request(self._counters_before,
                                     self._replica_counters())
        # Transport on the single-server path; the router hop on top.
        metrics = self._serve_metrics(tracer, prefix,
                                      "serve.fleet.single_roundtrip",
                                      passes)
        metrics["fleet.router_hop_ms"] = _ms(np.subtract(
            tracer.durations("op", prefix),
            tracer.durations("serve.fleet.single_roundtrip", prefix)))
        for replica, (after, before) in enumerate(zip(
                self._routed(), self._routed_before)):
            metrics[f"fleet.routed.{replica}"] = after - before
        metrics["fleet.retries"] = \
            self.fleet.fleet_status()["totals"]["retried"]
        return metrics

    def children_rss_mb(self):
        return sum(_vm_hwm_mb(row["pid"]) for row in
                   self.fleet.fleet_status()["replicas"] if row["pid"])


WORKLOADS = {cls.name: cls for cls in (TrainWWT, ReleaseGcut, ServeSmall,
                                       ServeFleet)}
