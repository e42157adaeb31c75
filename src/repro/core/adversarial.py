"""The one adversarial training loop (§4.3, Eq. 2) behind every GAN here.

DoppelGANger, the §5.2 attribute retraining, the naive MLP GAN of §3.3
and both stages of DLGAN all train by the same alternation: some critic
updates, then one generator update, with Adam on each side.
:class:`AdversarialLoop` owns everything around that alternation once:

- the named modules and the two Adam optimizers;
- plan replay of the step functions (:class:`repro.nn.plan.PlanFunction`),
  with every rng draw made before the planned call in the order the eager
  code made it, so compiled and eager runs produce the same bytes;
- the divergence sentinel (rollback to the last good snapshot, reseed,
  learning-rate decay) and the ``trainer.*`` fault sites;
- atomic full-state checkpoints and bit-identical resume
  (:mod:`repro.resilience.checkpoint`);
- ``train.*`` telemetry;
- a refusal to return non-finite parameters.

A configuration supplies only ``discriminator_step(data)`` (returning the
critic loss and a Wasserstein estimate) and ``generator_step()``: its step
functions and its draw order.  :class:`MLPGANLoop` is the configuration
for flat-row MLP GANs (the naive GAN, DLGAN's stages);
:class:`~repro.core.trainer.DGTrainer` and
:class:`~repro.core.trainer.AttributeRetrainer` are DoppelGANger's.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.losses import critic_loss_and_estimate, generator_loss
from repro.nn import Adam, Tensor, grad, no_grad, ops
from repro.nn.optim import clip_grad_norm, grad_norm
from repro.nn.plan import PlanFunction, method_plan
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.observability.metrics import LOSS_BUCKETS, NORM_BUCKETS
from repro.observability.telemetry import telemetry_active
from repro.resilience import checkpoint as ckpt
from repro.resilience import faults
from repro.resilience.sentinel import (DivergenceDetected,
                                       DivergenceSentinel, TrainingDiverged)

__all__ = ["FitOptions", "TrainingHistory", "AdversarialLoop",
           "MLPGANLoop", "architecture_key"]


def architecture_key(config: dict, schema) -> str:
    """A digest of what a model's step functions compute: its ``config``
    dict minus the seed and iteration count (which no step reads) and its
    ``schema`` (which fixes the output-activation layout)."""
    from repro.data.schema import schema_to_dict
    from repro.resilience.atomic import canonical_json

    config = {k: v for k, v in config.items()
              if k not in ("seed", "iterations")}
    text = canonical_json([config, schema_to_dict(schema)])
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class FitOptions:
    """The resilience switches of a GAN fit, one object for every backend.

    Args:
        checkpoint_path: Destination of resumable full-state checkpoints
            (atomic writes).
        checkpoint_every: Write a checkpoint every this many completed
            iterations (and once more at the end of training).
        resume_from: A checkpoint to resume from; the continued run is
            bit-identical to an uninterrupted one.
        sentinel: ``True``, a :class:`SentinelPolicy` or a
            :class:`DivergenceSentinel`; enables per-step NaN/Inf and
            runaway-loss detection with rollback and bounded retry.
        history_window: Bound on retained loss-trace points of the
            model's history (``None`` keeps the :class:`TrainingHistory`
            default).
    """

    checkpoint_path: str | os.PathLike | None = None
    checkpoint_every: int | None = None
    resume_from: str | os.PathLike | None = None
    sentinel: object = None
    history_window: int | None = None

    def __post_init__(self):
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1, got "
                                 f"{self.checkpoint_every}")
            if self.checkpoint_path is None:
                raise ValueError("checkpoint_every requires "
                                 "checkpoint_path")


@dataclass
class TrainingHistory:
    """Loss traces and instability counters recorded during training.

    The counters make instability observable instead of silent: a run that
    finished only because the sentinel rolled back twice reports
    ``rollbacks == 2`` rather than a clean-looking loss trace.

    The loss traces are *windowed*: only the most recent ``max_points``
    recorded points are kept (``None`` disables the bound), so a
    million-iteration run cannot grow memory without limit -- the same
    bounding discipline the harness LRU caches apply.  Trimming is a pure
    function of the append sequence, so checkpoint/resume closes over the
    windowed history exactly.  Full traces belong in the event log.
    """

    iterations: list[int] = field(default_factory=list)
    d_loss: list[float] = field(default_factory=list)
    g_loss: list[float] = field(default_factory=list)
    wasserstein: list[float] = field(default_factory=list)
    max_points: int | None = 4096

    # Sentinel / resilience counters (survive rollbacks and resumes).
    nan_events: int = 0
    runaway_events: int = 0
    step_faults: int = 0
    rollbacks: int = 0
    lr_decays: int = 0
    resumes: int = 0

    def __post_init__(self):
        if self.max_points is not None and self.max_points < 1:
            raise ValueError("max_points must be >= 1 or None")

    @classmethod
    def windowed(cls, window: int | None) -> "TrainingHistory":
        """A history bounded to ``window`` points (``None``: default)."""
        return cls() if window is None else cls(max_points=window)

    def record(self, iteration: int, d_loss: float, g_loss: float,
               wasserstein: float) -> None:
        self.iterations.append(iteration)
        self.d_loss.append(d_loss)
        self.g_loss.append(g_loss)
        self.wasserstein.append(wasserstein)
        if self.max_points is not None \
                and len(self.iterations) > self.max_points:
            drop = len(self.iterations) - self.max_points
            for trace in (self.iterations, self.d_loss, self.g_loss,
                          self.wasserstein):
                del trace[:drop]

    def note_event(self, reason: str) -> None:
        """Tally one sentinel trigger by reason."""
        if reason == "nan":
            self.nan_events += 1
        elif reason == "runaway":
            self.runaway_events += 1
        else:
            self.step_faults += 1


class AdversarialLoop:
    """Alternating critic/generator updates with resilience and telemetry.

    ``modules`` names every module a checkpoint or snapshot captures (a
    model's full set, even the ones this loop does not train);
    ``generator_params`` and ``discriminator_params`` are what the two
    Adam optimizers update.  Configurations set ``seed``, ``batch_size``
    and ``discriminator_steps`` (as attributes or properties) and
    implement :meth:`discriminator_step` and :meth:`generator_step`.
    """

    #: Critic updates per generator update.
    discriminator_steps = 1

    #: What the step functions compute, independently of the weights
    #: (:func:`architecture_key`); loops with equal keys and parameter
    #: shapes share compiled plan programs.  ``None`` never shares.
    plan_key: str | None = None

    def __init__(self, modules: dict, generator_params: list,
                 discriminator_params: list, rng: np.random.Generator, *,
                 learning_rate: float,
                 betas: tuple[float, float] = (0.5, 0.999)):
        self.modules = modules
        self.generator_params = generator_params
        self.discriminator_params = discriminator_params
        self.rng = rng
        self.g_optimizer = Adam(generator_params, lr=learning_rate,
                                betas=betas)
        self.d_optimizer = Adam(discriminator_params, lr=learning_rate,
                                betas=betas)
        self.optimizers = {"g": self.g_optimizer, "d": self.d_optimizer}
        # Last applied global gradient norms, captured only while telemetry
        # is active (pure reads -- recording them cannot perturb training).
        self._last_d_grad_norm: float | None = None
        self._last_g_grad_norm: float | None = None

    # -- what a configuration supplies -------------------------------------
    def discriminator_step(self, data) -> tuple[float, float]:
        """One critic update; returns (loss, Wasserstein estimate)."""
        raise NotImplementedError

    def generator_step(self) -> float:
        """One generator update; returns its loss."""
        raise NotImplementedError

    # -- helpers for step functions ----------------------------------------
    #
    # The hot per-step work (forward, losses, double backprop, gradients)
    # is expressed as pure array functions and routed through a
    # PlanFunction: the first step with a given input shape traces
    # eagerly, later steps replay the recorded schedule with no graph
    # rebuild or per-op allocation.  Optimizer updates stay eager: Adam's
    # bias correction changes every iteration, so it is not a fixed
    # schedule.

    def _plan(self, attr: str, fn) -> PlanFunction:
        return method_plan(self, attr, fn,
                           self.generator_params + self.discriminator_params,
                           key=self.plan_key)

    def _apply(self, optimizer, grads, clip_norm: float | None = None):
        """Clip, apply one optimizer update; returns the applied gradient
        norm while telemetry is active (else ``None``)."""
        if clip_norm is not None:
            clip_grad_norm(grads, clip_norm)
        norm = grad_norm(grads) if telemetry_active() else None
        optimizer.step(grads)
        return norm

    # -- the loop ----------------------------------------------------------
    def train(self, data, iterations: int, *, log_every: int = 50,
              callback=None, options: FitOptions | None = None,
              history: TrainingHistory | None = None,
              start: int = 0) -> TrainingHistory:
        """Run the alternation up to iteration ``iterations``.

        Iterations are numbered from ``start`` (a multi-stage fit runs
        its later stages on from where the earlier ones stopped, into the
        same ``history``), or from the checkpoint's iteration when
        ``options.resume_from`` is set.  A model's fit passes the
        ``history`` it owns (bounded by ``options.history_window``).
        The history and ``callback(iteration, history)`` see every
        ``log_every``-th iteration and the last one.  To profile the
        loop's ops, run it inside :func:`repro.nn.profile`.

        When an observability event log is installed
        (:func:`repro.observability.capture`), the loop emits
        ``train.start``, per-iteration ``train.iteration`` (losses, grad
        norms, learning rates), ``sentinel.rollback``, ``checkpoint.save``
        and ``train.finish`` events, and updates the metrics registry.
        Telemetry is *inert*: it reads scalars the loop already computes,
        so trained parameters are bit-identical with telemetry on or off.

        Raises :class:`TrainingDiverged` when the sentinel's retry budget
        runs out, or when training ends with a non-finite parameter.
        """
        options = options or FitOptions()
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if self.discriminator_steps < 1:
            raise ValueError("discriminator_steps must be >= 1, got "
                             f"{self.discriminator_steps}")
        sentinel = DivergenceSentinel.coerce(options.sentinel)
        if history is None:
            history = TrainingHistory()
        # Exposed immediately (not only on return) so harness code can
        # inspect partial progress after a failure.
        self.history = history
        if options.resume_from is not None:
            start = ckpt.load_checkpoint(self, options.resume_from, history)
            history.resumes += 1
        obs_events.emit("train.start", {
            "iterations": int(iterations),
            "start_iteration": int(start),
            "batch_size": int(self.batch_size),
            "discriminator_steps": int(self.discriminator_steps),
            "seed": int(self.seed),
            "sentinel": sentinel is not None,
        })
        self._loop(data, iterations, log_every, callback, history, start,
                   options, sentinel)
        bad = ckpt.nonfinite_parameter(self)
        if bad is not None:
            raise TrainingDiverged(
                f"training ended with non-finite values in parameter "
                f"{bad}; refusing to return a poisoned model (enable the "
                f"sentinel to roll back instead)",
                iteration=max(start, iterations) - 1,
                rollbacks=history.rollbacks)
        obs_events.emit("train.finish", {
            "iterations": int(iterations),
            "rollbacks": history.rollbacks,
            "nan_events": history.nan_events,
            "runaway_events": history.runaway_events,
            "step_faults": history.step_faults,
            "lr_decays": history.lr_decays,
        })
        return history

    def _loop(self, data, iterations: int, log_every: int, callback,
              history: TrainingHistory, start: int, options: FitOptions,
              sentinel: DivergenceSentinel | None) -> None:
        checkpoint_every = options.checkpoint_every
        retries = 0
        last_good = None
        if sentinel is not None:
            last_good = ckpt.snapshot_trainer(self, start, history)
        it = start
        while it < iterations:
            try:
                faults.fire("trainer.step", step=it)
                d_loss = w = 0.0
                for _ in range(self.discriminator_steps):
                    d_loss, w = self.discriminator_step(data)
                d_loss = faults.fire("trainer.critic_loss", step=it,
                                     value=d_loss)
                g_loss = self.generator_step()
                g_loss = faults.fire("trainer.generator_loss", step=it,
                                     value=g_loss)
                if sentinel is not None:
                    sentinel.check(it, d_loss, g_loss, w)
            except (DivergenceDetected, faults.FaultInjected,
                    FloatingPointError) as exc:
                if sentinel is None:
                    raise
                it, retries = self._roll_back(exc, it, retries, sentinel,
                                              last_good, history)
                continue
            if telemetry_active():
                self._emit_iteration(it, d_loss, g_loss, w)
            if it % log_every == 0 or it == iterations - 1:
                history.record(it, d_loss, g_loss, w)
                if callback is not None:
                    callback(it, history)
            it += 1
            checkpoint_due = checkpoint_every is not None and (
                it % checkpoint_every == 0 or it == iterations)
            snapshot_due = sentinel is not None and (
                it % sentinel.policy.snapshot_every == 0
                or checkpoint_due)
            if not (checkpoint_due or snapshot_due):
                continue
            if sentinel is not None and not ckpt.trainer_params_finite(
                    self):
                # Weights are already poisoned even though the losses
                # still looked finite; keep the older snapshot so the
                # next sentinel trigger rolls back past the damage.
                continue
            if checkpoint_due:
                ckpt.save_checkpoint(self, options.checkpoint_path, it,
                                     history)
            if snapshot_due:
                last_good = ckpt.snapshot_trainer(self, it, history)
                retries = 0

    def _roll_back(self, exc, it: int, retries: int,
                   sentinel: DivergenceSentinel, last_good: dict,
                   history: TrainingHistory) -> tuple[int, int]:
        """Restore the last good snapshot after a failed step; returns
        the (iteration, retries) to continue from."""
        reason = getattr(exc, "reason", "step_error")
        history.note_event(reason)
        if retries >= sentinel.policy.max_retries:
            raise TrainingDiverged(
                f"training diverged at iteration {it} and the retry budget "
                f"({sentinel.policy.max_retries}) is exhausted: {exc}",
                iteration=it, rollbacks=history.rollbacks) from exc
        failed_at = it
        it = ckpt.restore_trainer(self, last_good, history)
        retries += 1
        history.rollbacks += 1
        factor = 1.0
        if sentinel.policy.lr_decay < 1.0:
            # Restore reset the lr to the snapshot's value, so compound
            # the decay over the retries taken since.
            factor = sentinel.policy.lr_decay ** retries
            self.g_optimizer.lr *= factor
            self.d_optimizer.lr *= factor
            history.lr_decays += 1
        if sentinel.policy.reseed:
            # Deterministically derived fresh noise path so the retry
            # does not replay the exact failing batch.
            self.rng = np.random.default_rng(
                (self.seed, 0x5EED, history.rollbacks))
        obs_events.emit("sentinel.rollback", {
            "iteration": failed_at,
            "restored_iteration": it,
            "trigger": reason,
            "retries": retries,
            "lr_decay": factor,
            "g_lr": float(self.g_optimizer.lr),
            "d_lr": float(self.d_optimizer.lr),
            "reseeded": bool(sentinel.policy.reseed),
        })
        obs_metrics.counter("train.rollbacks").inc()
        return it, retries

    def _emit_iteration(self, it: int, d_loss: float, g_loss: float,
                        w: float) -> None:
        obs_events.emit("train.iteration", {
            "iteration": it,
            "d_loss": float(d_loss),
            "g_loss": float(g_loss),
            "wasserstein": float(w),
            "d_grad_norm": self._last_d_grad_norm,
            "g_grad_norm": self._last_g_grad_norm,
            "g_lr": float(self.g_optimizer.lr),
            "d_lr": float(self.d_optimizer.lr),
        })
        obs_metrics.counter("train.iterations").inc()
        obs_metrics.histogram("train.d_loss", LOSS_BUCKETS).observe(d_loss)
        obs_metrics.histogram("train.g_loss", LOSS_BUCKETS).observe(g_loss)
        if self._last_d_grad_norm is not None:
            obs_metrics.histogram("train.d_grad_norm", NORM_BUCKETS).observe(
                self._last_d_grad_norm)
        if self._last_g_grad_norm is not None:
            obs_metrics.histogram("train.g_grad_norm", NORM_BUCKETS).observe(
                self._last_g_grad_norm)
        obs_metrics.gauge("train.g_lr").set(self.g_optimizer.lr)
        obs_metrics.gauge("train.d_lr").set(self.d_optimizer.lr)


class MLPGANLoop(AdversarialLoop):
    """WGAN-GP over flat rows: an MLP generator (plus its output
    activation) against an MLP critic.

    ``train(data=rows, ...)`` trains against ``rows`` (n, d).  With
    ``cond_dim > 0`` the generator is conditional: it sees the first
    ``cond_dim`` columns of a real batch next to its noise, and those
    columns pass through unchanged into the critic's fake rows (DLGAN's
    refinement stage).  Draw order per iteration: batch indices, critic
    noise, gradient-penalty coefficients, generator noise.  The critic
    reports the pre-update estimate E[D(real)] - E[D(fake)].
    """

    def __init__(self, modules: dict, generator, activation, critic,
                 rng: np.random.Generator, *, noise_dim: int,
                 batch_size: int, learning_rate: float,
                 gradient_penalty_weight: float, seed: int,
                 cond_dim: int = 0, plan_key: str | None = None):
        super().__init__(modules, generator.parameters(),
                         critic.parameters(), rng,
                         learning_rate=learning_rate)
        self.generator = generator
        self.activation = activation
        self.critic = critic
        self.noise_dim = noise_dim
        self.batch_size = batch_size
        self.gradient_penalty_weight = gradient_penalty_weight
        self.seed = seed
        self.cond_dim = cond_dim
        self.plan_key = plan_key
        self._cond = ()

    def _fake(self, cond, z) -> Tensor:
        if cond is None:
            return self.activation(self.generator(Tensor(z)))
        cond = Tensor(cond)
        out = self.activation(self.generator(
            ops.concat([cond, Tensor(z)], axis=1)))
        return ops.concat([cond, out], axis=1)

    def _d_fn(self, real, *inputs):
        cond, z, gp = self._split(inputs)
        with no_grad():
            fake = self._fake(cond, z).detach()
        loss, estimate = critic_loss_and_estimate(
            self.critic, Tensor(real), fake, self.gradient_penalty_weight,
            self.rng, gp_noise=Tensor(gp[0]) if gp else None)
        grads = grad(loss, self.discriminator_params, allow_unused=True)
        return (loss, estimate) + tuple(grads)

    def _g_fn(self, *inputs):
        cond, z, _ = self._split(inputs)
        loss = generator_loss(self.critic, self._fake(cond, z))
        grads = grad(loss, self.generator_params, allow_unused=True)
        return (loss,) + tuple(grads)

    def _split(self, inputs):
        if self.cond_dim:
            return inputs[0], inputs[1], inputs[2:]
        return None, inputs[0], inputs[1:]

    def discriminator_step(self, rows) -> tuple[float, float]:
        batch = self.batch_size
        real = rows[self.rng.integers(0, len(rows), size=batch)]
        z = self.rng.normal(size=(batch, self.noise_dim))
        gp = (self.rng.uniform(size=(batch, 1)),) \
            if self.gradient_penalty_weight else ()
        # The generator step conditions on the same real batch.
        self._cond = (real[:, :self.cond_dim],) if self.cond_dim else ()
        loss, estimate, *grads = self._plan("_d_plan", self._d_fn)(
            (real,) + self._cond + (z,) + gp)
        self._last_d_grad_norm = self._apply(self.d_optimizer, grads)
        return loss.item(), -estimate.item()

    def generator_step(self) -> float:
        z = self.rng.normal(size=(self.batch_size, self.noise_dim))
        loss, *grads = self._plan("_g_plan", self._g_fn)(self._cond + (z,))
        self._last_g_grad_norm = self._apply(self.g_optimizer, grads)
        return loss.item()
