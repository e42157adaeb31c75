"""Adversarial training loop for DoppelGANger (§4.3, §4.4).

Alternates critic and generator updates with the combined two-discriminator
loss of Eq. 2.  Optionally applies DP-SGD (per-microbatch clipping + noise)
to the discriminator updates, which are the only updates that touch real
data -- this is the §5.3.1 experiment substrate.

The loop is wired into :mod:`repro.resilience`: ``train`` can write atomic
full-state checkpoints (``checkpoint_every=``/``checkpoint_path=``), resume
from one bit-identically (``resume_from=``), and run under a divergence
sentinel that rolls back to the last good snapshot on NaN/Inf/runaway
losses (``sentinel=``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import profiler as nn_profiler

from repro.core.config import DGConfig
from repro.core.discriminator import AuxiliaryDiscriminator, Discriminator
from repro.core.generator import (AttributeGenerator, FeatureGenerator,
                                  MinMaxGenerator)
from repro.core.losses import (critic_loss, generator_loss,
                               vanilla_discriminator_loss,
                               vanilla_generator_loss)
from repro.data.encoding import EncodedDataset
from repro.nn import Adam, DPGradientProcessor, Tensor, grad, no_grad
from repro.nn.optim import clip_grad_norm, grad_norm
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.observability.metrics import LOSS_BUCKETS, NORM_BUCKETS
from repro.observability.telemetry import telemetry_active
from repro.resilience import checkpoint as ckpt
from repro.resilience import faults
from repro.resilience.sentinel import (DivergenceDetected,
                                       DivergenceSentinel, TrainingDiverged)

__all__ = ["TrainingHistory", "DGTrainer"]


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
    # Per-op {"calls", "seconds"} table, populated by train(profile=True).
    op_profile: dict | None = None

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


class DGTrainer:
    """Owns the optimizers and runs the alternating GAN updates."""

    def __init__(self, attribute_generator: AttributeGenerator,
                 minmax_generator: MinMaxGenerator,
                 feature_generator: FeatureGenerator,
                 discriminator: Discriminator,
                 aux_discriminator: AuxiliaryDiscriminator | None,
                 config: DGConfig, rng: np.random.Generator):
        self.attribute_generator = attribute_generator
        self.minmax_generator = minmax_generator
        self.feature_generator = feature_generator
        self.discriminator = discriminator
        self.aux_discriminator = aux_discriminator
        self.config = config
        self.rng = rng

        self.generator_params = (attribute_generator.parameters()
                                 + minmax_generator.parameters()
                                 + feature_generator.parameters())
        self.discriminator_params = discriminator.parameters()
        if aux_discriminator is not None:
            self.discriminator_params += aux_discriminator.parameters()

        self.g_optimizer = Adam(self.generator_params,
                                lr=config.learning_rate,
                                betas=config.adam_betas)
        self.d_optimizer = Adam(self.discriminator_params,
                                lr=config.learning_rate,
                                betas=config.adam_betas)
        # Last applied global gradient norms, captured only while telemetry
        # is active (pure reads -- recording them cannot perturb training).
        self._last_d_grad_norm: float | None = None
        self._last_g_grad_norm: float | None = None
        self._dp_processor = None
        if config.dp is not None:
            self._dp_processor = DPGradientProcessor(
                l2_norm_clip=config.dp.l2_norm_clip,
                noise_multiplier=config.dp.noise_multiplier,
                rng=rng)

    # -- sampling ------------------------------------------------------------
    def generate_batch(self, batch: int,
                       attributes: Tensor | None = None,
                       noise: tuple | None = None
                       ) -> tuple[Tensor, Tensor, Tensor]:
        """Run the full generator stack; returns (attrs, minmax, features).

        ``noise`` optionally supplies pre-drawn ``(z_a, z_m, z_f)`` arrays
        (``z_a`` unused when conditioning on ``attributes``); sharded
        generation draws them in the parent process so the output cannot
        depend on which worker runs which block.
        """
        z_a = z_m = z_f = None
        if noise is not None:
            z_a, z_m, z_f = (Tensor(z) if z is not None else None
                             for z in noise)
        if attributes is None:
            if z_a is None:
                z_a = self.attribute_generator.sample_noise(batch, self.rng)
            attributes = self.attribute_generator(z_a)
        if z_m is None:
            z_m = self.minmax_generator.sample_noise(batch, self.rng)
        minmax = self.minmax_generator(attributes, z_m)
        if z_f is None:
            z_f = self.feature_generator.sample_noise(batch, self.rng)
        features = self.feature_generator(attributes, minmax, z_f)
        return attributes, minmax, features

    def _real_batch(self, data: EncodedDataset, batch: int
                    ) -> tuple[Tensor, Tensor, Tensor]:
        idx = self.rng.integers(0, len(data), size=batch)
        return (Tensor(data.attributes[idx]), Tensor(data.minmax[idx]),
                Tensor(data.features[idx]))

    # -- loss assembly ---------------------------------------------------------
    def _one_critic_loss(self, critic, real_flat, fake_flat,
                         gp_noise: Tensor | None = None) -> Tensor:
        if self.config.loss_type == "vanilla":
            return vanilla_discriminator_loss(critic, real_flat, fake_flat)
        return critic_loss(critic, real_flat, fake_flat,
                           self.config.gradient_penalty_weight, self.rng,
                           gp_noise=gp_noise)

    def _one_generator_loss(self, critic, fake_flat) -> Tensor:
        if self.config.loss_type == "vanilla":
            return vanilla_generator_loss(critic, fake_flat)
        return generator_loss(critic, fake_flat)

    def _combined_critic_loss(self, real, fake, gp_noise=()) -> Tensor:
        """Two-discriminator critic loss (Eq. 2).

        ``gp_noise`` optionally supplies pre-drawn gradient-penalty
        coefficients (main critic first, then aux); when empty each
        penalty draws from ``self.rng`` as before.
        """
        real_attr, real_mm, real_feat = real
        fake_attr, fake_mm, fake_feat = fake
        queue = list(gp_noise)
        real_flat = self.discriminator.flatten(real_attr, real_mm, real_feat)
        fake_flat = self.discriminator.flatten(fake_attr, fake_mm, fake_feat)
        loss = self._one_critic_loss(self.discriminator, real_flat,
                                     fake_flat,
                                     gp_noise=queue.pop(0) if queue
                                     else None)
        if self.aux_discriminator is not None:
            real_aux = self.aux_discriminator.flatten(real_attr, real_mm)
            fake_aux = self.aux_discriminator.flatten(fake_attr, fake_mm)
            aux = self._one_critic_loss(self.aux_discriminator, real_aux,
                                        fake_aux,
                                        gp_noise=queue.pop(0) if queue
                                        else None)
            loss = loss + Tensor(self.config.aux_discriminator_weight) * aux
        return loss

    def _combined_generator_loss(self, fake) -> Tensor:
        fake_attr, fake_mm, fake_feat = fake
        fake_flat = self.discriminator.flatten(fake_attr, fake_mm, fake_feat)
        loss = self._one_generator_loss(self.discriminator, fake_flat)
        if self.aux_discriminator is not None:
            fake_aux = self.aux_discriminator.flatten(fake_attr, fake_mm)
            loss = loss + Tensor(self.config.aux_discriminator_weight) * \
                self._one_generator_loss(self.aux_discriminator, fake_aux)
        return loss

    # -- plan-compiled step functions ------------------------------------------
    #
    # The hot per-iteration work (generator forward, critic losses, double
    # backprop, gradients) is expressed as pure array functions and routed
    # through repro.nn.plan.PlanFunction: the first step with a given batch
    # shape traces eagerly, later steps replay the recorded schedule with
    # no graph rebuild or per-op allocation.  All rng draws happen *before*
    # the planned call, in the exact order the eager code consumed them, so
    # the noise stream (and therefore every loss) is unchanged.  Optimizer
    # updates stay eager: Adam's bias correction changes every iteration,
    # so it is not a fixed schedule.

    def _plan(self, attr: str, fn, **kwargs):
        plan = self.__dict__.get(attr)
        if plan is None:
            from repro.nn.plan import PlanFunction
            plan = PlanFunction(
                fn, params=self.generator_params + self.discriminator_params,
                name=attr.strip("_"), **kwargs)
            self.__dict__[attr] = plan
        return plan

    def __getstate__(self):
        # Plans hold closures, locks, and preallocated arenas -- not
        # picklable and cheap to re-trace.  Dropping them keeps trainer
        # snapshots (SweepCache, sharded generation) working.
        state = self.__dict__.copy()
        for key in ("_d_plan", "_g_plan", "_w_plan"):
            state.pop(key, None)
        return state

    def _draw_step_noise(self, batch: int) -> tuple:
        """(z_a, z_m, z_f) arrays, drawn in the historical rng order."""
        return (self.attribute_generator.sample_noise(batch, self.rng).data,
                self.minmax_generator.sample_noise(batch, self.rng).data,
                self.feature_generator.sample_noise(batch, self.rng).data)

    def _draw_gp_noise(self, batch: int) -> tuple:
        """Pre-draw gradient-penalty coefficients (main critic, then aux),
        matching the draws ``_combined_critic_loss`` would make inline."""
        if self.config.loss_type == "vanilla" or \
                not self.config.gradient_penalty_weight:
            return ()
        ts = [self.rng.uniform(size=(batch, 1))]
        if self.aux_discriminator is not None:
            ts.append(self.rng.uniform(size=(batch, 1)))
        return tuple(ts)

    def _d_step_fn(self, real_attr, real_mm, real_feat, z_a, z_m, z_f,
                   *gp_noise):
        batch = real_attr.shape[0]
        with no_grad():
            fake = self.generate_batch(batch, noise=(z_a, z_m, z_f))
        fake = tuple(part.detach() for part in fake)
        real = (Tensor(real_attr), Tensor(real_mm), Tensor(real_feat))
        loss = self._combined_critic_loss(
            real, fake, gp_noise=tuple(Tensor(t) for t in gp_noise))
        grads = grad(loss, self.discriminator_params, allow_unused=True)
        return (loss,) + fake + tuple(grads)

    def _g_step_fn(self, z_a, z_m, z_f):
        fake = self.generate_batch(z_a.shape[0], noise=(z_a, z_m, z_f))
        loss = self._combined_generator_loss(fake)
        grads = grad(loss, self.generator_params, allow_unused=True)
        return (loss,) + tuple(grads)

    def _w_fn(self, real_attr, real_mm, real_feat, fake_attr, fake_mm,
              fake_feat):
        with no_grad():
            real_flat = self.discriminator.flatten(
                Tensor(real_attr), Tensor(real_mm), Tensor(real_feat))
            fake_flat = self.discriminator.flatten(
                Tensor(fake_attr), Tensor(fake_mm), Tensor(fake_feat))
            return (self.discriminator(real_flat).mean(),
                    self.discriminator(fake_flat).mean())

    # -- update steps ----------------------------------------------------------
    def discriminator_step(self, data: EncodedDataset) -> tuple[float, float]:
        """One critic update; returns (loss, wasserstein estimate)."""
        batch = self.config.batch_size
        noise = self._draw_step_noise(batch)
        idx = self.rng.integers(0, len(data), size=batch)
        real_arrays = (data.attributes[idx], data.minmax[idx],
                       data.features[idx])

        if self._dp_processor is not None:
            with no_grad():
                fake = self.generate_batch(batch, noise=noise)
            fake = tuple(part.detach() for part in fake)
            real = tuple(Tensor(a) for a in real_arrays)
            return self._dp_discriminator_step(real, fake)

        gp_noise = self._draw_gp_noise(batch)
        outs = self._plan("_d_plan", self._d_step_fn)(
            real_arrays + noise + gp_noise)
        loss_arr, fake_arrays, grads = outs[0], tuple(outs[1:4]), outs[4:]
        if self.config.gradient_clip_norm is not None:
            clip_grad_norm(grads, self.config.gradient_clip_norm)
        if telemetry_active():
            self._last_d_grad_norm = grad_norm(grads)
        self.d_optimizer.step(grads)
        # Post-update Wasserstein estimate, as before; the plan re-reads
        # parameters live, so it sees the optimizer step above.
        rm, fm = self._plan("_w_plan", self._w_fn)(real_arrays + fake_arrays)
        return loss_arr.item(), float(rm.item() - fm.item())

    def _dp_discriminator_step(self, real, fake) -> tuple[float, float]:
        """Critic update with per-microbatch clipping + Gaussian noise."""
        size = self.config.dp.microbatch_size
        batch = real[0].shape[0]
        per_microbatch = []
        losses = []
        for start in range(0, batch, size):
            sl = slice(start, min(start + size, batch))
            real_mb = tuple(Tensor(part.data[sl]) for part in real)
            fake_mb = tuple(Tensor(part.data[sl]) for part in fake)
            loss = self._combined_critic_loss(real_mb, fake_mb)
            grads = grad(loss, self.discriminator_params, allow_unused=True)
            zeros = [np.zeros_like(p.data) for p in self.discriminator_params]
            arrays = [g.data if g is not None else z
                      for g, z in zip(grads, zeros)]
            per_microbatch.append(arrays)
            losses.append(loss.item())
        noised = self._dp_processor.aggregate(per_microbatch)
        if telemetry_active():
            self._last_d_grad_norm = grad_norm(noised)
        self.d_optimizer.step(noised)
        with no_grad():
            w = self._wasserstein_estimate(real, fake)
        return float(np.mean(losses)), w

    def generator_step(self) -> float:
        """One generator update through both critics."""
        noise = self._draw_step_noise(self.config.batch_size)
        outs = self._plan("_g_plan", self._g_step_fn)(noise)
        loss_arr, grads = outs[0], outs[1:]
        if self.config.gradient_clip_norm is not None:
            clip_grad_norm(grads, self.config.gradient_clip_norm)
        if telemetry_active():
            self._last_g_grad_norm = grad_norm(grads)
        self.g_optimizer.step(grads)
        return loss_arr.item()

    def _wasserstein_estimate(self, real, fake) -> float:
        real_flat = self.discriminator.flatten(*real)
        fake_flat = self.discriminator.flatten(*fake)
        return float(self.discriminator(real_flat).mean().item()
                     - self.discriminator(fake_flat).mean().item())

    # -- full loop ---------------------------------------------------------------
    def train(self, data: EncodedDataset, iterations: int | None = None,
              log_every: int = 50,
              callback=None, profile: bool = False,
              checkpoint_every: int | None = None,
              checkpoint_path=None, resume_from=None,
              sentinel=None,
              history_window: int | None = None) -> TrainingHistory:
        """Run the alternating loop for ``iterations`` generator updates.

        With ``profile=True`` the op-level profiler runs for the whole
        loop and its per-op stats are stored on ``history.op_profile``.

        Args:
            checkpoint_every: Write a full-state checkpoint to
                ``checkpoint_path`` every this many completed iterations
                (and once more at the end of training).
            checkpoint_path: Destination for checkpoints (atomic writes).
            resume_from: Path of a checkpoint to resume from; restores
                parameters, Adam moments, RNG state, iteration counter,
                and loss history, so the continued run is bit-identical
                to an uninterrupted one.
            sentinel: ``True``, a :class:`SentinelPolicy`, or a
                :class:`DivergenceSentinel`; enables per-step NaN/Inf and
                runaway-loss detection with rollback + bounded retry.
            history_window: Override the history's ``max_points`` bound
                (``None`` keeps the :class:`TrainingHistory` default).

        When an observability event log is installed
        (:func:`repro.observability.capture`), the loop emits
        ``train.start``, per-iteration ``train.iteration`` (losses, grad
        norms, learning rates), ``sentinel.rollback``, ``checkpoint.save``
        and ``train.finish`` events, and updates the metrics registry.
        Telemetry is *inert*: it reads scalars the loop already computes,
        so trained parameters are bit-identical with telemetry on or off.
        """
        iterations = iterations or self.config.iterations
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if self.config.discriminator_steps < 1:
            raise ValueError("discriminator_steps must be >= 1, got "
                             f"{self.config.discriminator_steps}")
        if self.config.batch_size > len(data):
            raise ValueError(
                f"batch_size={self.config.batch_size} exceeds the dataset "
                f"size ({len(data)} objects); lower batch_size or provide "
                f"more training data")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1, got "
                                 f"{checkpoint_every}")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires "
                                 "checkpoint_path")
        sentinel = DivergenceSentinel.coerce(sentinel)

        history = TrainingHistory() if history_window is None \
            else TrainingHistory(max_points=history_window)
        # Exposed immediately (not only on return) so harness code can
        # inspect partial progress after a failure.
        self.history = history
        start_iteration = 0
        if resume_from is not None:
            start_iteration = ckpt.load_checkpoint(self, resume_from,
                                                   history)
            history.resumes += 1
        obs_events.emit("train.start", {
            "iterations": int(iterations),
            "start_iteration": int(start_iteration),
            "batch_size": int(self.config.batch_size),
            "discriminator_steps": int(self.config.discriminator_steps),
            "seed": int(self.config.seed),
            "sentinel": sentinel is not None,
        })
        if profile:
            with nn_profiler.profile() as prof:
                self._train_loop(data, iterations, log_every, callback,
                                 history, start_iteration,
                                 checkpoint_every, checkpoint_path,
                                 sentinel)
            history.op_profile = prof.stats()
            if obs_events.enabled():
                prof.publish(obs_events.emit)
        else:
            self._train_loop(data, iterations, log_every, callback,
                             history, start_iteration, checkpoint_every,
                             checkpoint_path, sentinel)
        obs_events.emit("train.finish", {
            "iterations": int(iterations),
            "rollbacks": history.rollbacks,
            "nan_events": history.nan_events,
            "runaway_events": history.runaway_events,
            "step_faults": history.step_faults,
            "lr_decays": history.lr_decays,
        })
        return history

    def _train_loop(self, data: EncodedDataset, iterations: int,
                    log_every: int, callback, history: TrainingHistory,
                    start_iteration: int = 0,
                    checkpoint_every: int | None = None,
                    checkpoint_path=None,
                    sentinel: DivergenceSentinel | None = None) -> None:
        retries = 0
        last_good = None
        if sentinel is not None:
            last_good = ckpt.snapshot_trainer(self, start_iteration,
                                              history)
        it = start_iteration
        while it < iterations:
            try:
                faults.fire("trainer.step", step=it)
                d_loss = w = 0.0
                for _ in range(self.config.discriminator_steps):
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
                reason = getattr(exc, "reason", "step_error")
                history.note_event(reason)
                if retries >= sentinel.policy.max_retries:
                    raise TrainingDiverged(
                        f"training diverged at iteration {it} and the "
                        f"retry budget ({sentinel.policy.max_retries}) is "
                        f"exhausted: {exc}", iteration=it,
                        rollbacks=history.rollbacks) from exc
                failed_at = it
                it = ckpt.restore_trainer(self, last_good, history)
                retries += 1
                history.rollbacks += 1
                factor = 1.0
                if sentinel.policy.lr_decay < 1.0:
                    # Restore reset the lr to the snapshot's value, so
                    # compound the decay over the retries taken since.
                    factor = sentinel.policy.lr_decay ** retries
                    self.g_optimizer.lr *= factor
                    self.d_optimizer.lr *= factor
                    history.lr_decays += 1
                if sentinel.policy.reseed:
                    # Deterministically derived fresh noise path so the
                    # retry does not replay the exact failing batch.
                    self.rng = np.random.default_rng(
                        (self.config.seed, 0x5EED, history.rollbacks))
                # Machine-readable rollback record: previously this was
                # only visible as a counter bump on TrainingHistory.
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
                continue
            if telemetry_active():
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
                obs_metrics.histogram("train.d_loss",
                                      LOSS_BUCKETS).observe(d_loss)
                obs_metrics.histogram("train.g_loss",
                                      LOSS_BUCKETS).observe(g_loss)
                if self._last_d_grad_norm is not None:
                    obs_metrics.histogram(
                        "train.d_grad_norm",
                        NORM_BUCKETS).observe(self._last_d_grad_norm)
                if self._last_g_grad_norm is not None:
                    obs_metrics.histogram(
                        "train.g_grad_norm",
                        NORM_BUCKETS).observe(self._last_g_grad_norm)
                obs_metrics.gauge("train.g_lr").set(self.g_optimizer.lr)
                obs_metrics.gauge("train.d_lr").set(self.d_optimizer.lr)
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
                ckpt.save_checkpoint(self, checkpoint_path, it, history)
            if snapshot_due:
                last_good = ckpt.snapshot_trainer(self, it, history)
                retries = 0
