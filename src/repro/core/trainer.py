"""DoppelGANger's configurations of the adversarial loop (§4.3, §4.4, §5.2).

:class:`DGTrainer` supplies the step functions of the full model: the
combined two-discriminator loss of Eq. 2, optionally with DP-SGD
(per-microbatch clipping + noise) on the discriminator updates, which are
the only updates that touch real data -- the §5.3.1 experiment substrate.
:class:`AttributeRetrainer` supplies those of §5.2's attribute-only
retraining.  The loop itself -- optimizers, plan replay, the divergence
sentinel, checkpoint/resume and telemetry -- is
:class:`repro.core.adversarial.AdversarialLoop`.
"""

from __future__ import annotations

import numpy as np

from repro.core.adversarial import AdversarialLoop, TrainingHistory
from repro.core.config import DGConfig
from repro.core.discriminator import AuxiliaryDiscriminator, Discriminator
from repro.core.generator import (AttributeGenerator, FeatureGenerator,
                                  MinMaxGenerator)
from repro.core.losses import (critic_loss, critic_loss_and_estimate,
                               generator_loss, vanilla_discriminator_loss,
                               vanilla_generator_loss)
from repro.data.encoding import EncodedDataset
from repro.nn import DPGradientProcessor, Tensor, grad, no_grad

__all__ = ["TrainingHistory", "DGTrainer", "AttributeRetrainer"]


class DGTrainer(AdversarialLoop):
    """The full DoppelGANger model's step functions and draw order."""

    def __init__(self, attribute_generator: AttributeGenerator,
                 minmax_generator: MinMaxGenerator,
                 feature_generator: FeatureGenerator,
                 discriminator: Discriminator,
                 aux_discriminator: AuxiliaryDiscriminator | None,
                 config: DGConfig, rng: np.random.Generator,
                 plan_key: str | None = None):
        self.attribute_generator = attribute_generator
        self.minmax_generator = minmax_generator
        self.feature_generator = feature_generator
        self.discriminator = discriminator
        self.aux_discriminator = aux_discriminator
        self.config = config
        modules = {
            "attribute_generator": attribute_generator,
            "minmax_generator": minmax_generator,
            "feature_generator": feature_generator,
            "discriminator": discriminator,
        }
        discriminator_params = discriminator.parameters()
        if aux_discriminator is not None:
            modules["aux_discriminator"] = aux_discriminator
            discriminator_params += aux_discriminator.parameters()
        super().__init__(modules,
                         attribute_generator.parameters()
                         + minmax_generator.parameters()
                         + feature_generator.parameters(),
                         discriminator_params, rng,
                         learning_rate=config.learning_rate,
                         betas=config.adam_betas)
        self.plan_key = plan_key
        self._dp_processor = None
        if config.dp is not None:
            self._dp_processor = DPGradientProcessor(
                l2_norm_clip=config.dp.l2_norm_clip,
                noise_multiplier=config.dp.noise_multiplier,
                rng=rng)

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def batch_size(self) -> int:
        return self.config.batch_size

    @property
    def discriminator_steps(self) -> int:
        return self.config.discriminator_steps

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
    # All rng draws happen *before* the planned call, in the exact order
    # the eager code consumed them, so the noise stream (and therefore
    # every loss) is unchanged.

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
        self._last_d_grad_norm = self._apply(
            self.d_optimizer, grads, self.config.gradient_clip_norm)
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
            arrays = [g.data if g is not None else np.zeros_like(p.data)
                      for g, p in zip(grads, self.discriminator_params)]
            per_microbatch.append(arrays)
            losses.append(loss.item())
        noised = self._dp_processor.aggregate(per_microbatch)
        self._last_d_grad_norm = self._apply(self.d_optimizer, noised)
        with no_grad():
            w = self._wasserstein_estimate(real, fake)
        return float(np.mean(losses)), w

    def generator_step(self) -> float:
        """One generator update through both critics."""
        noise = self._draw_step_noise(self.config.batch_size)
        outs = self._plan("_g_plan", self._g_step_fn)(noise)
        loss_arr, grads = outs[0], outs[1:]
        self._last_g_grad_norm = self._apply(
            self.g_optimizer, grads, self.config.gradient_clip_norm)
        return loss_arr.item()

    def _wasserstein_estimate(self, real, fake) -> float:
        real_flat = self.discriminator.flatten(*real)
        fake_flat = self.discriminator.flatten(*fake)
        return float(self.discriminator(real_flat).mean().item()
                     - self.discriminator(fake_flat).mean().item())

    # -- full loop ---------------------------------------------------------------
    def train(self, data: EncodedDataset, iterations: int | None = None,
              **kwargs) -> TrainingHistory:
        """:meth:`AdversarialLoop.train` for ``iterations`` generator
        updates (default: the configured count)."""
        if self.config.batch_size > len(data):
            raise ValueError(
                f"batch_size={self.config.batch_size} exceeds the dataset "
                f"size ({len(data)} objects); lower batch_size or provide "
                f"more training data")
        return super().train(data, iterations or self.config.iterations,
                             **kwargs)


class AttributeRetrainer(AdversarialLoop):
    """§5.2's attribute-only retraining as a configuration of the loop.

    Generated attribute vectors are fed to DoppelGANger's critics with the
    min/max and time-series inputs zeroed, against rows of a target
    attribute distribution (``train(data=encoded_rows, ...)``).  Only the
    attribute generator and the critics update, so P(features |
    attributes) is preserved.  Always WGAN-GP, with no DP and no
    clipping.  Draw order per iteration: batch indices, attribute noise,
    gradient-penalty coefficients (main critic, then aux), generator
    noise.  The critic reports the main critic's pre-update estimate.
    """

    def __init__(self, trainer: DGTrainer, rng: np.random.Generator,
                 batch_size: int, minmax_dim: int,
                 feature_shape: tuple[int, int]):
        modules = {"attribute_generator": trainer.attribute_generator,
                   "discriminator": trainer.discriminator}
        if trainer.aux_discriminator is not None:
            modules["aux_discriminator"] = trainer.aux_discriminator
        super().__init__(modules, trainer.attribute_generator.parameters(),
                         trainer.discriminator_params, rng,
                         learning_rate=trainer.config.learning_rate,
                         betas=trainer.config.adam_betas)
        self.trainer = trainer
        self.plan_key = trainer.plan_key
        self.seed = trainer.config.seed
        self.batch_size = batch_size
        self._zeros = (np.zeros((batch_size, minmax_dim)),
                       np.zeros((batch_size,) + tuple(feature_shape)))

    def _padded(self, attributes: Tensor) -> tuple:
        return (attributes,) + tuple(Tensor(z) for z in self._zeros)

    def _d_fn(self, real_attr, z_a, *gp_noise):
        t = self.trainer
        gp_weight = t.config.gradient_penalty_weight
        gp = [Tensor(n) for n in gp_noise] or [None, None]
        with no_grad():
            fake = self._padded(t.attribute_generator(Tensor(z_a)).detach())
        real = self._padded(Tensor(real_attr))
        loss, estimate = critic_loss_and_estimate(
            t.discriminator, t.discriminator.flatten(*real),
            t.discriminator.flatten(*fake), gp_weight, self.rng,
            gp_noise=gp[0])
        if t.aux_discriminator is not None:
            aux = t.aux_discriminator
            loss = loss + Tensor(t.config.aux_discriminator_weight) * \
                critic_loss(aux, aux.flatten(*real[:2]),
                            aux.flatten(*fake[:2]), gp_weight, self.rng,
                            gp_noise=gp[1])
        grads = grad(loss, self.discriminator_params, allow_unused=True)
        return (loss, estimate) + tuple(grads)

    def _g_fn(self, z_a):
        t = self.trainer
        fake = self._padded(t.attribute_generator(Tensor(z_a)))
        loss = generator_loss(t.discriminator, t.discriminator.flatten(*fake))
        if t.aux_discriminator is not None:
            aux = t.aux_discriminator
            loss = loss + Tensor(t.config.aux_discriminator_weight) * \
                generator_loss(aux, aux.flatten(*fake[:2]))
        grads = grad(loss, self.generator_params, allow_unused=True)
        return (loss,) + tuple(grads)

    def discriminator_step(self, target: np.ndarray) -> tuple[float, float]:
        batch = self.batch_size
        idx = self.rng.integers(0, len(target), size=batch)
        z_a = self.trainer.attribute_generator.sample_noise(
            batch, self.rng).data
        gp = ()
        if self.trainer.config.gradient_penalty_weight:
            critics = 1 + (self.trainer.aux_discriminator is not None)
            gp = tuple(self.rng.uniform(size=(batch, 1))
                       for _ in range(critics))
        loss, estimate, *grads = self._plan("_d_plan", self._d_fn)(
            (target[idx], z_a) + gp)
        self._last_d_grad_norm = self._apply(self.d_optimizer, grads)
        return loss.item(), -estimate.item()

    def generator_step(self) -> float:
        z_a = self.trainer.attribute_generator.sample_noise(
            self.batch_size, self.rng).data
        loss, *grads = self._plan("_g_plan", self._g_fn)((z_a,))
        self._last_g_grad_norm = self._apply(self.g_optimizer, grads)
        return loss.item()
