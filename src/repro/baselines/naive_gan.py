"""Naive GAN baseline (§3.3, Appendix B).

The "first GAN architecture one might think of": an MLP generator that emits
attributes and the whole (flattened) time series *jointly* in one shot, an
MLP discriminator, Wasserstein loss with gradient penalty.  No decoupled
attribute generation, no RNN, no batched generation, no auto-normalisation.
This is the architecture whose failures (Figure 1 autocorrelation, Figure 8
dropped attribute category via mode collapse) motivate DoppelGANger.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import GenerativeModel, make_baseline_encoder
from repro.core.adversarial import (FitOptions, MLPGANLoop,
                                    TrainingHistory, architecture_key)
from repro.core.generator import BlockActivation, OutputBlock
from repro.data.dataset import TimeSeriesDataset
from repro.nn import MLP, Tensor, no_grad

__all__ = ["NaiveGANBaseline"]


class NaiveGANBaseline(GenerativeModel):
    """Joint MLP WGAN-GP over [attributes || flattened features+flags]."""

    name = "Naive GAN"

    def __init__(self, noise_dim: int = 20,
                 generator_hidden: tuple[int, ...] = (200, 200, 200, 200),
                 discriminator_hidden: tuple[int, ...] = (200, 200, 200, 200),
                 learning_rate: float = 1e-3, batch_size: int = 100,
                 iterations: int = 500, gradient_penalty_weight: float = 10.0,
                 seed: int = 0):
        self.noise_dim = noise_dim
        self.generator_hidden = generator_hidden
        self.discriminator_hidden = discriminator_hidden
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.iterations = iterations
        self.gradient_penalty_weight = gradient_penalty_weight
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.encoder = None
        self.schema = None
        self.generator: MLP | None = None
        self.discriminator: MLP | None = None
        self.activation: BlockActivation | None = None
        self.loss_history: list[float] = []
        self.history = None

    def _build_blocks(self) -> list[OutputBlock]:
        blocks = [OutputBlock(f.dimension, "softmax" if f.is_categorical
                              else "sigmoid")
                  for f in self.schema.attributes]
        step = [OutputBlock(f.dimension, "softmax" if f.is_categorical
                            else "sigmoid")
                for f in self.schema.features] + [OutputBlock(2, "softmax")]
        blocks.extend(step * self.schema.max_length)
        return blocks

    def _build(self, rng: np.random.Generator) -> None:
        self.activation = BlockActivation(self._build_blocks())
        out_dim = (self.encoder.attribute_dim
                   + self.schema.max_length * self.encoder.feature_dim)
        self.generator = MLP(self.noise_dim, list(self.generator_hidden),
                             out_dim, rng=rng)
        self.discriminator = MLP(out_dim, list(self.discriminator_hidden), 1,
                                 rng=rng)

    def _config(self) -> dict:
        return {"noise_dim": self.noise_dim,
                "generator_hidden": list(self.generator_hidden),
                "discriminator_hidden": list(self.discriminator_hidden),
                "learning_rate": self.learning_rate,
                "batch_size": self.batch_size,
                "iterations": self.iterations,
                "gradient_penalty_weight": self.gradient_penalty_weight,
                "seed": self.seed}

    def _modules(self) -> dict:
        return {"generator": self.generator,
                "discriminator": self.discriminator}

    def _restore(self, arrays: dict) -> None:
        self._build(np.random.default_rng(self.seed))

    def fit(self, dataset: TimeSeriesDataset,
            options: FitOptions | None = None) -> "NaiveGANBaseline":
        """Train on ``dataset`` through the adversarial loop; ``options``
        carries its checkpoint/resume/sentinel switches."""
        rng = np.random.default_rng(self.seed)
        self.schema = dataset.schema
        self.encoder = make_baseline_encoder(dataset.schema).fit(dataset)
        encoded = self.encoder.transform(dataset)
        n = len(encoded)
        flat_real = np.concatenate(
            [encoded.attributes,
             encoded.features.reshape(n, -1)], axis=1)

        self._build(rng)
        if self.activation.dimension != flat_real.shape[1]:
            raise RuntimeError("output block layout does not match data")
        loop = MLPGANLoop(
            self._modules(), self.generator, self.activation,
            self.discriminator, rng, noise_dim=self.noise_dim,
            batch_size=min(self.batch_size, n),
            learning_rate=self.learning_rate,
            gradient_penalty_weight=self.gradient_penalty_weight,
            seed=self.seed,
            plan_key=architecture_key(self._config(), self.schema))
        self.history = TrainingHistory.windowed(
            options.history_window if options else None)
        loop.train(flat_real, self.iterations, log_every=1, options=options,
                   history=self.history)
        self.loss_history = list(self.history.g_loss)
        return self

    def generate(self, n: int,
                 rng: np.random.Generator | None = None) -> TimeSeriesDataset:
        if self.generator is None:
            raise RuntimeError("fit() must be called before generate()")
        rng = rng if rng is not None else self._rng
        attr_dim = self.encoder.attribute_dim
        tmax = self.schema.max_length
        dim = self.encoder.feature_dim
        with no_grad():
            z = Tensor(rng.normal(size=(n, self.noise_dim)))
            flat = self.activation(self.generator(z)).data
        attrs = flat[:, :attr_dim]
        features = flat[:, attr_dim:].reshape(n, tmax, dim)
        minmax = np.zeros((n, 0))
        return self.encoder.inverse(attrs, minmax, features)
