"""Dual-layer discrete + continuous generator (DLGAN-style backend).

An alternative architecture in the shape of DLGAN (arXiv:2508.21340): the
series is synthesised in two stacked layers instead of one RNN pass.

**Layer 1 -- discrete pattern.**  Every continuous feature channel is
quantised into ``levels`` equal-width bins over the encoder's [0, 1]
range; categorical channels and the §4.1.1 generation flags are already
discrete.  An MLP generator adversarially learns the *joint* distribution
of ``[attributes || per-step discrete pattern]`` against an MLP critic
(WGAN-GP), so the coarse structure of the series -- level regime, length,
categorical dynamics -- is captured by a purely discrete model.

**Layer 2 -- continuous refinement.**  Conditioned on the attributes and
the (hardened) discrete pattern, a second MLP generator emits the
within-bin offset of every continuous step; a second critic judges
``[attributes || pattern || continuous values]`` jointly, so refinement
is trained adversarially against the true conditional residuals rather
than by regression (which would collapse to bin midpoints).

The final continuous value is ``(level + offset) / levels``, decoded
through the shared global [0, 1] encoder.  Both layers reuse the fused
:mod:`repro.nn` kernels (MLP forward/backward, WGAN-GP double backprop);
there is no recurrent state, so generation cost is one matmul chain per
block regardless of series length.

The model satisfies the full :class:`~repro.backends.base.GeneratorBackend`
contract: deterministic generation from a seeded rng (noise is drawn in
fixed block order, exactly ``batch_size`` samples at a time) and
byte-identical ``save_bytes``/``load_bytes`` round-trips.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.backends.base import GeneratorBackend, get_backend
from repro.baselines.base import make_baseline_encoder
from repro.core.adversarial import (FitOptions, MLPGANLoop,
                                    TrainingHistory, architecture_key)
from repro.core.generator import BlockActivation, OutputBlock
from repro.data.dataset import TimeSeriesDataset
from repro.data.schema import DataSchema
from repro.nn import MLP, Tensor, no_grad
from repro.resilience import checkpoint as ckpt

__all__ = ["DLGANConfig", "DLGAN", "DLGANBackend"]


@dataclasses.dataclass
class DLGANConfig:
    """Hyper-parameters of the dual-layer generator."""

    levels: int = 8                 # quantisation bins per continuous channel
    noise_dim: int = 16             # layer-1 pattern noise
    refine_noise_dim: int = 8       # layer-2 refinement noise
    pattern_hidden: tuple[int, ...] = (128, 128)
    refine_hidden: tuple[int, ...] = (64, 64)
    discriminator_hidden: tuple[int, ...] = (128, 128)
    iterations: int = 400           # adversarial rounds per layer
    batch_size: int = 32
    learning_rate: float = 1e-3
    gradient_penalty_weight: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _config_to_dict(config: DLGANConfig) -> dict:
    return dataclasses.asdict(config)


def _config_from_dict(data: dict) -> DLGANConfig:
    return DLGANConfig(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in data.items()})


class DLGAN:
    """Dual-layer discrete+continuous generative model.

    Typical use mirrors the other backends::

        model = DLGAN(schema, DLGANConfig(iterations=400))
        model.fit(train_data)
        synthetic = model.generate(10_000, rng=np.random.default_rng(0))
    """

    name = "DLGAN"

    def __init__(self, schema: DataSchema, config: DLGANConfig | None = None):
        self.schema = schema
        self.config = config or DLGANConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.encoder = make_baseline_encoder(schema)
        self._built = False
        self.loss_history: dict[str, list[float]] = {"pattern": [],
                                                     "refine": []}
        self.history = None

    # -- layout ------------------------------------------------------------
    def _attribute_blocks(self) -> list[OutputBlock]:
        return [OutputBlock(f.dimension, "softmax" if f.is_categorical
                            else "sigmoid")
                for f in self.schema.attributes]

    def _step_blocks(self) -> list[OutputBlock]:
        """Discrete blocks of one time step: features then flags."""
        blocks = [OutputBlock(f.dimension if f.is_categorical
                              else self.config.levels, "softmax")
                  for f in self.schema.features]
        blocks.append(OutputBlock(2, "softmax"))  # generation flags
        return blocks

    @property
    def _step_dim(self) -> int:
        return sum(b.dimension for b in self._step_blocks())

    @property
    def _n_continuous(self) -> int:
        return sum(1 for f in self.schema.features if not f.is_categorical)

    # -- construction ------------------------------------------------------
    def _build(self, rng: np.random.Generator) -> None:
        cfg = self.config
        tmax = self.schema.max_length
        attr_blocks = self._attribute_blocks()
        step_blocks = self._step_blocks()
        pattern_blocks = attr_blocks + step_blocks * tmax
        self._pattern_activation = BlockActivation(pattern_blocks)
        self._attr_dim = sum(b.dimension for b in attr_blocks)
        pattern_dim = self._pattern_activation.dimension
        self.pattern_generator = MLP(cfg.noise_dim,
                                     list(cfg.pattern_hidden),
                                     pattern_dim, rng=rng)
        self.pattern_discriminator = MLP(pattern_dim,
                                         list(cfg.discriminator_hidden), 1,
                                         rng=rng)
        offsets_dim = tmax * self._n_continuous
        self._refine_activation = BlockActivation(
            [OutputBlock(max(offsets_dim, 1), "sigmoid")])
        self.refiner = MLP(pattern_dim + cfg.refine_noise_dim,
                           list(cfg.refine_hidden),
                           max(offsets_dim, 1), rng=rng)
        self.refine_discriminator = MLP(pattern_dim + offsets_dim,
                                        list(cfg.discriminator_hidden), 1,
                                        rng=rng)
        self._built = True

    # -- discretisation ----------------------------------------------------
    def _discretize(self, encoded) -> tuple[np.ndarray, np.ndarray]:
        """Split encoded features into (one-hot pattern, unit offsets).

        Returns ``pattern`` with shape (n, T * step_dim) and ``offsets``
        with shape (n, T * n_continuous) holding each continuous step's
        position inside its bin (in [0, 1)).
        """
        cfg = self.config
        n, tmax = encoded.features.shape[0], encoded.features.shape[1]
        parts, offset_parts = [], []
        channel = 0
        for spec in self.schema.features:
            block = encoded.features[:, :, channel:channel + spec.dimension]
            channel += spec.dimension
            if spec.is_categorical:
                parts.append(block)
                continue
            unit = np.clip(block[:, :, 0], 0.0, 1.0)
            scaled = unit * cfg.levels
            level = np.minimum(np.floor(scaled), cfg.levels - 1)
            one_hot = np.zeros((n, tmax, cfg.levels))
            rows = np.repeat(np.arange(n), tmax)
            cols = np.tile(np.arange(tmax), n)
            one_hot[rows, cols, level.reshape(-1).astype(np.int64)] = 1.0
            parts.append(one_hot)
            offset_parts.append(np.clip(scaled - level, 0.0, 1.0)[:, :, None])
        parts.append(encoded.features[:, :, -2:])  # generation flags
        pattern = np.concatenate(parts, axis=2).reshape(n, -1)
        offsets = (np.concatenate(offset_parts, axis=2).reshape(n, -1)
                   if offset_parts else np.zeros((n, 0)))
        return pattern, offsets

    def _harden(self, soft: np.ndarray) -> np.ndarray:
        """Snap soft per-step softmax blocks to one-hot (argmax)."""
        n = soft.shape[0]
        tmax = self.schema.max_length
        step = soft.reshape(n * tmax, self._step_dim)
        hard = np.zeros_like(step)
        offset = 0
        for block in self._step_blocks():
            piece = step[:, offset:offset + block.dimension]
            hard[np.arange(len(step)),
                 offset + piece.argmax(axis=1)] = 1.0
            offset += block.dimension
        return hard.reshape(n, tmax * self._step_dim)

    def _assemble_features(self, pattern: np.ndarray,
                           offsets: np.ndarray) -> np.ndarray:
        """Rebuild the encoder's (n, T, F+2) layout from pattern+offsets."""
        cfg = self.config
        n = pattern.shape[0]
        tmax = self.schema.max_length
        steps = pattern.reshape(n, tmax, self._step_dim)
        offs = offsets.reshape(n, tmax, self._n_continuous) \
            if self._n_continuous else np.zeros((n, tmax, 0))
        channels = []
        offset, cont = 0, 0
        for spec in self.schema.features:
            if spec.is_categorical:
                channels.append(steps[:, :, offset:offset + spec.dimension])
                offset += spec.dimension
                continue
            level = steps[:, :, offset:offset + cfg.levels].argmax(axis=2)
            offset += cfg.levels
            unit = (level + np.clip(offs[:, :, cont], 0.0, 1.0)) / cfg.levels
            channels.append(np.clip(unit, 0.0, 1.0)[:, :, None])
            cont += 1
        channels.append(steps[:, :, -2:])  # flags
        return np.concatenate(channels, axis=2)

    # -- training ----------------------------------------------------------
    def fit(self, dataset: TimeSeriesDataset,
            options: FitOptions | None = None) -> "DLGAN":
        """Train both layers through the adversarial loop.

        The layers run as two stages of one iteration count: the pattern
        stage is iterations ``[0, N)``, the refinement stage ``[N, 2N)``,
        with one history, one rng and one checkpoint file, so
        ``options.resume_from`` resumes inside whichever stage the
        checkpoint was written in.
        """
        if dataset.schema != self.schema:
            raise ValueError("dataset schema does not match model schema")
        options = options or FitOptions()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.encoder.fit(dataset)
        encoded = self.encoder.transform(dataset)
        if not self._built:
            self._build(rng)
        pattern_real, offsets_real = self._discretize(encoded)
        real_joint = np.concatenate([encoded.attributes, pattern_real],
                                    axis=1)
        n = len(encoded)
        common = dict(batch_size=min(cfg.batch_size, n),
                      learning_rate=cfg.learning_rate,
                      gradient_penalty_weight=cfg.gradient_penalty_weight,
                      seed=cfg.seed)
        # Layer 1: discrete pattern WGAN-GP.  Layer 2: continuous
        # refinement WGAN-GP, conditioned on the real (attribute, pattern)
        # pairs so the critic judges the joint.
        stages = [(self.pattern_generator, self._pattern_activation,
                   self.pattern_discriminator, cfg.noise_dim, 0, real_joint)]
        if self._n_continuous:
            stages.append((self.refiner, self._refine_activation,
                           self.refine_discriminator, cfg.refine_noise_dim,
                           real_joint.shape[1],
                           np.concatenate([real_joint, offsets_real],
                                          axis=1)))
        resumed_at = (ckpt.checkpoint_iteration(options.resume_from)
                      if options.resume_from is not None else 0)
        # Set before training so a failure report can read how far it got.
        self.history = history = TrainingHistory.windowed(
            options.history_window)
        n_iter = cfg.iterations
        arch = architecture_key(_config_to_dict(cfg), self.schema)
        for index, (generator, activation, critic, noise_dim, cond_dim,
                    rows) in enumerate(stages):
            start, stop = index * n_iter, (index + 1) * n_iter
            if resumed_at > stop:
                continue  # finished before the checkpoint was written
            loop = MLPGANLoop(self._named_modules(), generator, activation,
                              critic, rng, noise_dim=noise_dim,
                              cond_dim=cond_dim, plan_key=f"{arch}:{index}",
                              **common)
            stage_options = options
            if not start < resumed_at <= stop:
                stage_options = dataclasses.replace(options,
                                                    resume_from=None)
            loop.train(rows, stop, log_every=1, options=stage_options,
                       history=history, start=start)
            # A sentinel reseed replaces the loop's rng; the next stage
            # continues from the stream this one ended on.
            rng = loop.rng
        self.loss_history = {
            "pattern": [g for it, g in zip(history.iterations,
                                           history.g_loss) if it < n_iter],
            "refine": [g for it, g in zip(history.iterations,
                                          history.g_loss) if it >= n_iter]}
        return self

    # -- generation --------------------------------------------------------
    def generate(self, n: int, rng: np.random.Generator | None = None,
                 **_ignored) -> TimeSeriesDataset:
        """Sample ``n`` objects (blocks of ``batch_size``, plan order)."""
        if not self._built:
            raise RuntimeError("fit() must be called before generate()")
        rng = rng if rng is not None else self._rng
        cfg = self.config
        parts_attrs, parts_feats = [], []
        remaining = n
        while remaining > 0:
            size = min(cfg.batch_size, remaining)
            remaining -= size
            with no_grad():
                z = Tensor(rng.normal(size=(size, cfg.noise_dim)))
                joint = self._pattern_activation(
                    self.pattern_generator(z)).data
                attrs = joint[:, :self._attr_dim]
                hard = self._harden(joint[:, self._attr_dim:])
                cond = np.concatenate([attrs, hard], axis=1)
                z_r = rng.normal(size=(size, cfg.refine_noise_dim))
                if self._n_continuous:
                    offs = self._refine_activation(self.refiner(
                        Tensor(np.concatenate([cond, z_r], axis=1)))).data
                else:
                    offs = np.zeros((size, 0))
            parts_attrs.append(attrs)
            parts_feats.append(self._assemble_features(hard, offs))
        attrs = (np.concatenate(parts_attrs) if parts_attrs
                 else np.zeros((0, self._attr_dim)))
        feats = (np.concatenate(parts_feats) if parts_feats
                 else np.zeros((0, self.schema.max_length,
                                self.encoder.feature_dim)))
        return self.encoder.inverse(attrs, np.zeros((len(attrs), 0)), feats)

    # -- persistence -------------------------------------------------------
    def _named_modules(self) -> dict:
        return {
            "pattern_generator": self.pattern_generator,
            "pattern_discriminator": self.pattern_discriminator,
            "refiner": self.refiner,
            "refine_discriminator": self.refine_discriminator,
        }

    def archive_state(self) -> tuple[dict, dict, dict]:
        """(config, named modules, extra arrays) for the model archive."""
        if not self._built:
            raise RuntimeError("fit() must be called before saving")
        return _config_to_dict(self.config), self._named_modules(), {}

    @classmethod
    def from_archive(cls, schema: DataSchema, config: dict,
                     encoder_state: dict, arrays: dict) -> "DLGAN":
        """An unloaded model rebuilt from archive metadata."""
        model = cls(schema, _config_from_dict(config))
        model.encoder.load_state(encoder_state)
        model._build(np.random.default_rng(model.config.seed))
        return model

    def save_bytes(self) -> bytes:
        """The model archive (:mod:`repro.backends.archive`) as bytes."""
        return get_backend(DLGANBackend.name).save_bytes(self)

    @classmethod
    def load_bytes(cls, blob: bytes) -> "DLGAN":
        """Inverse of :meth:`save_bytes`."""
        return get_backend(DLGANBackend.name).load_bytes(blob)


class DLGANBackend(GeneratorBackend):
    """Dual-layer discrete-pattern + continuous-refinement GAN (DLGAN
    shape, arXiv:2508.21340)."""

    name = "dlgan"
    model_class = DLGAN
    adversarial = True

    def make_config(self, dataset_name: str, scale, seed: int | None = None,
                    **overrides) -> dict:
        width = scale.hidden_width
        config = DLGANConfig(
            pattern_hidden=(width * 2, width * 2),
            refine_hidden=(width, width),
            discriminator_hidden=(width * 2, width * 2),
            iterations=scale.baseline_iterations,
            batch_size=scale.batch_size,
            seed=scale.seed if seed is None else seed,
        )
        fields = {f.name for f in dataclasses.fields(DLGANConfig)}
        applicable = {k: v for k, v in overrides.items() if k in fields}
        if applicable:
            config = dataclasses.replace(config, **{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in applicable.items()})
        return _config_to_dict(config)

    def from_config(self, schema: DataSchema, config) -> DLGAN:
        if not isinstance(config, DLGANConfig):
            config = _config_from_dict(dict(config))
        return DLGAN(schema, config)
