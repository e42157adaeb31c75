"""Public DoppelGANger API.

Implements the workflow of Figure 2: the data holder fits the model on a
:class:`~repro.data.dataset.TimeSeriesDataset`, saves the parameters, and
the data consumer loads them to generate any desired quantity of synthetic
data -- optionally with a chosen attribute distribution (flexibility, §5.2)
or an obfuscated one (business-secret privacy, §5.3.2).
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from repro.core.config import DGConfig, DPTrainingConfig
from repro.core.discriminator import AuxiliaryDiscriminator, Discriminator
from repro.core.generator import (AttributeGenerator, FeatureGenerator,
                                  MinMaxGenerator, OutputBlock,
                                  continuous_kind)
from repro.core.adversarial import FitOptions, architecture_key
from repro.core.trainer import (AttributeRetrainer, DGTrainer,
                                TrainingHistory)
from repro.data.dataset import TimeSeriesDataset
from repro.data.encoding import DataEncoder
from repro.data.schema import DataSchema
from repro.nn import Tensor, no_grad
from repro.nn.plan import method_plan

__all__ = ["DoppelGANger", "config_to_dict", "config_from_dict"]


class DoppelGANger:
    """The DoppelGANger generative model (Figure 6).

    Typical use::

        model = DoppelGANger(schema, DGConfig(sample_len=5, iterations=400))
        model.fit(train_data)
        synthetic = model.generate(10_000)
    """

    def __init__(self, schema: DataSchema, config: DGConfig | None = None):
        self.schema = schema
        self.config = config or DGConfig()
        self.config.validate_for_length(schema.max_length)
        self.encoder = DataEncoder(
            schema, auto_normalize=self.config.use_minmax_generator,
            target_range=self.config.target_range)
        self._rng = np.random.default_rng(self.config.seed)
        self._built = False
        self.history: TrainingHistory | None = None

    # -- construction ------------------------------------------------------
    def _attribute_blocks(self) -> list[OutputBlock]:
        kind = continuous_kind(self.config.target_range)
        return [OutputBlock(f.dimension, "softmax" if f.is_categorical
                            else kind)
                for f in self.schema.attributes]

    def _feature_blocks(self) -> list[OutputBlock]:
        kind = continuous_kind(self.config.target_range)
        return [OutputBlock(f.dimension, "softmax" if f.is_categorical
                            else kind)
                for f in self.schema.features]

    def _build(self) -> None:
        cfg = self.config
        rng = self._rng
        attr_dim = self.encoder.attribute_dim
        mm_dim = self.encoder.minmax_dim
        feat_dim = self.encoder.feature_dim  # includes the 2 flag channels
        self.attribute_generator = AttributeGenerator(
            self._attribute_blocks(), cfg.attribute_noise_dim,
            cfg.attribute_hidden, rng,
            logit_bound=cfg.generator_logit_bound)
        self.minmax_generator = MinMaxGenerator(
            attr_dim, mm_dim, cfg.attribute_noise_dim, cfg.minmax_hidden,
            cfg.target_range, rng,
            logit_bound=cfg.generator_logit_bound)
        self.feature_generator = FeatureGenerator(
            attr_dim, mm_dim, self._feature_blocks(),
            self.schema.max_length, cfg.sample_len, cfg.feature_noise_dim,
            cfg.feature_rnn_units, cfg.feature_mlp_hidden, rng,
            logit_bound=cfg.generator_logit_bound)
        self.discriminator = Discriminator(
            attr_dim, mm_dim, feat_dim, self.schema.max_length,
            cfg.discriminator_hidden, rng)
        if cfg.generator_output_scale != 1.0:
            heads = [self.feature_generator.head]
            if attr_dim:
                heads.append(self.attribute_generator.mlp)
            if mm_dim:
                heads.append(self.minmax_generator.mlp)
            for mlp in heads:
                mlp.layers[-1].weight.data *= cfg.generator_output_scale
        self.aux_discriminator = None
        if cfg.use_auxiliary_discriminator:
            self.aux_discriminator = AuxiliaryDiscriminator(
                attr_dim, mm_dim, cfg.aux_discriminator_hidden, rng)
        self.trainer = DGTrainer(
            self.attribute_generator, self.minmax_generator,
            self.feature_generator, self.discriminator,
            self.aux_discriminator, cfg, rng,
            plan_key=architecture_key(config_to_dict(cfg), self.schema))
        self._built = True

    # -- training ------------------------------------------------------------
    def fit(self, dataset: TimeSeriesDataset,
            iterations: int | None = None, log_every: int = 50,
            callback=None, *, train_state_path=None,
            checkpoint_every: int | None = None, resume_from=None,
            sentinel=None,
            history_window: int | None = None) -> TrainingHistory:
        """Train on a raw dataset (encoder is fit here too).

        Args:
            dataset: Training data matching the model schema.
            iterations: Override the configured iteration count.
            log_every: History/callback cadence (in iterations).
            callback: Optional ``callback(iteration, history)``, called at
                every logging point.  To keep the best snapshot by some
                score (GAN sample quality is not monotone in training
                time, the paper's Figure 33), score the model here and
                keep the generators' ``state_dict()``; restore the best
                with ``load_state_dict`` after fit.
            train_state_path, checkpoint_every, resume_from, sentinel,
            history_window: The adversarial loop's resilience switches
                (:class:`~repro.core.adversarial.FitOptions`, where
                ``train_state_path`` is its ``checkpoint_path``).
                Resuming from ``train_state_path`` continues training
                bit-identically (docs/robustness.md); save the trained
                model with :meth:`save`.
        """
        options = FitOptions(
            checkpoint_path=train_state_path,
            checkpoint_every=checkpoint_every, resume_from=resume_from,
            sentinel=sentinel)
        if dataset.schema != self.schema:
            raise ValueError("dataset schema does not match model schema")
        self.encoder.fit(dataset)
        if not self._built:
            self._build()
        encoded = self.encoder.transform(dataset)
        # Set before training so a failure report can read how far it got.
        self.history = TrainingHistory.windowed(history_window)
        return self.trainer.train(
            encoded, iterations=iterations, log_every=log_every,
            callback=callback, options=options, history=self.history)

    # -- generation --------------------------------------------------------------
    def generate(self, n: int, rng: np.random.Generator | None = None,
                 attributes: np.ndarray | None = None,
                 workers: int = 1) -> TimeSeriesDataset:
        """Sample ``n`` synthetic objects.

        Args:
            n: Number of objects to generate.
            rng: Optional generator for reproducible sampling.
            attributes: Optional raw attribute rows (n, m) to condition on
                (the "desired attribute distribution" input of §3.1).
            workers: Worker processes for sharded generation.  The output
                is bit-identical for every worker count (the noise blocks
                are planned before sharding); ``workers > 1`` pays a
                per-worker model-load cost, so it is worthwhile for large
                ``n`` on multi-core machines.
        """
        attrs, minmax, features = self.generate_encoded(
            n, rng=rng, attributes=attributes, workers=workers)
        return self.encoder.inverse(attrs, minmax, features)

    def generate_encoded(self, n: int,
                         rng: np.random.Generator | None = None,
                         attributes: np.ndarray | None = None,
                         workers: int = 1
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample in the encoded space (used by metrics and tests).

        The request is split into fixed blocks of at most ``batch_size``
        samples, and every block's noise is drawn from ``rng`` here, in
        plan order, before any block runs -- exactly the draws a plain
        batched loop would make.  Sharding across ``workers`` therefore
        cannot change the output (docs/architecture.md).
        """
        from repro.observability import events as obs_events
        from repro.parallel.generation import (generate_encoded_sharded,
                                               plan_request)

        self._require_trained()
        base = rng if rng is not None else self._rng
        blocks = plan_request(self, n, base, attributes=attributes)
        # The plan is a pure function of (n, batch_size, conditioning),
        # never of the worker count, so this event is canonical even
        # though execution below may shard.
        obs_events.emit("generation.plan", {
            "n": int(n), "batch_size": int(self.config.batch_size),
            "blocks": len(blocks),
            "conditioned": attributes is not None,
        })
        if workers > 1 and len(blocks) > 1:
            triples = generate_encoded_sharded(self, blocks, workers)
        else:
            triples = [self._generate_block(b.size, b.noise, b.cond)
                       for b in blocks]
        obs_events.emit("generation.finish", {"n": int(n)})
        empty = (np.zeros((0, self.encoder.attribute_dim)),
                 np.zeros((0, self.encoder.minmax_dim)),
                 np.zeros((0, self.schema.max_length,
                           self.encoder.feature_dim)))
        return tuple(np.concatenate([t[i] for t in triples])
                     if triples else empty[i] for i in range(3))

    def _draw_block_noise(self, size: int, rng: np.random.Generator,
                          conditioned: bool) -> tuple:
        """Draw one block's (z_a, z_m, z_f) in the generator's draw order.

        Consumes ``rng`` exactly as an unsharded ``generate_batch`` call
        would (no attribute noise when conditioning), so pre-planning the
        blocks leaves previously-seeded outputs unchanged.
        """
        z_a = None if conditioned else \
            self.attribute_generator.sample_noise(size, rng).data
        z_m = self.minmax_generator.sample_noise(size, rng).data
        z_f = self.feature_generator.sample_noise(size, rng).data
        return (z_a, z_m, z_f)

    def _block_plan(self, attr: str, fn):
        """Lazily build a generation plan (serving hot path), shared
        across models of one architecture.  ``copy_outputs=True`` because
        callers retain the arrays across blocks (they are concatenated
        after all blocks run)."""
        return method_plan(self, attr, fn, self.trainer.generator_params,
                           key=self.trainer.plan_key, copy_outputs=True)

    def _uncond_block_fn(self, z_a, z_m, z_f):
        with no_grad():
            return self.trainer.generate_batch(
                z_a.shape[0], noise=(z_a, z_m, z_f))

    def _cond_block_fn(self, cond, z_m, z_f):
        with no_grad():
            return self.trainer.generate_batch(
                cond.shape[0], attributes=Tensor(cond),
                noise=(None, z_m, z_f))

    def _generate_block(self, size: int, noise: tuple,
                        cond_encoded: np.ndarray | None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generate one pre-drawn noise block (serial and sharded paths)."""
        z_a, z_m, z_f = noise
        if cond_encoded is not None:
            plan = self._block_plan("_gen_plan_cond", self._cond_block_fn)
            a, m, f = plan((np.asarray(cond_encoded, dtype=np.float64),
                            z_m, z_f))
        else:
            plan = self._block_plan("_gen_plan_uncond", self._uncond_block_fn)
            a, m, f = plan((z_a, z_m, z_f))
        return a, m, f

    # -- flexibility / attribute privacy (§5.2, §5.3.2) -----------------------
    def retrain_attribute_generator(
            self, target_attributes: np.ndarray, iterations: int = 200,
            rng: np.random.Generator | None = None) -> list[float]:
        """Re-train only the attribute generator towards a new distribution.

        Per §5.2: generated attribute vectors are fed to the discriminators
        with the time series inputs zeroed, adversarially against "real"
        attribute rows drawn from the caller's target distribution.  The
        feature generator is untouched, so P(features | attributes) is
        preserved.

        Args:
            target_attributes: Raw attribute rows sampled from the desired
                distribution (any number of rows; batches are resampled).
            iterations: Adversarial update rounds.
            rng: Optional randomness source.

        Returns:
            The generator loss trace.
        """
        self._require_trained()
        encoded_target = self.encoder.encode_attributes(target_attributes)
        loop = AttributeRetrainer(
            self.trainer, rng or self._rng,
            min(self.config.batch_size, len(encoded_target)),
            self.encoder.minmax_dim,
            (self.schema.max_length, self.encoder.feature_dim))
        return loop.train(encoded_target, iterations, log_every=1,
                          history=TrainingHistory(max_points=None)).g_loss

    # -- persistence -----------------------------------------------------------
    def archive_state(self) -> tuple[dict, dict, dict]:
        """(config, named modules, extra arrays) for the model archive
        (:mod:`repro.backends.archive`)."""
        self._require_trained()
        return config_to_dict(self.config), self._named_modules(), {}

    @classmethod
    def from_archive(cls, schema: DataSchema, config: dict,
                     encoder_state: dict, arrays: dict) -> "DoppelGANger":
        """An unloaded model rebuilt from archive metadata."""
        model = cls(schema, config_from_dict(config))
        model.encoder.load_state(encoder_state)
        model._build()
        # The build drew placeholder weights (the archive overwrites them);
        # rng-less draws start from the configured seed, as on every
        # other backend.
        model._rng = np.random.default_rng(model.config.seed)
        return model

    def save(self, path) -> None:
        """Atomically write the model archive to exactly ``path``."""
        from repro.resilience.atomic import write_atomic
        write_atomic(path, self.save_bytes())

    @classmethod
    def load(cls, path) -> "DoppelGANger":
        """Restore a model saved by :meth:`save`.

        Missing, truncated, or non-model files raise a clear
        :class:`ValueError` instead of a bare OS error.
        """
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise ValueError(
                f"cannot read model archive {os.fspath(path)!r}: the file "
                f"is missing, corrupted, or truncated ({exc})") from exc
        return cls.load_bytes(blob)

    def save_bytes(self) -> bytes:
        """The model archive as bytes (no filesystem).

        This is the payload handed to sharded-generation workers: each
        worker reconstructs the model with :meth:`load_bytes` and draws
        its assigned noise blocks.
        """
        from repro.backends import get_backend
        return get_backend("doppelganger").save_bytes(self)

    @classmethod
    def load_bytes(cls, blob: bytes) -> "DoppelGANger":
        """Inverse of :meth:`save_bytes`."""
        from repro.backends import get_backend
        return get_backend("doppelganger").load_bytes(blob)

    def _named_modules(self) -> dict:
        return self.trainer.modules

    def _require_trained(self) -> None:
        if not self._built:
            raise RuntimeError("model has not been fit() yet")


def config_to_dict(config: DGConfig) -> dict:
    """A :class:`DGConfig` as a plain JSON-serializable dict."""
    data = dataclasses.asdict(config)
    return data


def config_from_dict(data: dict) -> DGConfig:
    """Inverse of :func:`config_to_dict` (lists become tuples)."""
    data = dict(data)
    dp = data.pop("dp", None)
    config = DGConfig(**{k: tuple(v) if isinstance(v, list) else v
                         for k, v in data.items()})
    if dp is not None:
        config.dp = DPTrainingConfig(**dp)
    return config
