"""Tests for the public DoppelGANger API."""

import numpy as np
import pytest

from repro.core import DGConfig, DoppelGANger
from tests.conftest import tiny_dg_config


class TestFit:
    def test_schema_mismatch_rejected(self, tiny_gcut, tiny_wwt):
        model = DoppelGANger(tiny_gcut.schema, tiny_dg_config())
        with pytest.raises(ValueError, match="schema"):
            model.fit(tiny_wwt)

    def test_sample_len_checked_at_construction(self, tiny_gcut):
        with pytest.raises(ValueError, match="divide"):
            DoppelGANger(tiny_gcut.schema, tiny_dg_config(sample_len=5))

    def test_generate_before_fit_raises(self, tiny_gcut):
        model = DoppelGANger(tiny_gcut.schema, tiny_dg_config())
        with pytest.raises(RuntimeError, match="fit"):
            model.generate(5)


class TestGenerate:
    def test_respects_schema(self, trained_dg_gcut, tiny_gcut):
        syn = trained_dg_gcut.generate(23, rng=np.random.default_rng(0))
        assert len(syn) == 23
        assert syn.schema == tiny_gcut.schema
        assert syn.features.shape == tiny_gcut.features[:23].shape
        assert np.all(syn.lengths >= 1)
        assert np.all(syn.lengths <= tiny_gcut.schema.max_length)

    def test_categorical_attributes_are_valid_indices(self, trained_dg_gcut):
        syn = trained_dg_gcut.generate(50, rng=np.random.default_rng(1))
        events = syn.attribute_column("end_event_type")
        assert set(np.unique(events)) <= {0.0, 1.0, 2.0, 3.0}

    def test_reproducible_with_seeded_rng(self, trained_dg_gcut):
        a = trained_dg_gcut.generate(5, rng=np.random.default_rng(7))
        b = trained_dg_gcut.generate(5, rng=np.random.default_rng(7))
        assert np.allclose(a.features, b.features)

    def test_different_seeds_differ(self, trained_dg_gcut):
        a = trained_dg_gcut.generate(5, rng=np.random.default_rng(7))
        b = trained_dg_gcut.generate(5, rng=np.random.default_rng(8))
        assert not np.allclose(a.features, b.features)

    def test_generation_beyond_batch_size(self, trained_dg_gcut):
        n = trained_dg_gcut.config.batch_size * 2 + 3
        syn = trained_dg_gcut.generate(n, rng=np.random.default_rng(2))
        assert len(syn) == n

    def test_conditional_generation_keeps_attributes(self, trained_dg_gcut):
        wanted = np.array([[0.0], [1.0], [2.0], [3.0], [3.0]])
        syn = trained_dg_gcut.generate(5, rng=np.random.default_rng(3),
                                       attributes=wanted)
        assert np.array_equal(syn.attributes, wanted)

    def test_conditional_wrong_row_count_raises(self, trained_dg_gcut):
        with pytest.raises(ValueError, match="n rows"):
            trained_dg_gcut.generate(5, attributes=np.zeros((3, 1)))


class TestPersistence:
    def test_save_load_identical_generation(self, trained_dg_gcut, tmp_path):
        path = tmp_path / "model.npz"
        trained_dg_gcut.save(path)
        loaded = DoppelGANger.load(path)
        a = trained_dg_gcut.generate(6, rng=np.random.default_rng(11))
        b = loaded.generate(6, rng=np.random.default_rng(11))
        assert np.allclose(a.features, b.features)
        assert np.array_equal(a.attributes, b.attributes)

    def test_loaded_config_matches(self, trained_dg_gcut, tmp_path):
        path = tmp_path / "model.npz"
        trained_dg_gcut.save(path)
        loaded = DoppelGANger.load(path)
        assert loaded.config.sample_len == trained_dg_gcut.config.sample_len
        assert loaded.schema == trained_dg_gcut.schema


class TestAblationToggles:
    def test_minmax_generator_off(self, tiny_gcut):
        cfg = tiny_dg_config(iterations=3, use_minmax_generator=False)
        model = DoppelGANger(tiny_gcut.schema, cfg)
        model.fit(tiny_gcut)
        assert model.encoder.minmax_dim == 0
        syn = model.generate(4, rng=np.random.default_rng(0))
        assert len(syn) == 4

    def test_aux_discriminator_off(self, tiny_gcut):
        cfg = tiny_dg_config(iterations=3,
                             use_auxiliary_discriminator=False)
        model = DoppelGANger(tiny_gcut.schema, cfg)
        model.fit(tiny_gcut)
        assert model.aux_discriminator is None
        syn = model.generate(4, rng=np.random.default_rng(0))
        assert len(syn) == 4


class TestAttributeRetraining:
    def test_retraining_shifts_distribution(self, tiny_gcut):
        """§5.2: after retraining towards all-FINISH attributes, generated
        attributes should be dominated by FINISH."""
        model = DoppelGANger(tiny_gcut.schema,
                             tiny_dg_config(iterations=30, seed=2))
        model.fit(tiny_gcut)
        target = np.full((200, 1), 2.0)  # FINISH
        model.retrain_attribute_generator(target, iterations=120,
                                          rng=np.random.default_rng(0))
        syn = model.generate(100, rng=np.random.default_rng(1))
        share = (syn.attribute_column("end_event_type") == 2.0).mean()
        assert share > 0.8

    def test_feature_generator_untouched(self, tiny_gcut):
        model = DoppelGANger(tiny_gcut.schema,
                             tiny_dg_config(iterations=5, seed=2))
        model.fit(tiny_gcut)
        before = model.feature_generator.state_dict()
        model.retrain_attribute_generator(np.full((50, 1), 1.0),
                                          iterations=10,
                                          rng=np.random.default_rng(0))
        after = model.feature_generator.state_dict()
        for k in before:
            assert np.array_equal(before[k], after[k])


class TestGeneratorRegularisation:
    def test_output_scale_shrinks_final_layers(self, tiny_gcut):
        scaled = DoppelGANger(tiny_gcut.schema,
                              tiny_dg_config(generator_output_scale=0.1))
        plain = DoppelGANger(tiny_gcut.schema, tiny_dg_config())
        scaled._build()
        plain._build()
        s = np.abs(scaled.minmax_generator.mlp.layers[-1].weight.data).mean()
        p = np.abs(plain.minmax_generator.mlp.layers[-1].weight.data).mean()
        assert s < 0.5 * p

    def test_invalid_output_scale_rejected(self):
        with pytest.raises(ValueError, match="generator_output_scale"):
            tiny_dg_config(generator_output_scale=0.0)

    def test_logit_bound_train_and_generate(self, tiny_gcut):
        model = DoppelGANger(
            tiny_gcut.schema,
            tiny_dg_config(iterations=5, generator_logit_bound=3.0))
        model.fit(tiny_gcut)
        syn = model.generate(8, rng=np.random.default_rng(0))
        assert len(syn) == 8


class TestPersistenceWithDP:
    def test_dp_config_survives_save_load(self, tiny_gcut, tmp_path):
        from repro.core.config import DPTrainingConfig
        cfg = tiny_dg_config(iterations=3, batch_size=8)
        cfg.dp = DPTrainingConfig(l2_norm_clip=0.7, noise_multiplier=1.3,
                                  microbatch_size=2)
        model = DoppelGANger(tiny_gcut.schema, cfg)
        model.fit(tiny_gcut)
        path = tmp_path / "dp_model.npz"
        model.save(path)
        loaded = DoppelGANger.load(path)
        assert loaded.config.dp is not None
        assert loaded.config.dp.noise_multiplier == 1.3
        assert loaded.config.dp.l2_norm_clip == 0.7

    def test_logit_bound_survives_save_load(self, tiny_gcut, tmp_path):
        cfg = tiny_dg_config(iterations=2, generator_logit_bound=4.0)
        model = DoppelGANger(tiny_gcut.schema, cfg)
        model.fit(tiny_gcut)
        path = tmp_path / "bounded.npz"
        model.save(path)
        loaded = DoppelGANger.load(path)
        assert loaded.config.generator_logit_bound == 4.0
        a = model.generate(4, rng=np.random.default_rng(5))
        b = loaded.generate(4, rng=np.random.default_rng(5))
        assert np.allclose(a.features, b.features)


class TestBytesRoundtrip:
    """save_bytes/load_bytes: the registry's serialization path."""

    def test_roundtrip_generation_is_bit_identical(self, trained_dg_gcut):
        clone = DoppelGANger.load_bytes(trained_dg_gcut.save_bytes())
        a = trained_dg_gcut.generate(9, rng=np.random.default_rng(3))
        b = clone.generate(9, rng=np.random.default_rng(3))
        assert np.array_equal(a.attributes, b.attributes)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.lengths, b.lengths)

    def test_save_bytes_is_deterministic(self, trained_dg_gcut):
        assert trained_dg_gcut.save_bytes() == trained_dg_gcut.save_bytes()


class TestLoadErrors:
    def test_missing_file_is_actionable(self, tmp_path):
        with pytest.raises(ValueError, match="missing, corrupted"):
            DoppelGANger.load(tmp_path / "nope.npz")

    def test_truncated_archive_is_actionable(self, trained_dg_gcut,
                                             tmp_path):
        path = tmp_path / "model.npz"
        trained_dg_gcut.save(path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match="missing, corrupted"):
            DoppelGANger.load(path)

    def test_non_model_archive_is_actionable(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, values=np.arange(3))
        with pytest.raises(ValueError, match="no __meta__"):
            DoppelGANger.load(path)
