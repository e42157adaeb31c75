"""Tests for the scored quality report (repro.quality.report)."""

import json

import numpy as np
import pytest

from repro.data.dataset import TimeSeriesDataset
from repro.quality import PropertyScore, QualityReport, clamp01


@pytest.fixture(scope="module")
def halves(tiny_gcut):
    """Two disjoint halves of the same simulator draw: as close to a
    perfect generator as it gets without training anything."""
    n = len(tiny_gcut)
    return tiny_gcut[np.arange(0, n // 2)], \
        tiny_gcut[np.arange(n // 2, n)]


def _noisy(dataset: TimeSeriesDataset, seed: int = 0,
           scale: float = 5.0) -> TimeSeriesDataset:
    """A deliberately bad 'synthetic' set: heavy noise, scrambled
    attributes, constant lengths."""
    rng = np.random.default_rng(seed)
    features = dataset.features + rng.normal(
        0.0, scale, size=dataset.features.shape)
    attributes = dataset.attributes.copy()
    lengths = np.full_like(dataset.lengths, dataset.schema.max_length)
    return TimeSeriesDataset(schema=dataset.schema, attributes=attributes,
                             features=features, lengths=lengths)


class TestScores:
    def test_identical_data_scores_near_one(self, tiny_gcut):
        report = QualityReport(tiny_gcut, tiny_gcut, downstream=False)
        assert report.overall > 0.95
        for prop in report.properties:
            assert prop.score > 0.9, prop.name

    def test_all_scores_bounded(self, halves):
        real, synthetic = halves
        report = QualityReport(real, _noisy(synthetic), downstream=False)
        assert 0.0 <= report.overall <= 1.0
        for prop in report.properties:
            assert 0.0 <= prop.score <= 1.0, prop.name

    def test_noise_scores_below_matched_data(self, halves):
        real, synthetic = halves
        good = QualityReport(real, synthetic, downstream=False)
        bad = QualityReport(real, _noisy(synthetic), downstream=False)
        assert bad.overall < good.overall

    def test_schema_mismatch_raises(self, tiny_gcut, tiny_wwt):
        with pytest.raises(ValueError, match="schemas differ"):
            QualityReport(tiny_gcut, tiny_wwt)

    def test_holdout_enables_memorization(self, halves, tiny_gcut):
        real, synthetic = halves
        without = QualityReport(real, synthetic, downstream=False)
        with_holdout = QualityReport(real, synthetic,
                                     holdout=tiny_gcut[np.arange(10)],
                                     downstream=False)
        assert "memorization" not in without.property_scores()
        assert "memorization" in with_holdout.property_scores()

    def test_memorizing_generator_scores_low(self, halves, tiny_gcut):
        real, _ = halves
        holdout = tiny_gcut[np.arange(40, 80)]
        copied = QualityReport(real, real[np.arange(20)],
                               holdout=holdout, downstream=False)
        fresh = QualityReport(real, tiny_gcut[np.arange(60, 80)],
                              holdout=holdout, downstream=False)
        assert copied.property_scores()["memorization"] < \
            fresh.property_scores()["memorization"]

    def test_downstream_property_when_enabled(self, halves):
        real, synthetic = halves
        report = QualityReport(real, synthetic, downstream=True,
                               mlp_iterations=20)
        scores = report.property_scores()
        assert "downstream" in scores
        assert 0.0 <= scores["downstream"] <= 1.0

    def test_overall_empty_is_zero(self):
        report = QualityReport.from_dict({"seed": 0})
        assert report.overall == 0.0


class TestPropertyCoverage:
    def test_collapsed_synthetic_scores_low_diversity(self, tiny_wwt):
        collapsed = tiny_wwt[np.zeros(40, dtype=int)]  # one sample repeated
        report = QualityReport(tiny_wwt, collapsed, downstream=False)
        assert report.property_scores()["diversity"] < 0.3

    def test_fixed_length_data_scores_perfect_lengths(self, tiny_wwt):
        report = QualityReport(tiny_wwt, tiny_wwt[np.arange(30)],
                               downstream=False)
        assert report.property_scores()["lengths"] == 1.0


class TestCanonicalExports:
    def test_json_deterministic_across_runs(self, halves):
        real, synthetic = halves
        a = QualityReport(real, synthetic, downstream=True,
                          mlp_iterations=20, seed=3)
        b = QualityReport(real, synthetic, downstream=True,
                          mlp_iterations=20, seed=3)
        assert a.to_json() == b.to_json()
        assert a.render_markdown() == b.render_markdown()

    def test_json_has_no_timings(self, halves):
        real, synthetic = halves
        report = QualityReport(real, synthetic, downstream=False)
        # Every section ran and was timed, a skipped one included...
        assert set(report.timings) == {
            "feature_marginals", "attribute_marginals", "autocorrelation",
            "lengths", "attribute_feature_joints", "cross_correlation",
            "diversity", "memorization", "downstream"}
        assert "timings" not in json.loads(report.to_json())  # ...not shipped

    def test_json_round_trips_without_nan(self, halves):
        real, synthetic = halves
        report = QualityReport(real, _noisy(synthetic), downstream=False)
        text = report.to_json()
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text)["schema_version"] == 1

    def test_from_dict_round_trip(self, halves):
        real, synthetic = halves
        report = QualityReport(real, synthetic, downstream=False)
        clone = QualityReport.from_dict(json.loads(report.to_json()))
        assert clone.overall == pytest.approx(report.overall)
        assert clone.property_scores() == pytest.approx(
            report.property_scores())
        assert clone.to_json() == report.to_json()

    def test_markdown_lists_every_property(self, halves):
        real, synthetic = halves
        report = QualityReport(real, synthetic, downstream=False)
        text = report.render_markdown(title="My card")
        assert text.startswith("# My card")
        assert f"**Overall score: {report.overall:.4f}**" in text
        for prop in report.properties:
            assert f"## {prop.name}" in text


class TestHelpers:
    def test_clamp01(self):
        assert clamp01(-0.5) == 0.0
        assert clamp01(0.25) == 0.25
        assert clamp01(7.0) == 1.0

    def test_property_score_dict(self):
        prop = PropertyScore("x", 0.5, {"a": 1})
        assert prop.to_dict() == {"name": "x", "score": 0.5,
                                  "details": {"a": 1}}
