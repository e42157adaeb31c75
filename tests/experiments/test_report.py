"""Tests for the sweep report helpers and the cross-feature section of
the quality report they are published with."""

from repro.quality import QualityReport


class TestCrossCorrelationSection:
    def test_included_for_multifeature_data(self, tiny_gcut):
        report = QualityReport(tiny_gcut, tiny_gcut, downstream=False)
        assert report.property_scores()["cross_correlation"] == 1.0
        prop = next(p for p in report.properties
                    if p.name == "cross_correlation")
        assert prop.details["error"] == 0.0
        assert "## cross_correlation" in report.render_markdown()

    def test_absent_for_single_feature(self, tiny_wwt):
        report = QualityReport(tiny_wwt, tiny_wwt, downstream=False)
        assert "cross_correlation" not in report.property_scores()
        assert report.skipped == []
        assert "cross_correlation" not in report.render_markdown()


class TestFailureSummary:
    def test_renders_failures_as_table(self):
        from repro.experiments.report import failure_summary
        from repro.resilience import FailureRecord
        failures = [FailureRecord(dataset="wwt", model="dg",
                                  exception_type="TrainingDiverged",
                                  message="retry budget exhausted",
                                  iteration=123, retries=3)]
        text = failure_summary(failures)
        assert "| wwt | dg | TrainingDiverged | 123 | 3 |" in text
        assert "1 of the sweep's models failed" in text

    def test_empty_failures_render_empty(self):
        from repro.experiments.report import failure_summary
        assert failure_summary([]) == ""

    def test_long_messages_truncated(self):
        from repro.experiments.report import failure_summary
        from repro.resilience import FailureRecord
        record = FailureRecord(dataset="d", model="m",
                               exception_type="E", message="x" * 200)
        assert "x" * 200 not in failure_summary([record])
