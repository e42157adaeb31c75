"""Quality reports are byte-deterministic — the tentpole contract.

A scored report must be a pure function of ``(real, synthetic, holdout,
seed)``: identical across repeated runs and across sweep worker counts.
Everything here asserts byte-identity of the canonical JSON/markdown
exports, mirroring the existing determinism battery.
"""

import numpy as np
import pytest

from repro.experiments.configs import TINY
from repro.experiments.harness import clear_cache, run_sweep
from repro.experiments.report import render_sweep_report
from repro.quality import QualityReport


@pytest.fixture(autouse=True)
def fresh_harness():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture(scope="module")
def halves(tiny_gcut):
    n = len(tiny_gcut)
    return tiny_gcut[np.arange(0, n // 2)], \
        tiny_gcut[np.arange(n // 2, n)]


class TestRepeatedRuns:
    def test_exports_byte_identical(self, halves):
        real, synthetic = halves
        runs = [QualityReport(real, synthetic, holdout=real, seed=1,
                              downstream=True, mlp_iterations=20)
                for _ in range(2)]
        assert runs[0].to_json() == runs[1].to_json()
        assert runs[0].render_markdown() == runs[1].render_markdown()

    def test_seed_is_load_bearing(self, halves):
        """Different downstream seeds change the report, so the equality
        above is not vacuous."""
        real, synthetic = halves
        a = QualityReport(real, synthetic, seed=0, downstream=True,
                          mlp_iterations=20)
        b = QualityReport(real, synthetic, seed=1, downstream=True,
                          mlp_iterations=20)
        assert a.to_json() != b.to_json()


class TestSweepWorkerInvariance:
    def test_quality_ranking_is_worker_count_invariant(self):
        """run_sweep(quality=...) scores in the parent from bit-identical
        trained models, so the ranked report must not depend on the
        worker count."""
        reports = []
        for workers in (1, 2):
            clear_cache()
            result = run_sweep(["gcut"], ["hmm", "ar"], scale=TINY,
                               verbose=False, workers=workers,
                               quality={"n": 16})
            assert not result.failures
            assert set(result.quality) == set(result.models)
            reports.append(render_sweep_report(result))
        assert reports[0] == reports[1]
        assert "## Quality ranking" in reports[0]

    def test_quality_json_matches_direct_report(self):
        """The sweep's per-cell report equals one computed by hand from
        the same trained model (same n/seed defaults)."""
        clear_cache()
        result = run_sweep(["gcut"], ["hmm"], scale=TINY, verbose=False,
                           quality={"n": 16})
        (key, report), = result.quality.items()
        assert report.to_json() == result.quality[key].to_json()
        assert 0.0 <= report.overall <= 1.0
