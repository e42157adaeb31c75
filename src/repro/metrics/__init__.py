"""Fidelity metrics used throughout §5."""

from repro.metrics.autocorrelation import (autocorrelation_mse,
                                           average_autocorrelation,
                                           series_autocorrelation)
from repro.metrics.conditional import (conditional_w1,
                                       per_object_statistic)
from repro.metrics.crosscorrelation import (cross_correlation_error,
                                            feature_correlation_matrix)
from repro.metrics.distances import (categorical_jsd,
                                     jensen_shannon_divergence,
                                     total_variation, wasserstein1)
from repro.metrics.distributions import (attribute_histogram, diversity_score,
                                         empirical_cdf, length_histogram,
                                         mode_coverage, per_object_total)
from repro.metrics.memorization import (NearestNeighborResult,
                                        memorization_ratio, nearest_neighbors,
                                        normalise_rows)
from repro.metrics.ranking import rankdata, spearman_rank_correlation

__all__ = [
    "series_autocorrelation", "average_autocorrelation",
    "autocorrelation_mse",
    "conditional_w1", "per_object_statistic",
    "feature_correlation_matrix", "cross_correlation_error",
    "wasserstein1", "jensen_shannon_divergence", "categorical_jsd",
    "total_variation",
    "length_histogram", "attribute_histogram", "per_object_total",
    "empirical_cdf", "diversity_score", "mode_coverage",
    "NearestNeighborResult", "nearest_neighbors", "memorization_ratio",
    "normalise_rows",
    "rankdata", "spearman_rank_correlation",
]
