"""Figures 24-26: DoppelGANger does not memorize training samples.

Paper result: generated samples differ substantially (in square error and
qualitatively) from their nearest training neighbours on all three
datasets.

Measured by the memorization ratio: mean NN-distance of generated samples
to the training set, divided by the same statistic for held-out real data.
A copying model scores ~0; >= ~0.5 indicates no memorization.
"""

import numpy as np
import pytest

from repro.data.splits import make_split
from repro.experiments import get_dataset, get_model, get_split, print_table
from repro.metrics import (memorization_ratio, nearest_neighbors,
                           normalise_rows)

FEATURES = {"wwt": "daily_views", "mba": "traffic_bytes",
            "gcut": "canonical_memory_usage"}
N_GENERATE = 150


@pytest.mark.benchmark(group="fig24")
def test_fig24_memorization(once):
    def evaluate():
        rows = []
        for dataset_name, feature in FEATURES.items():
            split = get_split(dataset_name, "dg")
            model = get_model(dataset_name, "dg",
                              train_data=split.train_real)
            syn = model.generate(N_GENERATE, rng=np.random.default_rng(9))
            gen = normalise_rows(syn.feature_column(feature))
            train = normalise_rows(split.train_real.feature_column(feature))
            holdout = normalise_rows(split.test_real.feature_column(feature))
            ratio = memorization_ratio(gen, train, holdout)
            nn = nearest_neighbors(gen, train, k=1)
            rows.append([dataset_name, feature, ratio,
                         float(nn.distances.min())])
        return rows

    rows = once(evaluate)
    print_table("Figures 24-26: memorization check "
                "(ratio ~1 = no memorization, ~0 = copying)",
                ["dataset", "feature", "memorization ratio",
                 "min NN distance"], rows)

    for row in rows:
        assert row[2] > 0.3, f"{row[0]} looks memorized"
        # The exact-copy check only makes sense for fixed-length series;
        # on GCUT two short tasks normalise to near-identical zero-padded
        # rows, so a tiny min distance there is a padding artifact.
        if row[0] in ("wwt", "mba"):
            assert row[3] > 1e-6, f"{row[0]} contains near-exact copies"
