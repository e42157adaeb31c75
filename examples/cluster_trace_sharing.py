"""Cross-enterprise data sharing (the paper's Figure-2 workflow).

A data holder owns a cluster trace it cannot share.  It trains
DoppelGANger and releases only the model parameters.  A data consumer
(e.g. a scheduler-research team) loads the parameters, generates synthetic
data, and trains an end-event-type predictor -- then we verify the
predictor transfers to the holder's real test data (the Figure-11
experiment).

Usage:  python examples/cluster_trace_sharing.py
"""

import os
import tempfile

import numpy as np

from repro import DGConfig, DoppelGANger
from repro.data.simulators import generate_gcut
from repro.data.splits import make_split
from repro.downstream import (GaussianNaiveBayes, LogisticRegression,
                              accuracy, event_prediction_features)


def main():
    rng = np.random.default_rng(0)

    # ---------------- data holder side ----------------
    private_data = generate_gcut(500, rng, max_length=24)
    split = make_split(private_data, rng)   # A (train) / A' (held out)

    config = DGConfig(
        sample_len=4,
        attribute_hidden=(64, 64), minmax_hidden=(64, 64),
        feature_rnn_units=48, feature_mlp_hidden=(64,),
        discriminator_hidden=(64, 64), aux_discriminator_hidden=(64, 64),
        batch_size=32, iterations=600, seed=2,
    )
    holder_model = DoppelGANger(private_data.schema, config)
    holder_model.fit(split.train_real)

    with tempfile.TemporaryDirectory() as release_dir:
        released = os.path.join(release_dir, "gcut_model.npz")
        holder_model.save(released)
        print(f"[holder]   trained on {len(split.train_real)} private "
              f"tasks; released parameters to {released}")

        # ---------------- data consumer side ----------------
        consumer_model = DoppelGANger.load(released)
    synthetic = consumer_model.generate(len(split.train_real),
                                        rng=np.random.default_rng(1))
    print(f"[consumer] generated {len(synthetic)} synthetic tasks "
          "without ever seeing real data")

    x_syn, y_syn = event_prediction_features(synthetic)
    predictors = [GaussianNaiveBayes(), LogisticRegression(iterations=300)]
    for predictor in predictors:
        predictor.fit(x_syn, y_syn)

    # ---------------- joint evaluation (the Figure-11 check) ----------------
    x_real_test, y_real_test = event_prediction_features(split.test_real)
    x_real_train, y_real_train = event_prediction_features(split.train_real)
    print("\npredictor accuracy on the holder's real test data:")
    for predictor in predictors:
        synthetic_acc = accuracy(predictor, x_real_test, y_real_test)
        fresh = type(predictor)()
        fresh.fit(x_real_train, y_real_train)
        real_acc = accuracy(fresh, x_real_test, y_real_test)
        print(f"  {predictor.name:20s} trained-on-synthetic: "
              f"{synthetic_acc:.3f}   trained-on-real: {real_acc:.3f}")


if __name__ == "__main__":
    main()
