"""Quickstart: train DoppelGANger on a cluster trace and generate data.

Runs in about a minute on a laptop CPU.  The workload is a synthetic
Google-cluster-style task-usage trace (variable-length series of resource
measurements, each tagged with an end event type).

Usage:  python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

from repro import DGConfig, DoppelGANger
from repro.data.simulators import generate_gcut
from repro.metrics import (attribute_histogram, categorical_jsd,
                           length_histogram, wasserstein1)


def main():
    rng = np.random.default_rng(0)

    # 1. Load (here: simulate) the private dataset.
    real = generate_gcut(400, rng, max_length=24)
    print(f"real data: {len(real)} tasks, up to {real.schema.max_length} "
          f"windows, {len(real.schema.features)} features")

    # 2. Configure and train.  sample_len is the paper's batching parameter
    #    S (§4.1.1); pick it so the RNN takes a moderate number of passes.
    config = DGConfig(
        sample_len=4,
        attribute_hidden=(64, 64), minmax_hidden=(64, 64),
        feature_rnn_units=48, feature_mlp_hidden=(64,),
        discriminator_hidden=(64, 64), aux_discriminator_hidden=(64, 64),
        batch_size=32, iterations=400, seed=1,
    )
    model = DoppelGANger(real.schema, config)
    history = model.fit(real, log_every=100)
    print("training done; generator loss trace:",
          [round(v, 2) for v in history.g_loss])

    # 3. Generate as much synthetic data as you like.
    synthetic = model.generate(400, rng=np.random.default_rng(1))

    # 4. Check fidelity on two structural microbenchmarks.
    w1_lengths = wasserstein1(real.lengths.astype(float),
                              synthetic.lengths.astype(float))
    jsd = categorical_jsd(
        real.attribute_column("end_event_type").astype(int),
        synthetic.attribute_column("end_event_type").astype(int), 4)
    print(f"task-duration W1 distance: {w1_lengths:.2f} windows")
    print(f"end-event-type JSD:        {jsd:.4f} (0 = identical)")
    print("real   duration histogram:", length_histogram(real)[:12], "...")
    print("synth  duration histogram:", length_histogram(synthetic)[:12],
          "...")
    print("real   event counts:", attribute_histogram(real,
                                                      "end_event_type"))
    print("synth  event counts:", attribute_histogram(synthetic,
                                                      "end_event_type"))

    # 5. Persist the model -- this parameter file is what a data holder
    #    would actually release (Figure 2 of the paper).
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "doppelganger_quickstart.npz")
        model.save(path)
        print(f"model saved to {path} ({os.path.getsize(path)} bytes; "
              f"removed on exit)")


if __name__ == "__main__":
    main()
