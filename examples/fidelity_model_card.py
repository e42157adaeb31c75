"""Produce a release-readiness model card for a trained DoppelGANger.

Before releasing model parameters (Figure 2), a data holder should check
the §5.1 fidelity microbenchmarks and the §5.3 red flags (mode collapse,
memorization).  This example trains a model on the GCUT simulator, scores
it with :class:`repro.quality.QualityReport` against a held-out real
split, and writes the report as a markdown model card.

Usage:  python examples/fidelity_model_card.py
"""

import os
import tempfile

import numpy as np

from repro import DGConfig, DoppelGANger
from repro.data.simulators import generate_gcut
from repro.data.splits import make_split
from repro.quality import QualityReport

# A diversity score (synthetic vs real spread, Figure 5) or memorization
# score (NN-distance ratio, Figures 24-26) below this is a red flag.
RED_FLAG = 0.3


def main():
    rng = np.random.default_rng(0)
    real = generate_gcut(400, rng, max_length=24)
    split = make_split(real, rng)  # train on A, memorization check vs A'

    config = DGConfig(
        sample_len=4,
        attribute_hidden=(64, 64), minmax_hidden=(64, 64),
        feature_rnn_units=48, feature_mlp_hidden=(64,),
        discriminator_hidden=(64, 64), aux_discriminator_hidden=(64, 64),
        batch_size=32, iterations=500, seed=6,
    )
    model = DoppelGANger(real.schema, config)
    model.fit(split.train_real)
    synthetic = model.generate(len(split.train_real),
                               rng=np.random.default_rng(1))

    report = QualityReport(split.train_real, synthetic,
                           holdout=split.test_real, seed=0)
    card = report.render_markdown(title="GCUT DoppelGANger model card")
    print(card)

    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "doppelganger_model_card.md")
        with open(path, "w") as handle:
            handle.write(card)
        print(f"\nmodel card written to {path} (removed on exit)")
    scores = report.property_scores()
    flags = [name for name in ("diversity", "memorization")
             if scores.get(name, 1.0) < RED_FLAG]
    if flags:
        print(f"WARNING: red flags detected ({', '.join(flags)}) -- "
              f"review before release.")
    else:
        print("No release red flags detected.")


if __name__ == "__main__":
    main()
