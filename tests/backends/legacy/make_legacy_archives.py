"""Write the pinned legacy model archives, one per backend.

The archives in this directory were written by the three pre-``repro-model``
formats: DoppelGANger's untagged archive, DLGAN's ``repro-dlgan`` archive
and the baselines' ``kind`` archive.  They must be produced by a checkout
that still has those writers (commit ``e5cb3ed``), so run this script with
that checkout's ``src`` first on ``PYTHONPATH``::

    git archive e5cb3ed | tar -x -C /tmp/legacy-src
    PYTHONPATH=/tmp/legacy-src/src python tests/backends/legacy/make_legacy_archives.py

Small widths on TINY data keep each archive well under 64 KB.
"""

from pathlib import Path

from repro.backends import get_backend
from repro.experiments.configs import TINY, make_dataset

HERE = Path(__file__).resolve().parent

#: Per-backend config overrides: small hidden widths, few iterations.
OVERRIDES = {
    "doppelganger": dict(iterations=3),
    "dlgan": dict(iterations=3, levels=2, pattern_hidden=(4,),
                  refine_hidden=(4,), discriminator_hidden=(4,)),
    "hmm": dict(),
    "ar": dict(hidden=(8, 8)),
    "rnn": dict(),
    "naive_gan": dict(generator_hidden=(8,), discriminator_hidden=(8,)),
}


def main():
    data = make_dataset("gcut", TINY, seed=3)
    for name, overrides in OVERRIDES.items():
        backend = get_backend(name)
        config = backend.make_config("gcut", TINY, seed=5, **overrides)
        model = backend.from_config(data.schema, config)
        backend.fit(model, data)
        blob = backend.save_bytes(model)
        (HERE / f"{name}.npz").write_bytes(blob)
        print(f"{name}: {len(blob)} bytes")


if __name__ == "__main__":
    main()
