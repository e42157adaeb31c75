"""Golden byte pins for every npz archive the package writes.

Registry blobs are addressed by the sha256 of a model archive
(``blobs/<sha256>.npz``), generate responses are dataset archives, and
checkpoints are training-state archives, so the exact bytes of each are
part of the contract: a change of npz writer must reproduce them bit for
bit.  The pins were taken with ``np.savez`` doing the writing.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backends import backend_names, get_backend
from repro.backends.archive import read_model, write_model
from repro.data.dataset import TimeSeriesDataset
from repro.data.simulators import generate_gcut
from repro.nn import MLP, Adam
from repro.nn.serialization import load_training_state, save_training_state
from repro.serve.protocol import dataset_from_bytes, dataset_to_bytes

#: n -> sha256 of ``dataset_to_bytes`` of a small-gcut DoppelGANger generation.
PAYLOAD_SHAS = {
    0: "9b1c8c05989b2619a7acbf991839d5fdc26e467eced1285764da43c0ec0a5de5",
    1: "7a68c683b7b1814e1e6141639a1271463367bbc0659642b403dbc63b76bdf5ec",
    16: "58607cfec5b7ecd92b65021c5fd17f270254609e6a9ee72df1c6b446a8cf0e3c",
}
#: sha256 of the file ``TimeSeriesDataset.save`` writes for small gcut.
DATASET_FILE_SHA = (
    "c7b04bee0fac766684143996854614a344673d62c17fa2940e3d8224eb5db294")
#: backend -> sha256 of ``write_model`` bytes (the registry blob address).
MODEL_SHAS = {
    "ar": "9fe9c5561f61844b74cc51ddf5731f34866aebe5cb34c560c1a21ebade57dcb9",
    "dlgan":
        "278b6bc44b233d06561c62d66ec8914beb5ddab09e5c85c17902046f72238ea7",
    "doppelganger":
        "c08e9a0a2203bc7c56bd898319162107f32c7ea6637a84900266aa5ad3c9cbe2",
    "hmm": "22f69f0eded609fe3e5d8db3b79ee4cd3764f521d7b26b0084abf9fa517e5d76",
    "naive_gan":
        "ebd15d5e729eea34eca5b2af7ff481c1fcc0ef06db617ce66f744a37afc63f16",
    "rnn": "47eb9af36e856bad90f1a43ce396f7de0fe95c2730cbe7e81da55078d29730c3",
}
#: sha256 of one ``save_training_state`` file.
TRAINING_STATE_SHA = (
    "39aa01842c713434d060dea57a5519633a17a7ec35e58288183c16e8bf6c1b3b")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def small_gcut():
    return generate_gcut(40, np.random.default_rng(3), max_length=12)


@pytest.fixture(scope="module")
def fitted(small_gcut):
    """backend name -> a model fitted for a few iterations."""
    models = {}
    for name in backend_names():
        backend = get_backend(name)
        config = backend.train_config(small_gcut.schema, iterations=4,
                                      batch_size=8, hidden=8, seed=1)
        model = backend.from_config(small_gcut.schema, config)
        backend.fit(model, small_gcut)
        models[name] = model
    return models


def test_every_backend_is_pinned():
    assert sorted(MODEL_SHAS) == sorted(backend_names())


@pytest.mark.parametrize("name", sorted(MODEL_SHAS))
def test_model_archive_bytes_are_pinned(fitted, name):
    blob = write_model(fitted[name], name)
    assert _sha(blob) == MODEL_SHAS[name]
    model, backend = read_model(blob)
    assert backend.name == name
    assert write_model(model, name) == blob


@pytest.mark.parametrize("n", sorted(PAYLOAD_SHAS))
def test_generate_payload_bytes_are_pinned(fitted, n):
    synthetic = fitted["doppelganger"].generate(
        n, rng=np.random.default_rng(5))
    blob = dataset_to_bytes(synthetic)
    assert _sha(blob) == PAYLOAD_SHAS[n]
    decoded = dataset_from_bytes(blob)
    assert decoded.schema == synthetic.schema
    for field in ("attributes", "features", "lengths"):
        assert np.array_equal(getattr(decoded, field),
                              getattr(synthetic, field))
    assert dataset_to_bytes(decoded) == blob


def test_saved_dataset_file_is_pinned(small_gcut, tmp_path):
    path = tmp_path / "gcut"
    small_gcut.save(path)
    assert _sha(path.read_bytes()) == DATASET_FILE_SHA
    loaded = TimeSeriesDataset.load(path)
    assert np.array_equal(loaded.features, small_gcut.features)


def test_training_state_file_is_pinned(tmp_path):
    rng = np.random.default_rng(4)
    mlp = MLP(3, [5], 2, rng=np.random.default_rng(1))
    optimizer = Adam(mlp.parameters(), lr=1e-3)
    optimizer.step([rng.normal(size=p.data.shape)
                    for p in mlp.parameters()])
    path = tmp_path / "state.ckpt"
    save_training_state(path, modules={"mlp": mlp},
                        optimizers={"adam": optimizer}, rng=rng,
                        iteration=3,
                        extra_arrays={"d_loss": [0.5, 0.25, 0.125]},
                        extra_meta={"note": "pinned"})
    assert _sha(path.read_bytes()) == TRAINING_STATE_SHA
    state = load_training_state(path)
    assert state.iteration == 3
    assert state.extra_meta == {"note": "pinned"}
    for key, value in mlp.state_dict().items():
        assert np.array_equal(state.module_states["mlp"][key], value)
