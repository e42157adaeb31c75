"""Module parameters through npz bytes, atomic writes, training state.

Model archives (:mod:`repro.backends.archive`) store module parameters with
``Module.state_dict`` and restore them with ``Module.load_state_dict``,
encoded by :func:`arrays_to_bytes` / :func:`bytes_to_arrays`.
"""

import numpy as np
import pytest

from repro.nn import MLP, Tensor
from repro.nn.serialization import arrays_to_bytes, bytes_to_arrays


def _round_trip(module):
    return bytes_to_arrays(arrays_to_bytes(module.state_dict()))


def test_save_load_roundtrip():
    a = MLP(3, [5], 2, rng=np.random.default_rng(1))
    b = MLP(3, [5], 2, rng=np.random.default_rng(2))
    b.load_state_dict(_round_trip(a))
    x = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
    assert np.array_equal(a(x).data, b(x).data)


def test_load_into_wrong_architecture_raises():
    a = MLP(3, [5], 2, rng=np.random.default_rng(1))
    b = MLP(3, [5, 5], 2, rng=np.random.default_rng(2))
    with pytest.raises(KeyError):
        b.load_state_dict(_round_trip(a))


class TestLoadModuleHardening:
    """Bad bytes and mismatched parameters fail with clear errors."""

    def test_corrupted_archive_raises_clear_value_error(self):
        with pytest.raises(ValueError, match="corrupted"):
            bytes_to_arrays(b"garbage, not a zip archive")

    def test_missing_file_raises_value_error(self):
        with pytest.raises(ValueError, match="missing"):
            bytes_to_arrays(b"")

    def test_shape_mismatch_names_parameter(self):
        a = MLP(3, [5], 2, rng=np.random.default_rng(1))
        b = MLP(3, [7], 2, rng=np.random.default_rng(2))
        # Same parameter names, different hidden width.
        with pytest.raises(ValueError, match="layers.0.weight"):
            b.load_state_dict(_round_trip(a))

    def test_key_mismatch_lists_names(self):
        a = MLP(3, [5], 2, rng=np.random.default_rng(1))
        b = MLP(3, [5, 5], 2, rng=np.random.default_rng(2))
        with pytest.raises(KeyError, match="layers.2"):
            b.load_state_dict(_round_trip(a))

class TestAtomicWrites:
    def test_save_npz_atomic_round_trip(self, tmp_path):
        from repro.nn.serialization import save_npz_atomic
        path = tmp_path / "arrays.npz"
        save_npz_atomic(path, {"x": np.arange(4.0)})
        with np.load(path) as archive:
            assert np.array_equal(archive["x"], np.arange(4.0))
        assert not (tmp_path / "arrays.npz.tmp").exists()

    def test_overwrite_is_atomic(self, tmp_path):
        from repro.nn.serialization import save_npz_atomic
        path = tmp_path / "arrays.npz"
        save_npz_atomic(path, {"x": np.zeros(2)})
        save_npz_atomic(path, {"x": np.ones(2)})
        with np.load(path) as archive:
            assert np.array_equal(archive["x"], np.ones(2))


class TestTrainingStateArchive:
    def _roundtrip(self, tmp_path):
        from repro.nn import Adam
        from repro.nn.serialization import (load_training_state,
                                            save_training_state)
        module = MLP(3, [5], 2, rng=np.random.default_rng(1))
        opt = Adam(module.parameters(), lr=0.01)
        opt.step([np.ones_like(p.data) for p in module.parameters()])
        rng = np.random.default_rng(7)
        rng.normal(size=10)  # advance the stream
        path = tmp_path / "state.npz"
        save_training_state(path, modules={"net": module},
                            optimizers={"opt": opt}, rng=rng,
                            iteration=17,
                            extra_arrays={"trace": np.array([1.5, 2.5])},
                            extra_meta={"note": "hello"})
        return module, opt, rng, load_training_state(path)

    def test_full_round_trip(self, tmp_path):
        module, opt, rng, state = self._roundtrip(tmp_path)
        assert state.iteration == 17
        assert state.extra_meta == {"note": "hello"}
        assert np.array_equal(state.extra_arrays["trace"],
                              [1.5, 2.5])
        for name, value in module.state_dict().items():
            assert np.array_equal(state.module_states["net"][name], value)
        restored = state.optimizer_states["opt"]
        assert restored["t"] == 1
        for a, b in zip(restored["m"], opt._m):
            assert np.array_equal(a, b)

    def test_rng_state_resumes_identical_stream(self, tmp_path):
        _, _, rng, state = self._roundtrip(tmp_path)
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = state.rng_state
        assert np.array_equal(fresh.normal(size=5), rng.normal(size=5))
