"""The one model archive format: one writer, one reader.

A fitted model of every backend saves as one npz archive:

- ``__meta__``: JSON ``{"format": "repro-model", "version": 1,
  "backend": <canonical name>, "schema", "config", "encoder",
  "leaks_training_attributes"}``;
- ``<module>::<param>`` for each parameter of each named module;
- named extra arrays (``sampler::rows``, ``hmm::*``, ``ar::*``,
  ``rnn::*``) for fitted state that lives outside modules.

A model class joins the format with two methods: ``archive_state()``
returns ``(config, modules, extra_arrays)``, where ``config`` is the JSON
dict its constructor is rebuilt from; the classmethod
``from_archive(schema, config, encoder_state, arrays)`` returns a model
with its encoder restored, its extra arrays set and its modules built.
The reader then loads each module's parameters.

:func:`write_model` refuses a model with any non-finite parameter or
extra array, so a diverged model never reaches disk or a registry.
:func:`read_model` also accepts the three formats that preceded this one
(DoppelGANger's untagged archive, DLGAN's ``repro-dlgan`` tag and the
baselines' ``kind`` tag); a frozen translator maps them onto the current
in-memory form, so models already on disk or in a registry keep loading.
Re-saving such a model writes the current format.
"""

from __future__ import annotations

import json

import numpy as np

from repro.backends.base import DEFAULT_BACKEND, GeneratorBackend, get_backend
from repro.data.schema import schema_from_dict, schema_to_dict
from repro.nn.serialization import arrays_to_bytes, bytes_to_arrays

__all__ = ["FORMAT", "VERSION", "write_model", "read_meta", "read_model"]

FORMAT = "repro-model"
VERSION = 1


def write_model(model, backend: str) -> bytes:
    """Serialize a fitted ``model`` of backend ``backend`` to archive bytes.

    Raises :class:`ValueError` naming the module and parameter (or the
    extra array) of the first non-finite value.
    """
    config, modules, extras = model.archive_state()
    meta = {
        "format": FORMAT, "version": VERSION, "backend": backend,
        "schema": schema_to_dict(model.schema), "config": config,
        "encoder": model.encoder.state(),
        "leaks_training_attributes": "sampler::rows" in extras,
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode("utf-8"),
                                        dtype=np.uint8)}
    for prefix, module in modules.items():
        for name, value in module.state_dict().items():
            arrays[f"{prefix}::{name}"] = value
    arrays.update(extras)
    for key, value in arrays.items():
        if key != "__meta__" and not np.isfinite(value).all():
            owner, _, name = key.partition("::")
            raise ValueError(
                f"refusing to save a {backend} model: {owner!r} parameter "
                f"{name!r} holds non-finite values")
    return arrays_to_bytes(arrays)


def read_meta(blob: bytes) -> dict:
    """The current-format ``__meta__`` of any model archive, legacy or not,
    without loading its arrays."""
    return _decode(blob, meta_only=True)[0]


def read_model(blob: bytes, expected: GeneratorBackend | None = None):
    """Decode archive bytes into ``(model, backend)``.

    With ``expected``, an archive of any other backend raises
    :class:`ValueError` naming the expected backend.  Undecodable bytes,
    missing entries and parameter shape mismatches raise
    :class:`ValueError` or :class:`KeyError`.
    """
    meta, arrays = _decode(blob, meta_only=False)
    backend = expected or get_backend(meta["backend"])
    if meta["backend"] != backend.name:
        raise ValueError(
            f"not a {backend.name} ({backend.model_class.__name__}) model "
            f"archive: it holds a {meta['backend']!r} model")
    model = backend.model_class.from_archive(
        schema_from_dict(meta["schema"]), meta["config"], meta["encoder"],
        arrays)
    for prefix, module in model.archive_state()[1].items():
        module.load_state_dict({
            key.split("::", 1)[1]: value for key, value in arrays.items()
            if key.startswith(prefix + "::")})
    return model, backend


def _decode(blob: bytes, meta_only: bool) -> tuple[dict, dict]:
    arrays = bytes_to_arrays(blob,
                             names=("__meta__",) if meta_only else None)
    if "__meta__" not in arrays:
        raise ValueError("not an npz model archive (no __meta__ entry)")
    try:
        meta = json.loads(bytes(arrays.pop("__meta__").tobytes()).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(
            f"model archive has a corrupted __meta__ entry ({exc})") from exc
    if not isinstance(meta, dict):
        raise ValueError("model archive __meta__ is not a JSON object")
    if meta.get("format") == FORMAT:
        if meta.get("version") != VERSION:
            raise ValueError(
                f"model archive version {meta.get('version')!r} is not "
                f"supported (this code reads version {VERSION})")
        return meta, arrays
    return _translate_legacy(meta), arrays


# -- frozen legacy translator ------------------------------------------------
# The formats written before "repro-model".  Their array names already are
# "<module>::<param>" and the extra-array names above, so only __meta__
# needs mapping.  Do not extend: new fields belong to the current format.

#: Baseline ``kind`` tags -> backend names.
_LEGACY_KINDS = {"HMM": "hmm", "AR": "ar", "RNN": "rnn",
                 "Naive GAN": "naive_gan"}


def _translate_legacy(meta: dict) -> dict:
    """Map a pre-``repro-model`` ``__meta__`` onto the current layout."""
    if meta.get("format") == "repro-dlgan":
        backend, config_key = "dlgan", "config"
    elif "kind" in meta:
        backend = _LEGACY_KINDS.get(meta["kind"])
        if backend is None:
            raise ValueError(
                f"unknown baseline kind {meta['kind']!r} in archive")
        # Partial constructor kwargs; the rest take their defaults.
        config_key = "hyper"
    elif "format" not in meta:
        backend, config_key = DEFAULT_BACKEND, "config"
    else:
        raise ValueError(
            f"archive format {meta['format']!r} is not a model format")
    try:
        return {"format": FORMAT, "version": VERSION, "backend": backend,
                "schema": meta["schema"], "config": meta[config_key],
                "encoder": meta["encoder"],
                "leaks_training_attributes": bool(
                    meta.get("leaks_training_attributes", False))}
    except KeyError as exc:
        raise ValueError(
            f"archive __meta__ matches no known model format (no {exc} "
            f"entry; keys: {sorted(meta)})") from exc
