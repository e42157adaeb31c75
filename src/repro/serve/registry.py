"""On-disk, versioned, content-addressed model registry.

The paper's release workflow (Figure 2) ends with "the data holder ships
the parameter file"; a serving deployment needs a step between training
and the request path that makes that shipment *named*, *versioned*, and
*tamper-evident*.  The registry is a plain directory::

    ROOT/
      blobs/<sha256>.npz        # content-addressed model archives
      models/<name>.json        # per-model manifest: ordered version list

Design points:

- **Content addressing**: a blob is stored under the sha256 of its
  backend's ``save_bytes`` archive.  Republishing identical bytes is a
  no-op (the latest version is returned), and two names pointing at the
  same parameters share one blob.
- **Backend tags**: every version entry records which generator backend
  (:mod:`repro.backends`) produced the blob, so ``load`` dispatches to
  the right decoder.  Entries written before tags existed default to
  ``doppelganger``.
- **Atomic publish**: blobs and manifests are written through
  :func:`repro.resilience.atomic.write_atomic` (tmp + ``fsync`` +
  ``os.replace``), as checkpoints are, so a crash mid-publish leaves
  either the previous registry state or the new one -- never a torn
  manifest or a half-written blob.
- **Verified loads**: :meth:`ModelRegistry.load` re-hashes the blob and
  refuses to deserialize on mismatch, so disk corruption surfaces as a
  clear :class:`CorruptModelBlob` ("re-publish the model") instead of a
  numpy error deep inside the archive reader -- or worse, silently wrong
  synthetic data.
- **Resolution**: ``name``, ``name@latest``, and ``name@<version>`` all
  resolve through :meth:`ModelRegistry.resolve`; unknown names/versions
  raise :class:`ModelNotFound` listing what exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

from repro.observability import metrics as obs_metrics
from repro.resilience.atomic import canonical_json, write_atomic
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = ["ModelRegistry", "ModelRecord", "RegistryError",
           "ModelNotFound", "CorruptModelBlob"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class RegistryError(ValueError):
    """Base class for registry failures."""


class ModelNotFound(RegistryError):
    """The requested name or version does not exist in the registry."""


class CorruptModelBlob(RegistryError):
    """A stored blob is missing or fails its content-hash check."""


@dataclass(frozen=True, eq=True)
class ModelRecord:
    """One published (name, version) -> blob binding.

    ``backend`` is the generator-backend tag the blob decodes through;
    manifests written before backend tags existed have no entry and
    default to ``doppelganger`` (the only architecture back then).
    """

    name: str
    version: int
    sha256: str
    nbytes: int
    backend: str = "doppelganger"
    meta: dict = field(default_factory=dict, compare=False)
    #: Optional quality/privacy scores (repro.quality.scores_summary).
    #: ``None`` for versions published without evaluation; manifests
    #: written before this field existed have no entry and load as
    #: ``None`` byte-identically.
    scores: dict | None = field(default=None, compare=False)

    @property
    def spec(self) -> str:
        """The canonical ``name@version`` request string."""
        return f"{self.name}@{self.version}"


class ModelRegistry:
    """A directory of published models, safe for concurrent readers.

    Typical use::

        registry = ModelRegistry("registry/")
        record = registry.publish("wwt-dg", model)     # -> wwt-dg@1
        model = registry.load("wwt-dg@latest")
    """

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        os.makedirs(os.path.join(self.root, "blobs"), exist_ok=True)
        os.makedirs(os.path.join(self.root, "models"), exist_ok=True)

    # -- paths ---------------------------------------------------------------
    def _blob_path(self, sha256: str) -> str:
        return os.path.join(self.root, "blobs", f"{sha256}.npz")

    def _manifest_path(self, name: str) -> str:
        return os.path.join(self.root, "models", f"{name}.json")

    # -- manifests -----------------------------------------------------------

    #: Manifest reads ride out a concurrent writer on filesystems where
    #: ``os.replace`` is not atomic (network mounts) with a short,
    #: deterministic retry; a genuinely corrupt manifest still fails in
    #: well under a tenth of a second.
    _MANIFEST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01,
                                  multiplier=2.0, max_delay=0.05)

    def _read_manifest(self, name: str) -> dict | None:
        def read() -> dict | None:
            try:
                with open(self._manifest_path(name),
                          encoding="utf-8") as fh:
                    return json.load(fh)
            except FileNotFoundError:
                return None  # unpublished name: not retryable

        try:
            manifest = retry_call(read, retry_on=(OSError, ValueError),
                                  policy=self._MANIFEST_RETRY)
        except (OSError, ValueError) as exc:
            raise RegistryError(
                f"manifest for model {name!r} in registry {self.root!r} is "
                f"unreadable or corrupt ({exc}); restore it or re-publish "
                f"the model under a new name") from exc
        if manifest is None:
            return None
        if not isinstance(manifest.get("versions"), list):
            raise RegistryError(
                f"manifest for model {name!r} in registry {self.root!r} "
                f"has no version list; restore it or re-publish")
        return manifest

    def _record(self, name: str, entry: dict) -> ModelRecord:
        scores = entry.get("scores")
        return ModelRecord(name=name, version=int(entry["version"]),
                           sha256=str(entry["sha256"]),
                           nbytes=int(entry["nbytes"]),
                           backend=str(entry.get("backend",
                                                 "doppelganger")),
                           meta=dict(entry.get("meta", {})),
                           scores=(dict(scores)
                                   if isinstance(scores, dict) else None))

    # -- publishing ----------------------------------------------------------
    def publish(self, name: str, model, meta: dict | None = None,
                backend: str | None = None,
                scores: dict | None = None) -> ModelRecord:
        """Publish ``model`` (a fitted model of any registered backend,
        or raw archive bytes).

        Returns the new :class:`ModelRecord` -- or the existing latest
        record when the bytes are identical to it (idempotent
        republish).  ``meta`` is an optional JSON-serializable dict
        stored alongside the version entry.  ``backend`` pins the
        backend tag explicitly; by default it is inferred from the model
        object (or sniffed from raw bytes, falling back to the default
        tag for opaque blobs -- undecodable bytes then surface at
        :meth:`load` time, not here).  ``scores`` is an optional
        quality/privacy summary (:func:`repro.quality.scores_summary`);
        versions published without one carry no ``scores`` key at all,
        so unscored manifests stay byte-identical to pre-scores ones.
        An idempotent republish of identical bytes *with* scores
        attaches them to the existing latest version.
        """
        from repro.backends import (DEFAULT_BACKEND, backend_for_model,
                                    get_backend, sniff_backend)

        if not _NAME_RE.match(name):
            raise RegistryError(
                f"invalid model name {name!r}: use letters, digits, "
                f"'.', '_', '-' (must not start with a separator)")
        if isinstance(model, (bytes, bytearray)):
            blob = bytes(model)
            if backend is None:
                try:
                    backend = sniff_backend(blob)
                except ValueError:
                    backend = DEFAULT_BACKEND
        else:
            model_backend = (get_backend(backend) if backend is not None
                             else backend_for_model(model))
            backend = model_backend.name
            blob = model_backend.save_bytes(model)
        backend = get_backend(backend).name  # normalize aliases
        sha256 = hashlib.sha256(blob).hexdigest()

        manifest = self._read_manifest(name) or {"name": name,
                                                 "versions": []}
        versions = manifest["versions"]
        if versions and versions[-1]["sha256"] == sha256:
            if scores is not None:
                versions[-1]["scores"] = dict(scores)
                self._write_manifest(name, manifest)
                obs_metrics.counter("registry.attach_scores").inc()
            return self._record(name, versions[-1])

        blob_path = self._blob_path(sha256)
        if not os.path.exists(blob_path):
            write_atomic(blob_path, blob)
        entry = {
            "version": (int(versions[-1]["version"]) + 1 if versions
                        else 1),
            "sha256": sha256,
            "nbytes": len(blob),
            "backend": backend,
            "meta": dict(meta or {}),
        }
        if scores is not None:
            entry["scores"] = dict(scores)
        versions.append(entry)
        self._write_manifest(name, manifest)
        obs_metrics.counter("registry.publish").inc()
        return self._record(name, entry)

    def _write_manifest(self, name: str, manifest: dict) -> None:
        write_atomic(self._manifest_path(name),
                     canonical_json(manifest).encode("utf-8"))

    def attach_scores(self, spec: str | ModelRecord,
                      scores: dict) -> ModelRecord:
        """Attach (or replace) the ``scores`` dict of one version.

        Evaluation happens after publishing (the job worker publishes
        first, then scores), so the manifest rewrite is atomic and
        leaves every other key of the entry untouched -- including
        unknown keys written by newer code.
        """
        record = spec if isinstance(spec, ModelRecord) \
            else self.resolve(spec)
        manifest = self._read_manifest(record.name)
        if manifest is None:
            raise ModelNotFound(
                f"no model named {record.name!r} in registry "
                f"{self.root!r}")
        for entry in manifest["versions"]:
            if int(entry["version"]) == record.version:
                entry["scores"] = dict(scores)
                self._write_manifest(record.name, manifest)
                obs_metrics.counter("registry.attach_scores").inc()
                return self._record(record.name, entry)
        raise ModelNotFound(
            f"model {record.name!r} has no version {record.version}")

    # -- resolution and loading ----------------------------------------------
    def resolve(self, spec: str) -> ModelRecord:
        """Resolve ``name``, ``name@latest``, or ``name@<version>``."""
        name, _, version = str(spec).partition("@")
        manifest = self._read_manifest(name)
        if manifest is None or not manifest["versions"]:
            known = ", ".join(self.models()) or "<empty registry>"
            raise ModelNotFound(
                f"no model named {name!r} in registry {self.root!r} "
                f"(published models: {known})")
        versions = manifest["versions"]
        if version in ("", "latest"):
            return self._record(name, versions[-1])
        try:
            wanted = int(version)
        except ValueError:
            raise ModelNotFound(
                f"bad version {version!r} in spec {spec!r}: use an "
                f"integer or 'latest'") from None
        for entry in versions:
            if int(entry["version"]) == wanted:
                return self._record(name, entry)
        available = [int(e["version"]) for e in versions]
        raise ModelNotFound(
            f"model {name!r} has no version {wanted} "
            f"(available: {available})")

    def open_bytes(self, record: ModelRecord) -> bytes:
        """Read and hash-verify the blob behind ``record``."""
        path = self._blob_path(record.sha256)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CorruptModelBlob(
                f"blob for {record.spec} is missing from {path!r} ({exc}); "
                f"the registry is damaged -- re-publish the model") from exc
        actual = hashlib.sha256(blob).hexdigest()
        if actual != record.sha256:
            raise CorruptModelBlob(
                f"blob for {record.spec} fails its content check "
                f"(expected sha256 {record.sha256[:12]}..., file hashes "
                f"to {actual[:12]}...); the file was corrupted on disk -- "
                f"re-publish the model")
        return blob

    def load(self, spec: str | ModelRecord):
        """Load the model behind ``spec`` (hash-verified).

        The archive is decoded through the backend named by the
        record's tag; archives published before backend tags existed
        decode as DoppelGANger.  An unregistered tag raises
        :class:`RegistryError` naming it, a tagged blob that fails to
        decode raises :class:`CorruptModelBlob`.
        """
        from repro.backends import UnknownBackend, get_backend

        record = spec if isinstance(spec, ModelRecord) \
            else self.resolve(spec)
        blob = self.open_bytes(record)
        try:
            backend = get_backend(record.backend)
        except UnknownBackend as exc:
            raise RegistryError(
                f"model {record.spec} is tagged with backend "
                f"{record.backend!r}, which is not registered in this "
                f"process ({exc}); install/register that backend or "
                f"re-publish the model from a supported one") from exc
        try:
            model = backend.load_bytes(blob)
        except (ValueError, KeyError) as exc:
            raise CorruptModelBlob(
                f"blob for {record.spec} (backend {record.backend!r}) "
                f"passes its hash check but does not decode as a model "
                f"({exc}); it was published from a bad archive -- "
                f"re-publish the model") from exc
        obs_metrics.counter("registry.load").inc()
        return model

    # -- listing -------------------------------------------------------------
    def models(self) -> list[str]:
        """Published model names, sorted."""
        names = []
        directory = os.path.join(self.root, "models")
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".json"):
                names.append(entry[:-len(".json")])
        return names

    def versions(self, name: str) -> list[ModelRecord]:
        """All records of ``name``, oldest first."""
        manifest = self._read_manifest(name)
        if manifest is None:
            raise ModelNotFound(
                f"no model named {name!r} in registry {self.root!r}")
        return [self._record(name, entry)
                for entry in manifest["versions"]]
