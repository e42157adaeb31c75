"""Sweep reports: deterministic markdown, digests, failures and timings.

A multi-model sweep renders as markdown that is a pure function of its
trained models and failure records (:func:`render_sweep_report`), with
run-dependent timings kept apart (:func:`timing_summary`).  Scoring one
model's synthetic data against the real data is
:class:`repro.quality.QualityReport`.
"""

from __future__ import annotations

import numpy as np

from repro.observability.report import render_run_report
from repro.resilience.failures import FailureRecord

__all__ = ["failure_summary", "timing_summary", "sweep_digest",
           "render_sweep_report", "render_run_report"]


def failure_summary(failures: list[FailureRecord],
                    title: str = "Sweep failures") -> str:
    """Render sweep failures as a markdown summary table.

    A multi-model comparison where one model diverged should report that
    divergence alongside the surviving results -- not die with the failed
    model's traceback.  Returns an empty string when nothing failed.
    """
    if not failures:
        return ""
    lines = [f"# {title}", "",
             f"{len(failures)} of the sweep's models failed to train; the "
             "remaining models completed normally.", "",
             "| dataset | model | exception | iteration | retries | "
             "message |",
             "|---|---|---|---|---|---|"]
    for f in failures:
        iteration = "-" if f.iteration is None else str(f.iteration)
        message = f.message if len(f.message) <= 60 \
            else f.message[:57] + "..."
        lines.append(f"| {f.dataset} | {f.model} | {f.exception_type} | "
                     f"{iteration} | {f.retries} | {message} |")
    lines.append("")
    return "\n".join(lines)


def _cell_label(key) -> str:
    """Render a sweep-result key (tuple or string) as ``a/b[/c]``."""
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def timing_summary(timings: dict, title: str = "Sweep timings") -> str:
    """Render per-cell wall/CPU timings as a markdown table.

    Timings are measured in whichever process ran the cell (worker or
    parent), so this table is inherently run-dependent -- keep it out of
    files that are compared byte-for-byte across runs (use
    :func:`render_sweep_report` for those) and print it to stdout instead.
    Returns an empty string when there are no timings.
    """
    if not timings:
        return ""
    lines = [f"# {title}", "",
             "| cell | status | wall (s) | cpu (s) | pid |",
             "|---|---|---|---|---|"]
    total_wall = 0.0
    for key in sorted(timings, key=_cell_label):
        t = timings[key]
        status = "failed" if t.failed else ("cached" if t.cached else "ok")
        lines.append(f"| {_cell_label(key)} | {status} | {t.wall:.2f} | "
                     f"{t.cpu:.2f} | {t.pid} |")
        total_wall += t.wall
    lines += ["", f"Total cell wall time: {total_wall:.2f}s "
                  f"({len(timings)} cells)", ""]
    return "\n".join(lines)


def sweep_digest(models: dict, n: int = 16, seed: int = 0) -> dict[str, str]:
    """Deterministic per-cell fingerprints of a sweep's trained models.

    Each model generates ``n`` objects from a fresh ``default_rng(seed)``
    and the resulting arrays are hashed, so two sweeps trained the same
    way -- serial or parallel, any worker count -- produce byte-identical
    digests.  This is the identity check behind the CI parallel smoke
    step (see docs/architecture.md, "Parallel execution").
    """
    import hashlib

    digests: dict[str, str] = {}
    for key in sorted(models, key=_cell_label):
        synthetic = models[key].generate(n, rng=np.random.default_rng(seed))
        hasher = hashlib.sha256()
        for array in (synthetic.features, synthetic.attributes,
                      synthetic.lengths):
            arr = np.ascontiguousarray(array)
            hasher.update(str(arr.dtype).encode())
            hasher.update(str(arr.shape).encode())
            hasher.update(arr.tobytes())
        digests[_cell_label(key)] = hasher.hexdigest()
    return digests


def render_sweep_report(result, n: int = 16, seed: int = 0,
                        title: str = "Sweep report") -> str:
    """Render a sweep as deterministic markdown: quality ranking (when
    the sweep ran with ``quality=``), digests, and failures.

    Everything in the output is a pure function of the trained models and
    the failure records -- no timestamps, timings, or process ids -- so a
    serial and a parallel run of the same sweep produce byte-identical
    files (the property CI asserts with ``cmp``).
    """
    lines = [f"# {title}", "",
             f"- cells trained: {len(result.models)}",
             f"- cells failed: {len(result.failures)}", ""]
    quality = getattr(result, "quality", None)
    if quality:
        ranked = sorted(quality,
                        key=lambda k: (-quality[k].overall,
                                       _cell_label(k)))
        lines += ["## Quality ranking", "",
                  "| rank | cell | overall | properties |",
                  "|---|---|---|---|"]
        for rank, key in enumerate(ranked, start=1):
            report = quality[key]
            breakdown = " ".join(
                f"{p.name}={p.score:.3f}" for p in report.properties)
            lines.append(f"| {rank} | {_cell_label(key)} | "
                         f"{report.overall:.4f} | {breakdown} |")
        lines.append("")
    digests = sweep_digest(result.models, n=n, seed=seed)
    if digests:
        lines += [f"## Generation digests (n={n}, seed={seed})", "",
                  "| cell | sha256 |", "|---|---|"]
        lines += [f"| {label} | {digest} |"
                  for label, digest in digests.items()]
        lines.append("")
    failures = failure_summary(result.failures)
    if failures:
        lines.append(failures)
    return "\n".join(lines)

