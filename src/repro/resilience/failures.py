"""Structured failure records for multi-model sweeps.

A benchmark sweep trains many (dataset, model) pairs; one diverging model
must not abort the other nineteen.  The harness catches per-model failures
into :class:`FailureRecord` instances and keeps going; the report layer
renders them as a summary table instead of a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FailureRecord"]


@dataclass
class FailureRecord:
    """One model that failed to train during a sweep.

    Args:
        dataset: Dataset name the model was being trained on.
        model: Model name (harness key, e.g. ``"dg"``).
        exception_type: Class name of the exception that escaped ``fit``.
        message: ``str(exception)``.
        iteration: Last iteration recorded before the failure, if the
            model exposes a training history (``None`` otherwise).
        retries: Sentinel rollback count before the run was abandoned.
        elapsed: Wall-clock seconds spent before the failure.
    """

    dataset: str
    model: str
    exception_type: str
    message: str
    iteration: int | None = None
    retries: int = 0
    elapsed: float = 0.0

    @classmethod
    def from_exception(cls, dataset: str, model_name: str, exc: Exception,
                       model=None, elapsed: float = 0.0) -> "FailureRecord":
        """Build a record from an exception, mining the model's partial
        training history (iteration reached, rollback count) when present."""
        iteration = getattr(exc, "iteration", None)
        retries = getattr(exc, "rollbacks", 0)
        history = getattr(model, "history", None)
        if history is not None:
            if iteration is None and history.iterations:
                iteration = history.iterations[-1]
            retries = max(retries, getattr(history, "rollbacks", 0))
        return cls(dataset=dataset, model=model_name,
                   exception_type=type(exc).__name__,
                   message=str(exc), iteration=iteration,
                   retries=retries, elapsed=elapsed)

    def row(self) -> list:
        """Render as a row for :func:`repro.experiments.print_table`."""
        return [self.dataset, self.model, self.exception_type,
                "-" if self.iteration is None else self.iteration,
                self.retries,
                self.message if len(self.message) <= 60
                else self.message[:57] + "..."]
