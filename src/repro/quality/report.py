"""One-call scored quality report (ROADMAP item 3, SDMetrics style).

The paper evaluates synthetic data along many independent axes -- marginal
distributions (Tables 3, Figures 20-23), temporal correlations (Figure 1),
session lengths (Figure 7), attribute-feature joints (Table 3 / Figure 9),
diversity / mode coverage (Figures 5, 8), memorization (Figures 24-26),
and downstream-task transfer (Figures 10-11, 27).  A data holder deciding
whether a model is good enough to release needs all of them at once, on a
common scale.  :class:`QualityReport` computes every applicable property
as a score in ``[0, 1]`` (1 = indistinguishable from real), rolls them
into one overall score, and exports canonical JSON plus rendered markdown
under the same determinism discipline as
:func:`repro.observability.report.render_run_report`:

- every number is a pure function of ``(real, synthetic, holdout, seed)``
  -- no timestamps, no process ids;
- section wall times are measured but kept in the volatile
  :attr:`QualityReport.timings` side channel, excluded from
  :meth:`to_dict` / :meth:`to_json` / :meth:`render_markdown`;
- two runs of the same inputs produce byte-identical JSON and markdown,
  at any worker count -- the property CI asserts with ``cmp``.

Score mappings (see docs/quality.md for the full definitions):

- continuous marginals: ``1 / (1 + W1 / std_real)``;
- categorical marginals: ``1 - JSD`` (JSD is base-2, already in [0, 1]);
- autocorrelation: ``max(0, 1 - ACF_MSE)``;
- lengths: ``max(0, 1 - W1 / max_length)``;
- attribute-feature joints: ``1 / (1 + macro_W1 / std_real_stat)``;
- cross-correlation: ``max(0, 1 - error / 2)``;
- diversity: ``min(real, syn) / max(real, syn)`` per feature plus the
  covered-category fraction per attribute;
- memorization (needs ``holdout``): ``min(1, NN-distance ratio)``;
- downstream transfer: clamped TSTR / TRTR score ratio.

Properties whose inputs are degenerate (e.g. a constant feature, too few
samples per category) are skipped with a note instead of poisoning the
mean with NaN.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from repro.data.dataset import TimeSeriesDataset, padding_mask
from repro.metrics import (autocorrelation_mse, average_autocorrelation,
                           categorical_jsd, conditional_w1,
                           cross_correlation_error, diversity_score,
                           memorization_ratio, mode_coverage,
                           normalise_rows, per_object_statistic,
                           wasserstein1)
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.parallel.pool import mp_context, start_method
from repro.resilience.atomic import canonical_json

__all__ = ["QualityReport", "PropertyScore", "clamp01"]

#: Bump when the exported JSON layout changes shape.
SCHEMA_VERSION = 1


def clamp01(value: float) -> float:
    """Clamp a raw metric mapping into the [0, 1] score range."""
    return float(min(max(value, 0.0), 1.0))


class PropertyScore:
    """One scored property: a name, a [0, 1] score, and its raw details."""

    def __init__(self, name: str, score: float, details: dict):
        self.name = name
        self.score = float(score)
        self.details = details

    def to_dict(self) -> dict:
        return {"name": self.name, "score": self.score,
                "details": self.details}


def _valid_values(dataset: TimeSeriesDataset, feature: str) -> np.ndarray:
    """Flattened feature values over valid (unpadded) timesteps."""
    column = dataset.feature_column(feature)
    mask = padding_mask(dataset.lengths, dataset.schema.max_length)
    return column[mask > 0]


def _sanitize(value):
    """Make a value canonical-JSON-safe: tuples -> lists, NaN -> None."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if (value != value or value in (float("inf"),
                                                    float("-inf"))) \
            else value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


class QualityReport:
    """Scored comparison of a synthetic dataset against the real one.

    Args:
        real: The dataset the model was trained on (or should match).
        synthetic: Generated data to evaluate, same schema.
        holdout: Optional real data *not* used for training; enables the
            memorization property.
        seed: Seed for the downstream predictors (and recorded in the
            export so reports are comparable).
        downstream: Compute the train-on-synthetic/test-on-real transfer
            property (the most expensive section; sweeps disable it by
            default).
        mlp_iterations: Iteration budget of the downstream MLPs.
        max_lag: ACF horizon (defaults to half the series length).
    """

    def __init__(self, real: TimeSeriesDataset,
                 synthetic: TimeSeriesDataset, *,
                 holdout: TimeSeriesDataset | None = None, seed: int = 0,
                 downstream: bool = True, mlp_iterations: int = 300,
                 max_lag: int | None = None):
        if real.schema != synthetic.schema:
            raise ValueError("real and synthetic schemas differ")
        if holdout is not None and holdout.schema != real.schema:
            raise ValueError("holdout schema differs from real")
        self.seed = int(seed)
        self.n_real = len(real)
        self.n_synthetic = len(synthetic)
        self.n_holdout = None if holdout is None else len(holdout)
        self.properties: list[PropertyScore] = []
        self.skipped: list[dict] = []
        #: Volatile wall time per section -- never part of the canonical
        #: exports (perfbench's traced ``quality.downstream_ms`` reads it).
        self.timings: dict[str, float] = {}

        sections = [
            ("feature_marginals", self._feature_marginals),
            ("attribute_marginals", self._attribute_marginals),
            ("autocorrelation", self._autocorrelation),
            ("lengths", self._lengths),
            ("attribute_feature_joints", self._joints),
            ("cross_correlation", self._cross_correlation),
            ("diversity", self._diversity),
            ("memorization", self._memorization),
            ("downstream", self._downstream),
        ]
        args = {"real": real, "synthetic": synthetic, "holdout": holdout,
                "downstream": downstream,
                "mlp_iterations": int(mlp_iterations),
                "max_lag": max_lag or max(real.schema.max_length // 2, 1)}
        for name, section in sections:
            started = time.perf_counter()
            outcome = section(args)
            self.timings[name] = time.perf_counter() - started
            if outcome is None:
                continue
            if isinstance(outcome, PropertyScore):
                self.properties.append(outcome)
            else:  # a skip note
                self.skipped.append({"name": name, "reason": outcome})
        obs_metrics.counter("quality.reports").inc()
        obs_events.emit(
            "quality.report",
            {"n_real": self.n_real, "n_synthetic": self.n_synthetic,
             "overall": self.overall,
             "properties": [p.name for p in self.properties]},
            volatile={"timings": dict(self.timings)})

    # -- aggregate -----------------------------------------------------------
    @property
    def overall(self) -> float:
        """Mean of the property scores that were computable."""
        if not self.properties:
            return 0.0
        return float(np.mean([p.score for p in self.properties]))

    def property_scores(self) -> dict[str, float]:
        return {p.name: p.score for p in self.properties}

    # -- sections ------------------------------------------------------------
    def _feature_marginals(self, args):
        real, synthetic = args["real"], args["synthetic"]
        per_feature: dict[str, dict] = {}
        scores = []
        for spec in real.schema.features:
            values_r = _valid_values(real, spec.name)
            values_s = _valid_values(synthetic, spec.name)
            if spec.is_categorical:
                jsd = categorical_jsd(values_r.astype(np.int64),
                                      values_s.astype(np.int64),
                                      spec.dimension)
                score = clamp01(1.0 - jsd)
                per_feature[spec.name] = {"jsd": float(jsd),
                                          "score": score}
            else:
                w1 = wasserstein1(values_r, values_s)
                scale = float(values_r.std())
                if scale <= 0:
                    scale = max(abs(float(values_r.mean())), 1.0)
                score = clamp01(1.0 / (1.0 + w1 / scale))
                per_feature[spec.name] = {"w1": float(w1),
                                          "scale": scale, "score": score}
            scores.append(score)
        if not scores:
            return "dataset has no features"
        return PropertyScore("feature_marginals", float(np.mean(scores)),
                             {"per_feature": per_feature})

    def _attribute_marginals(self, args):
        real, synthetic = args["real"], args["synthetic"]
        per_attribute: dict[str, dict] = {}
        scores = []
        for spec in real.schema.attributes:
            values_r = real.attribute_column(spec.name)
            values_s = synthetic.attribute_column(spec.name)
            if spec.is_categorical:
                jsd = categorical_jsd(values_r.astype(np.int64),
                                      values_s.astype(np.int64),
                                      spec.dimension)
                score = clamp01(1.0 - jsd)
                per_attribute[spec.name] = {"jsd": float(jsd),
                                            "score": score}
            else:
                w1 = wasserstein1(values_r, values_s)
                scale = float(values_r.std())
                if scale <= 0:
                    scale = max(abs(float(values_r.mean())), 1.0)
                score = clamp01(1.0 / (1.0 + w1 / scale))
                per_attribute[spec.name] = {"w1": float(w1),
                                            "scale": scale,
                                            "score": score}
            scores.append(score)
        if not scores:
            return "dataset has no attributes"
        return PropertyScore("attribute_marginals", float(np.mean(scores)),
                             {"per_attribute": per_attribute})

    def _autocorrelation(self, args):
        real, synthetic = args["real"], args["synthetic"]
        per_feature: dict[str, dict] = {}
        scores = []
        for spec in real.schema.features:
            if spec.is_categorical:
                continue
            acf_r = average_autocorrelation(real.feature_column(spec.name),
                                            real.lengths,
                                            max_lag=args["max_lag"])
            acf_s = average_autocorrelation(
                synthetic.feature_column(spec.name), synthetic.lengths,
                max_lag=args["max_lag"])
            try:
                mse = autocorrelation_mse(acf_r, acf_s)
            except ValueError:
                continue
            if mse != mse:  # NaN: constant series on one side
                continue
            score = clamp01(1.0 - mse)
            per_feature[spec.name] = {"acf_mse": float(mse),
                                      "score": score}
            scores.append(score)
        if not scores:
            return "no continuous feature has a defined autocorrelation"
        return PropertyScore("autocorrelation", float(np.mean(scores)),
                             {"per_feature": per_feature})

    def _lengths(self, args):
        real, synthetic = args["real"], args["synthetic"]
        w1 = wasserstein1(real.lengths.astype(np.float64),
                          synthetic.lengths.astype(np.float64))
        score = clamp01(1.0 - w1 / real.schema.max_length)
        return PropertyScore("lengths",
                             score, {"w1": float(w1),
                                     "max_length": real.schema.max_length})

    def _joints(self, args):
        real, synthetic = args["real"], args["synthetic"]
        per_pair: dict[str, dict] = {}
        scores = []
        for attr in real.schema.attributes:
            if not attr.is_categorical:
                continue
            for feat in real.schema.features:
                if feat.is_categorical:
                    continue
                cond = conditional_w1(real, synthetic, attr.name,
                                      feat.name, statistic="sum")
                macro = cond["__macro__"]
                if macro != macro:  # NaN: no category had enough samples
                    continue
                stat = per_object_statistic(real, feat.name, "sum")
                scale = float(stat.std())
                if scale <= 0:
                    scale = max(abs(float(stat.mean())), 1.0)
                score = clamp01(1.0 / (1.0 + macro / scale))
                per_pair[f"{attr.name}|{feat.name}"] = {
                    "macro_w1": float(macro), "scale": scale,
                    "score": score}
                scores.append(score)
        if not scores:
            return ("no categorical-attribute x continuous-feature pair "
                    "has enough samples per category")
        return PropertyScore("attribute_feature_joints",
                             float(np.mean(scores)),
                             {"per_pair": per_pair})

    def _cross_correlation(self, args):
        real, synthetic = args["real"], args["synthetic"]
        continuous = [f for f in real.schema.features
                      if not f.is_categorical]
        if len(continuous) < 2:
            return None  # single-feature datasets: nothing to correlate
        try:
            error = cross_correlation_error(real, synthetic)
        except ValueError as exc:
            return str(exc)
        score = clamp01(1.0 - error / 2.0)
        return PropertyScore("cross_correlation", score,
                             {"error": float(error)})

    def _diversity(self, args):
        real, synthetic = args["real"], args["synthetic"]
        details: dict[str, dict] = {}
        scores = []
        for spec in real.schema.features:
            if spec.is_categorical:
                continue
            div_r = diversity_score(real.feature_column(spec.name))
            div_s = diversity_score(synthetic.feature_column(spec.name))
            top = max(div_r, div_s)
            score = clamp01(min(div_r, div_s) / top) if top > 0 else 1.0
            details[f"feature:{spec.name}"] = {
                "real": float(div_r), "synthetic": float(div_s),
                "score": score}
            scores.append(score)
        for spec in real.schema.attributes:
            if not spec.is_categorical:
                continue
            covered = mode_coverage(
                real.attribute_column(spec.name).astype(np.int64),
                synthetic.attribute_column(spec.name).astype(np.int64),
                spec.dimension)
            score = clamp01(covered / spec.dimension)
            details[f"attribute:{spec.name}"] = {
                "covered": int(covered), "categories": spec.dimension,
                "score": score}
            scores.append(score)
        if not scores:
            return "no continuous features or categorical attributes"
        return PropertyScore("diversity", float(np.mean(scores)), details)

    def _memorization(self, args):
        real, synthetic, holdout = (args["real"], args["synthetic"],
                                    args["holdout"])
        if holdout is None:
            return None  # needs held-out real data; silently inapplicable
        per_feature: dict[str, dict] = {}
        scores = []
        for spec in real.schema.features:
            if spec.is_categorical:
                continue
            ratio = memorization_ratio(
                normalise_rows(synthetic.feature_column(spec.name)),
                normalise_rows(real.feature_column(spec.name)),
                normalise_rows(holdout.feature_column(spec.name)))
            score = clamp01(ratio)
            per_feature[spec.name] = {"ratio": float(ratio),
                                      "score": score}
            scores.append(score)
        if not scores:
            return "no continuous features to check for memorization"
        return PropertyScore("memorization", float(np.mean(scores)),
                             {"per_feature": per_feature})

    def _downstream(self, args):
        if not args["downstream"]:
            return None  # disabled by the caller (sweep default)
        real, synthetic, holdout = (args["real"], args["synthetic"],
                                    args["holdout"])
        test = holdout if holdout is not None else real
        categorical = [a for a in real.schema.attributes
                       if a.is_categorical]
        if categorical:
            return self._downstream_classification(
                real, synthetic, test, categorical[0].name,
                args["mlp_iterations"])
        continuous = [f for f in real.schema.features
                      if not f.is_categorical]
        if not continuous:
            return "no categorical attribute or continuous feature"
        return self._downstream_regression(real, synthetic, test,
                                           continuous[0].name,
                                           args["mlp_iterations"])

    def _downstream_classification(self, real, synthetic, test,
                                   attribute, mlp_iterations):
        from repro.downstream import (accuracy, default_classifiers,
                                      event_prediction_features)

        def featurize(dataset):
            return event_prediction_features(dataset, attribute=attribute)

        x_real, y_real = featurize(real)
        x_syn, y_syn = featurize(synthetic)
        x_test, y_test = featurize(test)
        if len(np.unique(y_syn)) < 2 or len(np.unique(y_real)) < 2:
            return (f"attribute {attribute!r} has fewer than two classes "
                    f"in the training data")
        models = default_classifiers(seed=self.seed,
                                     mlp_iterations=mlp_iterations)
        tstr, trtr = _tstr_and_trtr(
            (models, x_syn, y_syn, x_test, y_test, accuracy),
            (default_classifiers(seed=self.seed,
                                 mlp_iterations=mlp_iterations),
             x_real, y_real, x_test, y_test, accuracy))
        per_model = {model.name: {"tstr": float(syn), "trtr": float(rel)}
                     for model, syn, rel in zip(models, tstr, trtr)}
        return self._transfer_score("classification", attribute,
                                    float(np.mean(tstr)),
                                    float(np.mean(trtr)), per_model)

    def _downstream_regression(self, real, synthetic, test, feature,
                               mlp_iterations):
        from repro.downstream import default_regressors, forecasting_arrays

        history = max(real.schema.max_length // 2, 1)
        horizon = max(real.schema.max_length - history, 1)

        def featurize(dataset):
            return forecasting_arrays(dataset, feature, history, horizon)

        x_real, y_real = featurize(real)
        x_syn, y_syn = featurize(synthetic)
        x_test, y_test = featurize(test)
        models = default_regressors(seed=self.seed,
                                    mlp_iterations=mlp_iterations)
        tstr, trtr = _tstr_and_trtr(
            (models, x_syn, y_syn, x_test, y_test, _r2),
            (default_regressors(seed=self.seed,
                                mlp_iterations=mlp_iterations),
             x_real, y_real, x_test, y_test, _r2))
        per_model = {model.name: {"tstr": float(syn), "trtr": float(rel)}
                     for model, syn, rel in zip(models, tstr, trtr)}
        return self._transfer_score(
            "regression", feature,
            float(np.mean([clamp01(r2) for r2 in tstr])),
            float(np.mean([clamp01(r2) for r2 in trtr])), per_model)

    def _transfer_score(self, task, target, tstr, trtr, per_model):
        # TRTR at or below zero means even real data can't solve the
        # task; synthetic data can't be blamed, so score 1 by convention.
        score = 1.0 if trtr <= 0 else clamp01(clamp01(tstr) / trtr)
        return PropertyScore("downstream", score,
                             {"task": task, "target": target,
                              "tstr": tstr, "trtr": trtr,
                              "per_model": per_model})

    # -- canonical exports ---------------------------------------------------
    def to_dict(self) -> dict:
        """Deterministic, JSON-safe dict (no timings, no NaN/Inf)."""
        return _sanitize({
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "n_real": self.n_real,
            "n_synthetic": self.n_synthetic,
            "n_holdout": self.n_holdout,
            "overall": self.overall,
            "properties": [p.to_dict() for p in self.properties],
            "skipped": list(self.skipped),
        })

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, two-space indent, trailing \\n."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "QualityReport":
        """Rehydrate a persisted report without recomputing anything."""
        report = object.__new__(cls)
        report.seed = int(data.get("seed", 0))
        report.n_real = int(data.get("n_real", 0))
        report.n_synthetic = int(data.get("n_synthetic", 0))
        report.n_holdout = data.get("n_holdout")
        report.properties = [
            PropertyScore(p["name"], p["score"], dict(p.get("details", {})))
            for p in data.get("properties", [])]
        report.skipped = [dict(s) for s in data.get("skipped", [])]
        report.timings = {}
        return report

    def render_markdown(self, title: str = "Quality report") -> str:
        """Deterministic markdown card (same discipline as JSON)."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        lines = [f"# {title}", "",
                 f"- real objects: {self.n_real}",
                 f"- synthetic objects: {self.n_synthetic}"]
        if self.n_holdout is not None:
            lines.append(f"- holdout objects: {self.n_holdout}")
        lines += [f"- seed: {self.seed}", "",
                  f"**Overall score: {self.overall:.4f}** "
                  f"(mean of {len(self.properties)} properties)", "",
                  "| property | score |", "|---|---|"]
        lines += [f"| {p.name} | {p.score:.4f} |"
                  for p in self.properties]
        lines.append("")
        for prop in self.properties:
            lines += [f"## {prop.name} ({prop.score:.4f})", ""]
            rows = _detail_rows(prop.details)
            if rows:
                lines += ["| key | value |", "|---|---|"]
                lines += [f"| {key} | {fmt(value)} |"
                          for key, value in rows]
                lines.append("")
        if self.skipped:
            lines += ["## Skipped properties", ""]
            lines += [f"- {s['name']}: {s['reason']}"
                      for s in self.skipped]
            lines.append("")
        return "\n".join(lines)


# -- the downstream suites ---------------------------------------------------

def _suite_scores(models, x_train, y_train, x_test, y_test,
                  score) -> np.ndarray:
    """Fit every model of one downstream suite on the training side and
    score it on the test side: a float64 vector in suite order."""
    return np.array([score(model.fit(x_train, y_train), x_test, y_test)
                     for model in models], dtype=np.float64)


def _r2(model, x, y) -> float:
    from repro.downstream import r2_score
    return r2_score(y, model.predict(x))


def _side_by_side() -> bool:
    """Whether the TRTR suite may fit in a forked child next to TSTR."""
    if start_method() != "fork" or multiprocessing.current_process().daemon:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _suite_child(send, suite_args) -> None:
    try:
        reply = b"V" + _suite_scores(*suite_args).tobytes()
    except Exception as exc:
        reply = b"E" + f"{type(exc).__name__}: {exc}".encode()
    send.send_bytes(reply)
    send.close()


def _tstr_and_trtr(tstr_args, trtr_args) -> tuple[np.ndarray, np.ndarray]:
    """The TSTR and TRTR score vectors of :func:`_suite_scores`.

    The TRTR suite fits in one forked child while this process fits the
    TSTR suite; a one-way pipe carries back the vector's bytes or the
    child's error text (no pickle, and the child emits no telemetry).
    Each suite's models seed themselves and share no state, so the
    vectors are the bytes an inline run gives.  Both suites run inline,
    TSTR first, when the start method is not ``fork``, the process may
    use fewer than two CPUs, or it is daemonic (it may not have
    children).
    """
    if not _side_by_side():
        return _suite_scores(*tstr_args), _suite_scores(*trtr_args)
    context = mp_context()
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_suite_child, args=(send, trtr_args))
    child.start()
    send.close()
    reply = None
    try:
        tstr = _suite_scores(*tstr_args)
        try:
            reply = receive.recv_bytes()
        except EOFError:
            reply = b""
    finally:
        if reply is None:  # this process raised: stop the child
            child.terminate()
        child.join()
        receive.close()
    if reply[:1] == b"V":
        return tstr, np.frombuffer(reply[1:], dtype=np.float64)
    if reply[:1] == b"E":
        raise RuntimeError(f"TRTR downstream suite failed: "
                           f"{reply[1:].decode()}")
    raise RuntimeError(f"TRTR downstream suite exited with code "
                       f"{child.exitcode} before replying")


def _detail_rows(details: dict, prefix: str = "") -> list[tuple[str, object]]:
    """Flatten a details dict into deterministic (dotted-key, value) rows."""
    rows: list[tuple[str, object]] = []
    for key in sorted(details, key=str):
        value = details[key]
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_detail_rows(value, prefix=f"{label}."))
        else:
            rows.append((label, value))
    return rows
