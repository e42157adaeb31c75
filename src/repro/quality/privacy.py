"""Empirical privacy attack battery (§5.3.1, paper's open question #2).

The paper's release workflow ships the full generator parameters, so the
natural question -- "can an attacker tell whether a given user was in the
training data?" -- has both a black-box answer (the LOGAN distance attack
of Figure 12) and a white-box one (scoring candidates with the released
discriminator).  :func:`privacy_battery` runs every attack that applies
to the released model, summarises each as an AUC and an attacker
advantage, relates them to the DP-SGD ``(epsilon, delta)`` guarantee when
the model was trained with :mod:`repro.nn.dp`, and condenses the worst
case into a letter grade a registry manifest can carry.

Grades (on the worst attack's advantage = max(0, 2*success - 1)):

====== =================== ===========================================
grade  worst advantage     reading
====== =================== ===========================================
A      <= 0.05             attacks indistinguishable from guessing
B      <= 0.15             weak signal; release with care
C      <= 0.30             clear signal; subset/DP mitigation advised
D      <= 0.50             strong signal; do not release as-is
F      >  0.50             the model is close to a lookup table
====== =================== ===========================================

:class:`MemorizingBaseline` is the calibration target: a fake "model"
that generates by resampling its training rows verbatim -- the
worst-possible release.  Attacks should saturate on it (the CI smoke
asserts they beat the DP-trained model's attacks), which validates that
the battery can actually detect leakage at the scales we run.

All numbers are deterministic functions of ``(model, members,
non_members, seed)``: generation uses a fresh seeded rng and AUC ties
are resolved by average ranks (:func:`repro.metrics.rankdata`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import TimeSeriesDataset
from repro.metrics import rankdata
from repro.observability import metrics as obs_metrics
from repro.privacy.dp_analysis import DPPlan, epsilon_for_noise
from repro.privacy.membership_inference import (
    MembershipInferenceResult, discriminator_score_attack,
    membership_inference_attack)
from repro.resilience.atomic import canonical_json

__all__ = ["AttackResult", "PrivacyBattery", "MemorizingBaseline",
           "attack_auc", "privacy_battery", "privacy_grade", "GRADES"]

#: (threshold, grade) pairs on the worst attacker advantage, ascending.
GRADES = ((0.05, "A"), (0.15, "B"), (0.30, "C"), (0.50, "D"),
          (float("inf"), "F"))


class MemorizingBaseline:
    """The worst-possible release: "generates" verbatim training rows.

    Exposes the same ``generate(n, rng)`` surface as a real backend so it
    can stand in for a model anywhere the battery expects one.  Used to
    calibrate the attack battery (attacks must saturate here) and as the
    non-private reference in the DP comparison smoke.
    """

    def __init__(self, dataset: TimeSeriesDataset):
        if len(dataset) == 0:
            raise ValueError("cannot memorize an empty dataset")
        self.dataset = dataset

    def generate(self, n: int, rng: np.random.Generator | None = None
                 ) -> TimeSeriesDataset:
        rng = rng if rng is not None else np.random.default_rng(0)
        return self.dataset[rng.integers(0, len(self.dataset), size=n)]


def attack_auc(result: MembershipInferenceResult) -> float:
    """AUC of an attack's scores: P(member score > non-member score).

    Computed as the Mann-Whitney U statistic with average ranks for
    ties, so it is deterministic and exact for small candidate sets.
    0.5 is random guessing; 1.0 is perfect membership recovery.
    """
    members = np.asarray(result.member_scores, dtype=np.float64)
    non_members = np.asarray(result.non_member_scores, dtype=np.float64)
    if len(members) == 0 or len(non_members) == 0:
        raise ValueError("attack_auc needs scores on both sides")
    ranks = rankdata(np.concatenate([members, non_members]))
    n, m = len(members), len(non_members)
    u = ranks[:n].sum() - n * (n + 1) / 2.0
    return float(u / (n * m))


def privacy_grade(worst_advantage: float) -> str:
    """Letter grade of the battery's worst attacker advantage."""
    for threshold, grade in GRADES:
        if worst_advantage <= threshold:
            return grade
    return "F"  # unreachable: the last threshold is +inf


@dataclass
class AttackResult:
    """One attack's summary numbers."""

    name: str
    success_rate: float
    auc: float
    advantage: float

    def to_dict(self) -> dict:
        return {"name": self.name, "success_rate": self.success_rate,
                "auc": self.auc, "advantage": self.advantage}


@dataclass
class PrivacyBattery:
    """Outcome of :func:`privacy_battery`: attacks, DP context, grade."""

    attacks: list[AttackResult]
    worst_advantage: float
    worst_auc: float
    grade: str
    n_members: int
    n_non_members: int
    n_generated: int
    seed: int
    epsilon: float | None = None
    delta: float | None = None
    #: ``min(1, e^eps - 1 + delta)``: the DP bound on any attacker's
    #: advantage.  An empirical advantage above it would mean the
    #: accountant's assumptions were violated.
    advantage_bound: float | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def within_bound(self) -> bool | None:
        if self.advantage_bound is None:
            return None
        return self.worst_advantage <= self.advantage_bound

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "grade": self.grade,
            "worst_advantage": self.worst_advantage,
            "worst_auc": self.worst_auc,
            "attacks": [a.to_dict() for a in self.attacks],
            "n_members": self.n_members,
            "n_non_members": self.n_non_members,
            "n_generated": self.n_generated,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "advantage_bound": self.advantage_bound,
            "within_bound": self.within_bound,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def render_markdown(self, title: str = "Privacy battery") -> str:
        lines = [f"# {title}", "",
                 f"**Grade: {self.grade}** "
                 f"(worst attacker advantage {self.worst_advantage:.4f}, "
                 f"worst AUC {self.worst_auc:.4f})", "",
                 f"- candidates: {self.n_members} members / "
                 f"{self.n_non_members} non-members",
                 f"- synthetic samples drawn: {self.n_generated}",
                 f"- seed: {self.seed}", ""]
        if self.epsilon is not None:
            verdict = ("consistent" if self.within_bound
                       else "**VIOLATED -- investigate**")
            lines += [f"- DP-SGD guarantee: epsilon={self.epsilon:.6g}, "
                      f"delta={self.delta:.6g}",
                      f"- DP advantage bound: "
                      f"{self.advantage_bound:.6g} ({verdict})", ""]
        lines += ["| attack | success rate | AUC | advantage |",
                  "|---|---|---|---|"]
        lines += [f"| {a.name} | {a.success_rate:.4f} | {a.auc:.4f} | "
                  f"{a.advantage:.4f} |" for a in self.attacks]
        lines.append("")
        if self.notes:
            lines += [f"- {note}" for note in self.notes]
            lines.append("")
        return "\n".join(lines)


def _flatten(dataset: TimeSeriesDataset) -> np.ndarray:
    return np.asarray(dataset.features,
                      dtype=np.float64).reshape(len(dataset), -1)


def privacy_battery(model, members: TimeSeriesDataset,
                    non_members: TimeSeriesDataset, *,
                    n_generated: int = 256, seed: int = 0,
                    train_size: int | None = None,
                    epsilon: float | None = None,
                    delta: float | None = None) -> PrivacyBattery:
    """Run every applicable membership-inference attack on ``model``.

    Args:
        model: Anything exposing ``generate(n, rng) ->
            TimeSeriesDataset``.  Models that also expose an ``encoder``
            and a ``discriminator`` (DoppelGANger) additionally face the
            white-box discriminator-score attack.
        members: Real samples that *were* in the model's training set.
        non_members: Equally many real samples that were not.
        n_generated: Synthetic samples the black-box attacker draws.
        seed: Generation seed (the battery is deterministic in it).
        train_size: Size of the full training set, for DP accounting
            (defaults to ``len(members)``, i.e. the candidates are the
            whole training set).
        epsilon / delta: Pin the DP guarantee explicitly.  When left
            ``None`` they are derived from ``model.config.dp`` via the
            RDP accountant (:mod:`repro.privacy.dp_analysis`) if the
            model was trained with DP-SGD, else stay ``None``.
    """
    if len(members) != len(non_members):
        raise ValueError("privacy_battery requires a balanced candidate "
                         f"set, got {len(members)} members vs "
                         f"{len(non_members)} non-members")
    if len(members) == 0:
        raise ValueError("privacy_battery needs at least one candidate "
                         "per side")
    notes: list[str] = []
    generated = model.generate(int(n_generated),
                               rng=np.random.default_rng(seed))
    attacks: list[AttackResult] = []

    distance = membership_inference_attack(_flatten(members),
                                           _flatten(non_members),
                                           _flatten(generated))
    attacks.append(AttackResult(
        name="distance", success_rate=float(distance.success_rate),
        auc=attack_auc(distance),
        advantage=max(0.0, 2.0 * float(distance.success_rate) - 1.0)))

    if hasattr(model, "discriminator") and hasattr(model, "encoder"):
        disc = discriminator_score_attack(model, members, non_members)
        attacks.append(AttackResult(
            name="discriminator", success_rate=float(disc.success_rate),
            auc=attack_auc(disc),
            advantage=max(0.0, 2.0 * float(disc.success_rate) - 1.0)))
    else:
        notes.append("discriminator attack skipped: the released model "
                     "exposes no discriminator")

    dp = getattr(getattr(model, "config", None), "dp", None)
    if epsilon is None and dp is not None:
        config = model.config
        size = int(train_size) if train_size is not None else len(members)
        try:
            plan = DPPlan(dataset_size=size,
                          batch_size=min(int(config.batch_size), size),
                          iterations=int(config.iterations),
                          delta=float(dp.delta))
            epsilon = float(epsilon_for_noise(
                plan, float(dp.noise_multiplier)))
            delta = float(dp.delta)
        except (ValueError, OverflowError) as exc:
            notes.append(f"DP accounting failed: {exc}")
    if epsilon is not None and delta is None:
        delta = 1e-5
    advantage_bound = None
    if epsilon is not None:
        advantage_bound = 1.0 if epsilon > 50 else \
            float(min(1.0, math.expm1(epsilon) + delta))

    worst = max(attacks, key=lambda a: a.advantage)
    battery = PrivacyBattery(
        attacks=attacks,
        worst_advantage=float(worst.advantage),
        worst_auc=float(max(a.auc for a in attacks)),
        grade=privacy_grade(float(worst.advantage)),
        n_members=len(members), n_non_members=len(non_members),
        n_generated=int(n_generated), seed=int(seed),
        epsilon=epsilon, delta=delta,
        advantage_bound=advantage_bound, notes=notes)
    obs_metrics.counter("quality.privacy_batteries").inc()
    return battery
