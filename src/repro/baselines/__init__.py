"""Baseline generative models evaluated against DoppelGANger (§5.0.1)."""

from repro.baselines.ar import ARBaseline
from repro.baselines.base import EmpiricalAttributeSampler, GenerativeModel
from repro.baselines.hmm import GaussianHMM, HMMBaseline
from repro.baselines.naive_gan import NaiveGANBaseline
from repro.baselines.rnn import RNNBaseline

__all__ = [
    "GenerativeModel", "EmpiricalAttributeSampler",
    "HMMBaseline", "GaussianHMM", "ARBaseline", "RNNBaseline",
    "NaiveGANBaseline",
]
