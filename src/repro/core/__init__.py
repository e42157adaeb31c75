"""DoppelGANger core: generators, discriminators, losses, the adversarial
training loop and its configurations, API."""

from repro.core.adversarial import AdversarialLoop, FitOptions, MLPGANLoop
from repro.core.config import DGConfig, DPTrainingConfig
from repro.core.discriminator import AuxiliaryDiscriminator, Discriminator
from repro.core.doppelganger import DoppelGANger
from repro.core.generator import (AttributeGenerator, BlockActivation,
                                  FeatureGenerator, MinMaxGenerator,
                                  OutputBlock)
from repro.core.losses import critic_loss, generator_loss, gradient_penalty
from repro.core.trainer import DGTrainer, TrainingHistory

__all__ = [
    "DGConfig", "DPTrainingConfig", "DoppelGANger",
    "AttributeGenerator", "MinMaxGenerator", "FeatureGenerator",
    "OutputBlock", "BlockActivation",
    "Discriminator", "AuxiliaryDiscriminator",
    "critic_loss", "generator_loss", "gradient_penalty",
    "AdversarialLoop", "FitOptions", "MLPGANLoop", "DGTrainer",
    "TrainingHistory",
]
