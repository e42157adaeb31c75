"""WGAN-GP losses (§4.3, Eq. 2).

The critic loss for each discriminator ``D_i`` is

    L_i = E[D_i(fake)] - E[D_i(real)]
          + λ E[(||∇_x̂ D_i(x̂)||₂ - 1)²],   x̂ = t·real + (1-t)·fake

and the generator minimises ``-E[D_1(fake)] - α·E[D_2(fake_attr)]``.

The gradient penalty needs the gradient of the critic with respect to its
*input* inside the loss graph, which is why :mod:`repro.nn` supports
``create_graph=True`` (double backprop).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Module, Tensor, grad
from repro.nn import functional as F

__all__ = ["critic_loss", "critic_loss_and_estimate", "generator_loss",
           "gradient_penalty", "vanilla_discriminator_loss",
           "vanilla_generator_loss"]


def gradient_penalty(critic: Module, real_flat: Tensor, fake_flat: Tensor,
                     rng: np.random.Generator,
                     t: Tensor | None = None) -> Tensor:
    """WGAN-GP penalty on random interpolates between real and fake.

    ``t`` optionally supplies the pre-drawn ``U(0,1)^{B x 1}`` interpolation
    coefficients; the plan-compiled trainer draws them up front (in the
    historical rng order) so the traced step is a pure array function.
    """
    batch = real_flat.shape[0]
    if t is None:
        t = Tensor(rng.uniform(size=(batch, 1)))
    interpolates = t * real_flat.detach() + (Tensor(1.0) - t) * fake_flat.detach()
    interpolates.requires_grad = True
    scores = critic(interpolates)
    grads = grad(scores.sum(), [interpolates], create_graph=True)[0]
    norms = F.gradient_penalty_norm(grads)
    deviation = norms - Tensor(1.0)
    return (deviation * deviation).mean()


def critic_loss(critic: Module, real_flat: Tensor, fake_flat: Tensor,
                gp_weight: float, rng: np.random.Generator,
                gp_noise: Tensor | None = None) -> Tensor:
    """Full critic objective: Wasserstein estimate + gradient penalty."""
    return critic_loss_and_estimate(critic, real_flat, fake_flat, gp_weight,
                                    rng, gp_noise=gp_noise)[0]


def critic_loss_and_estimate(critic: Module, real_flat: Tensor,
                             fake_flat: Tensor, gp_weight: float,
                             rng: np.random.Generator,
                             gp_noise: Tensor | None = None
                             ) -> tuple[Tensor, Tensor]:
    """:func:`critic_loss` and its Wasserstein term E[D(fake)] - E[D(real)]
    (the negated estimate of the distance), from one critic pass."""
    wasserstein = critic(fake_flat).mean() - critic(real_flat).mean()
    if gp_weight:
        penalty = gradient_penalty(critic, real_flat, fake_flat, rng,
                                   t=gp_noise)
        return wasserstein + Tensor(float(gp_weight)) * penalty, wasserstein
    return wasserstein, wasserstein


def generator_loss(critic: Module, fake_flat: Tensor) -> Tensor:
    """Generator objective against one critic: -E[D(fake)]."""
    return -critic(fake_flat).mean()


def vanilla_discriminator_loss(critic: Module, real_flat: Tensor,
                               fake_flat: Tensor) -> Tensor:
    """Original GAN discriminator loss (Eq. 1), for the §4.3 ablation.

    The paper chose Wasserstein loss because this cross-entropy objective
    is less stable and worse on categorical variables; keeping it available
    lets the ablation be run rather than asserted.
    """
    ones = Tensor(np.ones((real_flat.shape[0], 1)))
    zeros = Tensor(np.zeros((fake_flat.shape[0], 1)))
    return (F.binary_cross_entropy_with_logits(critic(real_flat), ones)
            + F.binary_cross_entropy_with_logits(critic(fake_flat), zeros))


def vanilla_generator_loss(critic: Module, fake_flat: Tensor) -> Tensor:
    """Non-saturating generator loss: maximise log D(fake)."""
    ones = Tensor(np.ones((fake_flat.shape[0], 1)))
    return F.binary_cross_entropy_with_logits(critic(fake_flat), ones)
