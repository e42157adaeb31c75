"""Minibatch Adam training loop shared by the downstream MLP predictors.

Every quality report fits its downstream MLPs twice (TSTR and TRTR), so
this loop is on the release path.  The minibatch shape is fixed for a whole
fit, which is exactly what :class:`repro.nn.plan.PlanFunction` compiles:
the first iteration traces the forward pass, loss, and gradients eagerly,
and every later iteration replays the recorded schedule against a
preallocated arena.  The minibatch indices are drawn eagerly, and Adam
steps eagerly (its bias correction changes every iteration), so the rng
stream and every parameter byte match a fully eager fit.
"""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Adam, PlanFunction, Tensor, grad

__all__ = ["train_mlp"]


def train_mlp(net: MLP, inputs: np.ndarray, targets: np.ndarray, loss_fn,
              *, iterations: int, batch_size: int, learning_rate: float,
              rng: np.random.Generator) -> None:
    """Fit ``net`` in place on ``loss_fn(net(inputs[idx]), targets[idx])``.

    ``inputs`` and ``targets`` are float64 row-aligned arrays; each
    iteration draws ``min(batch_size, len(inputs))`` row indices from
    ``rng`` with replacement.
    """
    params = net.parameters()
    optimizer = Adam(params, lr=learning_rate, betas=(0.9, 0.999))

    def step(x, t):
        loss = loss_fn(net(Tensor(x)), t)
        return (loss,) + tuple(grad(loss, params))

    # Nets of one activation and loss share compiled programs; the plan
    # adds the layer sizes (the parameter shapes) to this key.
    plan = PlanFunction(step, params=params, name="downstream_mlp",
                        key=("train_mlp", net.activation, loss_fn.__module__,
                             loss_fn.__qualname__))
    size = min(batch_size, len(inputs))
    for _ in range(iterations):
        idx = rng.integers(0, len(inputs), size=size)
        optimizer.step(plan((inputs[idx], targets[idx]))[1:])
