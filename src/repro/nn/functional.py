"""Higher-level differentiable functions composed from primitives."""

from __future__ import annotations

from repro.nn import ops
from repro.nn.tensor import Tensor, astensor

__all__ = [
    "softmax", "log_softmax", "mse_loss", "l2_norm", "gradient_penalty_norm",
    "cross_entropy", "binary_cross_entropy_with_logits", "leaky_relu",
]

_EPS = 1e-12


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The max-shift is treated as a constant; softmax is shift-invariant so the
    gradient (and the second derivative) remain exact.
    """
    x = astensor(x)
    # ops._amax (not .max() inline) so the plan tracer sees the shift as a
    # recomputed value rather than a baked-in constant.
    shift = Tensor(ops._amax(x.data, axis=axis, keepdims=True))
    e = ops.exp(x - shift)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = astensor(x)
    shift = Tensor(ops._amax(x.data, axis=axis, keepdims=True))
    shifted = x - shift
    return shifted - ops.log(ops.exp(shifted).sum(axis=axis, keepdims=True))


def leaky_relu(x, negative_slope: float = 0.2) -> Tensor:
    x = astensor(x)
    return ops.maximum(x, x * Tensor(float(negative_slope)))


def mse_loss(prediction, target) -> Tensor:
    prediction, target = astensor(prediction), astensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def l2_norm(x, axis=None, keepdims: bool = False, eps: float = _EPS) -> Tensor:
    """Differentiable L2 norm; ``eps`` keeps the gradient finite at 0."""
    x = astensor(x)
    return ops.sqrt((x * x).sum(axis=axis, keepdims=keepdims) + Tensor(eps))


def gradient_penalty_norm(gradients, batch_axis: int = 0) -> Tensor:
    """Per-sample gradient norms, flattening all non-batch axes."""
    gradients = astensor(gradients)
    batch = gradients.shape[batch_axis]
    flat = ops.reshape(gradients, (batch, -1))
    return l2_norm(flat, axis=1)


def cross_entropy(logits, targets) -> Tensor:
    """Mean cross-entropy of one-hot ``targets`` under ``logits`` (B, C).

    Spelled as a masked row sum rather than an integer gather so the plan
    tracer sees the targets consumed by a recorded op (a training step
    that uses it compiles).  Each row sum has a single non-zero term, so
    the loss and its gradient equal the gathered form bit for bit.
    """
    logp = log_softmax(astensor(logits), axis=-1)
    return -(logp * astensor(targets)).sum(axis=1).mean()


def binary_cross_entropy_with_logits(logits, targets) -> Tensor:
    """Stable elementwise BCE: max(x,0) - x*t + log(1 + exp(-|x|))."""
    logits, targets = astensor(logits), astensor(targets)
    return (ops.maximum(logits, Tensor(0.0)) - logits * targets
            + ops.log(ops.exp(-ops.abs_(logits)) + Tensor(1.0))).mean()
