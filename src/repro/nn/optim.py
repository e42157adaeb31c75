"""Optimizers operating on lists of parameters.

The paper trains everything with Adam at learning rate 1e-3 (Appendix B).
Optimizers here are *functional*: they consume explicit gradient lists
returned by :func:`repro.nn.tensor.grad`, which keeps GAN training loops
(two optimizers over disjoint parameter sets) simple and explicit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Parameter, Tensor

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm", "grad_norm",
           "StepLR"]


def grad_norm(grads) -> float:
    """Global L2 norm of a gradient list, without modifying anything.

    The observability layer's grad-norm hook: accepts Tensors or arrays
    (None entries skipped), reads but never scales, so recording the norm
    cannot perturb training.
    """
    arrays = [g.data if isinstance(g, Tensor) else g
              for g in grads if g is not None]
    return float(np.sqrt(sum((a * a).sum() for a in arrays)))


def clip_grad_norm(grads, max_norm: float) -> float:
    """Scale a gradient list in place so its global L2 norm <= max_norm.

    Accepts Tensors or arrays (None entries skipped); returns the norm
    before clipping.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    arrays = [g.data if isinstance(g, Tensor) else g
              for g in grads if g is not None]
    total = float(np.sqrt(sum((a * a).sum() for a in arrays)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for a in arrays:
            a *= scale
    return total


class StepLR:
    """Multiply an optimizer's learning rate by ``gamma`` every
    ``step_size`` calls to :meth:`step`."""

    def __init__(self, optimizer: "Optimizer", step_size: int,
                 gamma: float = 0.5):
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._count = 0

    def step(self) -> float:
        """Advance one iteration; returns the (possibly updated) lr."""
        self._count += 1
        if self._count % self.step_size == 0:
            self.optimizer.lr *= self.gamma
        return self.optimizer.lr


class Optimizer:
    """Base class holding a parameter list."""

    def __init__(self, params: Sequence[Parameter]):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")

    def step(self, grads: Sequence[Tensor | np.ndarray | None]) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Copy of the optimizer's full state (hyper-params + moments).

        Scalar entries are hyper-parameters; list entries are per-parameter
        arrays aligned with ``self.params``.  Subclasses extend this.
        """
        return {"lr": float(self.lr)}

    def load_state_dict(self, state: dict) -> None:
        """Restore state written by :meth:`state_dict` (validated)."""
        self.lr = float(state["lr"])

    def _check_moment_list(self, name: str, arrays) -> list[np.ndarray]:
        """Validate one per-parameter array list against ``self.params``."""
        if len(arrays) != len(self.params):
            raise ValueError(
                f"optimizer state {name!r} holds {len(arrays)} arrays but "
                f"the optimizer has {len(self.params)} parameters")
        out = []
        for i, (p, a) in enumerate(zip(self.params, arrays)):
            a = np.asarray(a, dtype=np.float64)
            if a.shape != p.data.shape:
                raise ValueError(
                    f"optimizer state {name}[{i}] has shape {a.shape} but "
                    f"parameter {p.name or i} has shape {p.data.shape}")
            out.append(a.copy())
        return out

    @staticmethod
    def _as_array(g) -> np.ndarray | None:
        if g is None:
            return None
        return g.data if isinstance(g, Tensor) else np.asarray(g)


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-2,
                 momentum: float = 0.0):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def state_dict(self) -> dict:
        return {"lr": float(self.lr), "momentum": float(self.momentum),
                "velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.momentum = float(state["momentum"])
        self._velocity = self._check_moment_list("velocity",
                                                 state["velocity"])

    def step(self, grads) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        for p, v, g in zip(self.params, self._velocity, grads):
            g = self._as_array(g)
            if g is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction.

    One update runs over flat buffers holding every parameter's moments
    and gradient: a step is a dozen array passes over all parameters at
    once, then one in-place subtraction per parameter.  ``_m[i]`` and
    ``_v[i]`` are views of parameter ``i``'s span of the flat moments,
    so :meth:`state_dict` stays a per-parameter list.
    """

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.5, 0.999),
                 eps: float = 1e-8):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._t = 0
        shapes = [np.shape(p.data) for p in self.params]
        self._sizes = [int(np.prod(shape, dtype=np.int64))
                       for shape in shapes]
        total = sum(self._sizes)
        self._m_flat = np.zeros(total)
        self._v_flat = np.zeros(total)
        self._m = self._views(self._m_flat, shapes)
        self._v = self._views(self._v_flat, shapes)
        # Workspace, never state: the flat gradient, one temporary and
        # the step (whose views are subtracted from the parameters).
        self._g_flat = np.empty(total)
        self._buf = np.empty(total)
        self._step_flat = np.empty(total)
        self._step_views = self._views(self._step_flat, shapes)

    def _views(self, flat: np.ndarray, shapes) -> list[np.ndarray]:
        views, offset = [], 0
        for shape, size in zip(shapes, self._sizes):
            views.append(flat[offset:offset + size].reshape(shape))
            offset += size
        return views

    def state_dict(self) -> dict:
        """Full Adam state: lr, betas, eps, step count, and both moments."""
        return {"lr": float(self.lr),
                "betas": (float(self.beta1), float(self.beta2)),
                "eps": float(self.eps), "t": int(self._t),
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.beta1, self.beta2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self._t = int(state["t"])
        m = self._check_moment_list("m", state["m"])
        v = self._check_moment_list("v", state["v"])
        np.concatenate(m, axis=None, out=self._m_flat)
        np.concatenate(v, axis=None, out=self._v_flat)

    def step(self, grads) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        arrays = [self._as_array(g) for g in grads]
        # A None gradient leaves its parameter and moments untouched: the
        # moment updates are masked to the parameters that have one.
        where = True
        if any(a is None for a in arrays):
            where = np.repeat([a is not None for a in arrays], self._sizes)
            arrays = [m if a is None else a
                      for a, m in zip(arrays, self._m)]
        g = np.concatenate(arrays, axis=None, out=self._g_flat)
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        m, v, buf, step = self._m_flat, self._v_flat, self._buf, \
            self._step_flat
        # Buffered but bit-identical to the expression form
        #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        #   p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
        # every ufunc below preserves that operand order/association.
        np.multiply(m, self.beta1, out=m, where=where)
        np.multiply(1.0 - self.beta1, g, out=buf)
        np.add(m, buf, out=m, where=where)
        np.multiply(v, self.beta2, out=v, where=where)
        np.multiply(1.0 - self.beta2, g, out=buf)
        np.multiply(buf, g, out=buf)
        np.add(v, buf, out=v, where=where)
        np.divide(m, b1t, out=step)
        np.multiply(self.lr, step, out=step)
        np.divide(v, b2t, out=buf)
        np.sqrt(buf, out=buf)
        np.add(buf, self.eps, out=buf)
        np.divide(step, buf, out=step)
        for p, p_step, grad in zip(self.params, self._step_views, grads):
            if grad is not None:
                p.data -= p_step
