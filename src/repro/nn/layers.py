"""Neural-network modules: Linear, MLP, LSTM.

Mirrors the architecture palette the paper uses (Appendix B): MLPs with a few
hidden layers for generators/discriminators, and a single-layer LSTM for the
feature generator.

Hot paths (Linear, LSTMCell, LSTM) run on the fused kernels in
:mod:`repro.nn.kernels`.  The test suite checks them against the same math
composed op by op from :mod:`repro.nn.ops`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn import init, kernels, ops
from repro.nn.tensor import Parameter, Tensor

__all__ = ["Module", "Linear", "MLP", "LSTMCell", "LSTM", "GRUCell",
           "LayerNorm", "Sequential"]


class Module:
    """Minimal module base class: parameter registration + (de)serialisation."""

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        params: list[Parameter] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            for p in _collect_parameters(value):
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        named: list[tuple[str, Parameter]] = []
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                named.append((path, value))
            elif isinstance(value, Module):
                named.extend(value.named_parameters(prefix=f"{path}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        named.extend(item.named_parameters(prefix=f"{path}.{i}."))
                    elif isinstance(item, Parameter):
                        named.append((f"{path}.{i}", item))
        return named

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{p.data.shape} vs {state[name].shape}")
            p.data = np.array(state[name], dtype=np.float64)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _collect_parameters(value) -> Iterable[Parameter]:
    if isinstance(value, Parameter):
        yield value
    elif isinstance(value, Module):
        yield from value.parameters()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect_parameters(item)


class Linear(Module):
    """Affine map ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform(rng, in_features, out_features), name="weight")
        self.bias = Parameter(init.zeros(out_features), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            return kernels.linear(x, self.weight, self.bias)
        return ops.matmul(x, self.weight) + self.bias


# Late-bound through the ops/functional module globals (not direct function
# references) so runtime instrumentation of those globals -- the profiler's
# _instrument_ops and the plan tracer's shims -- is visible to MLP forwards.
_ACTIVATIONS = {
    "relu": lambda x: ops.relu(x),
    "tanh": lambda x: ops.tanh(x),
    "sigmoid": lambda x: ops.sigmoid(x),
    "leaky_relu": lambda x: F.leaky_relu(x),
    "none": lambda x: x,
}


class MLP(Module):
    """Multi-layer perceptron with a configurable hidden activation.

    The paper's generators use 2 hidden layers of 100 units; discriminators
    use 4 hidden layers of 200 units (Appendix B).
    """

    def __init__(self, in_features: int, hidden: Sequence[int],
                 out_features: int, activation: str = "relu",
                 rng: np.random.Generator | None = None):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"choose from {sorted(_ACTIVATIONS)}")
        rng = rng or np.random.default_rng()
        sizes = [in_features, *hidden, out_features]
        self.layers = [Linear(a, b, rng=rng) for a, b in zip(sizes, sizes[1:])]
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        act = _ACTIVATIONS[self.activation]
        for layer in self.layers[:-1]:
            x = act(layer(x))
        return self.layers[-1](x)


class LSTMCell(Module):
    """Standard LSTM cell (Hochreiter & Schmidhuber, 1997).

    Gate order in the fused weight matrices: input, forget, cell, output.
    The forget-gate bias is initialised to 1 (common practice; helps memory).
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            init.xavier_uniform(rng, input_size, 4 * hidden_size),
            name="weight_ih")
        self.weight_hh = Parameter(
            np.concatenate(
                [init.orthogonal(rng, hidden_size, hidden_size)
                 for _ in range(4)], axis=1),
            name="weight_hh")
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias, name="bias")

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]
                ) -> tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        return kernels.lstm_cell(x, h_prev, c_prev, self.weight_ih,
                                 self.weight_hh, self.bias)

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


class GRUCell(Module):
    """Gated recurrent unit cell (Cho et al., 2014).

    A lighter-weight alternative to the LSTM for the feature generator;
    gate order in the fused weights: reset, update, candidate.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            init.xavier_uniform(rng, input_size, 3 * hidden_size),
            name="weight_ih")
        self.weight_hh = Parameter(
            np.concatenate(
                [init.orthogonal(rng, hidden_size, hidden_size)
                 for _ in range(3)], axis=1),
            name="weight_hh")
        self.bias = Parameter(init.zeros(3 * hidden_size), name="bias")

    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        n = self.hidden_size
        gates_x = ops.matmul(x, self.weight_ih) + self.bias
        gates_h = ops.matmul(h_prev, self.weight_hh)
        r = ops.sigmoid(gates_x[:, 0:n] + gates_h[:, 0:n])
        z = ops.sigmoid(gates_x[:, n:2 * n] + gates_h[:, n:2 * n])
        candidate = ops.tanh(gates_x[:, 2 * n:3 * n]
                             + r * gates_h[:, 2 * n:3 * n])
        return z * h_prev + (Tensor(1.0) - z) * candidate

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class LSTM(Module):
    """Single-layer LSTM over a (batch, time, features) tensor."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor,
                state: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """Run over all time steps; returns hidden states (B, T, H)."""
        if state is None:
            state = self.cell.initial_state(x.shape[0])
        h, c = state
        return kernels.lstm_sequence(x, h, c, self.cell.weight_ih,
                                     self.cell.weight_hh, self.cell.bias)


class LayerNorm(Module):
    """Layer normalisation over the last axis (Ba et al., 2016).

    Useful for stabilising deeper discriminators; WGAN-GP forbids batch
    normalisation in the critic (it couples samples, breaking the
    per-sample gradient penalty), so layer norm is the standard choice.
    """

    def __init__(self, normalized_dim: int, eps: float = 1e-5):
        self.normalized_dim = normalized_dim
        self.eps = eps
        self.gain = Parameter(np.ones(normalized_dim), name="gain")
        self.bias = Parameter(np.zeros(normalized_dim), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        variance = (centred * centred).mean(axis=-1, keepdims=True)
        inv = ops.power(variance + Tensor(self.eps), -0.5)
        return centred * inv * self.gain + self.bias


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x
