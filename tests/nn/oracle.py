"""Op-composed reference math: the oracle the fused kernels are tested against.

The layers in :mod:`repro.nn.layers` always run on the fused kernels in
:mod:`repro.nn.kernels`, whose VJPs and BPTT are written by hand.  This
module spells the same math out of :mod:`repro.nn.ops` primitives, whose
gradients come from the autodiff engine, one graph node per primitive:

- :func:`linear`, :func:`lstm_cell`, :func:`lstm_sequence` -- the three
  kernels;
- :func:`mlp` -- an :class:`~repro.nn.MLP` forward through :func:`linear`;
- :func:`block_activation` -- a :class:`BlockActivation` one output
  block at a time: slice, activate, concatenate;
- :func:`feature_generator` -- DoppelGANger's feature generator one
  pass at a time, the head applied to each pass's hidden state;
- :func:`rnn_step_loss` -- the RNN baseline's teacher-forced loss one
  time step at a time;
- :func:`reference_layers` -- a DoppelGANger's layers routed through this
  module, so a whole model can train on the oracle;
- :class:`ReferenceAdam` -- Adam one parameter at a time, in the
  expression form :class:`repro.nn.optim.Adam` must match bit for bit.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.baselines.rnn import RNNBaseline
from repro.core.generator import BlockActivation, FeatureGenerator
from repro.nn import MLP, Linear, Tensor, layers, ops
from repro.nn import functional as F
from repro.nn.plan import plan_mode


def linear(x, weight, bias) -> Tensor:
    return ops.matmul(x, weight) + bias


def lstm_cell(x, h_prev, c_prev, weight_ih, weight_hh, bias
              ) -> tuple[Tensor, Tensor]:
    """One LSTM step; gate order input, forget, cell, output."""
    gates = ops.matmul(x, weight_ih) + ops.matmul(h_prev, weight_hh) + bias
    n = h_prev.shape[1]
    i = ops.sigmoid(gates[:, 0 * n:1 * n])
    f = ops.sigmoid(gates[:, 1 * n:2 * n])
    g = ops.tanh(gates[:, 2 * n:3 * n])
    o = ops.sigmoid(gates[:, 3 * n:4 * n])
    c = f * c_prev + i * g
    h = o * ops.tanh(c)
    return h, c


def lstm_sequence(x, h0, c0, weight_ih, weight_hh, bias) -> Tensor:
    """The (B, T, D) scan as T chained cells; returns (B, T, H)."""
    h, c = h0, c0
    outputs = []
    for t in range(x.shape[1]):
        h, c = lstm_cell(x[:, t, :], h, c, weight_ih, weight_hh, bias)
        outputs.append(h)
    return ops.stack(outputs, axis=1)


def mlp(module: MLP, x: Tensor) -> Tensor:
    act = layers._ACTIVATIONS[module.activation]
    for layer in module.layers[:-1]:
        x = act(linear(x, layer.weight, layer.bias))
    last = module.layers[-1]
    return linear(x, last.weight, last.bias)


def block_activation(activation: BlockActivation, x: Tensor) -> Tensor:
    """:meth:`BlockActivation.__call__`, one block at a time."""
    if activation.logit_bound is not None:
        bound = Tensor(float(activation.logit_bound))
        x = bound * ops.tanh(x / bound)
    outputs = []
    offset = 0
    for block in activation.blocks:
        piece = x[..., offset:offset + block.dimension]
        offset += block.dimension
        if block.kind == "softmax":
            outputs.append(F.softmax(piece, axis=-1))
        elif block.kind == "sigmoid":
            outputs.append(ops.sigmoid(piece))
        else:
            outputs.append(ops.tanh(piece))
    return ops.concat(outputs, axis=-1)


def feature_generator(gen: FeatureGenerator, attributes: Tensor,
                      minmax: Tensor, z_seq: Tensor) -> Tensor:
    """:meth:`FeatureGenerator.forward`, one pass per loop iteration."""
    batch = attributes.shape[0]
    h, c = gen.cell.initial_state(batch)
    conditioning = (ops.concat([attributes, minmax], axis=1)
                    if minmax.shape[1] else attributes)
    cell = gen.cell
    chunks = []
    for p in range(gen.passes):
        step_in = ops.concat([conditioning, z_seq[:, p, :]], axis=1)
        h, c = lstm_cell(step_in, h, c, cell.weight_ih, cell.weight_hh,
                         cell.bias)
        out = block_activation(gen.activation, mlp(gen.head, h))
        chunks.append(ops.reshape(out, (batch, gen.sample_len,
                                        gen.step_dim)))
    return ops.concat(chunks, axis=1)


def rnn_step_loss(model: RNNBaseline, attrs: np.ndarray, feats: np.ndarray,
                  mask: np.ndarray) -> Tensor:
    """:meth:`RNNBaseline._fused_loss`, one time step at a time."""
    batch, _, dim = feats.shape
    cell, readout = model.cell, model.readout
    a = Tensor(attrs)
    h, c = cell.initial_state(batch)
    prev = Tensor(np.zeros((batch, dim)))
    step_losses = []
    for t in range(feats.shape[1]):
        m = mask[:, t]
        if not m.any():
            break
        h, c = lstm_cell(ops.concat([a, prev], axis=1), h, c,
                         cell.weight_ih, cell.weight_hh, cell.bias)
        pred = ops.sigmoid(linear(h, readout.weight, readout.bias))
        target = Tensor(feats[:, t])
        diff = (pred - target) * Tensor(m[:, None])
        step_losses.append((diff * diff).sum())
        prev = target  # teacher forcing
    denom = float(mask.sum() * dim)
    return ops.concat(
        [ops.reshape(loss, (1,)) for loss in step_losses], axis=0
    ).sum() / Tensor(denom)


class ReferenceAdam:
    """Adam over a parameter list, one parameter and one expression at a
    time; a ``None`` gradient leaves that parameter and its moments as
    they are."""

    def __init__(self, params, lr=1e-3, betas=(0.5, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.beta1, self.beta2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self.t = int(state["t"])
        self.m = [np.array(m, dtype=np.float64) for m in state["m"]]
        self.v = [np.array(v, dtype=np.float64) for v in state["v"]]

    def step(self, grads) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if g is None:
                continue
            g = g.data if isinstance(g, Tensor) else np.asarray(g)
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + ((1.0 - b2) * g) * g
            p.data = p.data - (self.lr * (self.m[i] / b1t)
                               / (np.sqrt(self.v[i] / b2t) + self.eps))


@contextlib.contextmanager
def reference_layers():
    """Route :class:`Linear` (so every MLP), :class:`BlockActivation` and
    :class:`FeatureGenerator` through the oracle, and run eagerly (no plan
    replay): a DoppelGANger trained inside this block never calls a fused
    kernel."""
    saved = (Linear.forward, BlockActivation.__call__,
             FeatureGenerator.forward)
    Linear.forward = lambda self, x: linear(x, self.weight, self.bias)
    BlockActivation.__call__ = block_activation
    FeatureGenerator.forward = feature_generator
    try:
        with plan_mode(False):
            yield
    finally:
        (Linear.forward, BlockActivation.__call__,
         FeatureGenerator.forward) = saved
