"""DoppelGANger generator networks (§4.1, Figure 6).

Three stages, matching the paper's decoupled design:

1. :class:`AttributeGenerator` -- MLP mapping noise to the (real) attributes.
2. :class:`MinMaxGenerator` -- MLP mapping (attributes, noise) to the two
   "fake" auto-normalisation attributes per continuous feature (§4.1.3).
3. :class:`FeatureGenerator` -- LSTM unrolled T/S times; at each pass an MLP
   head emits a batch of S records plus their generation flags (§4.1.1).
   The generated attributes (and min/max attributes) are fed to the RNN at
   every step, which is how the paper couples features to attributes.

All categorical outputs go through softmax; continuous outputs through
sigmoid (range [0,1]) or tanh (range [-1,1]) matching the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import MLP, LSTMCell, Module, Tensor, kernels, ops
from repro.nn import functional as F

__all__ = ["OutputBlock", "BlockActivation", "AttributeGenerator",
           "MinMaxGenerator", "FeatureGenerator"]


@dataclass(frozen=True)
class OutputBlock:
    """One contiguous slice of a network output with its own activation."""

    dimension: int
    kind: str  # "softmax" | "sigmoid" | "tanh"

    def __post_init__(self):
        if self.kind not in ("softmax", "sigmoid", "tanh"):
            raise ValueError(f"unknown output block kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("block dimension must be >= 1")


class BlockActivation:
    """Applies per-block activations over the last axis of a tensor.

    Blocks are evaluated a group at a time rather than one by one: all
    sigmoid columns form one group, all tanh columns another, and softmax
    blocks of one width a third (viewed as ``(..., n_blocks, width)`` so
    each block normalises on its own).  A group whose columns are
    contiguous is a basic slice; any other is gathered with
    :func:`repro.nn.ops.take`.  The group outputs are concatenated and
    one inverse permutation restores the block order.  Every output
    element and input gradient is bit-identical to slicing and
    activating each block on its own (pinned against a per-block oracle
    in ``tests/core/test_generator.py``): the activations are
    elementwise, and each softmax reduces over contiguous rows of its
    width exactly as a lone block does.

    ``logit_bound`` optionally squashes pre-activations through
    ``c * tanh(x / c)`` first.  This keeps sigmoid/softmax outputs away
    from their saturated extremes, where WGAN gradients through the
    generator would otherwise vanish and trap samples at 0/1 -- a failure
    mode that shows up on heavy-tailed min/max attributes at small
    training scale.
    """

    def __init__(self, blocks: list[OutputBlock],
                 logit_bound: float | None = None):
        self.blocks = list(blocks)
        self.dimension = sum(b.dimension for b in blocks)
        if logit_bound is not None and logit_bound <= 0:
            raise ValueError("logit_bound must be positive")
        self.logit_bound = logit_bound
        self._groups, self._inverse = _group_columns(self.blocks)

    def __call__(self, x: Tensor) -> Tensor:
        if self.logit_bound is not None:
            bound = Tensor(float(self.logit_bound))
            x = bound * ops.tanh(x / bound)
        outputs = []
        for kind, width, columns in self._groups:
            if isinstance(columns, slice):
                piece = x[..., columns]
            else:
                piece = ops.take(x, columns, axis=-1)
            if kind == "sigmoid":
                outputs.append(ops.sigmoid(piece))
            elif kind == "tanh":
                outputs.append(ops.tanh(piece))
            elif piece.shape[-1] == width:
                outputs.append(F.softmax(piece, axis=-1))
            else:
                lead = piece.shape[:-1]
                rows = ops.reshape(piece, lead + (-1, width))
                outputs.append(ops.reshape(F.softmax(rows, axis=-1),
                                           lead + (piece.shape[-1],)))
        out = outputs[0] if len(outputs) == 1 else ops.concat(outputs,
                                                              axis=-1)
        if self._inverse is not None:
            out = ops.take(out, self._inverse, axis=-1)
        return out


def _group_columns(blocks: list[OutputBlock]
                   ) -> tuple[list, np.ndarray | None]:
    """Group block columns by activation, in order of first appearance.

    Returns ``(groups, inverse)``: each group is ``(kind, width, columns)``
    with ``width`` the softmax block width (1 for elementwise kinds) and
    ``columns`` a slice when contiguous, else an index array; ``inverse``
    maps the concatenated group outputs back to block order (``None``
    when they already are in it).
    """
    members: dict[tuple, list] = {}
    offset = 0
    for block in blocks:
        width = block.dimension if block.kind == "softmax" else 1
        members.setdefault((block.kind, width), []).append(
            np.arange(offset, offset + block.dimension))
        offset += block.dimension
    groups, order = [], []
    for (kind, width), ranges in members.items():
        columns = np.concatenate(ranges)
        start = int(columns[0])
        if np.array_equal(columns, np.arange(start, start + len(columns))):
            groups.append((kind, width, slice(start, start + len(columns))))
        else:
            groups.append((kind, width, columns))
        order.append(columns)
    if not order:
        return groups, None
    permutation = np.concatenate(order)
    if np.array_equal(permutation, np.arange(len(permutation))):
        return groups, None
    return groups, np.argsort(permutation)


def continuous_kind(target_range: str) -> str:
    return "sigmoid" if target_range == "zero_one" else "tanh"


class AttributeGenerator(Module):
    """MLP: noise (B, Z_a) -> encoded attributes (B, A).

    Datasets with no attributes (m = 0, allowed by the §3 abstraction) get
    a degenerate generator emitting width-0 tensors.
    """

    def __init__(self, blocks: list[OutputBlock], noise_dim: int,
                 hidden: tuple[int, ...], rng: np.random.Generator,
                 logit_bound: float | None = None):
        self.noise_dim = noise_dim
        self.activation = BlockActivation(blocks, logit_bound=logit_bound)
        if self.activation.dimension:
            self.mlp = MLP(noise_dim, list(hidden),
                           self.activation.dimension, rng=rng)

    def forward(self, z: Tensor) -> Tensor:
        if not self.activation.dimension:
            return Tensor(np.zeros((z.shape[0], 0)))
        return self.activation(self.mlp(z))

    def sample_noise(self, batch: int, rng: np.random.Generator) -> Tensor:
        return Tensor(rng.normal(size=(batch, self.noise_dim)))


class MinMaxGenerator(Module):
    """MLP: (attributes, noise) -> the 2C min/max fake attributes (§4.1.3)."""

    def __init__(self, attribute_dim: int, minmax_dim: int, noise_dim: int,
                 hidden: tuple[int, ...], target_range: str,
                 rng: np.random.Generator,
                 logit_bound: float | None = None):
        self.noise_dim = noise_dim
        kind = continuous_kind(target_range)
        self.activation = BlockActivation(
            [OutputBlock(minmax_dim, kind)] if minmax_dim else [],
            logit_bound=logit_bound)
        self.minmax_dim = minmax_dim
        if minmax_dim:
            self.mlp = MLP(attribute_dim + noise_dim, list(hidden),
                           minmax_dim, rng=rng)

    def forward(self, attributes: Tensor, z: Tensor) -> Tensor:
        if not self.minmax_dim:
            return Tensor(np.zeros((attributes.shape[0], 0)))
        return self.activation(self.mlp(ops.concat([attributes, z], axis=1)))

    def sample_noise(self, batch: int, rng: np.random.Generator) -> Tensor:
        return Tensor(rng.normal(size=(batch, self.noise_dim)))


class FeatureGenerator(Module):
    """LSTM + batched MLP head emitting S records per pass (§4.1.1).

    Per-pass input: [attributes, minmax, z_t]; per-pass output: S records,
    each the concatenation of per-feature blocks plus a 2-way softmax
    generation flag.
    """

    def __init__(self, attribute_dim: int, minmax_dim: int,
                 feature_blocks: list[OutputBlock], max_length: int,
                 sample_len: int, noise_dim: int, rnn_units: int,
                 mlp_hidden: tuple[int, ...], rng: np.random.Generator,
                 logit_bound: float | None = None):
        if max_length % sample_len:
            raise ValueError("sample_len must divide max_length")
        self.max_length = max_length
        self.sample_len = sample_len
        self.noise_dim = noise_dim
        self.passes = max_length // sample_len
        # Step layout: feature blocks then the generation-flag softmax.
        step_blocks = list(feature_blocks) + [OutputBlock(2, "softmax")]
        self.step_dim = sum(b.dimension for b in step_blocks)
        self.activation = BlockActivation(step_blocks * sample_len,
                                          logit_bound=logit_bound)
        self.cell = LSTMCell(attribute_dim + minmax_dim + noise_dim,
                             rnn_units, rng=rng)
        self.head = MLP(rnn_units, list(mlp_hidden),
                        sample_len * self.step_dim, rng=rng)

    def forward(self, attributes: Tensor, minmax: Tensor,
                z_seq: Tensor) -> Tensor:
        """Generate the full padded series, shape (B, T, step_dim).

        Args:
            attributes: (B, A) encoded attributes (generated or supplied).
            minmax: (B, M) encoded min/max attributes (may be width 0).
            z_seq: (B, passes, Z_f) per-pass noise.
        """
        batch = attributes.shape[0]
        h0, c0 = self.cell.initial_state(batch)
        conditioning = (ops.concat([attributes, minmax], axis=1)
                        if minmax.shape[1] else attributes)
        # The per-pass inputs depend only on the (constant) conditioning and
        # the pre-drawn noise, never on earlier outputs, so the whole scan
        # runs as one lstm_sequence node and the MLP head + activations
        # apply to all passes in one batch.
        cond_dim = conditioning.shape[1]
        cond_seq = ops.broadcast_to(
            ops.reshape(conditioning, (batch, 1, cond_dim)),
            (batch, self.passes, cond_dim))
        inputs = ops.concat([cond_seq, z_seq], axis=2)
        h_seq = kernels.lstm_sequence(
            inputs, h0, c0, self.cell.weight_ih, self.cell.weight_hh,
            self.cell.bias)
        flat_h = ops.reshape(h_seq, (batch * self.passes, -1))
        out = self.activation(self.head(flat_h))
        return ops.reshape(out, (batch, self.max_length, self.step_dim))

    def sample_noise(self, batch: int, rng: np.random.Generator) -> Tensor:
        return Tensor(rng.normal(size=(batch, self.passes, self.noise_dim)))
