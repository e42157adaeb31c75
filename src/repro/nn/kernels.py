"""Fused execution kernels: one graph node per logical operation.

Composed out of :mod:`repro.nn.ops` primitives, an LSTM costs roughly 17
graph nodes per step and T of everything for a length-T sequence.  On a
numpy substrate the Python graph bookkeeping, not the arithmetic, is the
wall-clock bottleneck.  The kernels here, which the layers in
:mod:`repro.nn.layers` always call, collapse the hot paths into single
graph nodes with hand-written backward passes:

- :func:`linear` -- fused ``x @ W + b``.  Its VJP is expressed with
  *differentiable* ops, so double backprop (``create_graph=True``) works:
  the WGAN-GP gradient penalty differentiates through the critic MLPs.
- :func:`lstm_cell` -- all four gates in one numpy pass with a closed-form
  (first-order only) VJP.
- :func:`lstm_sequence` -- the whole (B, T, H) scan as ONE graph node; the
  backward is hand-written truncated-free BPTT with batched weight-gradient
  GEMMs.

The raw array math lives in module-level pure helpers
(:func:`_linear_forward`, :func:`_lstm_seq_forward`,
:func:`_lstm_seq_backward`, ...) that the graph-building wrappers resolve
through module globals at call time.  That indirection is the kernels'
*replay hook*: the plan compiler (:mod:`repro.nn.plan`) patches the helpers
during tracing to record their inputs/outputs, then re-invokes them against
preallocated workspaces on every replay.  The helpers accept an optional
``ws=`` workspace dict (see :func:`_lstm_seq_workspace`) so a replay can
run the scan allocation-free; with or without a workspace the arithmetic
(operations, operand order, associativity) is identical, so results are
bit-for-bit the same.

Double-backprop boundary (important): the gradient penalty only needs
second-order gradients through the *discriminator* MLPs, never through the
LSTM generator (fake samples are detached before entering the critic loss).
So ``linear`` keeps a differentiable VJP while the LSTM kernels use
closed-form numpy VJPs; they raise a clear error if someone tries to build
a higher-order graph through them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn import ops
from repro.nn.ops import _sigmoid_stable
from repro.nn.profiler import PROFILER, profiled
from repro.nn.tensor import Tensor, astensor, is_grad_enabled

__all__ = ["linear", "lstm_cell", "lstm_sequence"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Same stable logistic as ops.sigmoid (bit-identical per element).
    return _sigmoid_stable(x)


def _sigmoid_into(x: np.ndarray, out: np.ndarray, tmp: np.ndarray,
                  mask: np.ndarray) -> np.ndarray:
    """Buffered :func:`repro.nn.ops._sigmoid_stable` (bit-identical values).

    ``e = exp(-|clip(x)|)`` is built in ``out`` and ``tmp`` holds the shared
    denominator ``1 + e``.  The x>=0 branch ``1 / (1 + e)`` and the x<0
    branch ``e / (1 + e)`` differ only in the numerator, so ``out`` is
    overwritten with 1 where ``mask`` (x >= 0) holds and one divide serves
    both branches.  ``|clip(x, -500, 500)|`` is spelled
    ``minimum(|x|, 500)`` -- the same bits (including NaN propagation) in
    two ufunc calls instead of ``np.clip``'s Python wrapper plus
    ``absolute``, which is measurable overhead at one call per gate per
    timestep.
    """
    np.greater_equal(x, 0, out=mask)
    np.absolute(x, out=out)
    np.minimum(out, 500.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)          # out = e
    np.add(1.0, out, out=tmp)     # tmp = 1 + e
    np.copyto(out, 1.0, where=mask)
    np.divide(out, tmp, out=out)
    return out


def _require_first_order(name: str) -> None:
    if is_grad_enabled():
        raise RuntimeError(
            f"{name} has a closed-form first-order VJP; higher-order "
            "gradients (create_graph=True) through the LSTM kernels are "
            "not supported.")


# -- pure array helpers (plan replay hooks) -----------------------------------

def _linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``x @ W + b`` on raw arrays, optionally into a preallocated ``out``."""
    if out is None:
        return x @ weight + bias
    np.matmul(x, weight, out=out)
    np.add(out, bias, out=out)
    return out


#: The seven per-timestep BPTT caches :func:`_lstm_seq_forward` returns
#: after ``h_out``, in order.
_SEQ_CACHES = ("i_all", "f_all", "g_all", "o_all", "c_prev_all",
               "h_prev_all", "tanh_c_all")


def _lstm_seq_layout(batch: int, steps: int, in_dim: int, n: int,
                     need_cache: bool = True) -> dict:
    """``name -> (shape, dtype)`` of every buffer one fixed-shape LSTM
    sequence scan uses; the BPTT caches only when the scan stores them
    (``need_cache``).  ``h_out`` and the caches are the scan's outputs,
    the rest is scratch that is dead once the scan returns."""
    f64 = np.float64
    big = ((batch, steps, n), f64)
    small = ((batch, n), f64)
    layout = {
        "x_proj_flat": ((batch * steps, 4 * n), f64),
        "h_out": big,
        "z": ((batch, 4 * n), f64),
        "c": small, "h": small, "tmp": small, "tanh_c": small,
        # Gate buffers: input+forget share one sigmoid pass over z[:, :2n].
        "i_f": ((batch, 2 * n), f64), "g": small, "o": small,
        "sig_tmp": ((batch, 2 * n), f64),
        "sig_mask": ((batch, 2 * n), bool),
        "sig_tmp_o": small,
        "sig_mask_o": ((batch, n), bool),
    }
    if need_cache:
        layout.update((name, big) for name in _SEQ_CACHES)
    return layout


def _lstm_seq_workspace(batch: int, steps: int, in_dim: int, n: int,
                        need_cache: bool = True) -> dict:
    """Freshly allocated buffers of :func:`_lstm_seq_layout`."""
    return {name: np.empty(shape, dtype) for name, (shape, dtype)
            in _lstm_seq_layout(batch, steps, in_dim, n, need_cache).items()}


def _lstm_seq_forward(x: np.ndarray, h0: np.ndarray, c0: np.ndarray,
                      wih: np.ndarray, whh: np.ndarray, bias: np.ndarray,
                      ws: dict | None = None,
                      need_cache: bool = True) -> tuple:
    """Forward LSTM scan on raw arrays.

    Returns ``(h_out, i_all, f_all, g_all, o_all, c_prev_all, h_prev_all,
    tanh_c_all)`` -- the hidden states plus every cache the backward pass
    needs.  ``ws`` (from :func:`_lstm_seq_workspace`) supplies reusable
    buffers; the arithmetic is identical either way.

    ``need_cache=False`` skips the seven per-timestep cache stores (the
    gate/state snapshots only BPTT reads) and returns ``None`` for each
    cache; ``ws`` then need not hold them.  ``h_out`` is computed by the
    exact same arithmetic either way, so inference-only scans (plan
    replays whose cache slots are dead) stay bit-identical while dropping
    ~7 array copies per timestep and the seven (batch, steps, n) arrays.
    """
    batch, steps, in_dim = x.shape
    n = h0.shape[1]
    if ws is None:
        ws = _lstm_seq_workspace(batch, steps, in_dim, n, need_cache)
    # One GEMM for every step's input contribution.
    x_proj = np.matmul(x.reshape(batch * steps, in_dim), wih,
                       out=ws["x_proj_flat"]).reshape(batch, steps, 4 * n)
    h_out = ws["h_out"]
    (i_all, f_all, g_all, o_all, c_prev_all, h_prev_all,
     tanh_c_all) = (ws.get(name) for name in _SEQ_CACHES)
    z, c_buf, h_buf, tmp = ws["z"], ws["c"], ws["h"], ws["tmp"]
    tanh_buf = ws["tanh_c"]

    h = h0
    c = c0
    for t in range(steps):
        if need_cache:
            h_prev_all[:, t] = h
            c_prev_all[:, t] = c
        # z = x_proj[:, t] + h @ whh + bias, with the same left-to-right
        # association as the expression form.
        np.matmul(h, whh, out=z)
        np.add(x_proj[:, t], z, out=z)
        np.add(z, bias, out=z)
        # Input+forget gates share one sigmoid pass over the first 2n cols.
        i_f = _sigmoid_into(z[:, 0 * n:2 * n], ws["i_f"], ws["sig_tmp"],
                            ws["sig_mask"])
        i = i_f[:, :n]
        f = i_f[:, n:]
        g_gate = np.tanh(z[:, 2 * n:3 * n], out=ws["g"])
        o = _sigmoid_into(z[:, 3 * n:4 * n], ws["o"], ws["sig_tmp_o"],
                          ws["sig_mask_o"])
        # c = f * c + i * g_gate  (elementwise; in-place is exact)
        np.multiply(f, c, out=c_buf)
        np.multiply(i, g_gate, out=tmp)
        np.add(c_buf, tmp, out=c_buf)
        c = c_buf
        np.tanh(c, out=tanh_buf)
        np.multiply(o, tanh_buf, out=h_buf)
        h = h_buf
        if need_cache:
            i_all[:, t] = i
            f_all[:, t] = f
            g_all[:, t] = g_gate
            o_all[:, t] = o
            tanh_c_all[:, t] = tanh_buf
        h_out[:, t] = h
    return (h_out, i_all, f_all, g_all, o_all, c_prev_all, h_prev_all,
            tanh_c_all)


def _lstm_seq_bwd_layout(batch: int, steps: int, in_dim: int,
                         n: int) -> dict:
    """``name -> (shape, dtype)`` of every buffer one BPTT pass uses.
    ``dx_flat``, ``dh_next``, ``dc_next`` and the three weight gradients
    hold its outputs; ``dz_all``, ``dh``, ``dc``, ``t1`` and ``t2`` are
    scratch."""
    f64 = np.float64
    small = ((batch, n), f64)
    return {
        "dz_all": ((batch, steps, 4 * n), f64),
        "dh": small, "dc": small, "dh_next": small, "dc_next": small,
        "t1": small, "t2": small,
        "dx_flat": ((batch * steps, in_dim), f64),
        "d_wih": ((in_dim, 4 * n), f64),
        "d_whh": ((n, 4 * n), f64),
        "d_bias": ((4 * n,), f64),
    }


def _lstm_seq_bwd_workspace(batch: int, steps: int, in_dim: int,
                            n: int) -> dict:
    """Freshly allocated buffers of :func:`_lstm_seq_bwd_layout`."""
    return {name: np.empty(shape, dtype) for name, (shape, dtype)
            in _lstm_seq_bwd_layout(batch, steps, in_dim, n).items()}


def _lstm_seq_backward(upstream: np.ndarray, x: np.ndarray,
                       wih: np.ndarray, whh: np.ndarray,
                       i_all: np.ndarray, f_all: np.ndarray,
                       g_all: np.ndarray, o_all: np.ndarray,
                       c_prev_all: np.ndarray, h_prev_all: np.ndarray,
                       tanh_c_all: np.ndarray,
                       ws: dict | None = None) -> tuple:
    """Hand-written BPTT on raw arrays (adjoint of :func:`_lstm_seq_forward`).

    Returns ``(dx, dh0, dc0, d_wih, d_whh, d_bias)``.
    """
    batch, steps, in_dim = x.shape
    n = i_all.shape[2]
    if ws is None:
        ws = _lstm_seq_bwd_workspace(batch, steps, in_dim, n)
    dz_all = ws["dz_all"]
    dh, dc = ws["dh"], ws["dc"]
    dh_next, dc_next = ws["dh_next"], ws["dc_next"]
    t1, t2 = ws["t1"], ws["t2"]
    dh_next.fill(0.0)
    dc_next.fill(0.0)
    for t in reversed(range(steps)):
        np.add(upstream[:, t], dh_next, out=dh)
        tanh_c = tanh_c_all[:, t]
        o = o_all[:, t]
        i = i_all[:, t]
        f = f_all[:, t]
        g_gate = g_all[:, t]
        # dc = dc_next + dh * o * (1 - tanh_c^2)
        np.multiply(tanh_c, tanh_c, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(dh, o, out=t2)
        np.multiply(t2, t1, out=t2)
        np.add(dc_next, t2, out=dc)
        dz = dz_all[:, t]
        # dz_i = (dc * g) * (i * (1 - i))
        np.subtract(1.0, i, out=t1)
        np.multiply(i, t1, out=t1)
        np.multiply(dc, g_gate, out=t2)
        np.multiply(t2, t1, out=dz[:, 0 * n:1 * n])
        # dz_f = (dc * c_prev) * (f * (1 - f))
        np.subtract(1.0, f, out=t1)
        np.multiply(f, t1, out=t1)
        np.multiply(dc, c_prev_all[:, t], out=t2)
        np.multiply(t2, t1, out=dz[:, 1 * n:2 * n])
        # dz_g = (dc * i) * (1 - g^2)
        np.multiply(g_gate, g_gate, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(dc, i, out=t2)
        np.multiply(t2, t1, out=dz[:, 2 * n:3 * n])
        # dz_o = (dh * tanh_c) * (o * (1 - o))
        np.subtract(1.0, o, out=t1)
        np.multiply(o, t1, out=t1)
        np.multiply(dh, tanh_c, out=t2)
        np.multiply(t2, t1, out=dz[:, 3 * n:4 * n])
        np.matmul(dz, whh.T, out=dh_next)
        np.multiply(dc, f, out=dc_next)
    flat_dz = dz_all.reshape(batch * steps, 4 * n)
    dx = np.matmul(flat_dz, wih.T, out=ws["dx_flat"]).reshape(batch, steps,
                                                              in_dim)
    d_wih = np.matmul(x.reshape(batch * steps, in_dim).T, flat_dz,
                      out=ws["d_wih"])
    d_whh = np.matmul(h_prev_all.reshape(batch * steps, n).T, flat_dz,
                      out=ws["d_whh"])
    d_bias = flat_dz.sum(axis=0, out=ws["d_bias"])
    return dx, dh_next, dc_next, d_wih, d_whh, d_bias


def _lstm_cell_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
                       wih: np.ndarray, whh: np.ndarray, bias: np.ndarray
                       ) -> tuple:
    """One LSTM step on raw arrays; returns ``(h, c, i, f, g, o, tanh_c)``."""
    n = h_prev.shape[1]
    z = x @ wih + h_prev @ whh + bias
    i_f = _sigmoid(z[:, 0 * n:2 * n])  # input+forget gates share one pass
    i = i_f[:, :n]
    f = i_f[:, n:]
    g_gate = np.tanh(z[:, 2 * n:3 * n])
    o = _sigmoid(z[:, 3 * n:4 * n])
    c = f * c_prev + i * g_gate
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, c, i, f, g_gate, o, tanh_c


def _lstm_cell_backward(dh: np.ndarray | None, dc_direct: np.ndarray | None,
                        x: np.ndarray, h_prev: np.ndarray,
                        c_prev: np.ndarray, wih: np.ndarray,
                        whh: np.ndarray, i: np.ndarray, f: np.ndarray,
                        g_gate: np.ndarray, o: np.ndarray,
                        tanh_c: np.ndarray) -> tuple:
    """Closed-form cell VJP on raw arrays.

    Returns ``(dx, dh_prev, dc_prev, d_wih, d_whh, d_bias)``.
    """
    n = i.shape[1]
    if dh is not None:
        dc = dh * o * (1.0 - tanh_c * tanh_c)
        dz_o = (dh * tanh_c) * (o * (1.0 - o))
    else:
        dc = np.zeros_like(tanh_c)
        dz_o = np.zeros_like(tanh_c)
    if dc_direct is not None:
        dc = dc + dc_direct
    dz = np.empty((i.shape[0], 4 * n))
    dz[:, 0 * n:1 * n] = (dc * g_gate) * (i * (1.0 - i))
    dz[:, 1 * n:2 * n] = (dc * c_prev) * (f * (1.0 - f))
    dz[:, 2 * n:3 * n] = (dc * i) * (1.0 - g_gate * g_gate)
    dz[:, 3 * n:4 * n] = dz_o
    return (dz @ wih.T, dz @ whh.T, dc * f, x.T @ dz, h_prev.T @ dz,
            dz.sum(axis=0))


# -- fused affine -------------------------------------------------------------

def linear(x, weight, bias) -> Tensor:
    """Fused ``x @ W + b`` for 2-D ``x``: one graph node instead of two.

    The VJP is written with differentiable primitives, so this op sits on
    the *differentiable* side of the double-backprop boundary and is safe
    inside WGAN-GP critics.
    """
    x, weight, bias = astensor(x), astensor(weight), astensor(bias)
    if x.ndim != 2:
        raise ValueError("kernels.linear requires a 2-D input")
    out = _linear_forward(x.data, weight.data, bias.data)

    def vjp(g):
        return (ops.matmul(g, ops.transpose(weight)),
                ops.matmul(ops.transpose(x), g),
                ops.sum_(g, axis=0))

    return ops._result(out, (x, weight, bias), vjp)


# -- fused LSTM cell ----------------------------------------------------------

def lstm_cell(x, h_prev, c_prev, weight_ih, weight_hh, bias
              ) -> tuple[Tensor, Tensor]:
    """One LSTM step, all four gates in a single numpy pass.

    Gate order in the fused weight matrices: input, forget, cell, output
    (matching :class:`repro.nn.layers.LSTMCell`).  Returns ``(h, c)`` as
    two graph nodes sharing one forward cache; the closed-form VJP of each
    assumes zero upstream gradient on the other output, which is exact
    because gradient contributions add linearly in the engine.
    """
    x, h_prev, c_prev = astensor(x), astensor(h_prev), astensor(c_prev)
    weight_ih, weight_hh, bias = (astensor(weight_ih), astensor(weight_hh),
                                  astensor(bias))
    h, c, i, f, g_gate, o, tanh_c = _lstm_cell_forward(
        x.data, h_prev.data, c_prev.data, weight_ih.data, weight_hh.data,
        bias.data)

    parents = (x, h_prev, c_prev, weight_ih, weight_hh, bias)

    def backward(dh: np.ndarray | None, dc_direct: np.ndarray | None):
        started = time.perf_counter()
        arrays = _lstm_cell_backward(dh, dc_direct, x.data, h_prev.data,
                                     c_prev.data, weight_ih.data,
                                     weight_hh.data, i, f, g_gate, o,
                                     tanh_c)
        grads = tuple(Tensor(a) for a in arrays)
        if PROFILER.active:
            PROFILER.record("lstm_cell.backward",
                            time.perf_counter() - started)
        return grads

    def vjp_h(g):
        _require_first_order("lstm_cell")
        return backward(g.data, None)

    def vjp_c(g):
        _require_first_order("lstm_cell")
        return backward(None, g.data)

    return (ops._result(h, parents, vjp_h),
            ops._result(c, parents, vjp_c))


# -- fused LSTM sequence scan -------------------------------------------------

def lstm_sequence(x, h0, c0, weight_ih, weight_hh, bias) -> Tensor:
    """Full LSTM scan over (B, T, D) inputs as ONE graph node.

    Forward precomputes the input projection for all steps in a single
    GEMM, then runs the recurrence caching gate activations.  The VJP is
    hand-written backpropagation-through-time: a reverse python loop for
    the recurrent part plus batched GEMMs for the weight gradients.
    First-order only (see module docstring); gradients flow into the
    inputs, both initial states, and all three parameters.

    Returns the hidden states for every step, shape (B, T, H).
    """
    x, h0, c0 = astensor(x), astensor(h0), astensor(c0)
    weight_ih, weight_hh, bias = (astensor(weight_ih), astensor(weight_hh),
                                  astensor(bias))
    if x.ndim != 3:
        raise ValueError("lstm_sequence requires (batch, time, features)")
    (h_out, i_all, f_all, g_all, o_all, c_prev_all, h_prev_all,
     tanh_c_all) = _lstm_seq_forward(x.data, h0.data, c0.data,
                                     weight_ih.data, weight_hh.data,
                                     bias.data)

    parents = (x, h0, c0, weight_ih, weight_hh, bias)

    def vjp(g):
        _require_first_order("lstm_sequence")
        started = time.perf_counter()
        arrays = _lstm_seq_backward(g.data, x.data, weight_ih.data,
                                    weight_hh.data, i_all, f_all, g_all,
                                    o_all, c_prev_all, h_prev_all,
                                    tanh_c_all)
        grads = tuple(Tensor(a) for a in arrays)
        if PROFILER.active:
            PROFILER.record("lstm_sequence.backward",
                            time.perf_counter() - started)
        return grads

    return ops._result(h_out, parents, vjp)


# Profile the fused kernels alongside the ops primitives.
linear = profiled(linear, name="linear")
lstm_cell = profiled(lstm_cell, name="lstm_cell")
lstm_sequence = profiled(lstm_sequence, name="lstm_sequence")
