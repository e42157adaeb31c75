"""Differentiable primitive operations.

Every primitive returns a new :class:`~repro.nn.tensor.Tensor` and records a
vector-Jacobian product (VJP) closure.  Crucially the VJPs are themselves
written in terms of these same primitives, so differentiating a gradient
(``create_graph=True``) produces correct second-order derivatives -- the
property required by the WGAN-GP gradient penalty used throughout the paper.

Operator overloads (``+``, ``*``, ``@``, slicing, ...) are attached to
:class:`Tensor` at the bottom of this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Tensor, astensor, is_grad_enabled

__all__ = [
    "add", "sub", "mul", "div", "neg", "power", "exp", "log", "sqrt",
    "tanh", "sigmoid", "relu", "abs_", "maximum", "minimum", "matmul",
    "sum_", "mean", "reshape", "transpose", "swapaxes", "concat", "stack",
    "getitem", "take", "broadcast_to", "clip",
]

_EPS = 1e-12


# -- array-level helpers ------------------------------------------------------
#
# These compute the *data-dependent constants* some VJPs capture (masks,
# signs, max-shifts) as plain ndarray functions resolved through module
# globals at call time.  That indirection is what makes them visible to the
# plan tracer (repro.nn.plan): a recorded schedule must recompute these
# values every replay rather than snapshot them from the traced step.

def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic, one exp over the full array.

    ``exp(-|clip(x)|)`` is the exponential of *both* textbook branches
    (``1/(1+exp(-x))`` for x >= 0, ``exp(x)/(1+exp(x))`` otherwise), so
    the selected values are bit-identical to evaluating each branch
    separately -- without the overflow the naive two-branch ``np.where``
    evaluation incurs on large-magnitude inputs.
    """
    t = np.clip(x, -500, 500)
    e = np.exp(-np.abs(t))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def _relu_mask(x: np.ndarray) -> np.ndarray:
    return (x > 0).astype(np.float64)


def _sign_of(x: np.ndarray) -> np.ndarray:
    return np.sign(x)


def _ge_masks(a: np.ndarray, b: np.ndarray) -> tuple:
    take_a = a >= b
    return take_a.astype(np.float64), (~take_a).astype(np.float64)


def _le_masks(a: np.ndarray, b: np.ndarray) -> tuple:
    take_a = a <= b
    return take_a.astype(np.float64), (~take_a).astype(np.float64)


def _amax(x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """Plain max reduction, used where the result is treated as constant."""
    return x.max(axis=axis, keepdims=keepdims)


def _result(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Build an op result, recording the graph only when useful."""
    if is_grad_enabled() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, vjp=vjp)
    return Tensor(data)


def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    # Sum away prepended axes.
    extra = g.ndim - len(shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# -- arithmetic ---------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(neg(g), b.shape)

    return _result(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(mul(g, b), a.shape), _unbroadcast(mul(g, a), b.shape)

    return _result(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(div(g, b), a.shape)
        gb = _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)
        return ga, gb

    return _result(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = astensor(a)

    def vjp(g):
        return (neg(g),)

    return _result(-a.data, (a,), vjp)


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = astensor(a)
    exponent = float(exponent)
    out = a.data ** exponent

    def vjp(g):
        return (mul(g, mul(Tensor(exponent), power(a, exponent - 1.0))),)

    return _result(out, (a,), vjp)


# exp, tanh and sigmoid differentiate through their own output.  Their
# VJPs capture the output *array* and rebuild the output node from it (the
# same array, parent and VJP) rather than capture the result Tensor: a
# closure over its own node would make every eager tape a reference cycle
# that only a full garbage-collection pass frees.  Under ``no_grad`` (a
# first-order backward) the rebuilt node is a plain constant.

def _exp_vjp(a: Tensor, out: np.ndarray):
    def vjp(g):
        return (mul(g, _result(out, (a,), _exp_vjp(a, out))),)
    return vjp


def exp(a) -> Tensor:
    a = astensor(a)
    out = np.exp(a.data)
    return _result(out, (a,), _exp_vjp(a, out))


def log(a) -> Tensor:
    a = astensor(a)

    def vjp(g):
        return (div(g, a),)

    return _result(np.log(a.data), (a,), vjp)


def sqrt(a) -> Tensor:
    return power(a, 0.5)


def _tanh_vjp(a: Tensor, out: np.ndarray):
    def vjp(g):
        result = _result(out, (a,), _tanh_vjp(a, out))
        return (mul(g, sub(Tensor(1.0), mul(result, result))),)
    return vjp


def tanh(a) -> Tensor:
    a = astensor(a)
    out = np.tanh(a.data)
    return _result(out, (a,), _tanh_vjp(a, out))


def _sigmoid_vjp(a: Tensor, out: np.ndarray):
    def vjp(g):
        result = _result(out, (a,), _sigmoid_vjp(a, out))
        return (mul(g, mul(result, sub(Tensor(1.0), result))),)
    return vjp


def sigmoid(a) -> Tensor:
    a = astensor(a)
    out = _sigmoid_stable(a.data)
    return _result(out, (a,), _sigmoid_vjp(a, out))


def relu(a) -> Tensor:
    a = astensor(a)
    mask = Tensor(_relu_mask(a.data))

    def vjp(g):
        return (mul(g, mask),)

    return _result(np.maximum(a.data, 0.0), (a,), vjp)


def abs_(a) -> Tensor:
    a = astensor(a)
    sign = Tensor(_sign_of(a.data))

    def vjp(g):
        return (mul(g, sign),)

    return _result(np.abs(a.data), (a,), vjp)


def maximum(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    mask_a_arr, mask_b_arr = _ge_masks(a.data, b.data)
    mask_a = Tensor(mask_a_arr)
    mask_b = Tensor(mask_b_arr)

    def vjp(g):
        return (_unbroadcast(mul(g, mask_a), a.shape),
                _unbroadcast(mul(g, mask_b), b.shape))

    return _result(np.maximum(a.data, b.data), (a, b), vjp)


def minimum(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    mask_a_arr, mask_b_arr = _le_masks(a.data, b.data)
    mask_a = Tensor(mask_a_arr)
    mask_b = Tensor(mask_b_arr)

    def vjp(g):
        return (_unbroadcast(mul(g, mask_a), a.shape),
                _unbroadcast(mul(g, mask_b), b.shape))

    return _result(np.minimum(a.data, b.data), (a, b), vjp)


def clip(a, low: float, high: float) -> Tensor:
    """Differentiable clip with constant bounds (gradient 0 outside)."""
    return minimum(maximum(a, Tensor(float(low))), Tensor(float(high)))


# -- linear algebra -----------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix multiplication with numpy batching semantics (ndim >= 2)."""
    a, b = astensor(a), astensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(matmul(g, swapaxes(b, -1, -2)), a.shape)
        gb = _unbroadcast(matmul(swapaxes(a, -1, -2), g), b.shape)
        return ga, gb

    return _result(out, (a, b), vjp)


# -- reductions ---------------------------------------------------------------

def _normalize_axis(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    axes = _normalize_axis(axis, a.ndim)
    out = a.data.sum(axis=axes or None, keepdims=keepdims)
    # Shape that makes g broadcastable back onto a.
    kept = tuple(1 if i in axes else n for i, n in enumerate(a.shape))

    def vjp(g):
        if not keepdims and g.shape != kept:
            g = reshape(g, kept)
        return (broadcast_to(g, a.shape),)

    return _result(out, (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    axes = _normalize_axis(axis, a.ndim)
    count = float(np.prod([a.shape[i] for i in axes])) if axes else 1.0
    return div(sum_(a, axis=axis, keepdims=keepdims), Tensor(count))


# -- shape manipulation -------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = astensor(a)
    shape = tuple(shape)
    original = a.shape

    def vjp(g):
        return (reshape(g, original),)

    return _result(a.data.reshape(shape), (a,), vjp)


def transpose(a, axes=None) -> Tensor:
    a = astensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(ax % a.ndim for ax in axes)
    inverse = tuple(int(i) for i in np.argsort(axes))

    def vjp(g):
        return (transpose(g, inverse),)

    return _result(a.data.transpose(axes), (a,), vjp)


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = astensor(a)
    axes = list(range(a.ndim))
    axis1, axis2 = axis1 % a.ndim, axis2 % a.ndim
    axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
    return transpose(a, axes)


def broadcast_to(a, shape) -> Tensor:
    a = astensor(a)
    shape = tuple(shape)
    original = a.shape

    def vjp(g):
        return (_unbroadcast(g, original),)

    return _result(np.broadcast_to(a.data, shape).copy(), (a,), vjp)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    axis = axis % tensors[0].ndim
    sizes = [t.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            index = tuple(
                slice(int(start), int(stop)) if d == axis else slice(None)
                for d in range(g.ndim)
            )
            grads.append(getitem(g, index))
        return tuple(grads)

    return _result(out, tuple(tensors), vjp)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    ndim = tensors[0].ndim + 1
    axis = axis % ndim
    expanded = []
    for t in tensors:
        shape = list(t.shape)
        shape.insert(axis, 1)
        expanded.append(reshape(t, shape))
    return concat(expanded, axis=axis)


# -- indexing -----------------------------------------------------------------

def getitem(a, index) -> Tensor:
    a = astensor(a)
    out = a.data[index]
    original = a.shape

    def vjp(g):
        return (_scatter(g, index, original),)

    return _result(out, (a,), vjp)


def take(a, indices, axis: int = -1) -> Tensor:
    """Gather ``indices`` along ``axis`` into a new C-contiguous array.

    ``a[..., indices]`` would return the same values in a transposed
    memory layout, and a reduction over a transposed axis groups its
    sums differently: the contiguous result keeps later reductions
    bit-identical to reducing a contiguous slice.
    """
    a = astensor(a)
    axis = axis % a.ndim
    indices = np.asarray(indices, dtype=np.intp)
    out = np.take(a.data, indices, axis=axis)
    index = (slice(None),) * axis + (indices,)
    original = a.shape

    def vjp(g):
        return (_scatter(g, index, original),)

    return _result(out, (a,), vjp)


def _scatter(g, index, shape: tuple) -> Tensor:
    """Place ``g`` into a zero tensor of ``shape`` at ``index`` (adjoint of
    getitem).  Differentiable: its own VJP is getitem."""
    g = astensor(g)
    out = np.zeros(shape, dtype=np.float64)
    np.add.at(out, index, g.data)

    def vjp(gg):
        return (getitem(gg, index),)

    return _result(out, (g,), vjp)


# -- profiler instrumentation -------------------------------------------------

def _instrument_ops() -> None:
    """Wrap every public primitive so the op-level profiler sees it.

    Reassigning the module globals also covers calls made from inside VJP
    closures (they resolve op names at call time), so backward passes are
    profiled with the same granularity as forward ones.
    """
    from repro.nn.profiler import profiled
    for name in __all__:
        globals()[name] = profiled(globals()[name], name=name.rstrip("_"))


_instrument_ops()


# -- operator overloads -------------------------------------------------------

def _attach_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: power(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__rmatmul__ = lambda self, other: matmul(other, self)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum_(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list))
        else shape)
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    @property
    def T(self):  # noqa: N802 - numpy-style alias
        return transpose(self)
    Tensor.T = T


_attach_operators()
