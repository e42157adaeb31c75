"""Trace-and-replay plan compiler for fixed-shape training/serving steps.

The autodiff engine in :mod:`repro.nn` rebuilds its graph from scratch on
every step: each primitive allocates a result array, a Tensor node, and a
VJP closure, and the backward pass re-derives the same op sequence every
iteration.  For GAN training the step shape is *fixed* after the first
iteration -- same batch size, same architecture, same loss -- so all of
that per-step bookkeeping is pure overhead.

:class:`PlanFunction` removes it by tracing one eager execution and
replaying the recorded op schedule afterwards:

1. **Trace** -- the first call with a given input-shape signature runs
   eagerly under a tracer that temporarily patches the :mod:`repro.nn.ops`
   primitives (and the :mod:`repro.nn.kernels` array helpers) with
   recording shims.  Every op call is logged as a step: op name, input
   references, static arguments, and output slots.  Because VJP closures
   and operator overloads resolve op names through module globals at call
   time, the *backward* pass is captured by the same shims -- the plan
   covers forward, loss, and gradients in one schedule.
2. **Replay** -- subsequent calls with the same signature execute the
   recorded schedule directly against a preallocated arena: in-place
   ``out=`` ufunc and BLAS calls, no Tensor/tape construction, no per-step
   allocation.  Every replay expression is chosen to be **bit-identical**
   to its eager counterpart (verified property-by-property in
   ``tests/nn/test_plan.py``), so compiled and eager runs produce the same
   bytes.
3. **Fallback** -- any new input signature (shape/dtype change)
   re-traces; anything the tracer cannot prove safe (unconsumed inputs,
   aliased outputs, too many signatures) permanently falls back to eager
   execution for that signature.  Correctness never depends on the plan:
   the trace itself *is* an eager run.  ``with plan_mode(False):`` runs
   every call eagerly, which is how the tests check replay against the
   eager tape.

Tracing rules (what the shims record):

- Tensor-level primitives (``add`` ... ``getitem``, ``_scatter``) record
  one step each.  Composites (``sqrt``, ``mean``, ``clip``, ``swapaxes``,
  ``stack``) decompose through the patched globals, so they need no shims.
- Data-dependent closure constants (relu masks, abs signs, max-shift
  values, the stable-sigmoid output) are produced by array-level helpers
  (``ops._relu_mask`` et al.) that are shimmed too -- a replay recomputes
  them instead of snapshotting stale trace values.
- The fused kernels record through their pure array helpers
  (``kernels._lstm_seq_forward`` ...), which accept preallocated
  workspaces on replay (laid out by ``kernels._lstm_seq_layout`` and
  ``_lstm_seq_bwd_layout``, filled from the plan's pool).
- Arrays not produced by any recorded step are snapshotted as constants
  (e.g. the all-ones seed gradient).  Python scalars pass through as
  literals.  Model parameters are re-read live (``p.data``) at every
  replay, so optimizer updates and checkpoint restores are honoured.

Building a plan (``_PlanBuilder``):

- **Dead steps.**  One backward liveness pass from the returned slots
  keeps only the steps something returned depends on.  A traced gradient
  nobody asked for (the input-gradient matmul of a network whose input is
  data, the gradient of ``mean``'s constant divisor) is computed once, in
  the trace, and never replayed.
- **Buffer planning.**  Each kept step's output buffers come from a pool
  of flat buffers per dtype: a request takes the smallest free buffer
  that holds it (and is at most ``_MAX_REUSE_RATIO`` times larger),
  viewed in its shape.  A buffer returns to the pool after the last kept
  step that reads its slot or any view of that slot, so slots whose
  live ranges do not overlap share storage; a step's own scratch --
  including the LSTM kernels' projection, gate and BPTT buffers --
  returns right after it.  Returned slots and the storage they view are
  never pooled.  The eager intermediates the trace held are released
  before the arena is allocated.

Arena lifetime: each plan owns its buffers for as long as the
:class:`PlanFunction` is alive (:meth:`PlanFunction.arena_bytes` reports
their size).  Replay outputs may alias arena storage -- they are valid
until the next replay of the same plan, and nothing else in the plan
writes to them.  Callers that retain outputs across calls (e.g. the
serving batcher) construct the plan with ``copy_outputs=True``; outputs
that alias constant or parameter storage are always copied so in-place
consumers cannot corrupt the plan.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np

from repro.nn import kernels, ops
from repro.nn.profiler import PROFILER
from repro.nn.tensor import Tensor

__all__ = ["PlanFunction", "PlanUnsupported", "plan_mode"]


class PlanUnsupported(Exception):
    """A traced step cannot be compiled; the caller falls back to eager."""


_PLAN_ENABLED = True


@contextlib.contextmanager
def plan_mode(enabled: bool = True):
    """Scope whether traced signatures are replayed (the default) or every
    call runs on the eager tape -- the oracle the replay is tested against.
    """
    global _PLAN_ENABLED
    previous = _PLAN_ENABLED
    _PLAN_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _PLAN_ENABLED = previous


# Only one trace may patch the op modules at a time.
_TRACE_LOCK = threading.Lock()


class _Active:
    tracer = None


_ACTIVE = _Active()


# Tensor-level primitives: name -> number of leading tensor arguments
# (remaining positional/keyword arguments are static).  ``sigmoid`` is
# absent on purpose: its output array is produced by the shimmed
# ``_sigmoid_stable`` helper, so a second record would alias the slot.
_TENSOR_OPS = {
    "add": 2, "sub": 2, "mul": 2, "div": 2, "maximum": 2, "minimum": 2,
    "matmul": 2, "neg": 1, "exp": 1, "log": 1, "tanh": 1, "relu": 1,
    "abs_": 1, "power": 1, "sum_": 1, "reshape": 1, "transpose": 1,
    "broadcast_to": 1, "getitem": 1, "take": 1, "_scatter": 1,
}

# Array-level helpers on ops (inputs/outputs are raw ndarrays).
_OPS_HELPERS = {
    "_sigmoid_stable": 1, "_relu_mask": 1, "_sign_of": 1,
    "_ge_masks": 2, "_le_masks": 2, "_amax": 1,
}

# Array-level helpers on kernels.  ``None`` means "every positional
# argument is a tensor input" (optional trailing ``out``/``ws`` arguments
# are never passed on the traced paths).
_KERNEL_HELPERS = {
    "_linear_forward": 3, "_lstm_cell_forward": 6, "_lstm_cell_backward": 12,
    "_lstm_seq_forward": 6, "_lstm_seq_backward": 11,
}

# Replay-schedule display names, aligned with the eager profiler's naming.
_DISPLAY = {
    "sum_": "sum", "abs_": "abs", "_scatter": "scatter",
    "_sigmoid_stable": "sigmoid", "_relu_mask": "relu.mask",
    "_sign_of": "abs.sign", "_ge_masks": "maximum.mask",
    "_le_masks": "minimum.mask", "_amax": "amax",
    "_linear_forward": "linear", "_lstm_cell_forward": "lstm_cell",
    "_lstm_cell_backward": "lstm_cell.backward",
    "_lstm_seq_forward": "lstm_sequence",
    "_lstm_seq_backward": "lstm_sequence.backward",
}


def _freeze(value):
    """Deep-copy ndarray components of static arguments (e.g. indices)."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    return value


class _Step:
    __slots__ = ("name", "in_refs", "in_meta", "static", "out_slots",
                 "out_meta")

    def __init__(self, name, in_refs, in_meta, static, out_slots, out_meta):
        self.name = name
        self.in_refs = in_refs      # ("s", slot) | ("lit", value)
        self.in_meta = in_meta      # (shape, dtype) | None per input
        self.static = static        # frozen (args_tail, kwargs)
        self.out_slots = out_slots
        self.out_meta = out_meta    # (shape, dtype, is_view) per output


class _Tracer:
    """Records one eager execution as a step schedule."""

    def __init__(self):
        self.thread_id = threading.get_ident()
        self.failed: str | None = None
        self.steps: list[_Step] = []
        self.slot_of: dict[int, int] = {}    # id(array) -> slot
        self.n_slots = 0
        self.keepalive: list = []            # id stability for slot_of
        self.const_slots: dict[int, np.ndarray] = {}  # slot -> snapshot
        self.input_slots: list[int] = []
        self.input_ids: set[int] = set()
        self.param_refs: list[tuple[int, Tensor]] = []
        self.param_ids: set[int] = set()
        self.used_slots: set[int] = set()
        self.view_root: dict[int, int] = {}  # view slot -> storage root slot

    def on_this_thread(self) -> bool:
        return threading.get_ident() == self.thread_id

    def fail(self, reason: str) -> None:
        if self.failed is None:
            self.failed = reason

    def _new_slot(self, arr: np.ndarray) -> int:
        slot = self.n_slots
        self.n_slots += 1
        self.slot_of[id(arr)] = slot
        self.keepalive.append(arr)
        return slot

    def seed_inputs(self, arrays) -> None:
        for arr in arrays:
            if id(arr) in self.slot_of:
                self.fail("duplicate input array")
                return
            slot = self._new_slot(arr)
            self.input_slots.append(slot)
            self.input_ids.add(id(arr))

    def seed_params(self, params) -> None:
        for p in params:
            if id(p.data) in self.slot_of:
                continue  # parameter also passed as input; input wins
            slot = self._new_slot(p.data)
            self.param_refs.append((slot, p))
            self.param_ids.add(id(p.data))

    def _ref_of(self, value):
        if isinstance(value, Tensor):
            arr = value.data
        elif isinstance(value, np.ndarray):
            arr = value
        elif isinstance(value, (np.floating, np.integer)):
            return ("lit", float(value)), None
        else:
            return ("lit", value), None
        slot = self.slot_of.get(id(arr))
        if slot is None:
            # Not produced by any recorded step: snapshot as a constant.
            slot = self._new_slot(arr)
            self.const_slots[slot] = np.array(arr, copy=True)
        self.used_slots.add(slot)
        return ("s", slot), (arr.shape, arr.dtype)

    def record(self, name: str, tensor_args, static, outputs) -> None:
        if self.failed is not None:
            return
        in_refs, in_meta = [], []
        for value in tensor_args:
            ref, meta = self._ref_of(value)
            in_refs.append(ref)
            in_meta.append(meta)
        out_slots, out_meta = [], []
        for out in outputs:
            arr = out.data if isinstance(out, Tensor) else out
            if not isinstance(arr, np.ndarray):
                self.fail(f"{name} returned a non-array output")
                return
            if id(arr) in self.slot_of:
                self.fail(f"{name} returned an already-mapped array")
                return
            slot = self._new_slot(arr)
            out_slots.append(slot)
            out_meta.append((arr.shape, arr.dtype, arr.base is not None))
        self.steps.append(_Step(name, in_refs, in_meta, _freeze(static),
                                out_slots, out_meta))
        # Track storage roots so outputs aliasing constant/parameter
        # storage can be copied on return.
        if name in ("reshape", "transpose", "getitem"):
            src = in_refs[0]
            if src[0] == "s":
                root = self.view_root.get(src[1], src[1])
                for slot in out_slots:
                    self.view_root[slot] = root


def _shim_tensor_op(name: str, original, n_tensor: int):
    def shim(*args, **kwargs):
        out = original(*args, **kwargs)
        tr = _ACTIVE.tracer
        if tr is not None and tr.on_this_thread():
            tr.record(name, args[:n_tensor], (args[n_tensor:], kwargs),
                      (out,))
        return out
    return shim


def _shim_concat(original):
    def shim(tensors, axis=0):
        out = original(tensors, axis=axis)
        tr = _ACTIVE.tracer
        if tr is not None and tr.on_this_thread():
            tr.record("concat", tuple(tensors), ((), {"axis": axis}), (out,))
        return out
    return shim


def _shim_helper(name: str, original, n_tensor: int):
    def shim(*args, **kwargs):
        out = original(*args, **kwargs)
        tr = _ACTIVE.tracer
        if tr is not None and tr.on_this_thread():
            outputs = out if isinstance(out, tuple) else (out,)
            tr.record(name, args[:n_tensor], (args[n_tensor:], kwargs),
                      outputs)
        return out
    return shim


def _patch_modules():
    """Install recording shims; returns the saved originals."""
    saved = []
    for name, n in _TENSOR_OPS.items():
        original = getattr(ops, name)
        saved.append((ops, name, original))
        setattr(ops, name, _shim_tensor_op(name, original, n))
    original = ops.concat
    saved.append((ops, "concat", original))
    ops.concat = _shim_concat(original)
    for name, n in _OPS_HELPERS.items():
        original = getattr(ops, name)
        saved.append((ops, name, original))
        setattr(ops, name, _shim_helper(name, original, n))
    for name, n in _KERNEL_HELPERS.items():
        original = getattr(kernels, name)
        saved.append((kernels, name, original))
        setattr(kernels, name, _shim_helper(name, original, n))
    return saved


def _unpatch_modules(saved) -> None:
    for module, name, original in saved:
        setattr(module, name, original)


# -- replay-schedule builders -------------------------------------------------

_BIN_UFUNCS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "div": np.divide, "maximum": np.maximum, "minimum": np.minimum,
}
_UNARY_UFUNCS = {
    "neg": np.negative, "exp": np.exp, "log": np.log, "tanh": np.tanh,
    "abs_": np.absolute, "_sign_of": np.sign,
}


#: A pooled buffer serves a request at most this many times smaller than
#: itself, so small requests do not take the buffers large ones need.
_MAX_REUSE_RATIO = 4

#: Workspace buffers holding :func:`kernels._lstm_seq_backward`'s
#: results, in return order.
_SEQ_BWD_OUTPUTS = ("dx_flat", "dh_next", "dc_next", "d_wih", "d_whh",
                    "d_bias")


def _static_arg(step: _Step, position: int, keyword: str, default=None):
    args, kwargs = step.static
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


class _PlanBuilder:
    """Turns a completed trace into pooled buffers + run closures (see
    "Building a plan" in the module docstring)."""

    def __init__(self, tracer: _Tracer, outputs, copy_outputs: bool):
        self.tracer = tracer
        self.arena: list = [None] * tracer.n_slots
        self.arena_bytes = 0
        for slot, snapshot in tracer.const_slots.items():
            self.arena[slot] = snapshot
            self.arena_bytes += snapshot.nbytes
        self.out_refs = self._resolve_outputs(outputs, copy_outputs)
        steps = self._live_steps()
        release = self._release_points(steps)
        self._pool: dict[tuple, list] = {}
        self._owned: dict[int, np.ndarray] = {}   # slot -> pooled buffer
        self._scratch_bufs: list = []
        self.schedule: list[tuple] = []
        for index, step in enumerate(steps):
            name, run, allocs = self._build_step(step)
            self.schedule.append((_DISPLAY.get(name, name), run, allocs))
            for buf in self._scratch_bufs:
                self._give_back(buf)
            self._scratch_bufs.clear()
            for slot in release.get(index, ()):
                buf = self._owned.pop(slot, None)
                if buf is not None:
                    self._give_back(buf)

    # liveness ----------------------------------------------------------------
    def _live_steps(self) -> list:
        """The steps some returned slot depends on, in trace order.

        Sets ``live_slots``: every slot a kept step reads or the plan
        returns.  Dead slots let replay builders skip work whose results
        nothing consumes (e.g. BPTT caches of a no-grad LSTM forward).
        """
        live = {ref[0] for ref in self.out_refs if ref is not None}
        kept = []
        for step in reversed(self.tracer.steps):
            if any(slot in live for slot in step.out_slots):
                kept.append(step)
                live.update(ref[1] for ref in step.in_refs if ref[0] == "s")
        self.live_slots = live
        return kept[::-1]

    def _release_points(self, steps) -> dict[int, list]:
        """Step index -> storage slots whose last use is that step."""
        root = self.tracer.view_root
        last: dict[int, int] = {}
        for index, step in enumerate(steps):
            for slot in step.out_slots:
                last[root.get(slot, slot)] = index
            for ref in step.in_refs:
                if ref[0] == "s":
                    last[root.get(ref[1], ref[1])] = index
        for ref in self.out_refs:
            if ref is not None:
                last.pop(root.get(ref[0], ref[0]), None)
        release: dict[int, list] = {}
        for slot, index in last.items():
            release.setdefault(index, []).append(slot)
        return release

    # output resolution ------------------------------------------------------
    def _resolve_outputs(self, outputs, copy_outputs):
        tr = self.tracer
        protected = (set(tr.const_slots) | {s for s, _ in tr.param_refs}
                     | set(tr.input_slots))
        refs = []
        for out in outputs:
            if out is None:
                refs.append(None)
                continue
            arr = out.data if isinstance(out, Tensor) else out
            slot = tr.slot_of.get(id(arr))
            if slot is None:
                raise PlanUnsupported("an output was not produced by any "
                                      "recorded step")
            root = tr.view_root.get(slot, slot)
            refs.append((slot, copy_outputs or root in protected))
        return refs

    # step builders ----------------------------------------------------------
    def _take(self, shape, dtype) -> np.ndarray:
        """A contiguous buffer of ``shape``: a view of the smallest free
        pooled buffer of that dtype that is large enough (and at most
        ``_MAX_REUSE_RATIO`` times larger), or a new one."""
        size = int(np.prod(shape, dtype=np.int64))
        free = self._pool.setdefault(np.dtype(dtype), [])
        fits = [i for i, flat in enumerate(free)
                if size <= flat.size <= _MAX_REUSE_RATIO * size]
        if fits:
            flat = free.pop(min(fits, key=lambda i: free[i].size))
        else:
            flat = np.empty(size, dtype=dtype)
            self.arena_bytes += flat.nbytes
        return flat[:size].reshape(shape)

    def _give_back(self, buf: np.ndarray) -> None:
        self._pool[buf.dtype].append(buf.base)

    def _buf(self, slot: int, meta) -> np.ndarray:
        """The pooled output buffer of ``slot``."""
        shape, dtype, _ = meta
        buf = self._take(shape, dtype)
        self._owned[slot] = buf
        self.arena[slot] = buf
        return buf

    def _scratch(self, shape, dtype=np.float64) -> np.ndarray:
        """A pooled buffer used only inside the step being built."""
        buf = self._take(shape, dtype)
        self._scratch_bufs.append(buf)
        return buf

    def _workspace(self, layout: dict, step: _Step, outputs: dict) -> dict:
        """A kernel workspace for ``layout`` (name -> (shape, dtype)).

        ``outputs`` maps the names that hold the step's results to their
        output index: those are the pooled buffers of the output slots
        (reshaped to the layout's shape).  Every other buffer is step
        scratch, back in the pool as soon as the step is built.
        """
        ws = {}
        for name, (shape, dtype) in layout.items():
            index = outputs.get(name)
            if index is None:
                ws[name] = self._scratch(shape, dtype)
            else:
                ws[name] = self._buf(step.out_slots[index],
                                     step.out_meta[index]).reshape(shape)
        return ws

    def _operand(self, ref):
        """Returns (is_slot, slot_or_literal)."""
        return (True, ref[1]) if ref[0] == "s" else (False, ref[1])

    def _build_step(self, step: _Step):
        name = step.name
        builder = getattr(self, "_build_" + name.strip("_"), None)
        if builder is None:
            builder = self._build_generic(name)
        return (name,) + builder(step)

    def _build_generic(self, name: str):
        def build(step):
            if name in _BIN_UFUNCS:
                return self._binary(step, _BIN_UFUNCS[name])
            if name in _UNARY_UFUNCS:
                return self._unary(step, _UNARY_UFUNCS[name])
            raise PlanUnsupported(f"no replay builder for op {name!r}")
        return build

    def _binary(self, step, ufunc):
        (sa, a), (sb, b) = map(self._operand, step.in_refs)
        buf = self._buf(step.out_slots[0], step.out_meta[0])
        if sa and sb:
            def run(arena):
                ufunc(arena[a], arena[b], out=buf)
        elif sa:
            def run(arena):
                ufunc(arena[a], b, out=buf)
        else:
            def run(arena):
                ufunc(a, arena[b], out=buf)
        return run, 0

    def _unary(self, step, ufunc):
        _, a = self._operand(step.in_refs[0])
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            ufunc(arena[a], out=buf)
        return run, 0

    def _build_relu(self, step):
        _, a = self._operand(step.in_refs[0])
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.maximum(arena[a], 0.0, out=buf)
        return run, 0

    def _build_power(self, step):
        _, a = self._operand(step.in_refs[0])
        exponent = float(_static_arg(step, 0, "exponent"))
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.power(arena[a], exponent, out=buf)
        return run, 0

    def _build_matmul(self, step):
        (_, a), (_, b) = map(self._operand, step.in_refs)
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.matmul(arena[a], arena[b], out=buf)
        return run, 0

    def _build_sum(self, step):
        _, a = self._operand(step.in_refs[0])
        ndim = len(step.in_meta[0][0])
        axes = ops._normalize_axis(_static_arg(step, 0, "axis"), ndim)
        axis_arg = axes or None
        keepdims = bool(_static_arg(step, 1, "keepdims", False))
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            # np.sum's exact reduction path, minus its Python wrapper.
            np.add.reduce(arena[a], axis=axis_arg, keepdims=keepdims,
                          out=buf)
        return run, 0

    def _build_reshape(self, step):
        _, a = self._operand(step.in_refs[0])
        shape = tuple(_static_arg(step, 0, "shape"))
        slot = step.out_slots[0]
        allocs = 0 if step.out_meta[0][2] else 1

        def run(arena):
            arena[slot] = arena[a].reshape(shape)
        return run, allocs

    def _build_transpose(self, step):
        _, a = self._operand(step.in_refs[0])
        ndim = len(step.in_meta[0][0])
        axes = _static_arg(step, 0, "axes")
        if axes is None:
            axes = tuple(reversed(range(ndim)))
        axes = tuple(ax % ndim for ax in axes)
        slot = step.out_slots[0]

        def run(arena):
            arena[slot] = arena[a].transpose(axes)
        return run, 0

    def _build_broadcast_to(self, step):
        _, a = self._operand(step.in_refs[0])
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.copyto(buf, arena[a])
        return run, 0

    def _build_concat(self, step):
        slots = [self._operand(r)[1] for r in step.in_refs]
        axis = int(_static_arg(step, 0, "axis", 0)) % len(step.in_meta[0][0])
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.concatenate([arena[s] for s in slots], axis=axis, out=buf)
        return run, 0

    def _build_getitem(self, step):
        _, a = self._operand(step.in_refs[0])
        index = _static_arg(step, 0, "index")
        slot = step.out_slots[0]
        allocs = 0 if step.out_meta[0][2] else 1

        def run(arena):
            arena[slot] = arena[a][index]
        return run, allocs

    def _build_take(self, step):
        _, a = self._operand(step.in_refs[0])
        indices = _static_arg(step, 0, "indices")
        axis = _static_arg(step, 1, "axis", -1)
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            # mode="wrap" writes straight into ``buf``; the default mode
            # buffers the result first.  The recorded indices are in range,
            # so the modes select the same elements.
            np.take(arena[a], indices, axis=axis, out=buf, mode="wrap")
        return run, 0

    def _build_scatter(self, step):
        _, g = self._operand(step.in_refs[0])
        index = _static_arg(step, 0, "index")
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            buf.fill(0.0)
            np.add.at(buf, index, arena[g])
        return run, 0

    def _build_sigmoid_stable(self, step):
        _, a = self._operand(step.in_refs[0])
        buf = self._buf(step.out_slots[0], step.out_meta[0])
        tmp = self._scratch(buf.shape, buf.dtype)
        mask = self._scratch(buf.shape, bool)

        def run(arena):
            kernels._sigmoid_into(arena[a], buf, tmp, mask)
        return run, 0

    def _build_relu_mask(self, step):
        _, a = self._operand(step.in_refs[0])
        buf = self._buf(step.out_slots[0], step.out_meta[0])
        mask = self._scratch(buf.shape, bool)

        def run(arena):
            np.greater(arena[a], 0, out=mask)
            np.copyto(buf, mask)
        return run, 0

    def _cmp_masks(self, step, ufunc):
        (sa, a), (sb, b) = map(self._operand, step.in_refs)
        buf_a = self._buf(step.out_slots[0], step.out_meta[0])
        buf_b = self._buf(step.out_slots[1], step.out_meta[1])
        mask = self._scratch(buf_a.shape, bool)

        def run(arena):
            ufunc(arena[a] if sa else a, arena[b] if sb else b, out=mask)
            np.copyto(buf_a, mask)
            np.logical_not(mask, out=mask)
            np.copyto(buf_b, mask)
        return run, 0

    def _build_ge_masks(self, step):
        return self._cmp_masks(step, np.greater_equal)

    def _build_le_masks(self, step):
        return self._cmp_masks(step, np.less_equal)

    def _build_amax(self, step):
        _, a = self._operand(step.in_refs[0])
        axis = _static_arg(step, 0, "axis")
        keepdims = bool(_static_arg(step, 1, "keepdims", False))
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            # np.amax's exact reduction path, minus its Python wrapper.
            np.maximum.reduce(arena[a], axis=axis, keepdims=keepdims,
                              out=buf)
        return run, 0

    def _build_linear_forward(self, step):
        x, w, b = (self._operand(r)[1] for r in step.in_refs)
        buf = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            kernels._linear_forward(arena[x], arena[w], arena[b], out=buf)
        return run, 0

    def _assign_outputs(self, slots):
        def assign(arena, results):
            for slot, arr in zip(slots, results):
                arena[slot] = arr
        return assign

    def _build_lstm_cell_forward(self, step):
        ins = [self._operand(r)[1] for r in step.in_refs]
        assign = self._assign_outputs(step.out_slots)
        allocs = sum(1 for meta in step.out_meta if not meta[2])

        def run(arena):
            assign(arena, kernels._lstm_cell_forward(
                *(arena[s] for s in ins)))
        return run, allocs

    def _build_lstm_cell_backward(self, step):
        operands = [self._operand(r) for r in step.in_refs]
        assign = self._assign_outputs(step.out_slots)
        allocs = len(step.out_slots)

        def run(arena):
            args = [arena[v] if is_slot else v for is_slot, v in operands]
            assign(arena, kernels._lstm_cell_backward(*args))
        return run, allocs

    def _build_lstm_seq_forward(self, step):
        ins = [self._operand(r)[1] for r in step.in_refs]
        batch, steps_, in_dim = step.in_meta[0][0]
        n = step.in_meta[1][0][1]
        # Dead-cache elimination: out_slots[1:] are the seven BPTT caches.
        # When nothing in the plan consumes them (a no-grad forward: the
        # d-step's detached generator pass, serving generation), replay
        # the scan with need_cache=False and bind only h_out -- same
        # arithmetic, ~7 fewer array copies per timestep, no cache arrays.
        need_cache = any(s in self.live_slots for s in step.out_slots[1:])
        outputs = ("h_out",) + (kernels._SEQ_CACHES if need_cache else ())
        ws = self._workspace(
            kernels._lstm_seq_layout(batch, steps_, in_dim, n, need_cache),
            step, {name: index for index, name in enumerate(outputs)})
        if need_cache:
            assign = self._assign_outputs(step.out_slots)

            def run(arena):
                assign(arena, kernels._lstm_seq_forward(
                    *(arena[s] for s in ins), ws=ws))
        else:
            h_slot = step.out_slots[0]

            def run(arena):
                arena[h_slot] = kernels._lstm_seq_forward(
                    *(arena[s] for s in ins), ws=ws, need_cache=False)[0]
        return run, 0

    def _build_lstm_seq_backward(self, step):
        ins = [self._operand(r)[1] for r in step.in_refs]
        batch, steps_, in_dim = step.in_meta[1][0]
        n = step.in_meta[4][0][2]
        ws = self._workspace(
            kernels._lstm_seq_bwd_layout(batch, steps_, in_dim, n), step,
            {name: index for index, name in enumerate(_SEQ_BWD_OUTPUTS)})
        assign = self._assign_outputs(step.out_slots)

        def run(arena):
            assign(arena, kernels._lstm_seq_backward(
                *(arena[s] for s in ins), ws=ws))
        return run, 0


class _Plan:
    """A compiled schedule bound to its preallocated arena."""

    __slots__ = ("schedule", "arena", "input_slots", "param_refs",
                 "out_refs", "allocs_per_replay", "arena_bytes")

    def __init__(self, builder: _PlanBuilder):
        self.schedule = builder.schedule
        self.arena = builder.arena
        self.arena_bytes = builder.arena_bytes
        self.input_slots = builder.tracer.input_slots
        self.param_refs = builder.tracer.param_refs
        self.out_refs = builder.out_refs
        self.allocs_per_replay = (
            sum(allocs for _, _, allocs in self.schedule)
            + sum(1 for ref in self.out_refs if ref is not None and ref[1]))

    def replay(self, inputs):
        arena = self.arena
        for slot, arr in zip(self.input_slots, inputs):
            arena[slot] = arr
        for slot, p in self.param_refs:
            arena[slot] = p.data
        if PROFILER.active:
            record = PROFILER.record
            clock = time.perf_counter
            for name, run, allocs in self.schedule:
                started = clock()
                run(arena)
                record(name, clock() - started, allocs)
        else:
            for _, run, _ in self.schedule:
                run(arena)
        outputs = []
        for ref in self.out_refs:
            if ref is None:
                outputs.append(None)
                continue
            slot, copy = ref
            arr = arena[slot]
            outputs.append(arr.copy() if copy else arr)
        return outputs


class PlanFunction:
    """Trace-and-replay wrapper around a fixed-shape array function.

    ``fn`` takes raw float64 ndarrays and returns a tuple of Tensors,
    ndarrays, or ``None``; a call always returns a list of
    ndarrays/``None``.  One plan is compiled per input signature
    ``(shapes, dtypes)``; signatures beyond ``max_plans`` and
    anything the tracer rejects run eagerly forever.  ``params`` lists the
    Parameters whose ``.data`` must be re-read live on every replay.

    Thread-safe: traces serialize globally, replays serialize per
    instance (each plan owns mutable buffers).
    """

    def __init__(self, fn, params=(), name: str = "plan",
                 copy_outputs: bool = False, max_plans: int = 8):
        self.fn = fn
        self.params = list(params)
        self.name = name
        self.copy_outputs = copy_outputs
        self.max_plans = max_plans
        self._plans: dict = {}
        self._lock = threading.Lock()
        self.stats = {"traces": 0, "replays": 0, "eager_calls": 0,
                      "fallbacks": 0}

    def signature(self, inputs) -> tuple:
        return tuple((a.shape, a.dtype.str) for a in inputs)

    def __call__(self, inputs):
        inputs = tuple(inputs)
        if not _PLAN_ENABLED:
            self.stats["eager_calls"] += 1
            return self._eager(inputs)
        key = self.signature(inputs)
        with self._lock:
            entry = self._plans.get(key)
            if entry is None:
                if len(self._plans) >= self.max_plans:
                    self.stats["eager_calls"] += 1
                    return self._eager(inputs)
                plan, outputs = self._trace(inputs)
                self._plans[key] = plan if plan is not None else "eager"
                if plan is None:
                    self.stats["fallbacks"] += 1
                return outputs
            if entry == "eager":
                self.stats["eager_calls"] += 1
                return self._eager(inputs)
            self.stats["replays"] += 1
            return entry.replay(inputs)

    def _latest_plan(self):
        for entry in reversed(list(self._plans.values())):
            if entry != "eager":
                return entry
        return None

    def allocs_per_replay(self) -> int | None:
        """Allocation count of the most recently compiled plan, if any."""
        plan = self._latest_plan()
        return None if plan is None else plan.allocs_per_replay

    def arena_bytes(self) -> int | None:
        """Bytes the most recently compiled plan preallocated (pooled slot
        buffers, kernel workspaces and constant snapshots), if any."""
        plan = self._latest_plan()
        return None if plan is None else plan.arena_bytes

    def _eager(self, inputs):
        return _unwrap(self.fn(*inputs))

    def _trace(self, inputs):
        self.stats["traces"] += 1
        with _TRACE_LOCK:
            tracer = _Tracer()
            tracer.seed_inputs(inputs)
            tracer.seed_params(self.params)
            saved = _patch_modules()
            _ACTIVE.tracer = tracer
            try:
                raw = self.fn(*inputs)
            finally:
                _ACTIVE.tracer = None
                _unpatch_modules(saved)
        outputs = tuple(raw)
        plan = None
        if tracer.failed is None:
            # Every input must be consumed by a recorded step (or returned
            # as-is): a dtype-coerced copy of an input would otherwise be
            # baked into the plan as a stale constant.
            returned_slots = {
                tracer.slot_of.get(id(o.data if isinstance(o, Tensor)
                                      else o))
                for o in outputs if o is not None}
            unconsumed = [s for s in tracer.input_slots
                          if s not in tracer.used_slots
                          and s not in returned_slots]
            if unconsumed:
                tracer.fail("input array never consumed by a recorded step")
        # The eager intermediates only kept array ids unique while tracing;
        # release them before the arena is allocated.
        tracer.keepalive.clear()
        if tracer.failed is None and tracer.steps:
            try:
                plan = _Plan(_PlanBuilder(tracer, outputs,
                                          self.copy_outputs))
            except PlanUnsupported:
                plan = None
        return plan, _unwrap(outputs)


def _unwrap(outputs):
    return [o.data if isinstance(o, Tensor) else o for o in outputs]
