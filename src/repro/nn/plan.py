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
   recorded schedule directly against a preallocated arena (a program's
   *binding*, below): in-place ``out=`` ufunc and BLAS calls, no
   Tensor/tape construction, no per-step allocation.  Every replay
   expression is chosen to be **bit-identical** to its eager counterpart
   (verified property-by-property in ``tests/nn/test_plan.py``), so
   compiled and eager runs produce the same bytes.
3. **Fallback** -- any new input signature (shape/dtype change) binds
   its cached program or traces anew; anything the tracer cannot prove
   safe (unconsumed inputs, aliased outputs, too many signatures)
   permanently falls back to eager execution for that signature.
   Correctness never depends on the plan: the trace itself *is* an eager
   run.  ``with plan_mode(False):`` runs every call eagerly, which is how
   the tests check replay against the eager tape.

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

Building a program (``_PlanBuilder``):

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
  never pooled.  The builder only lays the buffers out (which flat
  buffer, which shape); none is allocated until a model binds.

Programs and bindings:

- A **program** (``_Program``) is the run closures of the kept steps,
  the arena layout (slot views and kernel workspaces over the pooled
  flat buffers) and the frozen constants.  Every closure reads and
  writes only ``arena[i]``, so a program belongs to no model.
- A **binding** (``_Binding``) is one model's arena: freshly allocated
  flat buffers with their slot views, the LSTM workspace dicts, the
  program's constants (read-only, shared) and that model's Parameters,
  mapped by position in the plan's ``params``.  An arena entry is just
  an array, so a later binding could point an output slot at an external
  view (say, a flat gradient buffer) without touching the program.
- **Sharing.**  A plan built with a ``key`` (its owner's architecture:
  step name, config, schema digest; see :func:`method_plan`) looks up
  ``(key, parameter shapes, input signature, copy_outputs)`` in a
  bounded process-wide cache before tracing.  On a hit it only binds:
  no eager trace pass and no builder run, and its first call replays.
  Models of one architecture trace the same schedule step for step, so
  the hit replays exactly what a fresh trace would have built.  The
  cache holds programs only -- no buffers, no Parameters -- so it keeps
  no model alive, and two bindings of one program replay concurrently
  on two threads.  A plan without a key never shares.

Arena lifetime: a binding's buffers live as long as its
:class:`PlanFunction` (:meth:`PlanFunction.arena_bytes` reports their
size); a cached program lives until the cache evicts it or
:func:`clear_program_cache`.  Replay outputs may alias arena storage --
they are valid until the next replay of the same plan, and nothing else
in the plan writes to them.  Callers that retain outputs across calls
(e.g. generation, whose blocks are concatenated) construct the plan with
``copy_outputs=True``; outputs that alias constant or parameter storage
are always copied so in-place consumers cannot corrupt the program.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref
from collections import OrderedDict

import numpy as np

from repro.nn import kernels, ops
from repro.nn.profiler import PROFILER
from repro.nn.tensor import Tensor

__all__ = ["PlanFunction", "PlanUnsupported", "plan_mode", "method_plan",
           "clear_program_cache"]


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
        self.param_slots: list[tuple[int, int]] = []  # (slot, position)
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
        for position, p in enumerate(params):
            if id(p.data) in self.slot_of:
                continue  # parameter also passed as input; input wins
            self.param_slots.append((self._new_slot(p.data), position))

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
    """Turns a completed trace into a :class:`_Program`: the kept steps,
    their run closures and the layout of the arena they run on (see
    "Building a plan" in the module docstring).

    Every closure reads and writes only ``arena[i]``; the buffers behind
    those indices are allocated per model when a program is bound.
    """

    def __init__(self, tracer: _Tracer, outputs, copy_outputs: bool):
        self.tracer = tracer
        self.n_arena = tracer.n_slots
        self.consts = list(tracer.const_slots.items())
        self.arena_bytes = sum(c.nbytes for _, c in self.consts)
        self.flats: list[tuple[int, np.dtype]] = []   # pooled buffers
        self.views: list[tuple] = []       # (index, flat, size, shape)
        self.workspaces: list[tuple] = []  # (index, name -> view spec)
        self.out_refs = self._resolve_outputs(outputs, copy_outputs)
        self.steps = self._live_steps()
        release = self._release_points(self.steps)
        self._pool: dict[np.dtype, list[int]] = {}
        self._owned: dict[int, int] = {}   # slot -> pooled flat buffer
        self._scratch_flats: list[int] = []
        self.schedule: list[tuple] = []
        for index, step in enumerate(self.steps):
            name, run, allocs = self._build_step(step)
            self.schedule.append((_DISPLAY.get(name, name), run, allocs))
            for flat in self._scratch_flats:
                self._give_back(flat)
            self._scratch_flats.clear()
            for slot in release.get(index, ()):
                flat = self._owned.pop(slot, None)
                if flat is not None:
                    self._give_back(flat)

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
        protected = (set(tr.const_slots) | {s for s, _ in tr.param_slots}
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

    # buffer layout ---------------------------------------------------------
    def _take(self, shape, dtype) -> int:
        """The flat buffer serving a contiguous ``shape``: the smallest free
        pooled buffer of that dtype that is large enough (and at most
        ``_MAX_REUSE_RATIO`` times larger), or a new one."""
        size = int(np.prod(shape, dtype=np.int64))
        dtype = np.dtype(dtype)
        free = self._pool.setdefault(dtype, [])
        fits = [i for i, flat in enumerate(free)
                if size <= self.flats[flat][0] <= _MAX_REUSE_RATIO * size]
        if fits:
            return free.pop(min(fits, key=lambda i: self.flats[free[i]][0]))
        self.flats.append((size, dtype))
        self.arena_bytes += size * dtype.itemsize
        return len(self.flats) - 1

    def _give_back(self, flat: int) -> None:
        self._pool[self.flats[flat][1]].append(flat)

    def _new_index(self) -> int:
        self.n_arena += 1
        return self.n_arena - 1

    def _view(self, index: int, flat: int, shape) -> int:
        shape = tuple(shape)
        self.views.append((index, flat, int(np.prod(shape, dtype=np.int64)),
                           shape))
        return index

    def _buf(self, slot: int, meta) -> int:
        """Lays out the pooled output buffer of ``slot``; returns ``slot``."""
        shape, dtype, _ = meta
        flat = self._take(shape, dtype)
        self._owned[slot] = flat
        return self._view(slot, flat, shape)

    def _scratch(self, shape, dtype=np.float64) -> int:
        """The arena index of a pooled buffer used only inside the step
        being built."""
        flat = self._take(shape, dtype)
        self._scratch_flats.append(flat)
        return self._view(self._new_index(), flat, shape)

    def _workspace(self, layout: dict, step: _Step, outputs: dict) -> int:
        """The arena index of a kernel workspace for ``layout`` (name ->
        (shape, dtype)).

        ``outputs`` maps the names that hold the step's results to their
        output index: those are the pooled buffers of the output slots
        (reshaped to the layout's shape).  Every other buffer is step
        scratch, back in the pool as soon as the step is built.
        """
        ws = {}
        for name, (shape, dtype) in layout.items():
            index = outputs.get(name)
            if index is None:
                flat = self._take(shape, dtype)
                self._scratch_flats.append(flat)
            else:
                slot = step.out_slots[index]
                self._buf(slot, step.out_meta[index])
                flat = self._owned[slot]
            shape = tuple(shape)
            ws[name] = (flat, int(np.prod(shape, dtype=np.int64)), shape)
        index = self._new_index()
        self.workspaces.append((index, ws))
        return index

    # step builders ----------------------------------------------------------
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
        o = self._buf(step.out_slots[0], step.out_meta[0])
        if sa and sb:
            def run(arena):
                ufunc(arena[a], arena[b], out=arena[o])
        elif sa:
            def run(arena):
                ufunc(arena[a], b, out=arena[o])
        else:
            def run(arena):
                ufunc(a, arena[b], out=arena[o])
        return run, 0

    def _unary(self, step, ufunc):
        _, a = self._operand(step.in_refs[0])
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            ufunc(arena[a], out=arena[o])
        return run, 0

    def _build_relu(self, step):
        _, a = self._operand(step.in_refs[0])
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.maximum(arena[a], 0.0, out=arena[o])
        return run, 0

    def _build_power(self, step):
        _, a = self._operand(step.in_refs[0])
        exponent = float(_static_arg(step, 0, "exponent"))
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.power(arena[a], exponent, out=arena[o])
        return run, 0

    def _build_matmul(self, step):
        (_, a), (_, b) = map(self._operand, step.in_refs)
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.matmul(arena[a], arena[b], out=arena[o])
        return run, 0

    def _build_sum(self, step):
        _, a = self._operand(step.in_refs[0])
        ndim = len(step.in_meta[0][0])
        axes = ops._normalize_axis(_static_arg(step, 0, "axis"), ndim)
        axis_arg = axes or None
        keepdims = bool(_static_arg(step, 1, "keepdims", False))
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            # np.sum's exact reduction path, minus its Python wrapper.
            np.add.reduce(arena[a], axis=axis_arg, keepdims=keepdims,
                          out=arena[o])
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
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.copyto(arena[o], arena[a])
        return run, 0

    def _build_concat(self, step):
        slots = [self._operand(r)[1] for r in step.in_refs]
        axis = int(_static_arg(step, 0, "axis", 0)) % len(step.in_meta[0][0])
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            np.concatenate([arena[s] for s in slots], axis=axis,
                           out=arena[o])
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
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            # mode="wrap" writes straight into the output; the default
            # mode buffers the result first.  The recorded indices are in
            # range, so the modes select the same elements.
            np.take(arena[a], indices, axis=axis, out=arena[o], mode="wrap")
        return run, 0

    def _build_scatter(self, step):
        _, g = self._operand(step.in_refs[0])
        index = _static_arg(step, 0, "index")
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            buf = arena[o]
            buf.fill(0.0)
            np.add.at(buf, index, arena[g])
        return run, 0

    def _build_sigmoid_stable(self, step):
        _, a = self._operand(step.in_refs[0])
        shape = step.out_meta[0][0]
        o = self._buf(step.out_slots[0], step.out_meta[0])
        tmp = self._scratch(shape, step.out_meta[0][1])
        mask = self._scratch(shape, bool)

        def run(arena):
            kernels._sigmoid_into(arena[a], arena[o], arena[tmp],
                                  arena[mask])
        return run, 0

    def _build_relu_mask(self, step):
        _, a = self._operand(step.in_refs[0])
        o = self._buf(step.out_slots[0], step.out_meta[0])
        mask = self._scratch(step.out_meta[0][0], bool)

        def run(arena):
            np.greater(arena[a], 0, out=arena[mask])
            np.copyto(arena[o], arena[mask])
        return run, 0

    def _cmp_masks(self, step, ufunc):
        (sa, a), (sb, b) = map(self._operand, step.in_refs)
        oa = self._buf(step.out_slots[0], step.out_meta[0])
        ob = self._buf(step.out_slots[1], step.out_meta[1])
        m = self._scratch(step.out_meta[0][0], bool)

        def run(arena):
            mask = arena[m]
            ufunc(arena[a] if sa else a, arena[b] if sb else b, out=mask)
            np.copyto(arena[oa], mask)
            np.logical_not(mask, out=mask)
            np.copyto(arena[ob], mask)
        return run, 0

    def _build_ge_masks(self, step):
        return self._cmp_masks(step, np.greater_equal)

    def _build_le_masks(self, step):
        return self._cmp_masks(step, np.less_equal)

    def _build_amax(self, step):
        _, a = self._operand(step.in_refs[0])
        axis = _static_arg(step, 0, "axis")
        keepdims = bool(_static_arg(step, 1, "keepdims", False))
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            # np.amax's exact reduction path, minus its Python wrapper.
            np.maximum.reduce(arena[a], axis=axis, keepdims=keepdims,
                              out=arena[o])
        return run, 0

    def _build_linear_forward(self, step):
        x, w, b = (self._operand(r)[1] for r in step.in_refs)
        o = self._buf(step.out_slots[0], step.out_meta[0])

        def run(arena):
            kernels._linear_forward(arena[x], arena[w], arena[b],
                                    out=arena[o])
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
        w = self._workspace(
            kernels._lstm_seq_layout(batch, steps_, in_dim, n, need_cache),
            step, {name: index for index, name in enumerate(outputs)})
        if need_cache:
            assign = self._assign_outputs(step.out_slots)

            def run(arena):
                assign(arena, kernels._lstm_seq_forward(
                    *(arena[s] for s in ins), ws=arena[w]))
        else:
            h_slot = step.out_slots[0]

            def run(arena):
                arena[h_slot] = kernels._lstm_seq_forward(
                    *(arena[s] for s in ins), ws=arena[w],
                    need_cache=False)[0]
        return run, 0

    def _build_lstm_seq_backward(self, step):
        ins = [self._operand(r)[1] for r in step.in_refs]
        batch, steps_, in_dim = step.in_meta[1][0]
        n = step.in_meta[4][0][2]
        w = self._workspace(
            kernels._lstm_seq_bwd_layout(batch, steps_, in_dim, n), step,
            {name: index for index, name in enumerate(_SEQ_BWD_OUTPUTS)})
        assign = self._assign_outputs(step.out_slots)

        def run(arena):
            assign(arena, kernels._lstm_seq_backward(
                *(arena[s] for s in ins), ws=arena[w]))
        return run, 0


class _Program:
    """A compiled schedule and the layout of the arena it runs on.

    Holds no buffers and no parameters, so one program serves every
    model whose owner key, parameter shapes, input signature and output
    copying match; a :class:`_Binding` gives one model its own arena.
    ``consts`` are the frozen ``(slot, array)`` snapshots every binding
    reads (never writes).  The trace records are not kept.
    """

    __slots__ = ("schedule", "n_arena", "consts", "flats",
                 "views", "workspaces", "input_slots", "param_slots",
                 "out_refs", "allocs_per_replay", "arena_bytes")

    def __init__(self, builder: _PlanBuilder):
        self.schedule = builder.schedule
        self.n_arena = builder.n_arena
        self.consts = builder.consts
        self.flats = builder.flats
        self.views = builder.views
        self.workspaces = builder.workspaces
        self.input_slots = builder.tracer.input_slots
        self.param_slots = builder.tracer.param_slots
        self.out_refs = builder.out_refs
        self.arena_bytes = builder.arena_bytes
        self.allocs_per_replay = (
            sum(allocs for _, _, allocs in self.schedule)
            + sum(1 for ref in self.out_refs if ref is not None and ref[1]))


class _Binding:
    """One model's arena for a :class:`_Program`: freshly allocated pooled
    buffers with their slot views, the kernel workspaces, the shared
    constants and the model's parameters (by position in ``params``)."""

    __slots__ = ("program", "arena", "param_refs")

    def __init__(self, program: _Program, params):
        arena = [None] * program.n_arena
        for slot, snapshot in program.consts:
            arena[slot] = snapshot
        flats = [np.empty(size, dtype=dtype)
                 for size, dtype in program.flats]
        for index, flat, size, shape in program.views:
            arena[index] = flats[flat][:size].reshape(shape)
        for index, layout in program.workspaces:
            arena[index] = {name: flats[flat][:size].reshape(shape)
                            for name, (flat, size, shape) in layout.items()}
        self.program = program
        self.arena = arena
        self.param_refs = [(slot, params[position])
                           for slot, position in program.param_slots]

    def replay(self, inputs):
        program = self.program
        arena = self.arena
        for slot, arr in zip(program.input_slots, inputs):
            arena[slot] = arr
        for slot, p in self.param_refs:
            arena[slot] = p.data
        if PROFILER.active:
            record = PROFILER.record
            clock = time.perf_counter
            for name, run, allocs in program.schedule:
                started = clock()
                run(arena)
                record(name, clock() - started, allocs)
        else:
            for _, run, _ in program.schedule:
                run(arena)
        outputs = []
        for ref in program.out_refs:
            if ref is None:
                outputs.append(None)
                continue
            slot, copy = ref
            arr = arena[slot]
            outputs.append(arr.copy() if copy else arr)
        return outputs


# -- the process-wide program cache -------------------------------------------

#: Programs kept for reuse, least recently used first, keyed by
#: :meth:`PlanFunction.program_key`.
_PROGRAMS: OrderedDict = OrderedDict()
_PROGRAMS_LOCK = threading.Lock()

#: Bound on cached programs.  A DoppelGANger release uses about eight
#: (d, g and w steps, generation blocks, two downstream MLPs).
MAX_PROGRAMS = 64


def _cached_program(key) -> _Program | None:
    with _PROGRAMS_LOCK:
        program = _PROGRAMS.get(key)
        if program is not None:
            _PROGRAMS.move_to_end(key)
        return program


def _store_program(key, program: _Program) -> None:
    with _PROGRAMS_LOCK:
        _PROGRAMS[key] = program
        _PROGRAMS.move_to_end(key)
        while len(_PROGRAMS) > MAX_PROGRAMS:
            _PROGRAMS.popitem(last=False)


def clear_program_cache() -> None:
    """Drop every cached program; the next plan of each key traces."""
    with _PROGRAMS_LOCK:
        _PROGRAMS.clear()


class PlanFunction:
    """Trace-and-replay wrapper around a fixed-shape array function.

    ``fn`` takes raw float64 ndarrays and returns a tuple of Tensors,
    ndarrays, or ``None``; a call always returns a list of
    ndarrays/``None``.  One plan is bound per input signature
    ``(shapes, dtypes)``; signatures beyond ``max_plans`` and
    anything the tracer rejects run eagerly forever.  ``params`` lists the
    Parameters whose ``.data`` must be re-read live on every replay.

    ``key`` names what ``fn`` computes, independently of any one model:
    two plans with equal keys, parameter shapes and input signatures
    must trace the same schedule.  A keyed plan looks its program up in
    the process-wide cache before tracing and only binds on a hit; a plan
    without a key never shares.

    Thread-safe: traces serialize globally, replays serialize per
    instance (each binding owns mutable buffers).
    """

    def __init__(self, fn, params=(), name: str = "plan",
                 copy_outputs: bool = False, max_plans: int = 8,
                 key=None):
        self.fn = fn
        self.params = list(params)
        self.name = name
        self.copy_outputs = copy_outputs
        self.max_plans = max_plans
        self.key = key
        self._plans: dict = {}
        self._lock = threading.Lock()
        self.stats = {"traces": 0, "replays": 0, "eager_calls": 0,
                      "fallbacks": 0}

    def signature(self, inputs) -> tuple:
        return tuple((a.shape, a.dtype.str) for a in inputs)

    def program_key(self, inputs) -> tuple | None:
        """The cache key of the program for ``inputs`` (``None`` when
        this plan has no key)."""
        if self.key is None:
            return None
        shapes = tuple((p.data.shape, p.data.dtype.str) for p in self.params)
        return (self.key, shapes, self.signature(inputs), self.copy_outputs)

    def __call__(self, inputs):
        inputs = tuple(inputs)
        if not _PLAN_ENABLED:
            self.stats["eager_calls"] += 1
            return self._eager(inputs)
        signature = self.signature(inputs)
        with self._lock:
            entry = self._plans.get(signature)
            if entry is None:
                if len(self._plans) >= self.max_plans:
                    self.stats["eager_calls"] += 1
                    return self._eager(inputs)
                key = self.program_key(inputs)
                program = None if key is None else _cached_program(key)
                if program is None:
                    program, outputs = self._trace(inputs)
                    if program is None:
                        self._plans[signature] = "eager"
                        self.stats["fallbacks"] += 1
                    else:
                        if key is not None:
                            _store_program(key, program)
                        self._plans[signature] = _Binding(program,
                                                          self.params)
                    return outputs
                entry = self._plans[signature] = _Binding(program,
                                                          self.params)
            if entry == "eager":
                self.stats["eager_calls"] += 1
                return self._eager(inputs)
            self.stats["replays"] += 1
            return entry.replay(inputs)

    def _latest_binding(self) -> _Binding | None:
        for entry in reversed(list(self._plans.values())):
            if entry != "eager":
                return entry
        return None

    def allocs_per_replay(self) -> int | None:
        """Allocation count of a replay of the most recent binding, if
        any."""
        binding = self._latest_binding()
        return None if binding is None else binding.program.allocs_per_replay

    def arena_bytes(self) -> int | None:
        """Bytes the most recent binding's arena holds (its pooled slot
        buffers and kernel workspaces, plus the program's constant
        snapshots), if any."""
        binding = self._latest_binding()
        return None if binding is None else binding.program.arena_bytes

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
        program = None
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
                program = _Program(_PlanBuilder(tracer, outputs,
                                                self.copy_outputs))
            except PlanUnsupported:
                program = None
        return program, _unwrap(outputs)


def method_plan(owner, attr: str, method, params, key=None,
                copy_outputs: bool = False) -> PlanFunction:
    """The :class:`PlanFunction` of ``owner.<attr>`` over the bound
    ``method``, created on first use.

    The plan reaches its owner only weakly: a strong reference would make
    every owner that has run a plan a reference cycle that keeps its
    arenas alive until a full garbage-collection pass.  With an owner
    ``key`` (what the owner's architecture is, independently of its
    weights) the plan shares programs under ``(method name, key)``.
    """
    plan = owner.__dict__.get(attr)
    if plan is None:
        weak = weakref.WeakMethod(method)
        plan = PlanFunction(
            lambda *inputs: weak()(*inputs), params=params,
            name=attr.strip("_"), copy_outputs=copy_outputs,
            key=None if key is None else (method.__qualname__, key))
        owner.__dict__[attr] = plan
    return plan


def _unwrap(outputs):
    return [o.data if isinstance(o, Tensor) else o for o in outputs]
