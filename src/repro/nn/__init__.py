"""Numpy neural-network substrate with double-backprop autodiff.

Public surface:

- :class:`Tensor`, :class:`Parameter`, :func:`grad`, :func:`no_grad`
- :mod:`repro.nn.ops` primitives and :mod:`repro.nn.functional` helpers
- :mod:`repro.nn.kernels` fused execution kernels
- :mod:`repro.nn.plan` trace-and-replay plan compiler (:class:`PlanFunction`)
- :mod:`repro.nn.profiler` op-level profiler (:func:`profile`)
- Layers: :class:`Linear`, :class:`MLP`, :class:`LSTMCell`, :class:`LSTM`
- Optimizers: :class:`SGD`, :class:`Adam`
- Differential privacy: :class:`DPGradientProcessor` and the RDP accountant
"""

from repro.nn import functional, init, kernels, ops, plan, profiler
from repro.nn.dp import (DPGradientProcessor, compute_epsilon, compute_rdp,
                         noise_multiplier_for_epsilon, rdp_to_epsilon)
from repro.nn.layers import (LSTM, MLP, GRUCell, LayerNorm, Linear,
                             LSTMCell, Module, Sequential)
from repro.nn.optim import (SGD, Adam, Optimizer, StepLR,
                            clip_grad_norm, grad_norm)
from repro.nn.plan import PlanFunction, PlanUnsupported, plan_mode
from repro.nn.profiler import OpProfiler, profile
from repro.nn.tensor import Parameter, Tensor, astensor, grad, no_grad

__all__ = [
    "Tensor", "Parameter", "grad", "no_grad", "astensor",
    "ops", "functional", "init", "kernels", "plan", "profiler",
    "PlanFunction", "PlanUnsupported", "plan_mode",
    "OpProfiler", "profile",
    "Module", "Linear", "MLP", "LSTMCell", "LSTM", "GRUCell",
    "LayerNorm", "Sequential",
    "Optimizer", "SGD", "Adam", "StepLR", "clip_grad_norm",
    "grad_norm",
    "DPGradientProcessor", "compute_rdp", "rdp_to_epsilon",
    "compute_epsilon", "noise_multiplier_for_epsilon",
]
