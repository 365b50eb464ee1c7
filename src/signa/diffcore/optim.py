"""Adam with decoupled weight decay.

State is held per parameter (first/second moment arrays plus a shared step
counter).  `adam_step` applies bias-corrected moments, shrinks weights by
`value *= 1 - lr * weight_decay` before the Adam delta, and then releases
every gradient, so a gradient lives only from the backward pass that forms
it to the step that consumes it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, OptimizationError
from .ops import _BLOCK_ENTRIES
from .tensor import Parameter

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    def __init__(self, params: list[Parameter], lr: float, weight_decay: float = 0.0):
        if lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0.0:
            raise ConfigError(f"weight decay must be non-negative, got {weight_decay}")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names in optimizer state")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}


def adam_step(state: AdamState) -> None:
    """One Adam update of every parameter, then release its gradient.

    The arithmetic is m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), in that order.  The gradient is
    read, never written: it may be an array another parameter adopted too,
    or a buffer its caller reuses.  A parameter with no gradient steps as
    if it were zero.  Every parameter, C-contiguous as are its moments, is
    updated one block of `_BLOCK_ENTRIES` flattened entries at a time in
    two scratch arrays of at most one block; every operation is
    elementwise, so the bits are those of one pass over the whole array.
    """
    for p in state.params:
        g = p.grad
        if g is not None and not np.isfinite(g).all():
            raise OptimizationError(f"non-finite gradient for parameter {p.name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for p in state.params:
        g = p.grad
        if state.weight_decay != 0.0:
            p.data *= 1.0 - state.lr * state.weight_decay
        if g is None:
            g = np.zeros(p.data.shape, p.data.dtype)
        data, m, v, g = p.data.reshape(-1), state.m[p.name].reshape(-1), state.v[p.name].reshape(-1), g.reshape(-1)
        step, denom = (np.empty(min(data.size, _BLOCK_ENTRIES), data.dtype) for _ in range(2))
        for start in range(0, data.size, _BLOCK_ENTRIES):
            block = slice(start, start + _BLOCK_ENTRIES)
            size = len(data[block])
            _update(data[block], m[block], v[block], g[block], state.lr, bc1, bc2, step[:size], denom[:size])
        p.grad = None


def _update(data, m, v, g, lr, bc1, bc2, step, denom) -> None:
    """One Adam update of `data` in place; `step` and `denom` are scratch
    arrays of its size."""
    np.multiply(g, 1.0 - BETA1, out=step)
    m *= BETA1
    m += step
    v *= BETA2
    np.multiply(g, g, out=step)
    step *= 1.0 - BETA2
    v += step
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, bc1, out=step)
    step *= lr
    step /= denom
    data -= step
