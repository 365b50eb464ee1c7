"""Adam with decoupled weight decay.

State is held per parameter (first/second moment arrays plus a shared step
counter).  `adam_step` applies bias-corrected moments, shrinks weights by
`value *= 1 - lr * weight_decay` before the Adam delta, and zeroes every
gradient afterwards so the next backward pass starts clean.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, OptimizationError
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
    """One Adam update of every parameter, then zero its gradient.

    The arithmetic is m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), in that order, computed in two
    scratch arrays per parameter with the gradient squared in place (it is
    zeroed at the end anyway).
    """
    for p in state.params:
        if not np.isfinite(p.grad).all():
            raise OptimizationError(f"non-finite gradient for parameter {p.name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for p in state.params:
        if state.weight_decay != 0.0:
            p.data *= 1.0 - state.lr * state.weight_decay
        m = state.m[p.name]
        v = state.v[p.name]
        g = p.grad
        step = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += step
        v *= BETA2
        g *= g
        g *= 1.0 - BETA2
        v += g
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m, bc1, out=step)
        step *= state.lr
        step /= denom
        p.data -= step
        g[...] = 0.0
