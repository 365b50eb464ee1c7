"""Tensor and Parameter types for the reverse-mode numeric core.

A Tensor wraps a row-major numpy array together with the links needed to
replay the chain rule: the tensors it was computed from and a closure that
pushes an upstream gradient into them.  Leaf tensors (inputs, constants)
have no links.  Parameter is a named leaf whose gradient buffer persists
across backward passes so an optimizer can consume it.

A tensor needs a gradient iff it is a Parameter or one of its parents needs
one; this is fixed at construction.  A tensor that needs none keeps no links,
`ops.backward` never visits it and `ops.accumulate_grad` drops what is pushed
into it, so constants and input features cost nothing in the backward pass.

Precision is a process-global switch: float64 by default (required for
gradient checking), float32 selectable for speed.  Arrays are coerced to
the active dtype at construction time, so the switch must be thrown before
building models.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

_PRECISIONS = {"f32": np.float32, "f64": np.float64}
_active_precision = "f64"


def set_precision(name: str) -> None:
    """Select the global float width ("f32" or "f64") for new tensors."""
    global _active_precision
    if name not in _PRECISIONS:
        raise ConfigError(f"unknown precision {name!r}; expected one of {sorted(_PRECISIONS)}")
    _active_precision = name


def get_precision() -> str:
    return _active_precision


def active_dtype() -> type:
    return _PRECISIONS[_active_precision]


class Tensor:
    """A dense array plus the bookkeeping for reverse-mode differentiation.

    `_parents` and `_backward` are filled in by the operations in
    `signa.diffcore.ops`; user code never touches them directly.  `grad`
    is populated by `ops.backward` and holds dLoss/dself; it stays None on
    a tensor that does not `needs_grad`.
    """

    def __init__(self, data, _parents: tuple = (), _backward=None):
        self.data = np.asarray(data, dtype=active_dtype())
        self.grad: np.ndarray | None = None
        self.needs_grad = any(p.needs_grad for p in _parents)
        self._parents = _parents if self.needs_grad else ()
        self._backward = _backward
        self._consumed = False

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A trainable leaf tensor with a persistent, named gradient buffer.

    The gradient is allocated at construction and is all-zeros until a
    backward pass accumulates into it.
    """

    def __init__(self, data, name: str):
        super().__init__(data)
        self.needs_grad = True
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"

