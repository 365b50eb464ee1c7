"""Tensor and Parameter types for the reverse-mode numeric core.

A Tensor wraps a row-major numpy array.  A tensor that needs a gradient
also has a tape node: the nodes of its parents, a closure that maps the
upstream gradient to one gradient per parent, and the gradient summed so
far.  The tape links nodes, never Tensors, so an op's output array lives
only while a Tensor or a closure still reads it.  Leaf tensors (inputs,
constants) have no node.  Parameter is a named leaf whose node keeps a
gradient from the backward pass that forms it to the Adam step that
consumes and releases it.

A tensor needs a gradient iff it is a Parameter or one of its parents needs
one; this is fixed at construction.  A tensor that needs none has no node,
so `ops.backward` never visits it and constants and input features cost
nothing in the backward pass.

Precision is a process-global switch: float64 by default (required for
gradient checking), float32 selectable for speed.  Arrays are coerced to
the active dtype at construction time, so the switch must be thrown before
building models.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError

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


class _Node:
    """One tape entry.

    `parents` holds a node per parent tensor, None for a parent that needs
    no gradient; `backward` maps the upstream gradient to one gradient per
    parent; `grad` is the gradient summed so far: the first gradient the
    node receives, by reference, then fresh sums.  `backward` drops it once
    the node's closure has read it, but for a Parameter's node (`persistent`),
    a leaf that keeps it until the Adam step releases it.
    """

    __slots__ = ("parents", "backward", "grad", "persistent")

    def __init__(self, parents: tuple, persistent: bool = False):
        self.parents = parents
        self.backward = None
        self.grad = None
        self.persistent = persistent


class Tensor:
    """A dense array plus, when it needs a gradient, its tape node.

    `_node` is filled in here and by `ops.record_backward`; user code never
    touches it directly.  `grad` is dLoss/dself while `ops.backward` runs
    (a Parameter's persists); it is None on a tensor that does not
    `needs_grad`.  `rebuild`, when an op sets it (`matmul`, `activation`,
    `layer_norm`), maps (c0, c1) to an array equal bit for bit to
    `data[:, c0:c1]`, formed from what the op's own tape node keeps; an op
    that reads this tensor in its backward keeps it instead of `data`.  A
    nonlinearity's rebuild returns a new array; a product's returns a
    read-only view of the one product it forms at its first call.
    """

    def __init__(self, data, _parents: tuple = ()):
        self.data = np.asarray(data, dtype=active_dtype())
        nodes = tuple(p._node for p in _parents)
        self._node = _Node(nodes) if any(node is not None for node in nodes) else None
        self._consumed = False
        self.rebuild = None

    @property
    def needs_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A trainable, named leaf tensor.

    It holds no gradient array of its own: `grad` is None until a backward
    pass hands it one, which it keeps by reference (a second gradient sums
    into a fresh array), and `adam_step` releases it.  A model that only
    runs inference (a loaded checkpoint under `signa eval`) never holds one,
    and in training a gradient lives from the backward pass to the step.
    Code that forms a gradient itself (the probe, tests) assigns it to
    `grad`; the step reads it and never writes into it.  Its data is
    C-contiguous: a C-contiguous array in the active dtype is held by
    reference, and any other input is copied once.
    """

    def __init__(self, data, name: str):
        super().__init__(np.asarray(data, dtype=active_dtype(), order="C"))
        self.name = name
        self._node = _Node((), persistent=True)

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        """Hand the next Adam step a gradient of this parameter's shape, in
        its dtype (cast when it is not), or release it with None."""
        if value is not None:
            value = np.asarray(value, dtype=self.data.dtype)
            if value.shape != self.data.shape:
                raise ShapeError(
                    f"gradient shape {value.shape} does not match parameter {self.name!r} {self.data.shape}"
                )
        self._node.grad = value

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"
