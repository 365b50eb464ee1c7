"""Minimal reverse-mode autodiff over numpy arrays.

Everything training needs and nothing more: a Tensor wrapper whose tape
node links the parents' nodes to a backward closure, the ops the training
tape records (`matmul`, `add`, `dropout`, `layer_norm`, `activation`), the
custom-op API that `graphdata.spmm` and the contrastive loss build on,
Adam, and a seeded RNG tree.  Finite-difference gradient checking and the
generic ops the test oracles need live with the tests.

Custom ops: build the output as `Tensor(value, _parents=(x, ...))` and
attach a closure with `record_backward(out, fn)`.  `fn(g)` returns a tuple
with one gradient per parent, in `_parents` order (None for a parent that
needs none); `backward` adds each into its parent.  The closure should
capture the arrays it reads, never a parent Tensor, so that nothing else
stays alive until the backward pass.

Memory: the tape keeps only what a backward reads.  Per encoder layer in
training that is the matmul input, the dropout mask (after the first
layer; the input features need no gradient), the activation's boolean
mask (relu, leaky_relu), output (elu) or input (prelu), and layer_norm's
standardized input; with gconv, spmm keeps only the shared adjacency.
The projector keeps its input h and its activation's array, which for the
ELU of every preset is its output, also the second matmul's input; the
loss keeps dLoss/dz.  Each is one n x width array (booleans for a mask),
plus layer_norm's n x 1 inverse deviation.  While it runs, the blocked
contrastive loss holds two B x n strip arrays (three for the jsd
ablation, whose sigmoid slope is a strip of its own), the strip's boolean
clamp mask, and three n x d arrays: the unit rows zn, their gradient dzn,
which becomes dLoss/dz in place, and one scratch.
"""

from .tensor import (
    Parameter,
    Tensor,
    active_dtype,
    get_precision,
    set_precision,
)
from .ops import (
    ACTIVATIONS,
    activation,
    add,
    backward,
    check_finite,
    dropout,
    layer_norm,
    logistic,
    matmul,
    record_backward,
)
from .optim import AdamState, adam_step
from .rng import PURPOSES, RngStream

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "PURPOSES",
    "Parameter",
    "RngStream",
    "Tensor",
    "activation",
    "active_dtype",
    "adam_step",
    "add",
    "backward",
    "check_finite",
    "dropout",
    "get_precision",
    "layer_norm",
    "logistic",
    "matmul",
    "record_backward",
    "set_precision",
]
