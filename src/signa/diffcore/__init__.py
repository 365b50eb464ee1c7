"""Minimal reverse-mode autodiff over numpy arrays.

Everything training needs and nothing more: a Tensor wrapper recording
parent links and backward closures, the ops the training tape records
(`matmul`, `add`, `dropout`, `layer_norm`, `activation`), the custom-op
API that `graphdata.spmm` and the contrastive loss build on, Adam, and a
seeded RNG tree.  Finite-difference gradient checking and the generic ops
the test oracles need live with the tests.
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
    accumulate_grad,
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
    "accumulate_grad",
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
