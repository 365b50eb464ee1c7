"""Minimal reverse-mode autodiff over numpy arrays.

Everything the models need and nothing more: a Tensor wrapper recording
parent links and backward closures, a fixed set of differentiable ops,
Adam, finite-difference gradient checking, and a seeded RNG tree.
"""

from .tensor import (
    Parameter,
    Tensor,
    active_dtype,
    get_precision,
    set_precision,
    zero_grads,
)
from .ops import (
    ACTIVATIONS,
    accumulate_grad,
    activation,
    add,
    backward,
    check_finite,
    clamp,
    dropout,
    exp,
    hadamard,
    layer_norm,
    log,
    logistic,
    matmul,
    record_backward,
    rows_l2_normalize,
    scalar_mul,
    sigmoid,
    sub,
    take_rows,
    tmean,
    transpose,
    tsum,
)
from .optim import AdamState, adam_step
from .gradcheck import GradCheckReport, gradcheck
from .rng import PURPOSES, RngStream

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "GradCheckReport",
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
    "clamp",
    "dropout",
    "exp",
    "get_precision",
    "gradcheck",
    "hadamard",
    "layer_norm",
    "log",
    "logistic",
    "matmul",
    "record_backward",
    "rows_l2_normalize",
    "scalar_mul",
    "set_precision",
    "sigmoid",
    "sub",
    "take_rows",
    "tmean",
    "transpose",
    "tsum",
    "zero_grads",
]
