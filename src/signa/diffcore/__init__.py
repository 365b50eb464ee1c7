"""Minimal reverse-mode autodiff over numpy arrays.

Everything training needs and nothing more: a Tensor wrapper whose tape
node links the parents' nodes to a backward closure, the ops the training
tape records (`matmul`, `add`, `dropout_matmul`, `layer_norm`,
`activation`), the custom-op API that `graphdata.spmm` and the
contrastive loss build on, Adam, and a seeded RNG tree.  Finite-difference
gradient checking and the generic ops the test oracles need live with the
tests.

Custom ops: build the output as `Tensor(value, _parents=(x, ...))` and
attach a closure with `record_backward(out, fn)`.  `fn(g)` returns a tuple
with one gradient per parent, in `_parents` order (None for a parent that
needs none); `backward` adds each into its parent.  The closure should
capture the arrays it reads, never a parent Tensor, so that nothing else
stays alive until the backward pass.

Gradients are shared, never copied: a node keeps the first gradient it
receives by reference, and a second one sums into a fresh array.  `add` of
two inputs of one shape hands both parents the same array, and two
Parameters can then hold it at once.  So no closure and no Adam step
writes into a gradient it was given.

Memory: an array lives until its last reader has run.  `backward` drops
a node's closure, parent links and (but for a Parameter's) gradient as
soon as it has visited the node.  A Parameter holds no gradient array of
its own: it keeps the one the backward pass hands it until `adam_step`,
which releases it, so no gradient is alive in the forward pass or the
loss, and Adam steps a large parameter one block at a time in two
block-sized scratch arrays.  The training loop names no intermediate: h
dies when the projector returns and z once the loss has formed its unit
rows (jsd scores z itself).  The input features are held once, by the
Graph, in the active precision, and layer 0 reads them in place.

Every layer runs `dropout_matmul`.  Its forward forms the dropped rows (or,
for the nfm ablation, layer 0's masked rows) 1024 rows at a time, each
block multiplied and freed; it keeps the boolean mask and its input, and
its backward forms the dropped input again 512 columns at a time for
dL/dW.  Every mask is drawn one row block of uniforms at a time.
`layer_norm` runs the activation before it as one op and keeps that
activation's input and two n x 1 columns, the row mean and inverse
deviation; its backward rebuilds the activation's output and the
standardized rows from them in the forward's own operations.  Its output
carries a `rebuild` of any column block from the same arrays, and an op
that reads the output for dL/dW (the next layer's `dropout_matmul`, the
projector's `matmul`) keeps that rebuild, not the array, and forms X^T g
one column block at a time.  The rebuild and the backward read gain, bias
and the prelu slope as they are then, so a parameter must not change
between the forward and the backward (Adam steps after the backward).

So in training the tape holds, per layer, the mask and, with LayerNorm,
the activation's input and the two n x 1 columns; the layer's input is the
graph's features at layer 0 and a rebuild after it, which cost the tape
nothing.  Per layer without LayerNorm it holds the mask, the layer's input
(the activation output of the layer before) and the activation's boolean
mask (relu, leaky_relu), output (elu) or input (prelu); with gconv, spmm
keeps only the shared adjacency.  The projector keeps its activation's
array, which for the ELU of every preset is its output, also the second
matmul's input; the loss keeps dLoss/dz.  Each is one n x width array
(booleans for a mask).  A dL/dW forms one n x 512 column block at a time;
layer_norm's backward forms two arrays of its width, which also serve the
activation's backward, one row block's scratch and, with an activation,
the mask d > 0.  While it runs, the blocked contrastive loss holds two B x
n strip arrays (three for the jsd ablation, whose sigmoid slope is a strip
of its own), the strip's boolean clamp mask, and three n x d arrays: the
unit rows zn, their gradient dzn, which becomes dLoss/dz in place, and one
scratch.
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
    dropout_matmul,
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
    "dropout_matmul",
    "get_precision",
    "layer_norm",
    "logistic",
    "matmul",
    "record_backward",
    "set_precision",
]
