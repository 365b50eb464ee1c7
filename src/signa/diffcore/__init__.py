"""Minimal reverse-mode autodiff over numpy arrays.

Everything training needs and nothing more: a Tensor wrapper whose tape
node links the parents' nodes to a backward closure, the ops the training
tape records (`matmul`, which takes the dropout of its left operand, and
the nonlinearities `activation` and `layer_norm`, which take the layer's
bias or affine parameters), the custom-op API that `graphdata.spmm` and
the contrastive loss build on, Adam, a seeded RNG tree and the row blocks
(`row_blocks`) that the blocked passes of signa cut.  It imports nothing
of signa but `signa.errors`.  Finite-difference gradient checking and the
generic ops the test oracles need live with the tests.

Custom ops: build the output as `Tensor(value, _parents=(x, ...))` and
attach a closure with `record_backward(out, fn)`.  `fn(g)` returns a tuple
with one gradient per parent, in `_parents` order (None for a parent that
needs none); `backward` adds each into its parent.  The closure should
capture the arrays it reads, never a parent Tensor, so that nothing else
stays alive until the backward pass.

Gradients are shared, never copied: a node keeps the first gradient it
receives by reference, and a second one sums into a fresh array.  An op
whose gradient for two parents is its upstream gradient (a sum of two
inputs of one shape) hands both the same array, and two Parameters can
then hold it at once.  So no closure and no Adam step writes into a
gradient it was given.

Memory: an array lives until its last reader has run.  `backward` drops
a node's closure, parent links and (but for a Parameter's) gradient as
soon as it has visited the node.  A Parameter holds no gradient array of
its own: it keeps the one the backward pass hands it until `adam_step`,
which releases it, so no gradient is alive in the forward pass or the
loss, and Adam steps every parameter one block at a time in two scratch
arrays of one block (of the parameter, when it is smaller).  One budget,
2^17 entries, sizes those blocks and every `row_blocks` block.  The
training loop names no intermediate: h dies when the projector returns
and z once the loss has formed its unit rows (jsd scores z itself).  The
input features are held once, by the Graph, in the active precision, and
layer 0 reads them in place.

One keep rule for every op: it keeps its input's `rebuild` when the input
has one, else the input's array.  `matmul` keeps its dropout mask, as
bits (`keep_mask` packs 8 entries to a byte), and its left operand for
dL/dW.  Every layer runs it with the layer's dropout (the nfm ablation's
feature mask at layer 0); the forward draws the mask one row block of
uniforms at a time straight into its bits, and forms the dropped rows
1024 at a time, each block unpacked, multiplied and freed; the backward
forms them again 512 columns at a time for dL/dW = X^T g, and multiplies
dL/dX by the mask one row block at a time, so no boolean mask of the
whole operand is formed.  A product whose left operand needs no
gradient (the graph's features) and is no wider than the product carries
a rebuild from the features, the mask and W: its first call, in the
backward, forms the whole product again in the forward's operations, and
every call returns a read-only view of that one array, which dies with
the last tape node that keeps the rebuild.  The width rule caps that at
one product of the layer's width by itself per backward; a wider input
(and any product spmm reads, whose output has no rebuild) leaves its
product on the tape.  `activation` and `layer_norm` keep their input:
`activation` forms x + bias itself when given a bias and keeps that sum,
or x's rebuild and the bias, from which it forms the sum when it reads
it; `layer_norm` runs the activation before it as one op and also keeps
two n x 1 columns, the row mean and inverse deviation.  Each backward
rebuilds what it reads from those in the forward's own operations, and
each output carries a `rebuild` of any column block from the same
arrays, which the product that reads it keeps in place of the output.  A
standalone ELU keeps its output instead, which its derivative reads.  A
leaky relu is a prelu with a constant slope.  The rebuilds and the
backward read W, gain, bias and the prelu slope as they are then, so a
parameter must not change between the forward and the backward (Adam
steps after the backward).

So in training the tape holds, per layer, the mask as bits and the
activation's input (h + bias without LayerNorm), and with LayerNorm the
two n x 1 columns; the layer's input is the graph's features at layer 0
and a rebuild after it, which cost the tape nothing, and layer 0's
activation input is a rebuild too when F is at most the hidden width.
With gconv, spmm keeps only the shared adjacency.  The projector keeps its
activation's input or, for the ELU of every preset, its output, which the
second matmul reads too; the loss keeps dLoss/dz.  Each is one n x width
array (n x width/8 bytes for a mask).  A dL/dW forms one n x 512 column
block at a time, with that block of its mask as booleans.  layer_norm's
backward forms two arrays of its width, which also serve the activation's
backward, one row block's scratch and the mask d > 0.
While it runs, the blocked contrastive loss holds two B x n strip arrays
(three for the jsd ablation, whose sigmoid slope is a strip of its own),
the strip's boolean clamp mask, and three n x d arrays: the unit rows zn,
their gradient dzn, which becomes dLoss/dz in place, and one scratch.
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
    backward,
    check_finite,
    layer_norm,
    logistic,
    matmul,
    record_backward,
    row_blocks,
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
    "backward",
    "check_finite",
    "get_precision",
    "layer_norm",
    "logistic",
    "matmul",
    "record_backward",
    "row_blocks",
    "set_precision",
]
