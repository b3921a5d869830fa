"""Residual MLP family: exact forward, skip-aware forward, compact views,
and hand-derived gradients from output-side gradients (the distillation
loss built on them lives in :mod:`latecut.distill`).

All numeric state is float64 numpy arrays.  Affine maps are stored
input-major, so a layer computes ``x @ W + b`` with ``W`` of shape
``(in_dim, out_dim)``.  A residual block computes

    x + relu(x @ weight1 + bias1) @ weight2 + bias2

Its input and output widths are equal, which is what makes it removable:
skipping a block leaves the identity in its place.  Blocks are indexed
1..n in forward order.  The hidden width of a block may differ from the
feature width (the standard constructors always use square blocks; the
checkpoint format only supports those).

Only ranking and profiling skip blocks, through :func:`forward`.  A pruned
model is a :func:`compact` view that shares its parameter arrays with the
full network; tracing, backprop and :func:`sgd_step` take no skip set, and
training the view trains the full network's kept blocks in place.

The forward path is one tile pipeline.  It pads the batch once with zero
rows into a ``(k, TILE_ROWS, d)`` stack and evaluates every affine map on
that stack through :data:`tile_kernel`, one ``(TILE_ROWS, in) x (in, out)``
GEMM per tile.  BLAS picks its blocking, and so its reduction order, from
the operand shapes; with one shape for every call, each row's sums are
computed the same way whatever the batch size or the row's position in it.
That makes every sample's features bitwise independent of which batch it
rides in, which cached pseudo-labels rely on (a label generated for one
sample must exactly equal the same model's output for that sample inside
any mini-batch).  Bias, ReLU and residual adds are in-place ufuncs on
arrays the pass allocated, and the output is cut back to the batch's rows
once, at the end.  An import-time self-check runs the BLAS kernel on rows
alone and inside stacks of several sizes and offsets; where the local BLAS
fails it, the kernel is einsum instead, whose reduction order depends only
on the operand widths but which runs several times slower on batches.
Gradient math uses plain matmul; it has no such contract and is verified
against finite differences instead.

Every operation here is pure except :func:`sgd_step`, which updates its
network in place.  Networks and arrays can be handed between threads, but
one network must not be mutated concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InvalidBlockError, NumericError


class OpCounter:
    """Process-global tally of forward/backward sweeps.

    Used by cost-contract tests (e.g. ranking n blocks must cost exactly
    n + 1 forward passes).  One "pass" is one full-network sweep over a
    batch, regardless of batch size.
    """

    __slots__ = ("forward_passes", "backward_passes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.forward_passes = 0
        self.backward_passes = 0


op_counter = OpCounter()


@dataclass
class ResidualBlock:
    weight1: np.ndarray  # (width, hidden)
    bias1: np.ndarray    # (hidden,)
    weight2: np.ndarray  # (hidden, width)
    bias2: np.ndarray    # (width,)
    block_id: int


@dataclass
class ResidualNetwork:
    """Stem affine, ordered removable residual blocks, classifier affine."""

    stem_weight: np.ndarray        # (input_dim, width)
    stem_bias: np.ndarray          # (width,)
    blocks: list[ResidualBlock]
    classifier_weight: np.ndarray  # (width, num_classes)
    classifier_bias: np.ndarray    # (num_classes,)

    @property
    def input_dim(self) -> int:
        return self.stem_weight.shape[0]

    @property
    def width(self) -> int:
        return self.stem_weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.classifier_weight.shape[1]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def parameter_arrays(self):
        """All parameter tensors in declaration order (checkpoint order)."""
        return _parameter_arrays(self)


@dataclass
class BlockGradients:
    weight1: np.ndarray
    bias1: np.ndarray
    weight2: np.ndarray
    bias2: np.ndarray


@dataclass
class Gradients:
    """One array per trainable parameter tensor, congruent with a network."""

    stem_weight: np.ndarray
    stem_bias: np.ndarray
    blocks: list[BlockGradients]
    classifier_weight: np.ndarray
    classifier_bias: np.ndarray

    def parameter_arrays(self):
        return _parameter_arrays(self)


def _parameter_arrays(owner):
    """Tensors of a network or gradient set in declaration order."""
    yield owner.stem_weight
    yield owner.stem_bias
    for block in owner.blocks:
        yield block.weight1
        yield block.bias1
        yield block.weight2
        yield block.bias2
    yield owner.classifier_weight
    yield owner.classifier_bias


@functools.lru_cache(maxsize=64)
def _frozen_zeros(shape) -> np.ndarray:
    """A read-only zero array, shared by every frozen-classifier gradient of
    this shape."""
    zeros = np.zeros(shape)
    zeros.flags.writeable = False
    return zeros


@dataclass
class ForwardTrace:
    """Per-block intermediates from one forward sweep, for backprop and for
    scoring rules that need block inputs/outputs."""

    batch: np.ndarray
    block_inputs: dict[int, np.ndarray]   # x entering each block, by block id
    block_preacts: dict[int, np.ndarray]  # z = x @ W1 + b1
    block_hidden: dict[int, np.ndarray]   # relu(z)
    features: np.ndarray                  # final pre-classifier features
    logits: np.ndarray


def _as_f64(array) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(array, dtype=np.float64))


def normalize_skip(network: ResidualNetwork, skip) -> frozenset[int]:
    """Validate a skip set against the network's block ids.

    A frozenset of ints, the form this returns, is range-checked as it is;
    anything else is converted first.
    """
    if skip is None:
        return frozenset()
    if type(skip) is not frozenset or not all(type(j) is int for j in skip):
        skip = frozenset(int(j) for j in skip)
    n = network.n_blocks
    for j in skip:
        if j < 1 or j > n:
            raise InvalidBlockError(f"block id {j} outside 1..{n}")
    return skip


def _check_batch(network: ResidualNetwork, batch) -> np.ndarray:
    batch = _as_f64(batch)
    if batch.ndim != 2:
        raise DimensionError(f"batch must be 2-D (B, input_dim), got shape {batch.shape}")
    if batch.shape[1] != network.input_dim:
        raise DimensionError(
            f"batch width {batch.shape[1]} != network input_dim {network.input_dim}"
        )
    return batch


# Rows per GEMM tile.  Timed per affine map against einsum at widths 32 and
# 128: with 4 rows batch 1 is as fast and batch 64 about 6x faster; 8 and 16
# rows make batch 1 slower at width 128.
TILE_ROWS = 4


def _tile_stack(x) -> np.ndarray:
    """``x`` zero-padded to a multiple of ``TILE_ROWS`` rows, as a
    ``(k, TILE_ROWS, d)`` stack.  A view of ``x`` when no padding is needed:
    the pipeline only reads it."""
    rows, dim = x.shape
    tiles = -(-rows // TILE_ROWS)
    if tiles * TILE_ROWS == rows:
        return x.reshape(tiles, TILE_ROWS, dim)
    stack = np.zeros((tiles, TILE_ROWS, dim))
    stack.reshape(tiles * TILE_ROWS, dim)[:rows] = x
    return stack


def _rows(stack, rows) -> np.ndarray:
    """The first ``rows`` rows of a tile stack, as a 2-D view."""
    return stack.reshape(-1, stack.shape[2])[:rows]


def _einsum_tiles(stack, weight):
    """Tile kernel by einsum, the fallback where BLAS tiles are not batch
    invariant."""
    return np.einsum("ktd,dw->ktw", stack, weight)


def _kernel_is_batch_invariant(kernel) -> bool:
    """Whether ``kernel`` gives each row of a tile stack the same bits alone
    and inside stacks built from batches of several sizes and offsets."""
    rng = np.random.default_rng(0)
    for in_dim, out_dim in ((16, 32), (128, 128), (33, 4)):
        weight = rng.standard_normal((in_dim, out_dim))
        pool = rng.standard_normal((67, in_dim))
        alone = np.concatenate(
            [_rows(kernel(_tile_stack(row[None, :]), weight), 1) for row in pool]
        )
        for lo, hi in ((0, 67), (1, 67), (2, 5), (3, 64), (0, 64), (5, 6)):
            out = _rows(kernel(_tile_stack(pool[lo:hi]), weight), hi - lo)
            if not np.array_equal(out, alone[lo:hi]):
                return False
    return True


# The tile kernel every forward calls: ``stack @ weight`` for a
# ``(k, TILE_ROWS, in)`` stack, one ``(TILE_ROWS, in) x (in, out)`` GEMM per
# tile, with a reduction order that does not depend on k (see module
# docstring).
tile_kernel = np.matmul if _kernel_is_batch_invariant(np.matmul) else _einsum_tiles


def _affine(stack, weight, bias) -> np.ndarray:
    """``stack @ weight + bias`` as a new stack; the bias is added in place."""
    out = tile_kernel(stack, weight)
    out += bias
    return out


def forward(network, batch, skip=None):
    """Run the network, treating skipped blocks as the identity.

    Returns ``(logits, final_features)`` where ``final_features`` is the
    output of the last non-classifier stage.  Every stage works in place on
    arrays this call allocated; ``batch`` is only read.
    """
    skip = normalize_skip(network, skip)
    x = _check_batch(network, batch)
    op_counter.forward_passes += 1
    # Rows are independent, so the padding rows are computed and dropped.
    h = _affine(_tile_stack(x), network.stem_weight, network.stem_bias)
    for block in network.blocks:
        if block.block_id in skip:
            continue
        z = _affine(h, block.weight1, block.bias1)
        np.maximum(z, 0.0, out=z)
        h += _affine(z, block.weight2, block.bias2)
    logits = _affine(h, network.classifier_weight, network.classifier_bias)
    rows = x.shape[0]
    return _rows(logits, rows), _rows(h, rows)


def compact(network, skip) -> ResidualNetwork:
    """``network`` without the blocks in ``skip``, as a view.

    The view shares every parameter array with ``network``, so training it
    trains the kept blocks in place.  Its blocks are numbered 1..k in
    forward order, as a checkpoint numbers them.  Its forward runs the same
    operations in the same order as ``forward(network, batch, skip)``, so
    the outputs are bitwise equal.
    """
    skip = normalize_skip(network, skip)
    kept = [b for b in network.blocks if b.block_id not in skip]
    return replace(network, blocks=[replace(b, block_id=j) for j, b in enumerate(kept, start=1)])


def forward_trace(network, batch) -> ForwardTrace:
    """Forward sweep that records per-block intermediates.

    Computes the exact same expressions as :func:`forward`, so features and
    logits are bitwise identical to a plain forward on the same inputs.  The
    recorded arrays are views, so the ReLU and the residual add allocate new
    arrays here instead of overwriting them.
    """
    batch = _check_batch(network, batch)
    op_counter.forward_passes += 1
    rows = batch.shape[0]
    inputs: dict[int, np.ndarray] = {}
    preacts: dict[int, np.ndarray] = {}
    hiddens: dict[int, np.ndarray] = {}
    h = _affine(_tile_stack(batch), network.stem_weight, network.stem_bias)
    for block in network.blocks:
        z = _affine(h, block.weight1, block.bias1)
        hidden = np.maximum(z, 0.0)
        inputs[block.block_id] = _rows(h, rows)
        preacts[block.block_id] = _rows(z, rows)
        hiddens[block.block_id] = _rows(hidden, rows)
        h = h + _affine(hidden, block.weight2, block.bias2)
    logits = _affine(h, network.classifier_weight, network.classifier_bias)
    return ForwardTrace(batch, inputs, preacts, hiddens, _rows(h, rows), _rows(logits, rows))


def feature_mse(a, b) -> float:
    """Mean over samples of each sample's pixel-mean squared error.

    1-D inputs are treated as a single sample.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[None, :]
        b = b[None, :]
    sq = (a - b) ** 2
    per_sample = sq.reshape(sq.shape[0], -1).mean(axis=1)
    return float(per_sample.mean())


def backprop_from_outputs(network, trace, grad_features=None, grad_logits=None) -> Gradients:
    """Hand-derived backward sweep from output-side gradients.

    ``grad_features`` is dL/d(final features); ``grad_logits`` additionally
    propagates a loss on the logits and fills the classifier gradients.
    Without it the classifier is frozen: its gradients are shared read-only
    zeros.
    """
    op_counter.backward_passes += 1
    feats = trace.features
    if grad_logits is not None:
        d_cls_w = feats.T @ grad_logits
        d_cls_b = grad_logits.sum(axis=0)
        g = grad_logits @ network.classifier_weight.T
        if grad_features is not None:
            g = g + grad_features
    else:
        d_cls_w = _frozen_zeros(network.classifier_weight.shape)
        d_cls_b = _frozen_zeros(network.classifier_bias.shape)
        g = np.array(grad_features, dtype=np.float64, copy=True)

    block_grads: list[BlockGradients] = []
    for block in reversed(network.blocks):
        x_in = trace.block_inputs[block.block_id]
        z = trace.block_preacts[block.block_id]
        hidden = trace.block_hidden[block.block_id]
        d_w2 = hidden.T @ g
        d_b2 = g.sum(axis=0)
        d_hidden = g @ block.weight2.T
        d_z = d_hidden * (z > 0.0)
        d_w1 = x_in.T @ d_z
        d_b1 = d_z.sum(axis=0)
        block_grads.append(BlockGradients(d_w1, d_b1, d_w2, d_b2))
        g = g + d_z @ block.weight1.T  # identity path plus branch path
    block_grads.reverse()

    d_stem_w = trace.batch.T @ g
    d_stem_b = g.sum(axis=0)
    return Gradients(d_stem_w, d_stem_b, block_grads, d_cls_w, d_cls_b)


def sgd_step(network, grads, lr):
    """Plain SGD update ``p -= lr * grad(p)`` applied in place.

    No momentum, no weight decay.  Frozen parameters are realized by zero
    gradients.  Every gradient tensor is shape-checked and checked for
    finiteness before any parameter changes.  A zero learning rate is a
    no-op that leaves every parameter bitwise unchanged.  To train some
    blocks of a network only, step its :func:`compact` view.
    """
    params = list(network.parameter_arrays())
    grad_arrays = list(grads.parameter_arrays())
    if len(params) != len(grad_arrays):
        raise DimensionError("gradient set not congruent with network")
    for p, g in zip(params, grad_arrays):
        if p.shape != g.shape:
            raise DimensionError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    for g in grad_arrays:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient")
    if lr == 0.0:
        return network
    for p, g in zip(params, grad_arrays):
        p -= lr * g
    return network


def parameter_count(network, skip=None) -> int:
    """Total parameter elements, excluding skipped blocks."""
    skip = normalize_skip(network, skip)
    total = network.stem_weight.size + network.stem_bias.size
    total += network.classifier_weight.size + network.classifier_bias.size
    for block in network.blocks:
        if block.block_id not in skip:
            total += block_param_count(block)
    return int(total)


def block_param_count(block: ResidualBlock) -> int:
    return int(block.weight1.size + block.bias1.size + block.weight2.size + block.bias2.size)


def clone_network(network: ResidualNetwork) -> ResidualNetwork:
    return ResidualNetwork(
        network.stem_weight.copy(),
        network.stem_bias.copy(),
        [
            ResidualBlock(
                b.weight1.copy(), b.bias1.copy(), b.weight2.copy(), b.bias2.copy(), b.block_id
            )
            for b in network.blocks
        ],
        network.classifier_weight.copy(),
        network.classifier_bias.copy(),
    )


# Damping of each residual branch's output weights at initialization: deep
# stacks start near the identity, which keeps the feature scale small enough
# for distillation at the standard 0.02 learning rate.
BRANCH_SCALE = 0.5


def random_network(
    input_dim, width, n_blocks, num_classes, seed=0, hidden_widths=None
) -> ResidualNetwork:
    """Seeded network with 1/sqrt(fan_in)-scaled weights and zero biases.

    ``hidden_widths`` overrides the per-block hidden width (defaults to
    square ``width x width`` blocks, the only layout checkpoints support).
    ``BRANCH_SCALE`` damps each residual branch's output weights.
    """
    rng = np.random.default_rng(seed)
    if hidden_widths is None:
        hidden_widths = [width] * n_blocks
    if len(hidden_widths) != n_blocks:
        raise DimensionError(f"need {n_blocks} hidden widths, got {len(hidden_widths)}")
    stem_w = rng.normal(0.0, input_dim ** -0.5, (input_dim, width))
    stem_b = np.zeros(width)
    blocks = []
    for i, hidden in enumerate(hidden_widths):
        w1 = rng.normal(0.0, width ** -0.5, (width, hidden))
        w2 = BRANCH_SCALE * rng.normal(0.0, hidden ** -0.5, (hidden, width))
        blocks.append(ResidualBlock(w1, np.zeros(hidden), w2, np.zeros(width), i + 1))
    cls_w = rng.normal(0.0, width ** -0.5, (width, num_classes))
    cls_b = np.zeros(num_classes)
    return ResidualNetwork(stem_w, stem_b, blocks, cls_w, cls_b)


def zero_block(network: ResidualNetwork, block_id: int) -> None:
    """Zero a block's whole residual branch, making it an exact identity."""
    block = network.blocks[block_id - 1]
    block.weight1[:] = 0.0
    block.bias1[:] = 0.0
    block.weight2[:] = 0.0
    block.bias2[:] = 0.0
