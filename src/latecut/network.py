"""Residual MLP family: exact forward, compact views, and hand-derived
gradients from output-side gradients (the distillation loss built on them
lives in :mod:`latecut.distill`).

All numeric state is float64 numpy arrays.  Affine maps are stored
input-major, so a layer computes ``x @ W + b`` with ``W`` of shape
``(in_dim, out_dim)``.  A residual block computes

    x + relu(x @ weight1 + bias1) @ weight2 + bias2

Its input and output widths are equal, which is what makes it removable:
skipping a block leaves the identity in its place.  Blocks are indexed
1..n in forward order.  The hidden width of a block may differ from the
feature width (the standard constructors always use square blocks; the
checkpoint format only supports those).

A pruned model is a :func:`compact` view that shares its parameter arrays
with the full network, so training it trains the kept blocks in place.
Only :func:`compact` turns a skip set into a network: :func:`forward`,
``evaluate_accuracy``, ``distill`` and ``distill_live`` resolve theirs
through it on entry, and nothing below them sees one.

The forward path is one tile pipeline, run by one stack pass for
:func:`forward` and :func:`forward_trace` alike.  It pads the batch with
zero rows to whole tiles of ``TILE_ROWS`` rows and evaluates every affine
map as one ``(TILE_ROWS, in) x (in, out)`` GEMM per tile.  BLAS picks its
blocking, and so its reduction order, from the operand shapes; with one
shape for every call, each row's sums are computed the same way whatever
the batch size or the row's position in it, so every sample's features are
bitwise independent of which batch it rides in, which cached pseudo-labels
rely on.  The row count picks, once, the kernel and the width of each bias,
ReLU and residual add.  Two or more rows run :data:`tile_kernel` on a
``(k, TILE_ROWS, d)`` stack and add on the whole stack.  One row, as
serving answers each arrival, runs :data:`row_kernel` (``np.dot``, the same
4-row dgemm without the gufunc's per-call overhead) on one 2-D
``(TILE_ROWS, d)`` tile and adds on the row alone, as 1-D ufuncs (README's
design notes time both choices); only GEMMs write its padding rows, so they
stay zero.  Rows never mix, so a row's answer is bitwise its batched one.
Adds are in place on arrays the pass allocated; a trace, which keeps views
of each block's input and hidden rows, gives each block new arrays instead,
and distillation's trace skips the classifier.  One import-time self-check
chooses both kernels: it keeps ``(np.matmul, np.dot)`` only if every row
``np.dot`` computes alone equals, bitwise, the same row inside
``np.matmul`` stacks of several sizes and offsets, at the served shapes and
a few others.  Where the local BLAS fails it, both are einsum (the row
kernel runs the stack kernel on a one-tile stack), whose reduction order
depends only on the operand widths but which runs several times slower on
batches.  :data:`KERNEL_PAIR` names the pair chosen.  Gradient math uses
plain matmul; it has no such contract and is verified against finite
differences instead.

Storage is packed.  :func:`packed_network` cuts a network's tensors, in
checkpoint order, as views from one aligned buffer that holds their
values; the caller allocates and fills it.  :func:`clone_network` copies
into an :func:`aligned_empty` buffer, and checkpoint loading reads the
payload into one, before the network is cut: every element is written
before the network exists (a read that comes up short raises first), so
the buffer is not zero-filled.  Only a buffer that must start at zero, a
gradient set's, comes from :func:`aligned_zeros`.  Every buffer starts on
a ``BUFFER_ALIGN`` (64) byte boundary, which README's design notes show
is measured, not cosmetic.  The tensors of a :func:`compact` view of a
packed network then lie in a few contiguous runs: the stem with any kept
blocks right after it, each further group of adjacent kept blocks, and the
classifier with the last block if it is kept.

A gradient set (:class:`Gradients`) is a packed network too: the same
structure as the network it was made for, packed the same way into a
buffer of its own, plus the update layout for that network.
:func:`packed_gradients` is the only way to make one.
:func:`backprop_from_outputs` overwrites such a set in place (``out=``)
step after step, so distillation allocates no gradient tensor per step;
without ``out`` it makes a new one.

:func:`sgd_step` is the only SGD, with one update path.  It accepts only a
gradient set made for the network it updates, still holding the tensors
:func:`packed_gradients` made; anything else raises
:class:`~latecut.errors.DimensionError` before any parameter changes.  It
checks the gradient buffer for finiteness in one pass, then applies ``p -=
lr * g`` as one scaled subtraction per contiguous run of parameters.

Every operation here is pure except :func:`sgd_step`, which updates its
network in place, and :func:`backprop_from_outputs` with ``out=``, which
overwrites that gradient set.  Networks and arrays can be handed between
threads, but one network must not be mutated concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DimensionError, InvalidBlockError, NumericError, is_integer


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
        yield self.stem_weight
        yield self.stem_bias
        for block in self.blocks:
            yield block.weight1
            yield block.bias1
            yield block.weight2
            yield block.bias2
        yield self.classifier_weight
        yield self.classifier_bias


@dataclass
class Gradients(ResidualNetwork):
    """A gradient set: a network of the same structure as the one it was
    made for, whose tensors hold dL/d(parameter), plus ``layout``: how
    :func:`sgd_step` applies these very tensors to that network.  Made by
    :func:`packed_gradients` only.
    """

    layout: _UpdateLayout = field(repr=False, compare=False)


# Byte boundary every packed parameter and gradient buffer starts on (see
# the module docstring for the measurement behind it).
BUFFER_ALIGN = 64


def _aligned(allocate, size: int) -> np.ndarray:
    """``size`` float64 elements of an ``allocate``d 1-D array, starting on
    a ``BUFFER_ALIGN``-byte boundary."""
    raw = allocate(size + BUFFER_ALIGN // 8)
    start = (-raw.ctypes.data % BUFFER_ALIGN) // raw.itemsize
    return raw[start : start + size]


def aligned_zeros(size: int) -> np.ndarray:
    """A new 1-D float64 zero array of ``size`` elements whose data starts
    on a ``BUFFER_ALIGN``-byte boundary, for a packed buffer that must start
    at zero."""
    return _aligned(np.zeros, size)


def aligned_empty(size: int) -> np.ndarray:
    """:func:`aligned_zeros` without the fill: for a caller that writes
    every element before anything reads one."""
    return _aligned(np.empty, size)


def packed_network(shapes, buffer) -> ResidualNetwork:
    """A network whose tensors, with ``shapes`` in checkpoint order (stem
    weight and bias, each block's weight1, bias1, weight2 and bias2,
    classifier weight and bias), are writable views cut in order from
    ``buffer``, an :func:`aligned_empty` or :func:`aligned_zeros` array of
    exactly their elements that already holds every value.  Blocks are
    numbered 1..n."""
    shapes = list(shapes)
    if len(shapes) < 4 or len(shapes) % 4:
        raise DimensionError(f"{len(shapes)} tensors do not form a network")
    stops = list(accumulate(map(math.prod, shapes)))
    if buffer.size != stops[-1]:
        raise DimensionError(f"buffer of {buffer.size} elements for {stops[-1]} parameters")
    # A 1-D slice already has its tensor's shape; only matrices are reshaped.
    views = [buffer[start:stop] if len(shape) == 1 else buffer[start:stop].reshape(shape)
             for start, stop, shape in zip([0, *stops], stops, shapes)]
    block_views = iter(views[2:-2])
    blocks = list(map(ResidualBlock, block_views, block_views, block_views, block_views,
                      range(1, len(shapes) // 4)))
    return ResidualNetwork(views[0], views[1], blocks, views[-2], views[-1])


def packed_gradients(network) -> Gradients:
    """A zero gradient set congruent with ``network``, packed as
    :func:`packed_network` packs a network, for
    :func:`backprop_from_outputs` to overwrite (``out=``) step after step.
    It carries the layout that lets :func:`sgd_step` check the buffer once
    and update ``network`` one contiguous run of parameters at a time; the
    layout is computed here, once."""
    params = tuple(network.parameter_arrays())
    buffer = aligned_zeros(sum(p.size for p in params))
    zeros = packed_network([p.shape for p in params], buffer)
    layout = _UpdateLayout.build(params, tuple(zeros.parameter_arrays()), buffer)
    return Gradients(**vars(zeros), layout=layout)


def _buffer_offset(p):
    """``(owner, element offset)`` if ``p`` is a C-contiguous float64 view
    of a 1-D float64 array, such as a packed buffer, else ``(None, 0)``."""
    base = p.base
    if (not isinstance(base, np.ndarray) or base.ndim != 1 or base.dtype != np.float64
            or p.dtype != np.float64 or not base.flags.c_contiguous
            or not p.flags.c_contiguous):
        return None, 0
    return base, (p.ctypes.data - base.ctypes.data) // p.itemsize


@dataclass(frozen=True)
class _UpdateLayout:
    """How :func:`sgd_step` applies one buffer-backed gradient set to one
    network: the tensors it was built for (matched by identity on every
    call), the gradient buffer with a mask for its one finiteness check and
    a scratch buffer for ``lr * gradients``, and one ``(parameters, scaled
    gradients)`` pair per run of parameter tensors that lie back to back in
    one buffer."""

    params: tuple
    grads: tuple
    buffer: np.ndarray
    finite: np.ndarray
    scaled: np.ndarray
    runs: tuple

    @classmethod
    def build(cls, params, grads, buffer):
        spans = []  # [owner, start, stop, tensor]; owner None: the tensor alone
        for p in params:
            owner, start = _buffer_offset(p)
            if owner is not None and spans and spans[-1][0] is owner and spans[-1][2] == start:
                spans[-1][2] += p.size
            else:
                spans.append([owner, start, start + p.size, p])
        scaled = np.empty_like(buffer)
        runs, pos = [], 0
        for owner, start, stop, tensor in spans:
            target = tensor if owner is None else owner[start:stop]
            runs.append((target, scaled[pos : pos + target.size].reshape(target.shape)))
            pos += target.size
        finite = np.empty(buffer.shape, dtype=bool)
        return cls(params, grads, buffer, finite, scaled, tuple(runs))

    def fits(self, params, grads) -> bool:
        """Whether ``params`` and ``grads`` are the very tensors this layout
        was built for."""
        return (len(params) == len(grads) == len(self.params)
                and all(map(operator.is_, params, self.params))
                and all(map(operator.is_, grads, self.grads)))


@dataclass
class ForwardTrace:
    """Per-block intermediates from one forward sweep, for backprop and for
    scoring rules that need block inputs/outputs."""

    batch: np.ndarray
    block_inputs: dict[int, np.ndarray]  # x entering each block, by block id
    block_hidden: dict[int, np.ndarray]  # relu(x @ W1 + b1)
    features: np.ndarray                 # final pre-classifier features
    logits: np.ndarray | None            # None when traced without the classifier


def block_ids(skip) -> frozenset[int]:
    """``skip`` as a frozenset of block ids, not yet checked against any
    network.  ``None`` is no blocks; otherwise every element must be a
    Python or numpy integer (not a bool), else
    :class:`~latecut.errors.InvalidBlockError`.  A frozenset of ints, the
    form this returns, is returned as it is."""
    if skip is None:
        return frozenset()
    if type(skip) is frozenset and all(type(j) is int for j in skip):
        return skip
    skip = list(skip)
    for j in skip:
        if not is_integer(j):
            raise InvalidBlockError(f"block id {j!r} is not an integer")
    return frozenset(map(int, skip))


def normalize_skip(network: ResidualNetwork, skip) -> frozenset[int]:
    """Validate a skip set (:func:`block_ids`) against the network's block
    ids."""
    skip = block_ids(skip)
    n = network.n_blocks
    for j in skip:
        if j < 1 or j > n:
            raise InvalidBlockError(f"block id {j} outside 1..{n}")
    return skip


def _check_batch(network: ResidualNetwork, batch) -> np.ndarray:
    batch = np.ascontiguousarray(batch, dtype=np.float64)
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
    """The first ``rows`` rows of a tile stack or of one 2-D tile, as a 2-D
    view."""
    return stack.reshape(-1, stack.shape[-1])[:rows]


def einsum_tiles(stack, weight, out=None):
    """Stack kernel by einsum, the fallback where BLAS tiles are not batch
    invariant."""
    return np.einsum("ktd,dw->ktw", stack, weight, out=out)


def einsum_row(tile, weight, out=None):
    """Row kernel of the einsum fallback: :func:`einsum_tiles` on ``tile``
    as a one-tile stack."""
    return einsum_tiles(tile[None], weight, None if out is None else out[None])[0]


# (in, out) widths the self-check runs at: the stem, block and classifier
# maps that serve (16 inputs, width 32 or 128, 4 classes), and a width that
# is not a multiple of the tile.
_CHECKED_SHAPES = ((16, 32), (32, 32), (32, 4), (16, 128), (128, 128), (128, 4), (33, 4))


def kernel_pair_is_batch_invariant(stack_kernel, one_tile_kernel) -> bool:
    """Whether ``one_tile_kernel``, given one row on a zero-padded
    ``(TILE_ROWS, in)`` tile, gives it bitwise the row ``stack_kernel``
    gives it inside tile stacks built from batches of several sizes and
    offsets."""
    rng = np.random.default_rng(0)
    for in_dim, out_dim in _CHECKED_SHAPES:
        weight = rng.standard_normal((in_dim, out_dim))
        pool = rng.standard_normal((67, in_dim))
        tile = np.zeros((TILE_ROWS, in_dim))
        out = np.empty((TILE_ROWS, out_dim))
        alone = np.empty((len(pool), out_dim))
        for i, row in enumerate(pool):
            tile[0] = row
            alone[i] = one_tile_kernel(tile, weight, out)[0]
        for lo, hi in ((0, 67), (1, 67), (2, 5), (3, 64), (0, 64), (5, 6)):
            out_rows = _rows(stack_kernel(_tile_stack(pool[lo:hi]), weight), hi - lo)
            if not np.array_equal(out_rows, alone[lo:hi]):
                return False
    return True


# The kernel pair every forward calls, chosen here once.  ``tile_kernel``
# computes ``stack @ weight`` for a ``(k, TILE_ROWS, in)`` stack, one
# ``(TILE_ROWS, in) x (in, out)`` GEMM per tile, with a reduction order
# that does not depend on k (see module docstring).  ``row_kernel`` is the
# same GEMM on one 2-D ``(TILE_ROWS, in)`` tile, for a one-row batch.  Both
# take ``out=``.  ``KERNEL_PAIR`` names the pair for the log.
if kernel_pair_is_batch_invariant(np.matmul, np.dot):
    tile_kernel, row_kernel, KERNEL_PAIR = np.matmul, np.dot, "matmul/dot"
else:
    tile_kernel, row_kernel, KERNEL_PAIR = einsum_tiles, einsum_row, "einsum fallback"


# What the ReLU compares against.  A 0-d array is not converted on every
# call as a Python float is: 0.46 against 0.67 us per ReLU.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def _stack_pass(network, x, logits=True, inputs=None, hiddens=None):
    """Stem, blocks and, if ``logits``, classifier on ``x``: ``(logits or
    None, features)``, cut to ``x``'s rows, with the kernel and add width its
    row count picks (see the module docstring).  One hidden and one branch
    array serve every block, the hidden one remade when the hidden width
    changes; they live for this call only, as a network may be handed
    between threads.  Given ``inputs`` and ``hiddens`` dicts, it records
    each block's input and hidden rows there by block id, so each block
    gets a new hidden array and adds its residual into a new one."""
    rows = x.shape[0]
    if rows == 1:
        gemm, part, stack = row_kernel, 0, np.zeros((TILE_ROWS, x.shape[1]))
        stack[0] = x
    else:
        # Rows are independent, so the padding rows are computed and dropped.
        gemm, part, stack = tile_kernel, ..., _tile_stack(x)
    add, keep = np.add, inputs is not None
    h = gemm(stack, network.stem_weight)
    h_part = h[part]
    add(h_part, network.stem_bias, h_part)
    branch = np.empty(h.shape)
    branch_part = branch[part]
    width = 0
    for block in network.blocks:
        bias1 = block.bias1
        if keep or bias1.size != width:
            width = bias1.size
            z = gemm(h, block.weight1)
            z_part = z[part]
        else:
            gemm(h, block.weight1, z)
        add(z_part, bias1, z_part)
        np.maximum(z_part, _ZERO, out=z_part)
        gemm(z, block.weight2, branch)
        add(branch_part, block.bias2, branch_part)
        if keep:
            inputs[block.block_id], hiddens[block.block_id] = _rows(h, rows), _rows(z, rows)
            h = h + branch
            h_part = h[part]
        else:
            add(h_part, branch_part, h_part)
    out = None
    if logits:
        out = gemm(h, network.classifier_weight)
        out_part = out[part]
        add(out_part, network.classifier_bias, out_part)
        out = out[:1] if rows == 1 else _rows(out, rows)
    return out, h[:1] if rows == 1 else _rows(h, rows)


def forward(network, batch, skip=None):
    """Run ``network``, or ``compact(network, skip)`` when ``skip`` is given.

    Returns ``(logits, final_features)`` where ``final_features`` is the
    output of the last non-classifier stage.  Every row count takes the one
    stack pass, whose kernel and add width follow the row count.  Every
    stage works in place on arrays this call allocated; ``batch`` is only
    read.
    """
    if skip is not None:
        network = compact(network, skip)
    x = _check_batch(network, batch)
    op_counter.forward_passes += 1
    return _stack_pass(network, x)


def compact(network, skip) -> ResidualNetwork:
    """``network`` without the blocks in ``skip``, as a view.

    The view shares every parameter array with ``network``, so training it
    trains the kept blocks in place.  Its blocks are numbered 1..k in
    forward order, as a checkpoint numbers them.  Its forward runs the full
    network's operations minus the skipped blocks', in the same order.  It
    is the only code that resolves a skip set.
    """
    skip = normalize_skip(network, skip)
    kept = [b for b in network.blocks if b.block_id not in skip]
    blocks = [ResidualBlock(b.weight1, b.bias1, b.weight2, b.bias2, j)
              for j, b in enumerate(kept, start=1)]
    return ResidualNetwork(network.stem_weight, network.stem_bias, blocks,
                           network.classifier_weight, network.classifier_bias)


def forward_trace(network, batch, logits=True) -> ForwardTrace:
    """Forward sweep that records per-block intermediates: :func:`forward`'s
    stack pass, so features and logits are bitwise a plain forward's.  With
    ``logits=False`` it skips the classifier (``logits`` is None), as
    distillation, whose loss reads only the features, does."""
    batch = _check_batch(network, batch)
    op_counter.forward_passes += 1
    inputs, hiddens = {}, {}
    out, features = _stack_pass(network, batch, logits, inputs, hiddens)
    return ForwardTrace(batch, inputs, hiddens, features, out)


def mean_square(diff) -> float:
    """Mean over the rows of a 2-D ``diff`` of each row's mean square: the
    arithmetic of :func:`feature_mse` and of the distillation loss."""
    rows, pixels = diff.shape
    return float(np.add.reduce(np.add.reduce(diff * diff, axis=1) / pixels) / rows)


def feature_mse(a, b) -> float:
    """Mean over samples of each sample's pixel-mean squared error.

    1-D inputs are treated as a single sample.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = np.atleast_2d(a - b)
    return mean_square(diff.reshape(diff.shape[0], -1))


def backprop_from_outputs(network, trace, grad_features=None, grad_logits=None,
                          out=None) -> Gradients:
    """Hand-derived backward sweep from output-side gradients.

    ``grad_features`` is dL/d(final features); ``grad_logits`` additionally
    propagates a loss on the logits and fills the classifier gradients.
    Without it the classifier is frozen: its gradients are zeros.  The
    gradients are written into ``out``, a gradient set congruent with
    ``network`` made by :func:`packed_gradients`, which is returned; without
    it a new set is made.  Both give bitwise the same values.
    """
    if out is None:
        out = packed_gradients(network)
    elif len(out.blocks) != network.n_blocks:
        raise DimensionError("gradient set not congruent with network")
    op_counter.backward_passes += 1
    feats = trace.features
    if grad_logits is not None:
        np.matmul(feats.T, grad_logits, out=out.classifier_weight)
        np.add.reduce(grad_logits, axis=0, out=out.classifier_bias)
        g = grad_logits @ network.classifier_weight.T
        if grad_features is not None:
            g += grad_features
    else:
        out.classifier_weight.fill(0.0)
        out.classifier_bias.fill(0.0)
        g = np.array(grad_features, dtype=np.float64, copy=True)

    for block, grads in zip(reversed(network.blocks), reversed(out.blocks)):
        x_in = trace.block_inputs[block.block_id]
        hidden = trace.block_hidden[block.block_id]
        np.matmul(hidden.T, g, out=grads.weight2)
        np.add.reduce(g, axis=0, out=grads.bias2)
        d_z = g @ block.weight2.T
        d_z *= hidden > 0.0  # relu(z) > 0 exactly where z > 0
        np.matmul(x_in.T, d_z, out=grads.weight1)
        np.add.reduce(d_z, axis=0, out=grads.bias1)
        g += d_z @ block.weight1.T  # identity path plus branch path

    np.matmul(trace.batch.T, g, out=out.stem_weight)
    np.add.reduce(g, axis=0, out=out.stem_bias)
    return out


def sgd_step(network, grads, lr):
    """Plain SGD update ``p -= lr * grad(p)`` applied in place.

    No momentum, no weight decay.  Frozen parameters are realized by zero
    gradients.  To train some blocks of a network only, step its
    :func:`compact` view.  ``grads`` must come from
    :func:`packed_gradients` for ``network`` and still hold the tensors it
    made (one swapped in with ``dataclasses.replace`` does not count);
    otherwise :class:`~latecut.errors.DimensionError` is raised.  The whole
    gradient buffer is checked for finiteness in one pass before any
    parameter changes, and the update is one scaled subtraction per
    contiguous run of parameters, bitwise the values of the
    tensor-by-tensor ``p -= lr * g``.  A zero learning rate is a no-op that
    leaves every parameter bitwise unchanged.
    """
    layout = grads.layout
    if not layout.fits(tuple(network.parameter_arrays()), tuple(grads.parameter_arrays())):
        raise DimensionError("gradient set was not made for this network by packed_gradients")
    if not np.isfinite(layout.buffer, out=layout.finite).all():
        raise NumericError("non-finite gradient")
    if lr == 0.0:
        return network
    np.multiply(lr, layout.buffer, out=layout.scaled)
    for p, scaled in layout.runs:
        p -= scaled
    return network


def parameter_count(network) -> int:
    """Total parameter elements."""
    return int(sum(p.size for p in network.parameter_arrays()))


def square_parameter_count(input_dim, width, n_blocks, num_classes) -> int:
    """:func:`parameter_count` of this shape with square blocks, as checkpoints hold."""
    return (input_dim + 1 + 2 * n_blocks * (width + 1) + num_classes) * width + num_classes


def block_param_count(block: ResidualBlock) -> int:
    return int(block.weight1.size + block.bias1.size + block.weight2.size + block.bias2.size)


def clone_network(network: ResidualNetwork) -> ResidualNetwork:
    """A deep copy of ``network`` in packed storage (:func:`packed_network`).
    The copy writes every element of its :func:`aligned_empty` buffer, so
    the buffer is not zero-filled first."""
    params = list(network.parameter_arrays())
    buffer = aligned_empty(sum(p.size for p in params))
    np.concatenate([np.ravel(p) for p in params], out=buffer)
    return packed_network([p.shape for p in params], buffer)


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
    ``BRANCH_SCALE`` damps each residual branch's output weights.  The
    network is in packed storage (:func:`packed_network`).
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
    return clone_network(ResidualNetwork(stem_w, stem_b, blocks, cls_w, cls_b))
