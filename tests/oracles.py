"""Independent reference implementations used as test oracles.

Everything here is deliberately written as explicit per-sample / per-element
loops (except reference_forward, which mirrors the batched expressions to
check bitwise equality), so agreement with the library is evidence, not
tautology.
"""

import numpy as np

from latecut import network as _network


def reference_affine(x, weight, bias):
    """``x @ weight + bias`` through the library's tile kernel (looked up at
    call time), with its own zero-padding and out-of-place bias add."""
    rows, dim = x.shape
    tile = _network.TILE_ROWS
    padded = np.zeros((-(-rows // tile) * tile, dim))
    padded[:rows] = x
    out = _network.tile_kernel(padded.reshape(-1, tile, dim), weight)
    return out.reshape(-1, weight.shape[1])[:rows] + bias


def reference_forward(network, batch):
    """Skip-free batched forward: the library's arithmetic with every trace
    of the skip machinery and of the in-place tile pipeline removed.  Each
    affine map goes through ``reference_affine``, so this checks the skip
    machinery and the in-place stages bitwise, not the tile kernel;
    ``loop_forward`` checks the arithmetic."""

    x = reference_affine(batch, network.stem_weight, network.stem_bias)
    for block in network.blocks:
        hidden = np.maximum(reference_affine(x, block.weight1, block.bias1), 0.0)
        x = x + reference_affine(hidden, block.weight2, block.bias2)
    logits = reference_affine(x, network.classifier_weight, network.classifier_bias)
    return logits, x


def loop_forward(network, batch, skip=()):
    """Pure-Python per-sample, per-unit forward pass."""
    skip = set(skip)
    batch = np.asarray(batch, dtype=np.float64)
    feats = []
    logits = []
    for sample in batch:
        x = [
            sum(sample[i] * network.stem_weight[i, o] for i in range(len(sample)))
            + network.stem_bias[o]
            for o in range(network.width)
        ]
        for block in network.blocks:
            if block.block_id in skip:
                continue
            hidden_width = block.bias1.shape[0]
            z = [
                sum(x[i] * block.weight1[i, h] for i in range(len(x))) + block.bias1[h]
                for h in range(hidden_width)
            ]
            a = [max(v, 0.0) for v in z]
            x = [
                x[o]
                + sum(a[h] * block.weight2[h, o] for h in range(hidden_width))
                + block.bias2[o]
                for o in range(len(x))
            ]
        feats.append(list(x))
        logits.append(
            [
                sum(x[i] * network.classifier_weight[i, c] for i in range(len(x)))
                + network.classifier_bias[c]
                for c in range(network.num_classes)
            ]
        )
    return np.array(logits), np.array(feats)


def loop_feature_mse(a, b):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    total = 0.0
    for row_a, row_b in zip(a, b):
        flat_a, flat_b = row_a.ravel(), row_b.ravel()
        pix = 0.0
        for va, vb in zip(flat_a, flat_b):
            pix += (va - vb) ** 2
        total += pix / flat_a.size
    return total / a.shape[0]


def loop_param_count(network, skip=()):
    skip = set(skip)
    arrays = [network.stem_weight, network.stem_bias,
              network.classifier_weight, network.classifier_bias]
    for block in network.blocks:
        if block.block_id not in skip:
            arrays += [block.weight1, block.bias1, block.weight2, block.bias2]
    return sum(int(np.prod(a.shape)) for a in arrays)


def finite_difference_grads(loss_fn, network, h=1e-5):
    """Central differences of loss_fn() w.r.t. every network parameter.
    Perturbs parameters in place and restores them."""
    grads = []
    for p in network.parameter_arrays():
        flat = p.ravel()
        g = np.zeros(flat.size)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = loss_fn()
            flat[i] = original - h
            down = loss_fn()
            flat[i] = original
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(p.shape))
    return grads


def max_relative_gradient_error(analytic, numeric, skip_below=1e-8):
    """Worst per-coordinate relative error, ignoring coordinates where both
    magnitudes are tiny."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        for va, vn in zip(a.ravel(), n.ravel()):
            if abs(va) < skip_below and abs(vn) < skip_below:
                continue
            worst = max(worst, abs(va - vn) / max(abs(va), abs(vn)))
    return worst


def naive_prune_ranking(network, prune_batch, full_latency, block_latencies):
    """From-scratch recomputation of epsilon/G/delta_T/I for every block,
    using the loop oracles throughout.  Returns rows sorted ascending by
    (importance, block_id)."""
    _, base_feats = loop_forward(network, prune_batch)
    total_params = loop_param_count(network)
    rows = []
    for block in network.blocks:
        j = block.block_id
        _, skip_feats = loop_forward(network, prune_batch, {j})
        eps = loop_feature_mse(base_feats, skip_feats)
        gap = loop_param_count(network) - loop_param_count(network, {j})
        gap = gap / total_params
        delta = (full_latency - block_latencies[j]) / full_latency
        rows.append((eps * gap / delta, j, eps, gap, delta))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def kept_block_changed(student, teacher, skip):
    """Whether some block outside ``skip`` holds a parameter that differs
    from the teacher's: two students compared bitwise are then trained
    models, not two untouched copies of the teacher."""
    return any(
        not np.array_equal(s, t)
        for sb, tb in zip(student.blocks, teacher.blocks)
        if sb.block_id not in skip
        for s, t in zip((sb.weight1, sb.bias1, sb.weight2, sb.bias2),
                        (tb.weight1, tb.bias1, tb.weight2, tb.bias2))
    )


def spearman_rank_correlation(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def ranks(values):
        order = np.argsort(values, kind="stable")
        r = np.empty(len(values))
        r[order] = np.arange(1, len(values) + 1)
        # average ties
        for v in np.unique(values):
            mask = values == v
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra ** 2).sum() * (rb ** 2).sum())
    return float((ra * rb).sum() / denom) if denom else 0.0


def reference_sgd_step(network, grads, lr):
    """The tensor-by-tensor update ``p -= lr * g`` that the fused
    ``sgd_step`` must match bitwise."""
    for p, g in zip(network.parameter_arrays(), grads.parameter_arrays()):
        p -= lr * g


def separate_copy(network):
    """A deep copy with every tensor in its own allocation (unpacked)."""
    return _network.ResidualNetwork(
        network.stem_weight.copy(),
        network.stem_bias.copy(),
        [_network.ResidualBlock(b.weight1.copy(), b.bias1.copy(), b.weight2.copy(),
                                b.bias2.copy(), b.block_id) for b in network.blocks],
        network.classifier_weight.copy(),
        network.classifier_bias.copy(),
    )


def assert_packed(network, align=64):
    """Every tensor is a writable view into one buffer, in checkpoint order
    and back to back, and the first starts on an ``align``-byte boundary."""
    arrays = list(network.parameter_arrays())
    owner = arrays[0].base
    assert owner is not None
    address = arrays[0].ctypes.data
    assert address % align == 0
    for p in arrays:
        assert p.base is owner and p.flags.writeable and p.flags.c_contiguous
        assert p.ctypes.data == address
        address += p.nbytes
