import dataclasses

import numpy as np
import pytest

from latecut import network
from latecut.distill import feature_loss_and_grads
from latecut.errors import DimensionError, InvalidBlockError, NumericError
from latecut.network import (
    ResidualBlock,
    ResidualNetwork,
    TILE_ROWS,
    block_param_count,
    clone_network,
    compact,
    feature_mse,
    forward,
    forward_trace,
    backprop_from_outputs,
    op_counter,
    packed_gradients,
    parameter_count,
    normalize_skip,
    random_network,
    sgd_step,
)

from conftest import make_gradcheck_case, zero_block
from oracles import (
    assert_packed,
    finite_difference_grads,
    loop_feature_mse,
    loop_forward,
    loop_param_count,
    max_relative_gradient_error,
    reference_affine,
    reference_forward,
    reference_sgd_step,
    separate_copy,
)


def hand_net():
    """1-block width-2 net with dyadic-rational weights so every
    intermediate value is exact in float64."""
    stem_w = np.eye(2)
    stem_b = np.zeros(2)
    block = ResidualBlock(
        weight1=np.array([[2.0, 1.0], [0.0, 1.0]]),
        bias1=np.array([0.5, -0.5]),
        weight2=np.array([[1.0, -1.0], [2.0, 0.0]]),
        bias2=np.array([0.25, 0.25]),
        block_id=1,
    )
    cls_w = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]])
    cls_b = np.array([0.0, 0.0, 0.125])
    return ResidualNetwork(stem_w, stem_b, [block], cls_w, cls_b)


class TestForward:
    def test_hand_computed_single_block(self):
        net = hand_net()
        x = np.array([[1.0, -1.0]])
        logits, feats = forward(net, x)
        # stem is identity: h = [1, -1]
        z = [1.0 * 2.0 + (-1.0) * 0.0 + 0.5, 1.0 * 1.0 + (-1.0) * 1.0 - 0.5]
        assert z == [2.5, -0.5]
        a = [2.5, 0.0]
        branch = [a[0] * 1.0 + a[1] * 2.0 + 0.25, a[0] * -1.0 + a[1] * 0.0 + 0.25]
        expected_feats = [1.0 + branch[0], -1.0 + branch[1]]
        assert feats.tolist() == [expected_feats]
        assert expected_feats == [3.75, -3.25]
        expected_logits = [
            expected_feats[0],
            expected_feats[1],
            expected_feats[0] * 0.5 + expected_feats[1] * -0.5 + 0.125,
        ]
        assert logits.tolist() == [expected_logits]

    def test_empty_skip_bitwise_equal_to_skip_free_reference(self):
        for seed in range(5):
            net = random_network(6, 5, 3, 4, seed=seed)
            x = np.random.default_rng(seed).standard_normal((7, 6))
            logits, feats = forward(net, x, skip=set())
            ref_logits, ref_feats = reference_forward(net, x)
            assert np.array_equal(logits, ref_logits)
            assert np.array_equal(feats, ref_feats)

    def test_matches_loop_oracle(self):
        net = random_network(4, 3, 2, 3, seed=7)
        x = np.random.default_rng(7).standard_normal((5, 4))
        for skip in [set(), {1}, {2}, {1, 2}]:
            logits, feats = forward(net, x, skip)
            loop_logits, loop_feats = loop_forward(net, x, skip)
            np.testing.assert_allclose(feats, loop_feats, rtol=0, atol=1e-12)
            np.testing.assert_allclose(logits, loop_logits, rtol=0, atol=1e-12)

    def test_zero_branch_block_is_identity(self):
        net = random_network(5, 4, 3, 2, seed=3)
        zero_block(net, 2)
        x = np.random.default_rng(3).standard_normal((6, 5))
        _, feats_kept = forward(net, x, skip={3})
        _, feats_skipped = forward(net, x, skip={2, 3})
        assert np.array_equal(feats_kept, feats_skipped)

    def test_trace_is_bitwise_consistent_with_forward(self):
        net = random_network(4, 4, 2, 2, seed=11)
        x = np.random.default_rng(11).standard_normal((3, 4))
        logits, feats = forward(net, x, {1})
        trace = forward_trace(compact(net, {1}), x)
        assert np.array_equal(trace.logits, logits)
        assert np.array_equal(trace.features, feats)

    def test_output_finite_on_finite_inputs(self):
        net = random_network(8, 6, 3, 4, seed=5)
        x = 100.0 * np.random.default_rng(5).standard_normal((10, 8))
        logits, feats = forward(net, x)
        assert np.all(np.isfinite(logits)) and np.all(np.isfinite(feats))

    def test_shape_and_skip_errors(self):
        net = random_network(4, 3, 2, 2, seed=0)
        with pytest.raises(DimensionError):
            forward(net, np.zeros((2, 5)))
        with pytest.raises(DimensionError):
            forward(net, np.zeros(4))
        with pytest.raises(InvalidBlockError):
            forward(net, np.zeros((2, 4)), skip={3})
        with pytest.raises(InvalidBlockError):
            forward(net, np.zeros((2, 4)), skip={0})
        # Any iterable of block ids is a skip set, one that is not truthy too.
        for bad in (np.array([0]), np.array([1, 3]), (j for j in [3])):
            with pytest.raises(InvalidBlockError):
                forward(net, np.zeros((1, 4)), skip=bad)


class TestNormalizeSkip:
    def test_frozenset_fast_path_still_validates(self):
        net8 = random_network(4, 3, 8, 2, seed=0)
        net4 = random_network(4, 3, 4, 2, seed=0)
        x = np.zeros((1, 4))
        skip = frozenset({6})
        for _ in range(3):
            assert normalize_skip(net8, skip) is skip
            with pytest.raises(InvalidBlockError):
                normalize_skip(net4, skip)
            with pytest.raises(InvalidBlockError):
                forward(net4, x, skip)
            for bad in (frozenset({0}), frozenset({9}), frozenset({2, 9})):
                with pytest.raises(InvalidBlockError):
                    normalize_skip(net8, bad)

    def test_other_forms_normalize_as_before(self):
        net = random_network(4, 3, 4, 2, seed=0)
        for given, expected in [
            (None, frozenset()),
            (set(), frozenset()),
            (frozenset(), frozenset()),
            ({2, 3}, frozenset({2, 3})),
            ([3, 2, 3], frozenset({2, 3})),
            ((np.int64(4),), frozenset({4})),
            (frozenset({np.int64(1), True}), frozenset({1})),
        ]:
            skip = normalize_skip(net, given)
            assert type(skip) is frozenset and skip == expected, given
            assert all(type(j) is int for j in skip), given
        for bad in ({0}, [5], (-1,)):
            with pytest.raises(InvalidBlockError):
                normalize_skip(net, bad)
        # Only Python and numpy integers are block ids; nothing is coerced.
        for bad in (["2"], [1.5], [True], [np.bool_(True)], np.array([1.0]), "2", [1, None]):
            with pytest.raises(InvalidBlockError, match="not an integer"):
                compact(net, bad)


@pytest.fixture(params=["active", "einsum_fallback"])
def tile_kernel_impl(request, monkeypatch):
    """Runs a test on the active kernel pair and on the einsum fallback
    pair, and checks that the fallback case really ran the fallback."""
    if request.param == "active":
        yield request.param
        return
    calls = []

    def counted(kernel):
        def run(*args, **kwargs):
            calls.append(kernel)
            return kernel(*args, **kwargs)
        return run

    monkeypatch.setattr(network, "tile_kernel", counted(network.einsum_tiles))
    monkeypatch.setattr(network, "row_kernel", counted(network.einsum_row))
    yield request.param
    assert calls, "the forward pass never called an einsum fallback kernel"


def _net_with_biases(seed, hidden_widths=(7, 5, 6)):
    """Non-square blocks with random biases, so every in-place stage changes
    its operand."""
    net = random_network(6, 5, len(hidden_widths), 3, seed=seed,
                         hidden_widths=list(hidden_widths))
    rng = np.random.default_rng(seed)
    for block in net.blocks:
        block.bias1[:] = rng.normal(0.0, 0.5, block.bias1.shape)
        block.bias2[:] = rng.normal(0.0, 0.5, block.bias2.shape)
    net.stem_bias[:] = rng.normal(0.0, 0.5, net.stem_bias.shape)
    net.classifier_bias[:] = rng.normal(0.0, 0.5, net.classifier_bias.shape)
    return net


PIPELINE_ROWS = [1, 3, TILE_ROWS, 2 * TILE_ROWS, 9, 64, 67]
PIPELINE_SKIPS = [set(), {1}, {2, 3}, {1, 2, 3}]


class TestInPlacePipeline:
    """The forward pass works in place on arrays it allocated itself."""

    def test_forward_never_writes_into_the_batch(self, tile_kernel_impl):
        net = _net_with_biases(1)
        rng = np.random.default_rng(1)
        for rows in PIPELINE_ROWS:
            batch = rng.standard_normal((rows, 6))
            original = batch.copy()
            batch.flags.writeable = False  # an in-place write would raise
            for skip in PIPELINE_SKIPS:
                logits, feats = forward(net, batch, skip)
                trace = forward_trace(compact(net, skip), batch)
                assert np.array_equal(batch, original), (rows, skip)
                for out in (logits, feats, trace.features, trace.logits):
                    assert out.flags.writeable and not np.shares_memory(out, batch)

    def test_trace_intermediates_match_reference_block_by_block(self, tile_kernel_impl):
        net = _net_with_biases(2)
        rng = np.random.default_rng(2)
        for rows in PIPELINE_ROWS:
            batch = rng.standard_normal((rows, 6))
            for skip in PIPELINE_SKIPS:
                trace = forward_trace(compact(net, skip), batch)
                kept = [b for b in net.blocks if b.block_id not in skip]
                view_ids = list(range(1, len(kept) + 1))
                assert list(trace.block_inputs) == list(trace.block_hidden) == view_ids
                x = reference_affine(batch, net.stem_weight, net.stem_bias)
                for view_id, block in zip(view_ids, kept):
                    z = reference_affine(x, block.weight1, block.bias1)
                    hidden = np.maximum(z, 0.0)
                    assert np.array_equal(trace.block_inputs[view_id], x)
                    assert np.array_equal(trace.block_hidden[view_id], hidden)
                    x = x + reference_affine(hidden, block.weight2, block.bias2)
                logits = reference_affine(x, net.classifier_weight, net.classifier_bias)
                assert np.array_equal(trace.features, x), (rows, skip)
                assert np.array_equal(trace.logits, logits), (rows, skip)

    def test_forward_and_trace_bitwise_equal_under_skips(self, tile_kernel_impl):
        net = _net_with_biases(3)
        rng = np.random.default_rng(3)
        for rows in PIPELINE_ROWS:
            batch = rng.standard_normal((rows, 6))
            for skip in PIPELINE_SKIPS:
                logits, feats = forward(net, batch, skip)
                trace = forward_trace(compact(net, skip), batch)
                assert np.array_equal(trace.logits, logits), (rows, skip)
                assert np.array_equal(trace.features, feats), (rows, skip)
            ref_logits, ref_feats = reference_forward(net, batch)
            logits, feats = forward(net, batch)
            assert np.array_equal(logits, ref_logits) and np.array_equal(feats, ref_feats)

    def test_trace_without_logits_keeps_every_other_output(self, tile_kernel_impl):
        net = _net_with_biases(5)
        rng = np.random.default_rng(5)
        for rows in PIPELINE_ROWS:
            batch = rng.standard_normal((rows, 6))
            for skip in PIPELINE_SKIPS:
                view = compact(net, skip)
                full = forward_trace(view, batch)
                bare = forward_trace(view, batch, logits=False)
                assert bare.logits is None and np.array_equal(bare.features, full.features)
                for got, want in ((bare.block_inputs, full.block_inputs),
                                  (bare.block_hidden, full.block_hidden)):
                    assert list(got) == list(want)
                    assert all(np.array_equal(got[j], want[j]) for j in want), (rows, skip)

    def test_each_call_returns_arrays_of_its_own(self, tile_kernel_impl):
        """A pass reuses its arrays from block to block, never from one call
        to the next: a second call leaves the first one's results intact."""
        net = _net_with_biases(9)
        rng = np.random.default_rng(9)

        def traced(x):
            trace = forward_trace(net, x)
            return [trace.features, trace.logits, *trace.block_inputs.values(),
                    *trace.block_hidden.values()]

        for rows in (1, 64):
            a, b = rng.standard_normal((2, rows, 6))
            for run in (lambda x: list(forward(net, x)), traced):
                first = run(a)
                kept = [out.copy() for out in first]
                second = run(b)
                assert not any(np.shares_memory(p, q) for p in first for q in second), rows
                assert all(map(np.array_equal, first, kept)), rows

    def test_one_call_is_one_forward_pass_at_every_batch_size(self):
        net = _net_with_biases(4)
        for rows in PIPELINE_ROWS + [128, 200]:
            batch = np.ones((rows, 6))
            for skip in (None, {2}):
                before = op_counter.forward_passes
                forward(net, batch, skip)
                assert op_counter.forward_passes == before + 1, rows
                forward_trace(compact(net, skip), batch)
                assert op_counter.forward_passes == before + 2, rows


class TestCompact:
    """``compact(net, skip)`` is the pruned network as a view of ``net``."""

    def test_view_shares_parameters_and_renumbers_blocks(self):
        net = _net_with_biases(5)
        for skip in PIPELINE_SKIPS:
            view = compact(net, skip)
            kept = [b for b in net.blocks if b.block_id not in skip]
            assert view.n_blocks == net.n_blocks - len(skip)
            assert [b.block_id for b in view.blocks] == list(range(1, len(kept) + 1))
            shared = list(net.parameter_arrays())
            for p in view.parameter_arrays():
                assert any(p is q for q in shared)
            pruned = sum(block_param_count(b) for b in net.blocks if b.block_id in skip)
            assert parameter_count(view) == parameter_count(net) - pruned

    def test_forward_and_trace_bitwise_equal_to_skip_forward(self, tile_kernel_impl):
        net = _net_with_biases(6)
        rng = np.random.default_rng(6)
        for rows in PIPELINE_ROWS:
            batch = rng.standard_normal((rows, 6))
            for skip in PIPELINE_SKIPS:
                logits, feats = forward(net, batch, skip)
                view = compact(net, skip)
                view_logits, view_feats = forward(view, batch)
                trace = forward_trace(view, batch)
                for got in (view_logits, trace.logits):
                    assert np.array_equal(got, logits), (rows, skip)
                for got in (view_feats, trace.features):
                    assert np.array_equal(got, feats), (rows, skip)

    def test_sgd_step_on_view_trains_kept_blocks_in_place(self, tile_kernel_impl):
        rng = np.random.default_rng(7)
        for rows in PIPELINE_ROWS:
            batch = rng.standard_normal((rows, 6))
            for skip in PIPELINE_SKIPS:
                net = _net_with_biases(7)
                before = clone_network(net)
                view = compact(net, skip)
                _, feats = forward(view, batch)
                _, grads = feature_loss_and_grads(view, batch, feats + 1.0)
                sgd_step(view, grads, 0.1)
                for block, old in zip(net.blocks, before.blocks):
                    pairs = [(getattr(block, name), getattr(old, name))
                             for name in ("weight1", "bias1", "weight2", "bias2")]
                    changed = [not np.array_equal(a, b) for a, b in pairs]
                    if block.block_id in skip:
                        assert not any(changed), (rows, skip, block.block_id)
                    else:
                        assert any(changed), (rows, skip, block.block_id)
                assert not np.array_equal(net.stem_weight, before.stem_weight)
                assert np.array_equal(net.classifier_weight, before.classifier_weight)

    def test_out_of_range_block_id_raises(self):
        net = _net_with_biases(8)
        for bad in ({0}, {4}, {1, 4}, [-1]):
            with pytest.raises(InvalidBlockError):
                compact(net, bad)


INVARIANCE_BATCH_SIZES = list(range(1, 71)) + [128, 200, 256]


class TestBatchCompositionInvariance:
    """A sample's logits and features must not depend, by a single bit, on
    the batch it rides in: its size or its position there."""

    @pytest.mark.parametrize(
        "input_dim, width, hidden_widths, classes",
        [
            # no width a multiple of the tile
            pytest.param(6, 5, [7, 13, 3], 3, id="6-5-hidden_widths0"),
            pytest.param(16, 32, None, 3, id="16-32-None"),
            pytest.param(16, 128, [64, 128], 3, id="16-128-hidden_widths2"),
            # The served shapes: stem 16 x w, blocks w x w, classifier w x 4.
            pytest.param(16, 32, None, 4, id="served-32"),
            pytest.param(16, 128, None, 4, id="served-128"),
        ],
    )
    def test_every_batch_size_and_offset(self, tile_kernel_impl, input_dim, width,
                                         hidden_widths, classes):
        n_blocks = 2 if hidden_widths is None else len(hidden_widths)
        net = random_network(input_dim, width, n_blocks, classes, seed=width,
                             hidden_widths=hidden_widths)
        rng = np.random.default_rng(width)
        pool = rng.standard_normal((256, input_dim))
        sample = rng.standard_normal(input_dim)
        alone_logits, alone_feats = forward(net, sample[None, :])
        for size in INVARIANCE_BATCH_SIZES:
            for pos in sorted({0, 1, TILE_ROWS - 1, TILE_ROWS, size // 2, size - 1}):
                if pos >= size:
                    continue
                batch = pool[:size].copy()
                batch[pos] = sample
                logits, feats = forward(net, batch)
                trace = forward_trace(net, batch)
                assert np.array_equal(logits[pos], alone_logits[0]), (size, pos)
                assert np.array_equal(feats[pos], alone_feats[0]), (size, pos)
                assert np.array_equal(trace.logits[pos], alone_logits[0]), (size, pos)
                assert np.array_equal(trace.features[pos], alone_feats[0]), (size, pos)

    def test_self_check_accepts_matmul_and_dot(self):
        assert network.kernel_pair_is_batch_invariant(np.matmul, np.dot)
        assert (network.tile_kernel, network.row_kernel) == (np.matmul, np.dot)
        assert network.KERNEL_PAIR == "matmul/dot"
        assert network.kernel_pair_is_batch_invariant(network.einsum_tiles,
                                                      network.einsum_row)

    def test_self_check_rejects_a_batch_dependent_kernel(self):
        def drifting(stack, weight):
            return np.matmul(stack, weight) + 1e-12 * len(stack)

        assert not network.kernel_pair_is_batch_invariant(drifting, np.dot)

    def test_self_check_rejects_a_row_kernel_unlike_its_stack_kernel(self):
        def gemv_row(tile, weight, out):
            """The tile's GEMM, but row 0 by a one-row (gemv) product."""
            np.dot(tile, weight, out)
            out[0] = np.dot(tile[0], weight)
            return out

        assert not network.kernel_pair_is_batch_invariant(np.matmul, gemv_row)


class TestFeatureMse:
    def test_identical_is_zero(self):
        a = np.random.default_rng(0).standard_normal((4, 6))
        assert feature_mse(a, a) == 0.0

    def test_unit_differences(self):
        assert feature_mse(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]])) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        assert abs(feature_mse(a, b) - loop_feature_mse(a, b)) < 1e-12

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal((3, 5))
            b = rng.standard_normal((3, 5))
            assert feature_mse(a, b) >= 0.0
            assert feature_mse(a, b) == feature_mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            feature_mse(np.zeros((2, 3)), np.zeros((3, 2)))


class TestBackward:
    def test_zero_loss_zero_grads(self):
        net = random_network(4, 3, 2, 2, seed=1)
        x = np.random.default_rng(1).standard_normal((5, 4))
        _, feats = forward(net, x)
        loss, grads = feature_loss_and_grads(net, x, feats)
        assert loss == 0.0
        for g in grads.parameter_arrays():
            assert np.all(g == 0.0)

    def test_classifier_grads_always_zero(self):
        net = random_network(4, 3, 2, 2, seed=2)
        x = np.random.default_rng(2).standard_normal((5, 4))
        _, feats = forward(net, x)
        _, grads = feature_loss_and_grads(net, x, feats + 1.0)
        assert np.all(grads.classifier_weight == 0.0)
        assert np.all(grads.classifier_bias == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_match_finite_differences(self, seed):
        net, batch, target = make_gradcheck_case(seed)
        _, grads = feature_loss_and_grads(net, batch, target)
        numeric = finite_difference_grads(
            lambda: feature_loss_and_grads(net, batch, target)[0], net
        )
        assert max_relative_gradient_error(list(grads.parameter_arrays()), numeric) < 1e-4

    def test_gradients_with_skip_match_finite_differences(self):
        net, batch, target = make_gradcheck_case(100, max_blocks=3)
        if net.n_blocks < 2:
            net, batch, target = make_gradcheck_case(103, max_blocks=3)
        assert net.n_blocks >= 2
        view = compact(net, {1})
        _, feats = forward(view, batch)
        target = feats + 0.5
        _, grads = feature_loss_and_grads(view, batch, target)
        numeric = finite_difference_grads(
            lambda: feature_loss_and_grads(view, batch, target)[0], view
        )
        assert max_relative_gradient_error(list(grads.parameter_arrays()), numeric) < 1e-4
        assert len(grads.blocks) == net.n_blocks - 1  # the pruned block has no gradient

    def test_gradient_set_for_another_block_count_is_refused(self):
        net = random_network(4, 3, 3, 2, seed=0)
        trace = forward_trace(net, np.ones((2, 4)))
        out = packed_gradients(compact(net, {1}))
        with pytest.raises(DimensionError, match="not congruent"):
            backprop_from_outputs(net, trace, grad_features=np.ones((2, 3)), out=out)
        assert op_counter.backward_passes == 0
        assert not any(p.any() for p in out.parameter_arrays())  # nothing written

    def test_target_shape_mismatch(self):
        net = random_network(4, 3, 1, 2, seed=0)
        with pytest.raises(DimensionError):
            feature_loss_and_grads(net, np.zeros((2, 4)), np.zeros((2, 4)))


class TestSgd:
    def test_zero_lr_bitwise_noop(self):
        net = random_network(4, 3, 2, 2, seed=4)
        x = np.random.default_rng(4).standard_normal((3, 4))
        _, feats = forward(net, x)
        before = [p.copy() for p in net.parameter_arrays()]
        _, grads = feature_loss_and_grads(net, x, feats + 1.0)
        sgd_step(net, grads, 0.0)
        for p, b in zip(net.parameter_arrays(), before):
            assert np.array_equal(p, b)

    def test_single_parameter_update(self):
        # one scalar parameter: 1x1 stem, no blocks, 1-class head
        net = ResidualNetwork(
            np.array([[1.0]]), np.zeros(1), [], np.array([[0.0]]), np.zeros(1)
        )
        grads = packed_gradients(net)
        grads.stem_weight[0, 0] = 2.0
        sgd_step(net, grads, 0.1)
        assert net.stem_weight[0, 0] == 1.0 - 0.1 * 2.0

    def test_loss_decreases_over_ten_steps(self):
        net = random_network(4, 3, 2, 2, seed=6)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 4))
        _, feats = forward(net, x)
        target = feats + rng.standard_normal(feats.shape)
        losses = []
        for _ in range(10):
            loss, grads = feature_loss_and_grads(net, x, target)
            losses.append(loss)
            sgd_step(net, grads, 0.01)
        final, _ = feature_loss_and_grads(net, x, target)
        assert final < losses[0]

    def test_skipped_blocks_untouched_and_bitwise_like_zero_update(self):
        net = random_network(5, 4, 3, 2, seed=8)
        x = np.random.default_rng(8).standard_normal((6, 5))
        view = compact(net, {2})
        _, feats = forward(view, x)
        _, grads = feature_loss_and_grads(view, x, feats + 1.0)
        assert len(grads.blocks) == 2  # the kept blocks only
        before = clone_network(net)
        explicit = clone_network(net)
        sgd_step(view, grads, 0.1)
        # the same step on the full network, with block 2's gradients left zero
        full = packed_gradients(explicit)
        kept = dataclasses.replace(full, blocks=[full.blocks[0], full.blocks[2]])
        for dst, src in zip(kept.parameter_arrays(), grads.parameter_arrays()):
            dst[...] = src
        sgd_step(explicit, full, 0.1)
        for p, q in zip(net.parameter_arrays(), explicit.parameter_arrays()):
            assert np.array_equal(p, q)
        for name in ("weight1", "bias1", "weight2", "bias2"):
            assert np.array_equal(getattr(net.blocks[1], name), getattr(before.blocks[1], name))
        assert not np.array_equal(net.blocks[0].weight1, before.blocks[0].weight1)

    def test_skip_keeps_nan_and_shape_checks(self):
        net = random_network(4, 3, 3, 2, seed=9)
        x = np.random.default_rng(9).standard_normal((4, 4))
        view = compact(net, {2})
        _, feats = forward(view, x)
        _, grads = feature_loss_and_grads(view, x, feats + 1.0)
        before = [p.copy() for p in net.parameter_arrays()]

        for index in (0, 1):  # each kept block
            bad_shape = dataclasses.replace(grads, blocks=list(grads.blocks))
            bad_shape.blocks[index] = dataclasses.replace(grads.blocks[index],
                                                          weight2=np.zeros((3, 4)))
            with pytest.raises(DimensionError):
                sgd_step(view, bad_shape, 0.1)
        # the full network's gradients do not fit its view
        _, full_feats = forward(net, x)
        _, full_grads = feature_loss_and_grads(net, x, full_feats + 1.0)
        with pytest.raises(DimensionError):
            sgd_step(view, full_grads, 0.1)
        grads.blocks[1].bias1[0] = np.nan  # written in place: the set still fits
        with pytest.raises(NumericError):
            sgd_step(view, grads, 0.1)
        for p, b in zip(net.parameter_arrays(), before):
            assert np.array_equal(p, b)

    def test_nonfinite_gradient_raises(self):
        net = random_network(2, 2, 1, 2, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 2))
        _, feats = forward(net, x)
        _, grads = feature_loss_and_grads(net, x, feats + 1.0)
        grads.stem_weight[0, 0] = np.nan
        with pytest.raises(NumericError):
            sgd_step(net, grads, 0.1)


def _filled_gradients(view, seed):
    """A :func:`packed_gradients` set for ``view`` holding a feature loss's
    gradients."""
    x = np.random.default_rng(seed).standard_normal((6, view.input_dim))
    _, feats = forward(view, x)
    grads = packed_gradients(view)
    assert feature_loss_and_grads(view, x, feats + 1.0, out=grads)[1] is grads
    return grads


class TestFusedSgd:
    """``sgd_step`` on a :func:`packed_gradients` set: one finiteness check
    over the buffer and one update per contiguous run of parameters."""

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "hand_built"])
    def test_bitwise_equal_to_per_tensor_update(self, packed):
        base = random_network(6, 5, 5, 3, seed=21)
        net = clone_network(base) if packed else separate_copy(base)
        reference = separate_copy(base)
        view = compact(net, {2, 4})
        grads = _filled_gradients(view, 21)
        runs = len(grads.layout.runs)
        # stem + block 1 | block 3 | block 5 + classifier, or one per tensor
        assert runs == (3 if packed else len(list(view.parameter_arrays())))
        for lr in (0.1, 0.02):
            reference_sgd_step(compact(reference, {2, 4}), grads, lr)
            assert sgd_step(view, grads, lr) is view
            for p, q in zip(net.parameter_arrays(), reference.parameter_arrays()):
                assert np.array_equal(p, q)
        for j in (2, 4):
            for name in ("weight1", "bias1", "weight2", "bias2"):
                assert np.array_equal(getattr(net.blocks[j - 1], name),
                                      getattr(base.blocks[j - 1], name))
        for j in (1, 3, 5):
            assert not np.array_equal(net.blocks[j - 1].weight1, base.blocks[j - 1].weight1)

    # A swapped-in tensor is not one packed_gradients made: the set is
    # rejected as foreign before its values are looked at.
    @pytest.mark.parametrize("how, error", [("in_place", NumericError),
                                            ("swapped", DimensionError)],
                             ids=["in_place", "swapped"])
    def test_nan_in_one_tensor_raises_with_parameters_unchanged(self, how, error):
        net = clone_network(random_network(6, 5, 5, 3, seed=22))
        view = compact(net, {2, 4})
        grads = _filled_gradients(view, 22)
        before = [p.copy() for p in net.parameter_arrays()]
        if how == "swapped":
            grads = dataclasses.replace(grads, blocks=list(grads.blocks))
            grads.blocks[2] = dataclasses.replace(grads.blocks[2],
                                                  bias1=grads.blocks[2].bias1.copy())
        grads.blocks[2].bias1[1] = np.nan
        with pytest.raises(error):
            sgd_step(view, grads, 0.1)
        for p, b in zip(net.parameter_arrays(), before):
            assert np.array_equal(p, b)

    def test_swapped_in_tensor_is_rejected(self):
        net = clone_network(random_network(6, 5, 5, 3, seed=23))
        before = [p.copy() for p in net.parameter_arrays()]
        view = compact(net, {2, 4})
        grads = _filled_gradients(view, 23)
        swapped = dataclasses.replace(grads, stem_weight=np.ones_like(grads.stem_weight))
        with pytest.raises(DimensionError):
            sgd_step(view, swapped, 0.1)
        for p, b in zip(net.parameter_arrays(), before):
            assert np.array_equal(p, b)

    def test_layout_is_for_its_own_network_only(self):
        net = clone_network(random_network(6, 5, 5, 3, seed=24))
        other = clone_network(net)
        grads = _filled_gradients(compact(net, {2, 4}), 24)
        with pytest.raises(DimensionError):
            sgd_step(compact(other, {2, 4}), grads, 0.1)
        for p, q in zip(other.parameter_arrays(), net.parameter_arrays()):
            assert np.array_equal(p, q)

    def test_backprop_into_out_equals_allocating_form(self):
        net = _net_with_biases(25)
        rng = np.random.default_rng(25)
        trace = forward_trace(net, rng.standard_normal((9, 6)))
        grad_features = rng.standard_normal(trace.features.shape)
        grad_logits = rng.standard_normal(trace.logits.shape)
        for kwargs in ({"grad_features": grad_features}, {"grad_logits": grad_logits},
                       {"grad_features": grad_features, "grad_logits": grad_logits}):
            fresh = backprop_from_outputs(net, trace, **kwargs)
            out = packed_gradients(net)
            for g in out.parameter_arrays():
                g.fill(np.nan)  # every tensor must be overwritten
            assert backprop_from_outputs(net, trace, out=out, **kwargs) is out
            for a, b in zip(out.parameter_arrays(), fresh.parameter_arrays()):
                assert np.array_equal(a, b), kwargs


class TestParameterCount:
    def test_full_count_matches_tensor_sizes(self):
        net = random_network(5, 4, 3, 2, seed=0)
        expected = sum(p.size for p in net.parameter_arrays())
        assert parameter_count(net) == expected == loop_param_count(net)

    def test_skip_drops_exactly_one_block(self):
        net = random_network(5, 4, 3, 2, seed=1)
        per_block = block_param_count(net.blocks[0])
        assert parameter_count(compact(net, {2})) == parameter_count(net) - per_block

    def test_width_4_block_has_40_parameters(self):
        net = random_network(4, 4, 1, 2, seed=0)
        assert block_param_count(net.blocks[0]) == 2 * (4 * 4) + 2 * 4 == 40

    def test_additive_and_strictly_decreasing(self):
        net = random_network(6, 5, 4, 3, seed=2)
        sizes = [parameter_count(compact(net, range(1, k + 1))) for k in range(5)]
        for bigger, smaller in zip(sizes, sizes[1:]):
            assert smaller < bigger
        blocks_total = sum(block_param_count(b) for b in net.blocks)
        assert sizes[0] - sizes[4] == blocks_total


class TestPlumbing:
    def test_clone_is_deep(self):
        net = random_network(3, 3, 2, 2, seed=0)
        twin = clone_network(net)
        twin.blocks[0].weight1[0, 0] += 1.0
        assert net.blocks[0].weight1[0, 0] != twin.blocks[0].weight1[0, 0]

    def test_clone_and_random_network_are_packed(self):
        net = random_network(3, 4, 3, 2, seed=0, hidden_widths=[4, 6, 4])
        assert_packed(net)
        assert_packed(clone_network(compact(net, {2})))
        assert_packed(clone_network(separate_copy(net)))

    @pytest.mark.parametrize("source", ["packed", "compact", "separate"])
    def test_clone_fills_an_unfilled_buffer(self, nan_unfilled, source):
        from latecut.formats import checkpoint_bytes

        net = random_network(3, 4, 3, 2, seed=1)
        for block in net.blocks:
            block.bias1[:] = block.block_id  # biases start at zero
        original = {"packed": net, "compact": compact(net, {2}),
                    "separate": separate_copy(net)}[source]
        nan_unfilled.clear()
        twin = clone_network(original)
        assert len(nan_unfilled) == 1
        assert checkpoint_bytes(twin) == checkpoint_bytes(original)
        assert all(np.isfinite(p).all() for p in twin.parameter_arrays())
        assert_packed(twin)

    def test_packed_network_refuses_a_tensor_count_that_is_no_network(self):
        net = random_network(3, 4, 2, 2, seed=0)
        shapes = [p.shape for p in net.parameter_arrays()]
        buffer = np.concatenate([p.ravel() for p in net.parameter_arrays()])
        for cut in (shapes[:3], shapes[:-1], shapes + [(4,)]):
            with pytest.raises(DimensionError, match="do not form a network"):
                network.packed_network(cut, buffer)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_packed_network_refuses_a_buffer_of_the_wrong_size(self, extra):
        net = random_network(3, 4, 2, 2, seed=0)
        size = parameter_count(net)
        with pytest.raises(DimensionError, match=f"buffer of {size + extra} elements "
                                                 f"for {size} parameters"):
            network.packed_network([p.shape for p in net.parameter_arrays()],
                                   np.zeros(size + extra))

    def test_random_network_needs_one_hidden_width_per_block(self):
        with pytest.raises(DimensionError, match="need 3 hidden widths, got 2"):
            random_network(3, 4, 3, 2, seed=0, hidden_widths=[4, 4])

    def test_op_counter_tracks_passes(self):
        net = random_network(3, 3, 1, 2, seed=0)
        x = np.zeros((2, 3))
        assert op_counter.forward_passes == 0
        forward(net, x)
        forward_trace(net, x)
        assert op_counter.forward_passes == 2
        _, feats = forward(net, x)
        feature_loss_and_grads(net, x, feats)
        assert op_counter.backward_passes == 1
