import math

import numpy as np
import pytest

from latecut.distill import build_cache
from latecut.errors import (
    ConfigError,
    DegenerateBlockError,
    InvalidBlockError,
    NumericError,
    check_count,
)
from latecut.network import forward, op_counter, random_network
from latecut.profiling import LatencyProfile, profile
from latecut.pruning import (
    METHODS,
    baseline_curl,
    baseline_finetune_oracle,
    baseline_l2_ratio,
    baseline_random,
    capacity_gap,
    initial_noise,
    kl_divergence,
    prune_by_method,
    rank_and_prune,
    score_block,
)

from conftest import zero_block
from oracles import naive_prune_ranking


def toy_batch(net, size=16, seed=0):
    return np.random.default_rng(seed).standard_normal((size, net.input_dim))


def noise(net, batch, block_id):
    """initial_noise against the network's own baseline pass on ``batch``."""
    return initial_noise(net, batch, block_id, forward(net, batch)[1])


class TestInitialNoise:
    def test_zero_branch_block_has_zero_noise(self):
        net = random_network(4, 4, 3, 2, seed=0)
        zero_block(net, 2)
        assert noise(net, toy_batch(net), 2) == 0.0

    def test_dead_relu_block_has_zero_noise(self):
        net = random_network(4, 4, 2, 2, seed=1)
        net.blocks[1].bias1[:] = -100.0  # relu never fires on a standard-normal batch
        net.blocks[1].bias2[:] = 0.0
        assert noise(net, toy_batch(net, seed=1), 2) == 0.0

    def test_hand_computed_single_block(self):
        # identity stem, one block; with the block skipped the features are
        # the raw input, so epsilon is the MSE between branch-out and input
        from test_network import hand_net

        net = hand_net()
        x = np.array([[1.0, -1.0]])
        # full path (hand arithmetic): [3.75, -3.25]; skipped path: [1, -1]
        expected = ((3.75 - 1.0) ** 2 + (-3.25 - -1.0) ** 2) / 2.0
        assert noise(net, x, 1) == expected == 6.3125

    def test_permutation_invariant(self):
        net = random_network(5, 4, 2, 2, seed=2)
        batch = toy_batch(net, size=12, seed=2)
        shuffled = batch[np.random.default_rng(3).permutation(12)]
        assert noise(net, batch, 1) == pytest.approx(noise(net, shuffled, 1), abs=1e-12)

    def test_invalid_block(self):
        net = random_network(4, 4, 2, 2, seed=0)
        with pytest.raises(InvalidBlockError):
            noise(net, toy_batch(net), 5)


class TestCapacityGap:
    def test_identical_blocks_have_equal_gaps(self):
        net = random_network(4, 4, 3, 2, seed=0)
        gaps = [capacity_gap(net, j) for j in (1, 2, 3)]
        assert gaps[0] == gaps[1] == gaps[2]

    def test_width4_block_in_400_param_net(self):
        # stem 24*4+4=100, 7 blocks * 40, classifier 4*4+4=20 -> 400 total
        net = random_network(24, 4, 7, 4, seed=0)
        from latecut.network import parameter_count

        assert parameter_count(net) == 400
        assert capacity_gap(net, 1) == 40 / 400 == 0.1

    def test_gaps_sum_below_one(self):
        net = random_network(6, 5, 4, 3, seed=1)
        assert sum(capacity_gap(net, j) for j in range(1, 5)) < 1.0


class TestScoreBlock:
    def test_zero_epsilon_gives_zero(self):
        net = random_network(4, 4, 3, 2, seed=0)
        prof = LatencyProfile("measured", 1.0, {1: 0.8, 2: 0.8, 3: 0.8})
        assert score_block(net, 1, 0.0, prof).importance == 0.0

    def test_importance_is_epsilon_times_gap_over_saving(self):
        # With these values epsilon * (G / delta_T) differs in the last bit.
        net = random_network(6, 5, 3, 2, seed=1)
        prof = LatencyProfile("measured", 1.0, {1: 0.8, 2: 0.6, 3: 0.8})
        row = score_block(net, 2, 0.7, prof)
        gap = capacity_gap(net, 2)
        assert (row.epsilon_ini, row.capacity_gap, row.delta_t) == (0.7, gap, 0.4)
        assert row.importance == 0.7 * gap / 0.4  # bitwise, in this order


class TestRankAndPrune:
    def test_zero_n_p_prunes_nothing(self):
        net = random_network(4, 4, 3, 2, seed=0)
        prof = profile(net, 8, mode="modeled")
        decision = rank_and_prune(net, toy_batch(net), prof, 0)
        assert decision.pruned == frozenset()
        assert len(decision.ranked) == 3

    def test_zero_branch_block_pruned_first(self):
        net = random_network(4, 4, 3, 2, seed=1)
        zero_block(net, 3)
        prof = profile(net, 8, mode="modeled")
        decision = rank_and_prune(net, toy_batch(net, seed=1), prof, 1)
        assert decision.pruned == frozenset({3})
        assert decision.ranked[0].block_id == 3
        assert decision.ranked[0].importance == 0.0

    def test_matches_naive_from_scratch_ranking(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n_blocks = int(rng.integers(2, 7))
            net = random_network(5, 4, n_blocks, 3, seed=seed)
            for block in net.blocks:  # heterogeneous block strengths
                block.weight1 *= rng.uniform(0.2, 1.5)
                block.weight2 *= rng.uniform(0.2, 1.5)
            batch = rng.standard_normal((10, 5))
            prof = profile(net, 10, mode="modeled")
            decision = rank_and_prune(net, batch, prof, 1)
            naive = naive_prune_ranking(net, batch, prof.full_latency, prof.skipped_latency)
            assert [row.block_id for row in decision.ranked] == [row[1] for row in naive]
            for row, (naive_i, _, _, _, _) in zip(decision.ranked, naive):
                assert abs(row.importance - naive_i) < 1e-9

    def test_costs_exactly_n_plus_one_forward_passes(self):
        net = random_network(6, 5, 4, 3, seed=2)
        prof = profile(net, 8, mode="modeled")
        batch = toy_batch(net, seed=2)
        op_counter.reset()
        rank_and_prune(net, batch, prof, 2)
        assert op_counter.forward_passes == net.n_blocks + 1

    def test_latency_scaling_leaves_ordering_unchanged(self):
        import dataclasses

        net = random_network(5, 4, 4, 3, seed=3)
        batch = toy_batch(net, seed=3)
        prof = profile(net, 8, mode="modeled")
        base = rank_and_prune(net, batch, prof, 2)
        for scale in (1e-3, 7.0, 1e6):
            scaled = dataclasses.replace(
                prof,
                full_latency=prof.full_latency * scale,
                skipped_latency={j: t * scale for j, t in prof.skipped_latency.items()},
            )
            again = rank_and_prune(net, batch, scaled, 2)
            assert [r.block_id for r in again.ranked] == [r.block_id for r in base.ranked]
            assert again.pruned == base.pruned

    def test_negative_latency_saving_raises_and_names_the_block(self):
        # A measured skipped latency above T (host noise) must not turn into
        # a negative importance that prunes the block first.
        net = random_network(8, 8, 4, 2, seed=0)
        prof = LatencyProfile("measured", 1.0, {1: 0.8, 2: 1.005, 3: 0.8, 4: 0.8})
        with pytest.raises(DegenerateBlockError, match="block 2 "):
            rank_and_prune(net, toy_batch(net), prof, 1)
        assert op_counter.forward_passes == 0  # refused before the baseline pass

    @pytest.mark.parametrize("method", ["proposed", "oracle"])
    def test_negative_latency_saving_raises_for_every_latency_rule(self, method):
        net = random_network(4, 4, 3, 2, seed=0)
        prof = LatencyProfile("measured", 1.0, {1: 0.8, 2: 0.8, 3: 1.01})
        cache = build_cache(net, toy_batch(net, size=8, seed=1))
        op_counter.reset()
        with pytest.raises(DegenerateBlockError, match="block 3 "):
            prune_by_method(method, net, toy_batch(net, size=8), prof, 1, cache, k_steps=2,
                            seed=0)
        # Refused before the first pass: nothing scored, no candidate distilled.
        assert op_counter.forward_passes == op_counter.backward_passes == 0

    @pytest.mark.parametrize("method", ["proposed", "oracle"])
    @pytest.mark.parametrize("blocks", [{1: 0.8, 2: 0.8, 3: 0.8, 9: 0.8, -2: 1e9},
                                        {1: 0.8, 2: 0.8}, {1: 0.8, 2: 0.8, 4: 0.8}],
                             ids=["extra", "missing", "shifted"])
    def test_profile_of_another_network_is_rejected_before_any_work(self, method, blocks):
        net = random_network(4, 4, 3, 2, seed=0)
        cache = build_cache(net, toy_batch(net, size=8, seed=1))
        op_counter.reset()
        with pytest.raises(ConfigError, match="not exactly 1..3"):
            prune_by_method(method, net, toy_batch(net, size=8),
                            LatencyProfile("measured", 1.0, blocks), 1, cache, k_steps=2, seed=0)
        assert op_counter.forward_passes == op_counter.backward_passes == 0

    def test_n_p_out_of_range(self):
        net = random_network(4, 4, 3, 2, seed=0)
        prof = profile(net, 8, mode="modeled")
        with pytest.raises(ConfigError):
            rank_and_prune(net, toy_batch(net), prof, 4)
        with pytest.raises(ConfigError):
            rank_and_prune(net, toy_batch(net), prof, -1)


def test_check_count_returns_a_python_int_or_names_the_bounds():
    for value in (2, np.int64(2), np.uint8(2)):
        assert type(check_count("n_p", value, 0, 3)) is int
    assert check_count("seed", 10**30, 0) == 10**30  # no upper bound by default
    for value, bounds in ((4, "within 0..3"), (-1, "within 0..3"), (True, "within 0..3")):
        with pytest.raises(ConfigError, match=rf"^n_p must be an integer {bounds} .*got {value!r}$"):
            check_count("n_p", value, 0, 3)
    with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0 .*got '1'$"):
        check_count("seed", "1", 0)


def _method_function(method, net, batch, prof, n_p, cache, k_steps, seed):
    """The public function behind ``method``, called as prune_by_method calls it."""
    return {
        "proposed": lambda: rank_and_prune(net, batch, prof, n_p),
        "random": lambda: baseline_random(net, n_p, seed),
        "l2ratio": lambda: baseline_l2_ratio(net, batch, n_p),
        "curl": lambda: baseline_curl(net, batch, n_p),
        "oracle": lambda: baseline_finetune_oracle(net, batch, cache, n_p, k_steps, prof, seed),
    }[method]()


def _prune_with_counts(route, method, **counts):
    """Prune a 3-block network through ``route`` with n_p=1, k_steps=2 and
    seed=0 except as ``counts`` says, counting passes from the first call."""
    net = random_network(4, 4, 3, 2, seed=0)
    batch, prof = toy_batch(net, size=8), profile(net, 8, mode="modeled")
    cache = build_cache(net, toy_batch(net, size=8, seed=1))
    counts = {"n_p": 1, "k_steps": 2, "seed": 0, **counts}
    call = prune_by_method if route == "prune_by_method" else _method_function
    op_counter.reset()
    return call(method, net, batch, prof, counts["n_p"], cache, counts["k_steps"], counts["seed"])


@pytest.mark.parametrize("route", ["prune_by_method", "function"])
@pytest.mark.parametrize("method,name,value", [
    *[(method, "n_p", value) for method in METHODS for value in (True, 1.5, -1, 4)],
    *[("oracle", "k_steps", value) for value in (2.5, True, 0)],
    *[(method, "seed", value) for method in ("random", "oracle") for value in (1.5, True, -1)],
    *[pytest.param(method, name, np.bool_(True), id=f"{method}-{name}-np_bool")
      for method, name in [(method, "n_p") for method in METHODS]
      + [("oracle", "k_steps"), ("random", "seed"), ("oracle", "seed")]],
])
def test_bad_count_is_refused_before_any_pass(route, method, name, value):
    # A bool is no count: n_p=True would prune one block, seed=True seed 1.
    with pytest.raises(ConfigError, match=rf"^{name} must be an integer (>= 0|>= 1|within 0\.\.3) "):
        _prune_with_counts(route, method, **{name: value})
    assert op_counter.forward_passes == op_counter.backward_passes == 0


@pytest.mark.parametrize("route", ["prune_by_method", "function"])
@pytest.mark.parametrize("method", METHODS)
def test_numpy_integer_counts_run_as_their_ints(route, method):
    ints = _prune_with_counts(route, method)
    numpy_ints = _prune_with_counts(route, method, n_p=np.int64(1), k_steps=np.int64(2),
                                    seed=np.int64(0))
    assert numpy_ints.pruned == ints.pruned
    assert [(r.block_id, r.importance) for r in numpy_ints.ranked] == [
        (r.block_id, r.importance) for r in ints.ranked]


@pytest.mark.parametrize("method", ["proposed", "l2ratio", "curl", "oracle"])
def test_nan_in_prune_batch_raises_instead_of_ranking(method):
    net = random_network(4, 4, 3, 2, seed=0)
    batch = toy_batch(net, size=8)
    batch[3, 1] = np.nan
    cache = build_cache(net, toy_batch(net, size=8, seed=1))
    with pytest.raises(NumericError, match="non-finite importance"):
        prune_by_method(method, net, batch, profile(net, 8), 1, cache, k_steps=2, seed=0)


class TestBaselineRandom:
    def test_prune_all(self):
        net = random_network(4, 4, 3, 2, seed=0)
        decision = baseline_random(net, 3, seed=9)
        assert decision.pruned == frozenset({1, 2, 3})

    def test_same_seed_same_decision(self):
        net = random_network(4, 4, 5, 2, seed=0)
        first = baseline_random(net, 2, seed=42)
        second = baseline_random(net, 2, seed=42)
        assert first.pruned == second.pruned
        assert [r.block_id for r in first.ranked] == [r.block_id for r in second.ranked]

    def test_selection_is_uniform_chi_squared(self):
        net = random_network(4, 4, 4, 2, seed=0)
        counts = np.zeros(4)
        for seed in range(1000):
            (chosen,) = baseline_random(net, 1, seed=seed).pruned
            counts[chosen - 1] += 1
        expected = 250.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 11.345  # chi-squared critical value, df=3, p=0.01


class TestBaselineL2Ratio:
    def test_zero_branch_ranked_first(self):
        net = random_network(4, 4, 3, 2, seed=4)
        zero_block(net, 2)
        decision = baseline_l2_ratio(net, toy_batch(net, seed=4), 1)
        assert decision.pruned == frozenset({2})
        assert decision.ranked[0].importance == 0.0

    def test_hand_computed_ratio(self):
        from test_network import hand_net

        net = hand_net()
        decision = baseline_l2_ratio(net, np.array([[1.0, -1.0]]), 1)
        # in = [1,-1]; out - in = branch = [2.75, -2.25]
        expected = math.sqrt(2.75 ** 2 + 2.25 ** 2) / math.sqrt(2.0)
        assert decision.ranked[0].importance == pytest.approx(expected, rel=1e-15)

    def test_scale_invariance_with_zero_biases(self):
        net = random_network(5, 4, 3, 2, seed=5)  # biases are zero by construction
        batch = toy_batch(net, seed=5)
        base = baseline_l2_ratio(net, batch, 1)
        exact = baseline_l2_ratio(net, 2.0 * batch, 1)  # power-of-two scale: bitwise
        assert [r.importance for r in exact.ranked] == [r.importance for r in base.ranked]
        close = baseline_l2_ratio(net, 3.0 * batch, 1)
        for a, b in zip(close.ranked, base.ranked):
            assert a.importance == pytest.approx(b.importance, rel=1e-12)

    def test_zero_input_features_error(self):
        from latecut.errors import NumericError

        net = random_network(4, 4, 1, 2, seed=0)
        net.stem_weight[:] = 0.0
        with pytest.raises(NumericError):
            baseline_l2_ratio(net, np.zeros((3, 4)), 1)


class TestBaselineCurl:
    def test_zero_branch_has_zero_kl(self):
        net = random_network(4, 4, 3, 2, seed=6)
        zero_block(net, 1)
        decision = baseline_curl(net, toy_batch(net, seed=6), 1)
        assert decision.pruned == frozenset({1})
        assert decision.ranked[0].importance == 0.0

    def test_kl_nonnegative_for_all_blocks(self):
        net = random_network(5, 4, 4, 3, seed=7)
        decision = baseline_curl(net, toy_batch(net, seed=7), 1)
        assert all(row.importance >= 0.0 for row in decision.ranked)

    def test_kl_hand_check_two_class_single_sample(self):
        p_logits = np.array([[0.0, 1.0]])
        q_logits = np.array([[1.0, 0.0]])
        p = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
        q = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
        by_hand = p[0] * math.log(p[0] / q[0]) + p[1] * math.log(p[1] / q[1])
        assert kl_divergence(p_logits, q_logits) == pytest.approx(by_hand, rel=1e-12)


class TestFinetuneOracle:
    def _fixture(self, seed=8):
        net = random_network(5, 4, 3, 3, seed=seed)
        rng = np.random.default_rng(seed)
        batch = rng.standard_normal((12, 5))
        cache = build_cache(net, rng.standard_normal((20, 5)))
        return net, batch, cache

    def test_zero_branch_block_ranked_first_with_zero_loss(self):
        net, batch, _ = self._fixture()
        zero_block(net, 2)
        cache = build_cache(net, np.random.default_rng(1).standard_normal((20, 5)))
        prof = profile(net, len(batch), mode="modeled")
        decision = baseline_finetune_oracle(net, batch, cache, 1, 3, prof, seed=0)
        assert decision.pruned == frozenset({2})
        assert decision.ranked[0].tuned_loss == 0.0

    def test_oracle_costs_dominate_proxy_costs(self):
        net, batch, cache = self._fixture()
        prof = profile(net, 12, mode="modeled")
        k_steps = 5
        op_counter.reset()
        baseline_finetune_oracle(net, batch, cache, 1, k_steps, prof, seed=0)
        assert op_counter.backward_passes >= net.n_blocks * k_steps
        oracle_forwards = op_counter.forward_passes
        op_counter.reset()
        rank_and_prune(net, batch, prof, 1)
        assert op_counter.forward_passes == net.n_blocks + 1 < oracle_forwards

    def test_deterministic_given_seed(self):
        net, batch, cache = self._fixture()
        prof = profile(net, len(batch), mode="modeled")
        first = baseline_finetune_oracle(net, batch, cache, 1, 4, prof, seed=3)
        second = baseline_finetune_oracle(net, batch, cache, 1, 4, prof, seed=3)
        assert first.pruned == second.pruned
        assert [r.importance for r in first.ranked] == [r.importance for r in second.ranked]

    def test_k_steps_validated(self):
        net, batch, cache = self._fixture()
        with pytest.raises(ConfigError):
            baseline_finetune_oracle(net, batch, cache, 1, 0,
                                     profile(net, len(batch), mode="modeled"), seed=0)
