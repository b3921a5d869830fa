import struct
from dataclasses import astuple

import numpy as np
import pytest

from latecut.distill import SOURCE_FINAL_BLOCK, SOURCE_POOLED, DistillConfig, build_cache, distill
from latecut.errors import ConfigError, PartialRunError
from latecut.network import clone_network, forward, random_network
from latecut.profiling import latency_saving, network_cost_macs, profile
from latecut.pruning import rank_and_prune
from latecut.serving import (
    MODEL_FULL,
    MODEL_PRUNED,
    Phase,
    ServeConfig,
    ServingState,
    serve,
    tick,
)


def make_stream(net, count, seed=0, with_labels=False):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((count, net.input_dim))
    if with_labels:
        ys = rng.integers(0, net.num_classes, count)
        return [(xs[i], int(ys[i])) for i in range(count)]
    return [xs[i] for i in range(count)]


def small_config(**overrides):
    defaults = dict(
        n_p=1,
        prune_batch_size=6,
        cache_size=8,
        distill=DistillConfig(steps=12, batch_size=4, seed=3),
        budget_per_tick=3,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestTick:
    def test_arrivals_never_dropped(self):
        net = random_network(4, 4, 2, 3, seed=0)
        state = ServingState(net, small_config())
        stream = make_stream(net, 5, seed=0)
        records = tick(state, stream)
        assert len(records) == 5

    def test_pruning_finishes_within_a_tick(self):
        net = random_network(4, 4, 2, 3, seed=1)
        config = small_config(prune_batch_size=4, budget_per_tick=1)
        state = ServingState(net, config)
        tick(state, make_stream(net, 4, seed=1))  # seeds the prune batch, 1 unit done
        assert state.phase is Phase.PRUNING
        tick(state, [])  # block 1 scored
        tick(state, [])  # block 2 scored -> decision -> Distilling
        assert state.phase is Phase.DISTILLING

    def test_phase_recorded_at_moment_of_service(self):
        net = random_network(4, 4, 2, 3, seed=2)
        config = small_config(prune_batch_size=2, cache_size=2,
                              distill=DistillConfig(steps=1, batch_size=2, seed=0),
                              budget_per_tick=50)
        state = ServingState(net, config)
        records = tick(state, make_stream(net, 4, seed=2))
        assert all(r.phase is Phase.PRUNING for r in records)
        assert state.phase is Phase.SERVING  # big budget finished everything
        late = tick(state, make_stream(net, 2, seed=3))
        assert all(r.phase is Phase.SERVING and r.model_id == MODEL_PRUNED for r in late)


class TestServe:
    def test_degenerate_config_serves_unchanged_model(self):
        net = random_network(5, 4, 3, 3, seed=3)
        stream = make_stream(net, 30, seed=3)
        config = small_config(n_p=0, distill=DistillConfig(steps=0, batch_size=4, seed=0))
        final, timeline, _ = serve(iter(stream), net, config)
        for original, served in zip(net.parameter_arrays(), final.parameter_arrays()):
            assert np.array_equal(original, served)
        plain_logits, _ = forward(net, np.array(stream))
        plain_classes = np.argmax(plain_logits, axis=1)
        assert [r.predicted_class for r in timeline.records] == plain_classes.tolist()

    def test_exactly_once_and_complete(self):
        net = random_network(4, 4, 2, 3, seed=4)
        stream = make_stream(net, 40, seed=4)
        _, timeline, _ = serve(iter(stream), net, small_config())
        indices = [r.sample_index for r in timeline.records]
        assert indices == list(range(40))

    def test_phase_model_consistency_and_monotone_phases(self):
        net = random_network(4, 4, 3, 3, seed=5)
        stream = make_stream(net, 60, seed=5)
        _, timeline, _ = serve(iter(stream), net, small_config(), arrival_schedule=2)
        order = {Phase.PRUNING: 0, Phase.DISTILLING: 1, Phase.SERVING: 2}
        last = 0
        for record in timeline.records:
            expected_model = MODEL_PRUNED if record.phase is Phase.SERVING else MODEL_FULL
            assert record.model_id == expected_model
            assert order[record.phase] >= last
            last = order[record.phase]

    def test_liveness_reaches_serving(self):
        net = random_network(4, 4, 2, 3, seed=6)
        stream = make_stream(net, 80, seed=6)
        _, timeline, timings = serve(iter(stream), net, small_config())
        assert timings.prune_done_tick is not None
        assert timings.distill_done_tick is not None
        assert any(r.phase is Phase.SERVING for r in timeline.records)

    def test_samples_arriving_during_pruning_all_served_by_full_model(self):
        net = random_network(4, 4, 3, 3, seed=7)
        config = small_config(prune_batch_size=8, cache_size=8, budget_per_tick=1,
                              distill=DistillConfig(steps=30, batch_size=4, seed=0))
        stream = make_stream(net, 16, seed=7)  # exactly the seeds; work finishes after
        final, timeline, _ = serve(iter(stream), net, config)
        assert all(r.model_id == MODEL_FULL for r in timeline.records)
        assert final is not None  # run still finished its phases on empty ticks

    def test_teacher_query_accounting(self):
        net = random_network(4, 4, 3, 3, seed=8)
        config = small_config(prune_batch_size=5, cache_size=7)
        stream = make_stream(net, 50, seed=8)
        _, _, timings = serve(iter(stream), net, config)
        assert timings.teacher_query_count == (net.n_blocks + 1) + 7
        assert timings.inference_count == 50

    def test_deterministic_timeline_bitwise(self):
        net = random_network(4, 4, 2, 3, seed=9)
        config = small_config()
        runs = []
        for _ in range(2):
            stream = make_stream(net, 45, seed=9, with_labels=True)
            final, timeline, _ = serve(iter(stream), clone_network(net), config,
                                       arrival_schedule=[0, 3, 1, 2])
            runs.append((final, timeline))
        first, second = runs
        assert len(first[1].records) == len(second[1].records)
        for a, b in zip(first[1].records, second[1].records):
            assert a == b
        for p, q in zip(first[0].parameter_arrays(), second[0].parameter_arrays()):
            assert np.array_equal(p, q)

    @pytest.mark.parametrize("source", [SOURCE_FINAL_BLOCK, SOURCE_POOLED])
    def test_final_model_matches_offline_pipeline_bitwise(self, source):
        net = random_network(5, 4, 3, 3, seed=10)
        config = small_config(prune_batch_size=6, cache_size=8, feature_source=source,
                              distill=DistillConfig(steps=20, batch_size=4, seed=5))
        stream = make_stream(net, 40, seed=10)
        state = ServingState(net, config)
        for sample in stream:
            tick(state, [sample])
        for _ in range(100):
            if state.phase is Phase.SERVING:
                break
            tick(state, [])
        assert state.phase is Phase.SERVING

        prune_batch = np.array(stream[:6])
        cache_samples = np.array(stream[6:14])
        prof = profile(net, 6, mode="modeled")
        decision = rank_and_prune(net, prune_batch, prof, 1)
        assert (state.decision.method, state.decision.n_p, state.decision.pruned) == (
            decision.method, decision.n_p, decision.pruned)
        assert [_row_bits(r) for r in state.decision.ranked] == [
            _row_bits(r) for r in decision.ranked]
        cache = build_cache(net, cache_samples, source)
        assert np.array(state.cache_labels).tobytes() == cache.labels.tobytes()
        student = clone_network(net)
        student, _ = distill(student, decision.pruned, cache, config.distill)
        for a, b in zip(state.student.parameter_arrays(), student.parameter_arrays()):
            assert np.array_equal(a, b)

    def test_serving_cost_lower_by_exact_delta_t(self):
        net = random_network(5, 4, 3, 3, seed=11)
        config = small_config(n_p=2, prune_batch_size=6, cache_size=6,
                              distill=DistillConfig(steps=5, batch_size=4, seed=0))
        stream = make_stream(net, 60, seed=11)
        _, timeline, _ = serve(iter(stream), net, config)
        pruning_costs = [r.latency for r in timeline.records if r.phase is Phase.PRUNING]
        serving_costs = [r.latency for r in timeline.records if r.phase is Phase.SERVING]
        assert pruning_costs and serving_costs
        full_cost = network_cost_macs(net, 1)
        assert set(pruning_costs) == {full_cost}
        prof = profile(net, 1, mode="modeled")
        pruned = {r for r in serving_costs}
        assert len(pruned) == 1
        saving = latency_saving(prof, _served_skip(net, timeline))
        assert serving_costs[0] == pytest.approx(full_cost * (1.0 - saving), rel=1e-12)
        assert serving_costs[0] < pruning_costs[0]

    def test_correctness_flags_with_labeled_stream(self):
        net = random_network(4, 4, 2, 3, seed=12)
        stream = make_stream(net, 30, seed=12, with_labels=True)
        _, timeline, _ = serve(iter(stream), net, small_config())
        assert all(r.correct in (True, False) for r in timeline.records)

    def test_stream_too_short_raises_partial_run_with_timeline(self):
        net = random_network(4, 4, 2, 3, seed=13)
        stream = make_stream(net, 5, seed=13)
        with pytest.raises(PartialRunError) as excinfo:
            serve(iter(stream), net, small_config(prune_batch_size=10, cache_size=10))
        timeline = excinfo.value.timeline
        assert len(timeline.records) == 5

    def test_config_validation(self):
        net = random_network(4, 4, 2, 3, seed=0)
        with pytest.raises(ConfigError):
            ServingState(net, small_config(n_p=5))
        with pytest.raises(ConfigError):
            small_config(budget_per_tick=0)


def _row_bits(row):
    """A ranked row's fields, floats as their IEEE-754 bytes."""
    return [
        struct.pack("<d", v) if isinstance(v, (float, np.floating)) else v
        for v in astuple(row)
    ]


def _served_skip(net, timeline):
    """Recover the pruned set exercised in the serving phase from latencies."""
    serving = next(r for r in timeline.records if r.phase is Phase.SERVING)
    target = serving.latency
    from itertools import combinations

    ids = range(1, net.n_blocks + 1)
    for size in range(net.n_blocks + 1):
        for combo in combinations(ids, size):
            if network_cost_macs(net, 1, set(combo)) == target:
                return set(combo)
    raise AssertionError("no skip set matches the served latency")
