import gc
import struct
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from latecut import serving
from latecut.distill import DistillConfig, DistillRun, build_cache, distill
from latecut.errors import (
    ConfigError,
    DegenerateBlockError,
    DimensionError,
    NumericError,
    PartialRunError,
)
from latecut.network import clone_network, forward, op_counter, random_network
from latecut.profiling import LatencyProfile, latency_saving, network_cost_macs, profile
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

from oracles import kept_block_changed


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

    @pytest.mark.parametrize("arrivals", [1, 3, 64])
    def test_serving_tick_answers_each_arrival_with_its_own_forward(self, arrivals):
        """Once Mbar serves, a tick of k arrivals is k forward passes, and
        each answer is the one a batched forward of Mbar gives it."""
        net = random_network(4, 4, 2, 3, seed=4)
        config = small_config(prune_batch_size=2, cache_size=2,
                              distill=DistillConfig(steps=1, batch_size=2, seed=0),
                              budget_per_tick=50)
        state = ServingState(net, config)
        tick(state, make_stream(net, 4, seed=4))
        assert state.phase is Phase.SERVING
        batch = np.array(make_stream(net, arrivals, seed=5))
        before = op_counter.forward_passes
        records = tick(state, list(batch))
        assert op_counter.forward_passes - before == arrivals
        assert len(records) == arrivals
        assert all(r.model_id == MODEL_PRUNED for r in records)
        logits, _ = forward(state.pruned_model, batch)
        assert [r.predicted_class for r in records] == logits.argmax(axis=1).tolist()

    @pytest.mark.parametrize("bad_shape", [(15,), (1, 16), ()], ids=["narrow", "2d", "0d"])
    def test_malformed_arrival_raises_before_any_is_answered(self, bad_shape):
        """A tick whose last arrival is malformed answers, admits and counts
        none of them and does not spend the tick: the next tick numbers its
        records from 0."""
        net = random_network(16, 4, 2, 3, seed=6)
        state = ServingState(net, small_config())
        ok = make_stream(net, 2, seed=6)
        before = op_counter.forward_passes
        with pytest.raises(DimensionError, match="arrival 2"):
            tick(state, ok + [np.zeros(bad_shape)])
        assert op_counter.forward_passes == before
        assert state.samples_seen == 0 and state.prune_samples == [] and state.tick_index == 0
        records = tick(state, ok)
        assert [(r.sample_index, r.arrival_tick) for r in records] == [(0, 0), (1, 0)]
        assert state.samples_seen == 2 and len(state.prune_samples) == 2

    @pytest.mark.parametrize("label", [1.7, "2", True, np.bool_(True), None],
                             ids=["float", "str", "bool", "np_bool", "none"])
    def test_non_integer_label_raises_before_any_is_answered(self, label):
        """A label is never coerced: ``int(1.7)`` would score the arrival
        against class 1."""
        net = random_network(4, 4, 2, 3, seed=6)
        state = ServingState(net, small_config())
        arrivals = make_stream(net, 3, seed=6, with_labels=True)
        arrivals[2] = (arrivals[2][0], label)
        before = op_counter.forward_passes
        with pytest.raises(DimensionError, match="label"):
            tick(state, arrivals)
        assert op_counter.forward_passes == before
        assert state.samples_seen == 0 and state.prune_samples == [] and state.tick_index == 0

    def test_numpy_integer_labels_score_as_ints(self):
        net = random_network(4, 4, 2, 3, seed=6)
        arrivals = make_stream(net, 6, seed=6, with_labels=True)
        plain = tick(ServingState(net, small_config()), arrivals)
        numpy = tick(ServingState(net, small_config()),
                     [(x, np.uint32(label)) for x, label in arrivals])
        assert numpy == plain
        assert all(type(r.correct) is bool for r in numpy)


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
        _, timeline, timings = serve(iter(stream), net, config)
        assert timings.teacher_query_count == (net.n_blocks + 1) + 7
        assert len(timeline.records) == 50

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

    def test_final_model_matches_offline_pipeline_bitwise(self):
        net = random_network(5, 4, 3, 3, seed=10)
        config = small_config(prune_batch_size=6, cache_size=8,
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
        cache = build_cache(net, cache_samples)
        assert np.array(state.cache_labels).tobytes() == cache.labels.tobytes()
        student = clone_network(net)
        student, _ = distill(student, decision.pruned, cache, config.distill)
        for a, b in zip(state.student.parameter_arrays(), student.parameter_arrays()):
            assert np.array_equal(a, b)
        assert kept_block_changed(state.student, net, decision.pruned)

    def test_serving_cost_lower_by_exact_delta_t(self):
        net = random_network(5, 4, 3, 3, seed=11)
        config = small_config(n_p=2, prune_batch_size=6, cache_size=6,
                              distill=DistillConfig(steps=5, batch_size=4, seed=0))
        state = ServingState(net, config)
        served = {}  # model id -> the network that answered under it
        for sample in make_stream(net, 60, seed=11):
            model, model_id = state.active_model()
            served.setdefault(model_id, model)
            for record in tick(state, [sample]):
                assert record.model_id == model_id
        assert state.phase is Phase.SERVING
        assert served[MODEL_FULL] is net and served[MODEL_PRUNED] is state.pruned_model
        full_cost = network_cost_macs(net, 1)
        saving = latency_saving(profile(net, 1, mode="modeled"), state.decision.pruned)
        pruned_cost = network_cost_macs(state.pruned_model, 1)
        assert pruned_cost == pytest.approx(full_cost * (1.0 - saving), rel=1e-12)
        assert pruned_cost < full_cost

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

    # Pinned tick accounting: (total_ticks, prune_done_tick,
    # distill_done_tick, the last record's arrival_tick).
    # small_config seeds 6 + 8 samples; 14 in 2s end on a full tick, so the
    # feed ends on an empty read, and 15 in 2s end on a short one.
    @pytest.mark.parametrize("count, schedule, expected", [
        (14, 2, (11, 2, 10, 6)),
        (15, 2, (11, 2, 10, 7)),
        (16, 4, (9, 1, 8, 3)),
        (45, [0, 3, 1, 2], (44, 3, 15, 42)),
    ], ids=["14_by_2", "15_by_2", "16_by_4", "45_scheduled"])
    def test_tick_accounting_pinned(self, count, schedule, expected):
        net = random_network(4, 4, 2, 3, seed=9)
        xs = np.random.default_rng(9).standard_normal((45, 4))[:count]
        _, timeline, timings = serve(iter(xs), net, small_config(), schedule)
        last = timeline.records[-1].arrival_tick
        assert (timings.total_ticks, timings.prune_done_tick, timings.distill_done_tick,
                last) == expected
        assert [r.sample_index for r in timeline.records] == list(range(count))

    def test_tick_accounting_pinned_partial(self):
        net = random_network(4, 4, 2, 3, seed=9)
        xs = np.random.default_rng(9).standard_normal((45, 4))[:13]
        with pytest.raises(PartialRunError, match="exhausted after 13 samples") as excinfo:
            serve(iter(xs), net, small_config(), 2)
        assert [r.sample_index for r in excinfo.value.timeline.records] == list(range(13))

    def test_numpy_integer_counts_serve_as_ints(self):
        net = random_network(4, 4, 2, 3, seed=9)
        xs = np.random.default_rng(9).standard_normal((45, 4))
        for plain, numpy in ((2, np.int64(2)), ([0, 3, 1, 2], np.array([0, 3, 1, 2]))):
            _, expected, timings = serve(iter(xs), net, small_config(), plain)
            _, timeline, numpy_timings = serve(iter(xs), net, small_config(), numpy)
            assert timeline == expected and numpy_timings == timings

    @pytest.mark.parametrize("count", [True, 0, -1, 2.5, np.bool_(True)],
                             ids=["bool", "zero", "negative", "float", "np_bool"])
    def test_bad_arrival_count_raises_before_anything_is_profiled(self, monkeypatch, count):
        net = random_network(4, 4, 2, 3, seed=9)

        def no_profile(*args, **kwargs):
            raise AssertionError("profiled before the arrival count was checked")

        monkeypatch.setattr(serving, "profile", no_profile)
        with pytest.raises(ConfigError, match="arrivals per tick must be an integer >= 1"):
            serve(iter(make_stream(net, 20)), net, small_config(), count)
        assert op_counter.forward_passes == op_counter.backward_passes == 0

    def test_degenerate_profile_raises_before_any_tick(self, monkeypatch):
        net = random_network(4, 4, 3, 3, seed=9)
        real_tick = serving.tick
        ticks = []

        def counting_tick(state, arrivals):
            ticks.append(len(arrivals))
            return real_tick(state, arrivals)

        # Block 2's skipped latency above T: its saving is negative.
        monkeypatch.setattr(serving, "profile", lambda network, *args, **kwargs:
                            LatencyProfile("measured", 1.0, {1: 0.8, 2: 1.01, 3: 0.8}))
        monkeypatch.setattr(serving, "tick", counting_tick)
        with pytest.raises(DegenerateBlockError, match="block 2 "):
            serve(iter(make_stream(net, 40)), net, small_config())
        assert ticks == []
        assert op_counter.forward_passes == 0

    @pytest.mark.parametrize("entry", [2.7, True, -1, np.bool_(True)],
                             ids=["float", "bool", "negative", "np_bool"])
    def test_bad_schedule_entry_raises_when_its_tick_comes(self, monkeypatch, entry):
        net = random_network(4, 4, 2, 3, seed=9)
        real_tick = serving.tick
        ticks = []

        def counting_tick(state, arrivals):
            ticks.append(len(arrivals))
            return real_tick(state, arrivals)

        monkeypatch.setattr(serving, "tick", counting_tick)
        with pytest.raises(ConfigError, match="arrivals per tick must be an integer >= 0"):
            serve(iter(make_stream(net, 20)), net, small_config(), [2, 0, entry, 1])
        assert ticks == [2, 0]
        op_counter.reset()
        with pytest.raises(ConfigError, match="arrivals per tick must be an integer >= 0"):
            serve(iter(make_stream(net, 20)), net, small_config(), [entry, 1])
        assert ticks == [2, 0]  # a first entry that is no count: no tick, no pass
        assert op_counter.forward_passes == op_counter.backward_passes == 0

    # The unit that raises, as (kind, index): the baseline pass, a block's
    # score, a cache sample's label or a distillation step.  small_config on a
    # 2-block network runs 1 baseline, 2 score, 8 label and 12 step units.
    # In the cases "14" and "60" step 5 raises: 14 samples only just seed the
    # prune batch (6) and cache (8), so the failure comes after the stream
    # ended; 60 samples outlast the background work, as in the sweep.
    @pytest.mark.parametrize("unit, count", [
        (("step", 5), 14), (("step", 5), 60),
        (("baseline", 0), 60), (("score", 0), 60), (("score", 1), 60),
        (("label", 0), 60), (("label", 7), 60), (("step", 0), 60), (("step", 11), 60),
    ], ids=["14", "60", "baseline", "first_score", "last_score", "first_label",
            "last_label", "first_step", "last_step"])
    def test_failed_distill_step_keeps_every_answered_request(self, monkeypatch, unit, count):
        net = random_network(4, 4, 2, 3, seed=14)
        stream = make_stream(net, count, seed=14)
        injected = NumericError(f"{unit} failed (injected)")
        failed_ticks = []
        states = []

        class RecordingState(ServingState):
            def __init__(self, *args):
                super().__init__(*args)
                states.append(self)

        # Each unit kind is one call of what the unit runs; the baseline is
        # the one forward on the whole prune batch, not a batch-1 answer.
        kind, index = unit
        owner, name, is_unit = {
            "baseline": (serving, "forward", lambda net, x: len(x) > 1),
            "score": (serving, "initial_noise", lambda *args: True),
            "label": (serving, "teacher_labels", lambda *args: True),
            "step": (DistillRun, "step", lambda run: True),
        }[kind]
        real_unit = getattr(owner, name)
        calls = []

        def unit_or_failure(*args):
            if is_unit(*args):
                calls.append(args)
                if len(calls) == index + 1:
                    failed_ticks.append(states[0].tick_index)
                    raise injected
            return real_unit(*args)

        real_tick = serving.tick
        ticks = []

        def bounded_tick(state, arrivals):
            ticks.append(len(arrivals))
            assert len(ticks) < 1000, "serve kept ticking after the stream ended"
            return real_tick(state, arrivals)

        monkeypatch.setattr(owner, name, unit_or_failure)
        monkeypatch.setattr(serving, "ServingState", RecordingState)
        monkeypatch.setattr(serving, "tick", bounded_tick)
        with pytest.raises(PartialRunError) as excinfo:
            serve(iter(stream), net, small_config(), arrival_schedule=2)
        assert excinfo.value.__cause__ is injected
        assert len(failed_ticks) == 1
        records = excinfo.value.timeline.records
        assert [r.sample_index for r in records] == list(range(count))
        order = {Phase.PRUNING: 0, Phase.DISTILLING: 1, Phase.FAILED: 2}
        ranks = [order[r.phase] for r in records]
        assert ranks == sorted(ranks)
        # A tick answers its arrivals before its background work.
        for record in records:
            failed = record.arrival_tick > failed_ticks[0]
            assert (record.phase is Phase.FAILED) == failed, record
        assert all(r.model_id == MODEL_FULL for r in records)
        for record, x in zip(records, stream):
            logits, _ = forward(net, x[None, :])
            assert record.predicted_class == int(logits.argmax())
        if count == 60:
            assert records[-1].phase is Phase.FAILED

    def test_tick_returns_its_records_when_a_unit_raises(self, monkeypatch):
        net = random_network(4, 4, 2, 3, seed=15)
        config = small_config(budget_per_tick=100)
        state = ServingState(net, config)

        def failing_step(run):
            raise NumericError("injected")

        monkeypatch.setattr(DistillRun, "step", failing_step)
        records = tick(state, make_stream(net, 14, seed=15))
        assert [r.sample_index for r in records] == list(range(14))
        assert all(r.phase is Phase.PRUNING for r in records)
        assert state.phase is Phase.FAILED and isinstance(state.failure, NumericError)
        assert state.timings.failed_tick == 0 and state.samples_seen == 14
        late = tick(state, make_stream(net, 3, seed=16))
        assert [r.sample_index for r in late] == [14, 15, 16]
        assert all(r.phase is Phase.FAILED and r.model_id == MODEL_FULL for r in late)
        assert state.distill_run.steps_done == 0  # no work after the failure
        assert state.samples_seen == 17

    def test_nan_sample_in_prune_batch_fails_instead_of_pruning(self):
        net = random_network(4, 4, 3, 3, seed=17)
        stream = make_stream(net, 80, seed=17)
        stream[2][1] = np.nan  # inside the prune batch of 6
        with pytest.raises(PartialRunError) as excinfo:
            serve(iter(stream), net, small_config())
        assert isinstance(excinfo.value.__cause__, NumericError)
        records = excinfo.value.timeline.records
        assert [r.sample_index for r in records] == list(range(80))
        assert all(r.model_id == MODEL_FULL for r in records)
        assert records[-1].phase is Phase.FAILED

    # A state is freed by reference counting alone in every phase but
    # Failed, where the kept exception's traceback holds a frame of it.
    @pytest.mark.parametrize("samples, phase", [
        (0, Phase.PRUNING), (3, Phase.PRUNING), (10, Phase.DISTILLING), (14, Phase.SERVING),
    ], ids=["unstarted", "waiting", "distilling", "served"])
    def test_state_is_freed_without_the_cyclic_gc(self, samples, phase):
        net = random_network(4, 4, 2, 3, seed=18)
        state = ServingState(net, small_config(budget_per_tick=100))
        enabled = gc.isenabled()
        gc.disable()
        try:
            if samples:
                tick(state, make_stream(net, samples, seed=18))
            assert state.phase is phase
            ref = weakref.ref(state)
            del state
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_config_validation(self):
        net = random_network(4, 4, 2, 3, seed=0)
        with pytest.raises(ConfigError):
            ServingState(net, small_config(n_p=5))
        with pytest.raises(ConfigError):
            small_config(budget_per_tick=0)
        with pytest.raises(ConfigError, match="cache_size"):
            small_config(cache_size=2.5)
        with pytest.raises(ConfigError, match="n_p"):
            small_config(n_p=True)


def _row_bits(row):
    """A ranked row's fields, floats as their IEEE-754 bytes."""
    return [
        struct.pack("<d", v) if isinstance(v, (float, np.floating)) else v
        for v in astuple(row)
    ]
