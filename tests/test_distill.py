import importlib

import numpy as np
import pytest

from latecut import network
from latecut.distill import (
    DistillConfig,
    DistillRun,
    PseudoLabelCache,
    SOURCE_FINAL_BLOCK,
    SOURCE_POOLED,
    build_cache,
    distill,
    distill_live,
    feature_loss_and_grads,
    lr_at,
    required_dataset_size,
    teacher_labels,
)
from latecut.errors import ConfigError, NumericError
from latecut.formats import network_fingerprint
from latecut.network import clone_network, compact, forward, op_counter, random_network

from oracles import assert_packed, kept_block_changed

# By module path: the package re-exports a function named ``distill``.
distill_module = importlib.import_module("latecut.distill")


def make_teacher(seed=0, width=4, n_blocks=3, input_dim=5):
    return random_network(input_dim, width, n_blocks, 3, seed=seed)


def make_samples(net, size, seed=0):
    return np.random.default_rng(seed).standard_normal((size, net.input_dim))


class TestLrSchedule:
    def test_canonical_500_step_schedule_exact(self):
        config = DistillConfig(steps=500)
        assert lr_at(0, config) == 0.02
        assert lr_at(199, config) == 0.02
        assert lr_at(200, config) == 0.002
        assert lr_at(399, config) == 0.002
        assert lr_at(400, config) == 0.0002
        assert lr_at(499, config) == 0.0002

    def test_constant_before_first_decay(self):
        config = DistillConfig(steps=50, lr0=0.5)
        for step in range(20):  # 0.4 * 50 = 20
            assert lr_at(step, config) == 0.5

    def test_ten_step_schedule(self):
        config = DistillConfig(steps=10)
        assert lr_at(9, config) == 0.02 * 0.1 * 0.1 == 0.0002

    def test_non_increasing_with_exactly_two_decays(self):
        for steps in (5, 7, 10, 123, 500):
            config = DistillConfig(steps=steps)
            rates = [lr_at(s, config) for s in range(steps)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))
            assert len(set(rates)) == 3  # lr0 and exactly two decayed plateaus

    def test_step_bounds(self):
        config = DistillConfig(steps=10)
        with pytest.raises(ConfigError):
            lr_at(10, config)
        with pytest.raises(ConfigError):
            lr_at(-1, config)


class TestDistillConfig:
    @pytest.mark.parametrize("change", [
        {"steps": -1}, {"batch_size": 0}, {"lr0": 0.0}, {"lr0": -0.02},
        {"lr0": float("nan")}, {"lr0": float("inf")}, {"lr0": float("-inf")}, {"seed": -1},
        {"steps": 2.5}, {"batch_size": True},
    ], ids=["steps", "batch_size", "lr0_zero", "lr0_negative", "lr0_nan", "lr0_inf",
            "lr0_minus_inf", "seed_negative", "steps_float", "batch_size_bool"])
    def test_validation(self, change):
        with pytest.raises(ConfigError):
            DistillConfig(**change)


class TestRequiredDatasetSize:
    def test_doubling_pixels_halves_size(self):
        full = required_dataset_size(10000, 50)
        assert required_dataset_size(10000, 100) == (full + 1) // 2

    def test_arithmetic(self):
        assert required_dataset_size(10000, 100) == 100
        assert required_dataset_size(10001, 100) == 101  # rounded up

    def test_floor_and_validation(self):
        assert required_dataset_size(3, 100) == 1
        with pytest.raises(ConfigError):
            required_dataset_size(100, 0)


class TestBuildCache:
    def test_labels_equal_teacher_final_features(self):
        teacher = make_teacher()
        samples = make_samples(teacher, 10)
        cache = build_cache(teacher, samples)
        _, feats = forward(teacher, samples)
        assert np.array_equal(cache.labels, feats)
        assert cache.pixels_per_label == teacher.width

    def test_each_sample_queried_exactly_once(self):
        teacher = make_teacher()
        samples = make_samples(teacher, 7)
        op_counter.reset()
        cache = build_cache(teacher, samples)
        # one pass over the set: a single sweep that labels every sample once
        assert op_counter.forward_passes == 1
        assert cache.size == 7

    def test_pooled_source_mean(self):
        teacher = make_teacher()
        samples = make_samples(teacher, 4)
        cache = build_cache(teacher, samples, SOURCE_POOLED)
        _, feats = forward(teacher, samples)
        assert cache.pixels_per_label == 1
        assert np.array_equal(cache.labels, feats.mean(axis=1, keepdims=True))

    def test_pooled_mean_arithmetic(self):
        assert np.array_equal(
            np.array([[1.0, 2.0, 3.0, 4.0]]).mean(axis=1, keepdims=True), [[2.5]]
        )

    def test_fingerprint_matches_teacher(self):
        teacher = make_teacher()
        cache = build_cache(teacher, make_samples(teacher, 3))
        assert cache.teacher_fingerprint == network_fingerprint(teacher)

    def test_empty_samples_rejected(self):
        teacher = make_teacher()
        with pytest.raises(ConfigError):
            build_cache(teacher, np.zeros((0, teacher.input_dim)))


class TestDistill:
    def test_student_equal_teacher_is_fixed_point(self):
        teacher = make_teacher(seed=1)
        cache = build_cache(teacher, make_samples(teacher, 12, seed=1))
        student = clone_network(teacher)
        before = [p.copy() for p in student.parameter_arrays()]
        student, report = distill(student, set(), cache, DistillConfig(steps=20, batch_size=5))
        assert report.loss_trace[0] == 0.0
        assert report.final_loss == 0.0
        for p, b in zip(student.parameter_arrays(), before):
            assert np.array_equal(p, b)

    def test_loss_decreases_on_pruned_student(self):
        teacher = make_teacher(seed=2)
        cache = build_cache(teacher, make_samples(teacher, 30, seed=2))
        student = clone_network(teacher)
        student, report = distill(
            student, {2}, cache, DistillConfig(steps=500, batch_size=16, seed=2)
        )
        assert report.final_loss < report.loss_trace[0]
        assert report.teacher_query_count == 0

    def test_batch_size_clamped_to_cache_size(self):
        teacher = make_teacher(seed=3)
        cache = build_cache(teacher, make_samples(teacher, 5, seed=3))
        student = clone_network(teacher)
        _, report = distill(student, {1}, cache, DistillConfig(steps=4, batch_size=64))
        assert len(report.loss_trace) == 4  # runs fine with 5-sample batches

    @pytest.mark.filterwarnings("error")  # raised before any gradient sees the inf
    def test_nonfinite_loss_reports_step(self):
        teacher = make_teacher(seed=4)
        cache = build_cache(teacher, make_samples(teacher, 8, seed=4))
        cache.labels[0, 0] = np.inf
        student = clone_network(teacher)
        with pytest.raises(NumericError, match="step"):
            distill(student, {1}, cache, DistillConfig(steps=10, batch_size=8))

    def test_run_writes_every_step_into_one_gradient_set(self, monkeypatch):
        teacher = make_teacher(seed=5, n_blocks=4)
        cache = build_cache(teacher, make_samples(teacher, 16, seed=5))
        seen = []
        real_sgd_step = distill_module.sgd_step

        def recording_sgd_step(network, grads, lr):
            seen.append(list(grads.parameter_arrays()))
            return real_sgd_step(network, grads, lr)

        monkeypatch.setattr(distill_module, "sgd_step", recording_sgd_step)
        student = compact(clone_network(teacher), {2})
        run = DistillRun(student, cache, DistillConfig(steps=4, batch_size=8))
        while not run.done:
            run.step()
        assert len(seen) == 4
        assert all(a is b for arrays in seen[1:] for a, b in zip(seen[0], arrays))
        assert all(a is b for a, b in zip(seen[0], run.gradients.parameter_arrays()))
        assert_packed(run.gradients)

    @pytest.mark.parametrize("source", [SOURCE_FINAL_BLOCK, SOURCE_POOLED])
    def test_a_step_computes_no_logits(self, monkeypatch, source):
        # The feature loss reads no logits, so a step's trace runs the stem
        # and each kept block's two maps, and never the classifier.
        teacher = make_teacher(seed=7, n_blocks=4)
        cache = build_cache(teacher, make_samples(teacher, 16, seed=7), source)
        student = compact(clone_network(teacher), {2})
        run = DistillRun(student, cache, DistillConfig(steps=2, batch_size=8))
        weights = []
        real_kernel = network.tile_kernel

        def counted(stack, weight, *args, **kwargs):
            weights.append(weight)
            return real_kernel(stack, weight, *args, **kwargs)

        monkeypatch.setattr(network, "tile_kernel", counted)
        run.step()
        assert len(weights) == 1 + 2 * student.n_blocks
        assert not any(w is student.classifier_weight for w in weights)

    def test_run_refuses_a_step_past_its_configured_steps(self):
        teacher = make_teacher(seed=6)
        cache = build_cache(teacher, make_samples(teacher, 8, seed=6))
        student = compact(clone_network(teacher), {1})
        run = DistillRun(student, cache, DistillConfig(steps=2, batch_size=4))
        run.step()
        run.step()
        before = [p.copy() for p in student.parameter_arrays()]
        with pytest.raises(ConfigError, match="already ran its configured steps"):
            run.step()
        assert run.steps_done == 2 and len(run.loss_trace) == 2
        assert all(np.array_equal(p, b) for p, b in zip(student.parameter_arrays(), before))

    def test_empty_cache_rejected(self):
        teacher = make_teacher()
        cache = PseudoLabelCache(
            np.zeros((0, teacher.input_dim)), np.zeros((0, teacher.width)), 0
        )
        with pytest.raises(ConfigError):
            distill(clone_network(teacher), set(), cache, DistillConfig(steps=1))


class TestCacheLiveEquivalence:
    def test_same_seed_bitwise_identical_students(self):
        teacher = make_teacher(seed=5, n_blocks=4)
        samples = make_samples(teacher, 20, seed=5)
        config = DistillConfig(steps=60, batch_size=8, seed=11)

        cache = build_cache(teacher, samples)
        cached_student = clone_network(teacher)
        cached_student, cached_report = distill(cached_student, {3}, cache, config)

        live_student = clone_network(teacher)
        live_student, live_report = distill_live(live_student, {3}, teacher, samples, config)

        for a, b in zip(cached_student.parameter_arrays(), live_student.parameter_arrays()):
            assert np.array_equal(a, b)
        assert cached_report.loss_trace == live_report.loss_trace
        assert kept_block_changed(cached_student, teacher, {3})

    def test_teacher_query_accounting(self):
        teacher = make_teacher(seed=6)
        samples = make_samples(teacher, 16, seed=6)
        config = DistillConfig(steps=25, batch_size=8, seed=0)
        cache = build_cache(teacher, samples)
        _, cached_report = distill(clone_network(teacher), {1}, cache, config)
        assert cached_report.teacher_query_count == 0
        _, live_report = distill_live(clone_network(teacher), {1}, teacher, samples, config)
        assert live_report.teacher_query_count == 25 * 8

    def test_live_slower_with_big_teacher(self):
        # teacher 16 blocks; student keeps 3 -> teacher > 4x student params
        teacher = make_teacher(seed=7, n_blocks=16, width=8, input_dim=8)
        skip = frozenset(range(1, 14))
        from latecut.network import compact, parameter_count

        assert parameter_count(teacher) >= 4 * parameter_count(compact(teacher, skip))
        samples = make_samples(teacher, 32, seed=7)
        config = DistillConfig(steps=40, batch_size=16, seed=1)
        cache = build_cache(teacher, samples)
        _, cached_report = distill(clone_network(teacher), skip, cache, config)
        _, live_report = distill_live(clone_network(teacher), skip, teacher, samples, config)
        assert cached_report.wall_time < live_report.wall_time


class TestPooledDistillation:
    def test_pooled_loss_and_gradients_run(self):
        teacher = make_teacher(seed=8)
        cache = build_cache(teacher, make_samples(teacher, 12, seed=8), SOURCE_POOLED)
        student = clone_network(teacher)
        student, report = distill(
            student, {1}, cache, DistillConfig(steps=120, batch_size=6, seed=8)
        )
        assert report.final_loss < report.loss_trace[0]

    def test_pooled_gradients_match_finite_differences(self):
        from oracles import finite_difference_grads, max_relative_gradient_error

        teacher = make_teacher(seed=9, width=3, n_blocks=1, input_dim=3)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3))
        targets = rng.standard_normal((4, 1))
        _, grads = feature_loss_and_grads(teacher, x, targets, SOURCE_POOLED)
        numeric = finite_difference_grads(
            lambda: feature_loss_and_grads(teacher, x, targets, SOURCE_POOLED)[0],
            teacher,
        )
        assert max_relative_gradient_error(list(grads.parameter_arrays()), numeric) < 1e-4


def test_unknown_feature_source_rejected():
    teacher = make_teacher(seed=11)
    samples = make_samples(teacher, 6, seed=11)
    student = clone_network(teacher)
    with pytest.raises(ConfigError, match="pooledd"):
        distill_live(student, {1}, teacher, samples, DistillConfig(steps=3), "pooledd")
    assert op_counter.forward_passes == 0  # rejected before any label or step
    with pytest.raises(ConfigError, match="pooledd"):
        teacher_labels(teacher, samples, "pooledd")
    with pytest.raises(ConfigError, match="pooledd"):
        build_cache(teacher, samples, "pooledd")


def test_cache_file_roundtrip(tmp_path):
    teacher = make_teacher(seed=10)
    cache = build_cache(teacher, make_samples(teacher, 6, seed=10))
    path = tmp_path / "cache.bin"
    cache.save(path)
    loaded = PseudoLabelCache.load(path)
    assert np.array_equal(loaded.inputs, cache.inputs)
    assert np.array_equal(loaded.labels, cache.labels)
    assert loaded.teacher_fingerprint == cache.teacher_fingerprint
    assert loaded.feature_source == SOURCE_FINAL_BLOCK


def test_pooled_cache_file_roundtrip(tmp_path):
    teacher = make_teacher(seed=10)
    cache = build_cache(teacher, make_samples(teacher, 6, seed=10), SOURCE_POOLED)
    path = tmp_path / "cache.bin"
    cache.save(path)
    loaded = PseudoLabelCache.load(path)
    assert np.array_equal(loaded.labels, cache.labels)
    assert cache.feature_source == loaded.feature_source == SOURCE_POOLED
