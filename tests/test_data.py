import json
from dataclasses import asdict

import numpy as np
import pytest

from latecut.data import (
    EVAL_CHUNK_ROWS,
    PRETRAIN_LR,
    DatasetSpec,
    ShiftSpec,
    cross_entropy_loss_and_grads,
    evaluate_accuracy,
    make_dataset,
    pretrain_source,
)
from latecut.distill import DistillConfig
from latecut.errors import ConfigError, DimensionError, TrainingDivergedError
from latecut.experiment import ExperimentConfig
from latecut.network import (
    clone_network,
    forward,
    op_counter,
    packed_gradients,
    random_network,
    sgd_step,
)
from latecut.serving import ServeConfig

from oracles import (
    finite_difference_grads,
    max_relative_gradient_error,
    reference_sgd_step,
    separate_copy,
)


class TestMakeDataset:
    def test_no_shift_same_distribution(self):
        spec = DatasetSpec(samples_per_split=4000, seed=1)
        (x_train, _), (x_test, _) = make_dataset(spec)
        sigma = x_train.std(axis=0)
        gap = np.abs(x_train.mean(axis=0) - x_test.mean(axis=0))
        assert np.all(gap <= 3.0 * sigma / np.sqrt(4000) * 2)  # two-sample bound

    def test_additive_noise_adds_variance(self):
        severity = 1.5
        spec = DatasetSpec(
            samples_per_split=6000, seed=2,
            shift=ShiftSpec("additive_noise", severity),
        )
        (x_train, _), (x_test, _) = make_dataset(spec)
        extra = (x_test.var(axis=0) - x_train.var(axis=0)).mean()
        assert extra == pytest.approx(severity ** 2, rel=0.2)

    def test_fixed_seed_bitwise_reproducible(self):
        spec = DatasetSpec(seed=3, shift=ShiftSpec("additive_noise", 1.0))
        first = make_dataset(spec)
        second = make_dataset(spec)
        for (xa, ya), (xb, yb) in zip(first, second):
            assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_labels_preserved_under_every_shift(self):
        for kind in ("none", "additive_noise", "smoothing", "scaling", "rotation_mix"):
            spec = DatasetSpec(seed=4, samples_per_split=100, shift=ShiftSpec(kind, 1.0))
            clean = make_dataset(DatasetSpec(seed=4, samples_per_split=100))
            shifted = make_dataset(spec)
            assert np.array_equal(clean[1][1], shifted[1][1])

    def test_zero_severity_is_identity(self):
        for kind in ("smoothing", "scaling", "rotation_mix", "additive_noise"):
            base = make_dataset(DatasetSpec(seed=5, samples_per_split=50))
            shifted = make_dataset(
                DatasetSpec(seed=5, samples_per_split=50, shift=ShiftSpec(kind, 0.0))
            )
            assert np.array_equal(base[1][0], shifted[1][0])

    def test_fractional_smoothing_blends_the_passes_either_side(self):
        def shifted(severity):
            spec = DatasetSpec(seed=7, samples_per_split=50, shift=ShiftSpec("smoothing", severity))
            return make_dataset(spec)[1][0]

        np.testing.assert_allclose(shifted(1.25), 0.75 * shifted(1.0) + 0.25 * shifted(2.0),
                                   rtol=1e-12, atol=1e-12)

    def test_rotation_preserves_norms(self):
        spec = DatasetSpec(seed=6, samples_per_split=50, shift=ShiftSpec("rotation_mix", 2.0))
        clean = make_dataset(DatasetSpec(seed=6, samples_per_split=50))
        shifted = make_dataset(spec)
        np.testing.assert_allclose(
            np.linalg.norm(shifted[1][0], axis=1),
            np.linalg.norm(clean[1][0], axis=1),
            rtol=1e-10,
        )

    def test_negative_severity_rejected(self):
        with pytest.raises(ConfigError):
            ShiftSpec("additive_noise", -1.0)

    def test_coincident_class_means_rejected(self):
        with pytest.raises(ConfigError):  # class_sep 0 draws every mean at the origin
            make_dataset(DatasetSpec(num_classes=2, input_dim=4, class_sep=0.0, seed=0))


class TestCrossEntropy:
    def test_gradients_match_finite_differences(self):
        from latecut.network import random_network

        net = random_network(4, 3, 2, 3, seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        _, grads = cross_entropy_loss_and_grads(net, x, y)
        numeric = finite_difference_grads(
            lambda: cross_entropy_loss_and_grads(net, x, y)[0], net
        )
        assert max_relative_gradient_error(list(grads.parameter_arrays()), numeric) < 1e-4

    def test_classifier_gradients_nonzero(self):
        from latecut.network import random_network

        net = random_network(4, 3, 1, 3, seed=8)
        rng = np.random.default_rng(8)
        _, grads = cross_entropy_loss_and_grads(
            net, rng.standard_normal((5, 4)), rng.integers(0, 3, 5)
        )
        assert np.any(grads.classifier_weight != 0.0)

    def test_set_is_applied_fused_to_its_own_network_only(self):
        net = random_network(4, 3, 2, 3, seed=9)
        twin = clone_network(net)
        reference = separate_copy(net)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((6, 4)), rng.integers(0, 3, 6)
        _, grads = cross_entropy_loss_and_grads(net, x, y)
        assert len(grads.layout.runs) == 1  # the packed network is one run
        out = packed_gradients(net)
        assert cross_entropy_loss_and_grads(net, x, y, out)[1] is out
        for a, b in zip(out.parameter_arrays(), grads.parameter_arrays()):
            assert np.array_equal(a, b)
        with pytest.raises(DimensionError):
            sgd_step(twin, grads, PRETRAIN_LR)
        for p, q in zip(twin.parameter_arrays(), reference.parameter_arrays()):
            assert np.array_equal(p, q)
        reference_sgd_step(reference, grads, PRETRAIN_LR)
        assert sgd_step(net, grads, PRETRAIN_LR) is net
        for p, q in zip(net.parameter_arrays(), reference.parameter_arrays()):
            assert np.array_equal(p, q)
        assert not np.array_equal(net.stem_weight, twin.stem_weight)


class TestPretrain:
    def test_linearly_separable_two_class_reaches_99(self):
        spec = DatasetSpec(num_classes=2, input_dim=8, class_sep=4.0, noise_sigma=0.5,
                           samples_per_split=600, seed=9)
        train, _ = make_dataset(spec)
        net = pretrain_source(train, {"width": 8, "n_blocks": 2}, epochs=12, seed=9)
        assert evaluate_accuracy(net, *train) >= 0.99

    def test_default_spec_reaches_90(self):
        train, _ = make_dataset(DatasetSpec(seed=10))
        net = pretrain_source(train, {"width": 16, "n_blocks": 4}, epochs=30, seed=10)
        assert evaluate_accuracy(net, *train) >= 0.90

    def test_zero_epochs_gives_chance_accuracy(self):
        # a single random net can win the which-cluster-lands-where lottery,
        # so chance-level accuracy is a statement about the seed average
        spec = DatasetSpec(num_classes=4, samples_per_split=3000, seed=11)
        train, _ = make_dataset(spec)
        accs = [
            evaluate_accuracy(
                pretrain_source(train, {"width": 8, "n_blocks": 2}, epochs=0, seed=s), *train
            )
            for s in range(40)
        ]
        assert np.mean(accs) == pytest.approx(0.25, abs=0.05)

    def test_same_seed_identical_checkpoint(self):
        train, _ = make_dataset(DatasetSpec(seed=12, samples_per_split=400))
        a = pretrain_source(train, {"width": 8, "n_blocks": 2}, epochs=3, seed=12)
        b = pretrain_source(train, {"width": 8, "n_blocks": 2}, epochs=3, seed=12)
        for pa, pb in zip(a.parameter_arrays(), b.parameter_arrays()):
            assert np.array_equal(pa, pb)

    def test_impossible_task_diverges(self):
        # class_sep 1e-9 draws pairwise distinct, statistically identical means
        spec = DatasetSpec(num_classes=3, input_dim=6, class_sep=1e-9,
                           noise_sigma=2.0, samples_per_split=600, seed=13)
        train, _ = make_dataset(spec)
        with pytest.raises(TrainingDivergedError):
            pretrain_source(train, {"width": 8, "n_blocks": 2}, epochs=2, seed=13)


class TestShiftMonotonicity:
    def test_source_accuracy_non_increasing_in_severity(self):
        wins = 0
        for seed in range(5):
            train, _ = make_dataset(DatasetSpec(seed=seed, samples_per_split=1500))
            net = pretrain_source(train, {"width": 8, "n_blocks": 2}, epochs=10, seed=seed)
            accs = []
            for severity in (0.0, 0.5, 1.0, 2.0):
                spec = DatasetSpec(seed=seed, samples_per_split=1500,
                                   shift=ShiftSpec("additive_noise", severity))
                _, (x_test, y_test) = make_dataset(spec)
                accs.append(evaluate_accuracy(net, x_test, y_test))
            wins += all(a >= b for a, b in zip(accs, accs[1:]))
        assert wins >= 3


def test_evaluate_accuracy_chunks_match_one_full_forward():
    rows = 2 * EVAL_CHUNK_ROWS + 37
    net = random_network(6, 9, 2, 3, seed=4)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((rows, 6))
    y = rng.integers(0, 3, rows)
    logits, _ = forward(net, x, {1})
    op_counter.reset()
    accuracy = evaluate_accuracy(net, x, y, {1})
    assert op_counter.forward_passes == 3
    assert accuracy == float((np.argmax(logits, axis=1) == y).mean())


@pytest.mark.parametrize("labels", [[1], [1] * 9, [1] * 11, [[1]] * 10, 1],
                         ids=["one", "short", "long", "column", "scalar"])
def test_evaluate_accuracy_needs_one_label_per_row(labels):
    """Labels of another shape are refused, not broadcast: ten rows against
    ``[1]`` would score every row against class 1."""
    net = random_network(6, 9, 2, 3, seed=4)
    x = np.random.default_rng(4).standard_normal((10, 6))
    with pytest.raises(DimensionError, match=r"expected \(10,\)"):
        evaluate_accuracy(net, x, np.array(labels))
    assert evaluate_accuracy(net, x, [1] * 10) == evaluate_accuracy(net, x, np.ones(10, int))


def test_evaluate_accuracy_refuses_zero_rows():
    """An empty batch has no accuracy: refused before any forward pass,
    not left to fail inside numpy."""
    net = random_network(6, 9, 2, 3, seed=4)
    op_counter.reset()
    with pytest.raises(DimensionError, match="at least one row"):
        evaluate_accuracy(net, np.empty((0, 6)), np.empty(0, dtype=int))
    assert op_counter.forward_passes == 0


@pytest.mark.parametrize("value", [np.int64(1), True], ids=["numpy_int", "bool"])
@pytest.mark.parametrize("make, field", [
    (lambda value: ServeConfig(n_p=value), "ServeConfig.n_p"),
    (lambda value: DistillConfig(steps=value), "DistillConfig.steps"),
    (lambda value: DatasetSpec(seed=value), "DatasetSpec.seed"),
], ids=["serve", "distill", "dataset"])
def test_config_int_fields_refuse_bools_and_numpy_integers(make, field, value):
    """A config's integer field goes through ``check_count``: it refuses a
    bool, and never keeps a numpy integer but stores it as a Python int,
    which the CLI's JSON config log needs."""
    if value is True:
        with pytest.raises(ConfigError) as info:
            make(value)
        assert str(info.value) == f"{field} must be an integer >= 0 (not a bool), got True"
        return
    stored = getattr(make(value), field.split(".")[1])
    assert stored == 1 and type(stored) is int


def _numpy_configs():
    """Each config built with a numpy scalar in every numeric field."""
    shift = ShiftSpec(kind="scaling", severity=np.float32(0.5))
    dataset = DatasetSpec(num_classes=np.int64(3), input_dim=np.int32(8),
                          samples_per_split=np.uint16(300), class_sep=np.float64(2.0),
                          noise_sigma=np.int8(1), shift=shift, seed=np.int64(4))
    distill = DistillConfig(steps=np.int64(5), batch_size=np.int16(4), lr0=np.float16(0.25),
                            seed=np.uint8(2))
    serve = ServeConfig(n_p=np.int64(1), prune_batch_size=np.int32(8), cache_size=np.int64(8),
                        distill=distill, budget_per_tick=np.uint32(2))
    experiment = ExperimentConfig(
        dataset=dataset, arch={"width": np.int64(8), "n_blocks": np.int32(2)},
        n_p=np.int64(1), prune_batch_size=np.int64(16), cache_size=np.int64(16),
        distill=distill, pretrain_epochs=np.int64(2), oracle_k_steps=np.int64(3),
        seed=np.int64(1))
    return {"shift": shift, "dataset": dataset, "distill": distill, "serve": serve,
            "experiment": experiment}


@pytest.mark.parametrize("name", ["shift", "dataset", "distill", "serve", "experiment"])
def test_configs_store_numpy_scalars_as_python_numbers(name):
    """Every setting a config stores is a Python int, float or str, so the
    JSON config log takes the whole config."""
    config = _numpy_configs()[name]
    values = []

    def walk(value):
        if isinstance(value, dict):
            for item in value.values():
                walk(item)
        else:
            values.append(value)

    walk(asdict(config))
    assert values and all(type(value) in (int, float, str) for value in values)
    assert json.loads(json.dumps(asdict(config))) == asdict(config)
