import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from latecut import experiment
from latecut.data import DatasetSpec, ShiftSpec, make_dataset, pretrain_source
from latecut.distill import DistillConfig, label_pixels, required_dataset_size
from latecut.errors import ConfigError
from latecut.experiment import (
    CSV_COLUMNS,
    GRID_AXES,
    ExperimentConfig,
    ExperimentReport,
    experiment_config_from_dict,
    experiment_grid_from_dict,
    reports_to_csv,
    run_cache_size,
    run_experiment,
    run_grid,
    saturation_knee,
)
from latecut.network import parameter_count
from latecut.profiling import latency_saving, profile

from conftest import zero_block


def small_config(**overrides):
    defaults = dict(
        dataset=DatasetSpec(
            num_classes=4, input_dim=8, samples_per_split=1400,
            class_sep=0.9, noise_sigma=1.0, shift=ShiftSpec("additive_noise", 1.0),
        ),
        arch={"width": 10, "n_blocks": 3},
        n_p=2,
        prune_batch_size=32,
        cache_size=20,
        distill=DistillConfig(steps=30, batch_size=32),
        pretrain_epochs=15,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def counting_pretrain(monkeypatch):
    """The pretrain calls run_grid makes from now on; each still pretrains."""
    calls = []

    def pretrain(*args, **kwargs):
        calls.append(args)
        return pretrain_source(*args, **kwargs)

    monkeypatch.setattr(experiment, "pretrain_source", pretrain)
    return calls


def stubbed_run_grid(monkeypatch, base, grid):
    """The configs run_grid runs, in order, with pretraining and each run
    stubbed out, and the seeds it pretrains for."""
    seeds = []
    monkeypatch.setattr(experiment, "pretrain_source",
                        lambda split, arch, epochs, seed, num_classes: seeds.append(seed))
    monkeypatch.setattr(experiment, "run_experiment",
                        lambda config, pretrained: SimpleNamespace(
                            config=config, method=config.method, pf_seconds=1.0))
    return [report.config for report in run_grid(base, grid)], seeds


class TestRunExperiment:
    def test_report_fields_and_recomputed_ls(self):
        config = small_config(seed=1, dataset=replace(small_config().dataset, seed=1))
        [report] = run_grid(config, {})  # a grid of one: method proposed, n_p 2, seed 1
        assert report.method == "proposed"
        assert 0.0 < report.accuracy < 100.0
        assert len(report.pruned) == 2
        train, _ = make_dataset(config.dataset)
        pretrained = pretrain_source(train, config.arch, config.pretrain_epochs, config.seed)
        prof = profile(pretrained, config.prune_batch_size, mode="modeled")
        expected_ls = 100.0 * latency_saving(prof, set(report.pruned))
        assert abs(report.latency_saving - expected_ls) < 1e-12
        assert report.elapsed_prune <= report.elapsed_finetune <= report.elapsed_infer

    def test_deterministic_modulo_wall_clock(self):
        config = small_config(seed=2, dataset=replace(small_config().dataset, seed=2))
        [first] = run_grid(config, {"method": ["proposed"], "n_p": [2], "seed": [2]})
        [second] = run_grid(config, {"method": ["proposed"], "n_p": [2], "seed": [2]})
        assert first.deterministic_dict() == second.deterministic_dict()

    def test_proposed_beats_random_on_average(self):
        proposed, random_ = [], []
        for seed in range(10):
            config = small_config(seed=seed, dataset=replace(small_config().dataset, seed=seed))
            train, _ = make_dataset(config.dataset)
            pretrained = pretrain_source(train, config.arch, config.pretrain_epochs, seed)
            proposed.append(run_experiment(replace(config, method="proposed"), pretrained).accuracy)
            random_.append(run_experiment(replace(config, method="random"), pretrained).accuracy)
        assert np.mean(proposed) >= np.mean(random_)

    def test_cached_pf_faster_than_live_with_4x_teacher(self):
        from latecut.network import compact, parameter_count, random_network

        teacher = random_network(8, 8, 16, 4, seed=3)
        config = small_config(
            seed=3,
            dataset=replace(small_config().dataset, seed=3, input_dim=8),
            arch={"width": 8, "n_blocks": 16},
            n_p=13,
            cache_size=48,
            distill=DistillConfig(steps=120, batch_size=32),
        )
        cached = run_experiment(replace(config, distill_mode="cached"), teacher)
        live = run_experiment(replace(config, distill_mode="live"), teacher)
        assert parameter_count(teacher) >= 4 * parameter_count(compact(teacher, cached.pruned))
        assert cached.pruned == live.pruned
        assert cached.pf_seconds < live.pf_seconds

    def test_insufficient_samples_rejected(self):
        dataset = replace(small_config().dataset, samples_per_split=30)
        with pytest.raises(ConfigError, match="samples_per_split=30"):
            small_config(dataset=dataset)  # an explicit cache size is checked up front
        config = small_config(dataset=dataset, cache_size=None)  # sized from the model
        train, _ = make_dataset(config.dataset)
        with pytest.raises(ConfigError, match="samples_per_split=30"):
            run_experiment(config, pretrain_source(train, config.arch, epochs=0))


class TestCacheSize:
    @pytest.mark.parametrize("feature_source", ["final_block", "pooled"])
    @pytest.mark.parametrize("arch", [{"width": 10, "n_blocks": 3}, {"width": 5, "n_blocks": 7}])
    def test_derived_size_is_the_pretrained_models(self, feature_source, arch):
        config = small_config(cache_size=None, feature_source=feature_source, arch=arch)
        train, _ = make_dataset(config.dataset)
        pretrained = pretrain_source(train, arch, epochs=0)
        pixels = label_pixels(feature_source, pretrained.width)
        assert run_cache_size(config) == required_dataset_size(parameter_count(pretrained), pixels)
        assert run_cache_size(replace(config, cache_size=20)) == 20

    def test_a_split_missing_a_class_pretrains_the_datasets_class_count(self, monkeypatch):
        dataset = DatasetSpec(num_classes=4, input_dim=8, samples_per_split=8, seed=23)
        (_, y_train), _ = make_dataset(dataset)
        assert y_train.max() == 2  # no training sample of class 3
        pretrained = []

        def pretrain(*args, **kwargs):
            pretrained.append(pretrain_source(*args, **kwargs))
            return pretrained[-1]

        monkeypatch.setattr(experiment, "pretrain_source", pretrain)
        config = ExperimentConfig(dataset=dataset, arch={"width": 4, "n_blocks": 2},
                                  method="random", prune_batch_size=2, cache_size=2,
                                  distill=DistillConfig(steps=1, batch_size=2),
                                  pretrain_epochs=0)
        run_grid(config, {})
        assert [net.num_classes for net in pretrained] == [4]


class TestCompareMethods:
    def test_csv_schema_and_normalization(self):
        base = small_config(distill=DistillConfig(steps=10, batch_size=16))
        reports = run_grid(base, {"method": ["proposed", "random"], "n_p": [1], "seed": [0]})
        csv_text = reports_to_csv(reports)
        header = csv_text.splitlines()[0].split(",")
        assert header == CSV_COLUMNS
        assert set(GRID_AXES) <= set(CSV_COLUMNS) & set(reports[0].to_dict())
        assert len(csv_text.splitlines()) == 3
        by_method = {r.method: r for r in reports}
        assert by_method["proposed"].pf_normalized == pytest.approx(100.0)
        assert by_method["random"].pf_normalized is not None

    def test_csv_text_is_pinned(self):
        # The text the column-by-column writer gave before the one-table
        # rewrite: str() of plain fields, fixed decimals of the rest, and an
        # empty field for an unset pf_normalized.
        common = dict(shift_kind="additive_noise", final_loss=0.5, pruned=[1],
                      distill_mode="cached", pf_source="test")
        reports = [
            ExperimentReport(method="proposed", seed=0, n_p=1, severity=0.5, accuracy=87.5,
                             latency_saving=25.0, pf_seconds=1.25, pf_normalized=100.0,
                             elapsed_prune=0.0001234567, elapsed_finetune=1.25,
                             elapsed_infer=1.5, cache_size=64, **common),
            ExperimentReport(method="random", seed=7, n_p=2, severity=0.1 + 0.2,
                             accuracy=99.99995, latency_saving=1 / 3, pf_seconds=2e-7,
                             pf_normalized=None, elapsed_prune=12.0,
                             elapsed_finetune=3.0000005, elapsed_infer=1e6, cache_size=1990,
                             **common),
        ]
        assert reports_to_csv(reports) == (
            "method,n_p,seed,cache_size,distill_mode,pf_source,shift_kind,severity,accuracy,"
            "ls,pf_seconds,pf_normalized,elapsed_prune,elapsed_finetune,elapsed_infer\n"
            "proposed,1,0,64,cached,test,additive_noise,0.5,87.5000,25.0000,1.250000,100.00,"
            "0.000123,1.250000,1.500000\n"
            "random,2,7,1990,cached,test,additive_noise,0.30000000000000004,99.9999,0.3333,"
            "0.000000,,12.000000,3.000001,1000000.000000\n"
        )

    def test_random_rows_reproducible(self):
        base = small_config(distill=DistillConfig(steps=8, batch_size=16))
        first = run_grid(base, {"method": ["random"], "n_p": [1], "seed": [5]})
        second = run_grid(base, {"method": ["random"], "n_p": [1], "seed": [5]})
        assert first[0].deterministic_dict() == second[0].deterministic_dict()

    def test_proposed_and_oracle_agree_on_planted_fixture(self):
        # a zeroed block is unambiguous: every method that looks must prune it
        base = small_config(
            seed=7,
            dataset=replace(small_config().dataset, seed=7),
            n_p=1,
            distill=DistillConfig(steps=10, batch_size=16),
            oracle_k_steps=10,
        )
        train, _ = make_dataset(base.dataset)
        pretrained = pretrain_source(train, base.arch, base.pretrain_epochs, 7)
        zero_block(pretrained, 2)
        proposed = run_experiment(replace(base, method="proposed"), pretrained)
        oracle = run_experiment(replace(base, method="oracle"), pretrained)
        assert proposed.pruned == oracle.pruned == [2]


class TestGridAxes:
    def test_distill_mode_grid_pretrains_once_and_cached_equals_live(self, monkeypatch):
        calls = counting_pretrain(monkeypatch)
        config = small_config(seed=6, distill=DistillConfig(steps=20, batch_size=16))
        cached, live = run_grid(config, {"distill_mode": ["cached", "live"]})
        assert len(calls) == 1
        assert (cached.distill_mode, live.distill_mode) == ("cached", "live")
        assert cached.pruned == live.pruned
        assert cached.accuracy == live.accuracy  # cached and live runs are bitwise equal

    def test_pf_normalized_to_the_proposed_run_with_its_own_cache_size(self):
        base = small_config(distill=DistillConfig(steps=10, batch_size=16))
        reports = run_grid(base, {"method": ["proposed", "random"], "cache_size": [8, 16]})
        assert [(r.cache_size, r.method) for r in reports] == [
            (8, "proposed"), (8, "random"), (16, "proposed"), (16, "random")]
        for proposed, random_ in (reports[:2], reports[2:]):
            assert proposed.pf_normalized == pytest.approx(100.0)
            assert random_.pf_normalized == pytest.approx(
                100.0 * random_.pf_seconds / proposed.pf_seconds)

    def test_run_order_is_seed_outermost_and_method_innermost(self, monkeypatch):
        grid = {"method": ["random", "proposed"], "cache_size": [8, None], "seed": [3, 1]}
        configs, seeds = stubbed_run_grid(monkeypatch, small_config(), grid)
        assert [(c.seed, c.cache_size, c.method) for c in configs] == [
            (seed, size, method) for seed in (3, 1) for size in (8, None)
            for method in ("random", "proposed")]
        assert seeds == [3, 1]  # each seed's source is pretrained once


class TestSweepCacheSizes:
    def test_knee_detection(self):
        config = small_config(
            seed=4,
            dataset=replace(small_config().dataset, seed=4),
            distill=DistillConfig(steps=20, batch_size=16),
        )
        reports = run_grid(config, {"cache_size": [8, 16, 32, 64]})
        assert [report.cache_size for report in reports] == [8, 16, 32, 64]
        knee = saturation_knee(reports)
        best = max(report.accuracy for report in reports)
        assert {report.cache_size: report.accuracy for report in reports}[knee] >= best - 0.5

    def test_pretrains_once_for_all_sizes(self, monkeypatch):
        calls = counting_pretrain(monkeypatch)
        config = small_config(distill=DistillConfig(steps=2, batch_size=16), pretrain_epochs=2)
        reports = run_grid(config, {"cache_size": [8, 16, 32]})
        assert len(reports) == 3
        assert len(calls) == 1

    def test_knee_is_the_smallest_size_within_half_a_point(self):
        reports = [SimpleNamespace(cache_size=size, accuracy=accuracy)
                   for size, accuracy in [(8, 60.0), (16, 79.6), (32, 80.0), (64, 79.9)]]
        assert saturation_knee(reports) == 16
        assert saturation_knee(reports[::-1]) == 16  # whatever the grid's order


class TestConfigParsing:
    def test_axes_the_grid_does_not_name_take_the_configs_values(self, monkeypatch):
        payload = {"method": "random", "n_p": 2, "seed": 4}
        config = experiment_config_from_dict(payload)
        for grid in ({}, {"grid": None}, {"grid": {}}):
            assert experiment_grid_from_dict({**payload, **grid}) == {}
        grid = experiment_grid_from_dict({**payload, "grid": {"seed": [0, 1]}})
        assert grid == {"seed": (0, 1)}
        configs, _ = stubbed_run_grid(monkeypatch, config, grid)
        assert [(c.method, c.n_p, c.seed) for c in configs] == [("random", 2, 0), ("random", 2, 1)]
        [lone], _ = stubbed_run_grid(monkeypatch, config, {})
        assert lone == config

    def test_readme_experiment_config_parses(self, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        payload = json.loads(blocks[0])
        config = experiment_config_from_dict(payload)
        grid = experiment_grid_from_dict(payload)
        assert grid == {key: tuple(values) for key, values in payload["grid"].items()}
        configs, _ = stubbed_run_grid(monkeypatch, config, grid)
        assert len(configs) == math.prod(len(values) for values in grid.values()) > 1

    def test_round_trip_from_dict(self):
        payload = {
            "dataset": {
                "num_classes": 3, "input_dim": 6, "samples_per_split": 200,
                "shift": {"kind": "scaling", "severity": 0.5}, "seed": 9,
            },
            "arch": {"width": 6, "n_blocks": 2},
            "method": "curl",
            "n_p": 1,
            "prune_batch_size": 16,
            "cache_size": 12,
            "distill": {"steps": 5, "batch_size": 8},
            "seed": 9,
        }
        config = experiment_config_from_dict(payload)
        assert config.method == "curl"
        assert config.dataset.shift.kind == "scaling"
        assert config.distill.steps == 5

    def test_bad_keys_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"no_such_field": 1})
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"method": "bogus"})
        with pytest.raises(ConfigError, match="pooledd"):
            experiment_config_from_dict({"feature_source": "pooledd", "distill_mode": "live"})
        with pytest.raises(ConfigError):  # the schedule's decay is fixed
            experiment_config_from_dict({"distill": {"decay_factor": 0.5}})
        # cache_size or the sizing rule sizes the cache; class_sep draws the means
        with pytest.raises(ConfigError, match="kappa"):
            experiment_config_from_dict({"kappa": 2.0})
        with pytest.raises(ConfigError, match="class_means"):
            experiment_config_from_dict({"dataset": {"class_means": [[0.0], [1.0]]}})

    @pytest.mark.parametrize("payload", [
        {"dataset": {"shift": {"kind": "scaling", "severity": float("nan")}}},
        {"dataset": {"class_sep": float("inf")}},
        {"dataset": {"noise_sigma": float("nan")}},
        {"dataset": {"noise_sigma": -0.5}},
        {"dataset": {"samples_per_split": 0}},
        {"dataset": {"num_classes": 0}},
        # class_means is no setting, so this is refused as an unknown key
        {"dataset": {"class_means": [[0.0, float("nan")], [1.0, 1.0]], "num_classes": 2,
                     "input_dim": 2}},
        {"dataset": {"seed": -2}},
        {"arch": {"width": 0, "n_blocks": 2}},
        {"arch": {"width": 4}},
        {"pretrain_epochs": -1},
        {"seed": -1},
        {"n_p": -1},
        {"n_p": 5, "arch": {"width": 4, "n_blocks": 4}},
    ], ids=["severity_nan", "class_sep_inf", "noise_sigma_nan", "noise_sigma_negative",
            "no_samples", "no_classes", "class_means_nan", "dataset_seed_negative",
            "arch_width_0", "arch_without_n_blocks", "pretrain_epochs_negative",
            "seed_negative", "n_p_negative", "n_p_above_n_blocks"])
    def test_out_of_range_values_rejected(self, payload):
        with pytest.raises(ConfigError):
            experiment_config_from_dict(payload)
