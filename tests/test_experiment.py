import json
from dataclasses import replace

import numpy as np
import pytest

from latecut.data import DatasetSpec, ShiftSpec, make_dataset, pretrain_source
from latecut.distill import DistillConfig
from latecut.errors import ConfigError
from latecut.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    compare_methods,
    experiment_config_from_dict,
    reports_to_csv,
    run_experiment,
    sweep_cache_sizes,
)
from latecut.network import zero_block
from latecut.profiling import latency_saving, profile


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


class TestRunExperiment:
    def test_report_fields_and_recomputed_ls(self):
        config = small_config(seed=1, dataset=replace(small_config().dataset, seed=1))
        report = run_experiment(config)
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
        first = run_experiment(config)
        second = run_experiment(config)
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
        from latecut.network import parameter_count, random_network

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
        assert parameter_count(teacher) >= 4 * parameter_count(teacher, set(cached.pruned))
        assert cached.pruned == live.pruned
        assert cached.pf_seconds < live.pf_seconds

    def test_insufficient_samples_rejected(self):
        config = small_config(
            dataset=replace(small_config().dataset, samples_per_split=30)
        )
        with pytest.raises(ConfigError):
            run_experiment(config)


class TestCompareMethods:
    def test_csv_schema_and_normalization(self):
        base = small_config(distill=DistillConfig(steps=10, batch_size=16))
        reports = compare_methods(base, methods=("proposed", "random"), n_p_values=(1,),
                                  seeds=(0,))
        csv_text = reports_to_csv(reports)
        header = csv_text.splitlines()[0].split(",")
        assert header == CSV_COLUMNS
        assert len(csv_text.splitlines()) == 3
        by_method = {r.method: r for r in reports}
        assert by_method["proposed"].pf_normalized == pytest.approx(100.0)
        assert by_method["random"].pf_normalized is not None

    def test_random_rows_reproducible(self):
        base = small_config(distill=DistillConfig(steps=8, batch_size=16))
        first = compare_methods(base, methods=("random",), n_p_values=(1,), seeds=(5,))
        second = compare_methods(base, methods=("random",), n_p_values=(1,), seeds=(5,))
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


class TestSweepCacheSizes:
    def test_knee_detection(self):
        config = small_config(
            seed=4,
            dataset=replace(small_config().dataset, seed=4),
            distill=DistillConfig(steps=20, batch_size=16),
        )
        train, _ = make_dataset(config.dataset)
        pretrained = pretrain_source(train, config.arch, config.pretrain_epochs, 4)
        rows, knee = sweep_cache_sizes(config, sizes=(8, 16, 32, 64), pretrained=pretrained)
        assert [row["cache_size"] for row in rows] == [8, 16, 32, 64]
        best = max(row["accuracy"] for row in rows)
        assert {row["cache_size"]: row["accuracy"] for row in rows}[knee] >= best - 0.5


class TestConfigParsing:
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

    def test_json_round_trip(self, tmp_path):
        from latecut.experiment import load_experiment_config

        payload = {"dataset": {"seed": 3}, "n_p": 1, "seed": 3,
                   "distill": {"steps": 4}}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        config = load_experiment_config(path)
        assert config.n_p == 1 and config.distill.steps == 4
