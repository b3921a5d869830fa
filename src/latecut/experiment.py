"""End-to-end experiment orchestration: pretrain a source model, profile it,
prune with a chosen method, fine-tune against the pseudo-label cache, and
evaluate on held-out shifted test data.

The held-out evaluation set is always the test split minus the samples
consumed by the prune batch and the cache, so pruning-and-fine-tuning on
test-time samples ("test" PF source) and on training samples ("train" PF
source) are scored on the identical evaluation set.  Latency saving is
recomputed from the profiler for whatever set of blocks actually got
pruned, never copied from configuration.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import DatasetSpec, ShiftSpec, evaluate_accuracy, make_dataset, pretrain_source
from .distill import (
    DistillConfig,
    SOURCE_FINAL_BLOCK,
    build_cache,
    check_feature_source,
    distill,
    distill_live,
    label_pixels,
    required_dataset_size,
)
from .errors import ConfigError
from .network import clone_network, parameter_count
from .profiling import latency_saving, profile
from .pruning import METHODS, prune_by_method

CSV_COLUMNS = [
    "method",
    "n_p",
    "seed",
    "shift_kind",
    "severity",
    "accuracy",
    "ls",
    "pf_seconds",
    "pf_normalized",
    "elapsed_prune",
    "elapsed_finetune",
    "elapsed_infer",
]


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    arch: dict = field(default_factory=lambda: {"width": 16, "n_blocks": 4})
    method: str = "proposed"
    n_p: int = 1
    prune_batch_size: int = 64
    cache_size: int | None = None  # None -> sized from the full model's parameter count
    kappa: float = 1.0
    distill: DistillConfig = field(default_factory=DistillConfig)
    feature_source: str = SOURCE_FINAL_BLOCK
    distill_mode: str = "cached"  # cached | live
    pf_source: str = "test"       # test | train
    pretrain_epochs: int = 30
    oracle_k_steps: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown pruning method {self.method!r}; choose from {METHODS}")
        if self.distill_mode not in ("cached", "live"):
            raise ConfigError(f"distill_mode must be cached or live, got {self.distill_mode!r}")
        if self.pf_source not in ("test", "train"):
            raise ConfigError(f"pf_source must be test or train, got {self.pf_source!r}")
        check_feature_source(self.feature_source)


@dataclass
class ExperimentReport:
    method: str
    seed: int
    n_p: int
    shift_kind: str
    severity: float
    accuracy: float          # percent on the held-out remainder
    latency_saving: float    # percent, recomputed from the profiler
    pf_seconds: float
    pf_normalized: float | None
    elapsed_prune: float
    elapsed_finetune: float
    elapsed_infer: float
    final_loss: float
    pruned: list[int]
    cache_size: int
    distill_mode: str

    def to_dict(self) -> dict:
        return asdict(self)

    def deterministic_dict(self) -> dict:
        """Report content minus wall-clock fields, for reproducibility checks."""
        d = self.to_dict()
        for key in ("pf_seconds", "pf_normalized", "elapsed_prune", "elapsed_finetune",
                    "elapsed_infer"):
            d.pop(key)
        return d

    def csv_row(self) -> dict:
        return {
            "method": self.method,
            "n_p": self.n_p,
            "seed": self.seed,
            "shift_kind": self.shift_kind,
            "severity": self.severity,
            "accuracy": f"{self.accuracy:.4f}",
            "ls": f"{self.latency_saving:.4f}",
            "pf_seconds": f"{self.pf_seconds:.6f}",
            "pf_normalized": "" if self.pf_normalized is None else f"{self.pf_normalized:.2f}",
            "elapsed_prune": f"{self.elapsed_prune:.6f}",
            "elapsed_finetune": f"{self.elapsed_finetune:.6f}",
            "elapsed_infer": f"{self.elapsed_infer:.6f}",
        }


def run_experiment(config: ExperimentConfig, pretrained=None) -> ExperimentReport:
    """profile -> prune -> distill -> evaluate, timing each stage.

    ``pretrained`` skips source training (used by grids that share one
    source model per seed).
    """
    (x_train, y_train), (x_test, y_test) = make_dataset(config.dataset)
    if pretrained is None:
        pretrained = pretrain_source(
            (x_train, y_train), config.arch, config.pretrain_epochs, config.seed
        )

    cache_size = config.cache_size
    if cache_size is None:
        pixels = label_pixels(config.feature_source, pretrained.width)
        cache_size = required_dataset_size(parameter_count(pretrained), pixels, config.kappa)

    pf_x = x_test if config.pf_source == "test" else x_train
    needed = config.prune_batch_size + cache_size
    if needed > pf_x.shape[0]:
        raise ConfigError(
            f"PF source has {pf_x.shape[0]} samples but prune batch + cache needs {needed}"
        )
    prune_batch = pf_x[: config.prune_batch_size]
    cache_samples = pf_x[config.prune_batch_size : needed]
    eval_lo = config.prune_batch_size + cache_size
    eval_x, eval_y = x_test[eval_lo:], y_test[eval_lo:]
    if eval_x.shape[0] == 0:
        raise ConfigError("no held-out test samples left after prune batch and cache")

    latency_profile = profile(pretrained, config.prune_batch_size, mode="modeled")

    t0 = time.perf_counter()
    cache = None
    if config.distill_mode == "cached" or config.method == "oracle":
        cache = build_cache(pretrained, cache_samples, config.feature_source)
    cache_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    decision = prune_by_method(
        config.method, pretrained, prune_batch, latency_profile, config.n_p, cache,
        config.oracle_k_steps, config.seed,
    )
    prune_seconds = time.perf_counter() - t1

    t2 = time.perf_counter()
    student = clone_network(pretrained)
    distill_config = replace(config.distill, seed=config.seed)
    if config.distill_mode == "cached":
        student, report = distill(student, decision.pruned, cache, distill_config)
    else:
        student, report = distill_live(
            student, decision.pruned, pretrained, cache_samples, distill_config,
            config.feature_source,
        )
    distill_seconds = time.perf_counter() - t2

    elapsed_prune = prune_seconds
    elapsed_finetune = prune_seconds + cache_seconds + distill_seconds

    t3 = time.perf_counter()
    accuracy = evaluate_accuracy(student, eval_x, eval_y, decision.pruned)
    elapsed_infer = elapsed_finetune + (time.perf_counter() - t3)

    return ExperimentReport(
        method=config.method,
        seed=config.seed,
        n_p=config.n_p,
        shift_kind=config.dataset.shift.kind,
        severity=config.dataset.shift.severity,
        accuracy=100.0 * accuracy,
        latency_saving=100.0 * latency_saving(latency_profile, decision.pruned),
        pf_seconds=elapsed_finetune,
        pf_normalized=None,
        elapsed_prune=elapsed_prune,
        elapsed_finetune=elapsed_finetune,
        elapsed_infer=elapsed_infer,
        final_loss=report.final_loss,
        pruned=sorted(decision.pruned),
        cache_size=cache_size,
        distill_mode=config.distill_mode,
    )


def compare_methods(base: ExperimentConfig, methods=METHODS, n_p_values=(1,), seeds=(0,)):
    """One run per (method, n_p, seed) with identical distillation.

    PF time is normalized to the proposed method's within each
    (n_p, seed) group, mirroring how the reference tables report it.
    """
    reports: list[ExperimentReport] = []
    pretrained_by_seed = {}
    for seed in seeds:
        cfg_seed = replace(base, seed=seed, dataset=replace(base.dataset, seed=seed))
        if seed not in pretrained_by_seed:
            train_split, _ = make_dataset(cfg_seed.dataset)
            pretrained_by_seed[seed] = pretrain_source(
                train_split, cfg_seed.arch, cfg_seed.pretrain_epochs, seed
            )
        for n_p in n_p_values:
            for method in methods:
                cfg = replace(cfg_seed, method=method, n_p=n_p)
                reports.append(run_experiment(cfg, pretrained_by_seed[seed]))
    by_group = {}
    for report in reports:
        if report.method == "proposed":
            by_group[(report.n_p, report.seed)] = report.pf_seconds
    for report in reports:
        base_pf = by_group.get((report.n_p, report.seed))
        if base_pf:
            report.pf_normalized = 100.0 * report.pf_seconds / base_pf
    return reports


def sweep_cache_sizes(config: ExperimentConfig, sizes, pretrained=None):
    """Accuracy as a function of fine-tuning set size, plus the saturation
    knee: the first size whose accuracy is within 0.5 points of the best."""
    rows = []
    for size in sizes:
        report = run_experiment(replace(config, cache_size=int(size)), pretrained)
        rows.append({"cache_size": int(size), "accuracy": report.accuracy})
    best = max(row["accuracy"] for row in rows)
    knee = next(row["cache_size"] for row in rows if row["accuracy"] >= best - 0.5)
    return rows, knee


def reports_to_csv(reports) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerow(report.csv_row())
    return buffer.getvalue()


def experiment_config_from_dict(payload: dict) -> ExperimentConfig:
    """Build a config from parsed JSON (the `experiment --config` schema)."""
    payload = dict(payload)
    dataset_payload = dict(payload.pop("dataset", {}))
    shift_payload = dict(dataset_payload.pop("shift", {}))
    if "class_means" in dataset_payload and dataset_payload["class_means"] is not None:
        dataset_payload["class_means"] = np.asarray(dataset_payload["class_means"], dtype=np.float64)
    try:
        dataset = DatasetSpec(shift=ShiftSpec(**shift_payload), **dataset_payload)
        distill_config = DistillConfig(**payload.pop("distill", {}))
        return ExperimentConfig(dataset=dataset, distill=distill_config, **payload)
    except TypeError as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return experiment_config_from_dict(json.load(fh))
