"""End-to-end experiment orchestration: pretrain a source model, profile it,
prune with a chosen method, fine-tune against the pseudo-label cache, and
evaluate on held-out shifted test data.

Every experiment is a grid run by :func:`run_grid`: the product of lists
of values for some of the config's ``GRID_AXES``, so a config without a grid
is a grid of one.  The dataset's seed names the data every run shares; a
run's seed seeds its pretraining, pruning method and distillation.

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
import itertools
import time
from dataclasses import asdict, dataclass, field, replace

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
from .errors import ConfigError, check_ints
from .network import clone_network, square_parameter_count
from .profiling import latency_saving, profile
from .pruning import METHODS, ORACLE_K_STEPS, prune_by_method

# The ExperimentConfig fields a grid may vary, in run order: seed outermost,
# method innermost.  Every one is recorded in a report and in results.csv.
GRID_AXES = ("seed", "n_p", "cache_size", "distill_mode", "pf_source", "method")

# results.csv, one (column, ExperimentReport field, format) per column; an
# unset field (pf_normalized with no proposed run to normalize by) is empty.
_CSV_TABLE = (
    ("method", "method", "{}"),
    ("n_p", "n_p", "{}"),
    ("seed", "seed", "{}"),
    ("cache_size", "cache_size", "{}"),
    ("distill_mode", "distill_mode", "{}"),
    ("pf_source", "pf_source", "{}"),
    ("shift_kind", "shift_kind", "{}"),
    ("severity", "severity", "{}"),
    ("accuracy", "accuracy", "{:.4f}"),
    ("ls", "latency_saving", "{:.4f}"),
    ("pf_seconds", "pf_seconds", "{:.6f}"),
    ("pf_normalized", "pf_normalized", "{:.2f}"),
    ("elapsed_prune", "elapsed_prune", "{:.6f}"),
    ("elapsed_finetune", "elapsed_finetune", "{:.6f}"),
    ("elapsed_infer", "elapsed_infer", "{:.6f}"),
)
CSV_COLUMNS = [column for column, _, _ in _CSV_TABLE]


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    arch: dict = field(default_factory=lambda: {"width": 16, "n_blocks": 4})
    method: str = "proposed"
    n_p: int = 1
    prune_batch_size: int = 64
    cache_size: int | None = None  # None -> sized from the pretrained model's parameter count
    distill: DistillConfig = field(default_factory=DistillConfig)
    feature_source: str = SOURCE_FINAL_BLOCK
    distill_mode: str = "cached"  # cached | live
    pf_source: str = "test"       # test | train
    pretrain_epochs: int = 30
    oracle_k_steps: int = ORACLE_K_STEPS
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown pruning method {self.method!r}; choose from {METHODS}")
        if self.distill_mode not in ("cached", "live"):
            raise ConfigError(f"distill_mode must be cached or live, got {self.distill_mode!r}")
        if self.pf_source not in ("test", "train"):
            raise ConfigError(f"pf_source must be test or train, got {self.pf_source!r}")
        check_feature_source(self.feature_source)
        arch = self.arch if isinstance(self.arch, dict) else {}
        if set(arch) != {"width", "n_blocks"} or not all(
                type(value) is int and value >= 1 for value in arch.values()):
            raise ConfigError(f"arch takes exactly a positive integer width and n_blocks, "
                              f"got {self.arch!r}")
        if type(self.n_p) is not int or not 0 <= self.n_p <= arch["n_blocks"]:
            raise ConfigError(f"n_p={self.n_p!r} outside 0..{arch['n_blocks']} removable blocks")
        check_ints(self, prune_batch_size=1, pretrain_epochs=0, oracle_k_steps=1, seed=0)
        if self.cache_size is not None:
            check_ints(self, cache_size=1)
            run_cache_size(self)


def run_cache_size(config: ExperimentConfig) -> int:
    """``cache_size``, or if None the :func:`required_dataset_size` of the
    model the run pretrains (``arch`` and the dataset fix its shape);
    ConfigError unless prune batch + cache leave held-out rows."""
    cache_size, spec = config.cache_size, config.dataset
    if cache_size is None:
        width, n_blocks = config.arch["width"], config.arch["n_blocks"]
        params = square_parameter_count(spec.input_dim, width, n_blocks, spec.num_classes)
        cache_size = required_dataset_size(params, label_pixels(config.feature_source, width))
    needed = config.prune_batch_size + cache_size
    if needed >= spec.samples_per_split:
        raise ConfigError(f"prune batch + cache = {needed} samples leave no held-out rows of "
                          f"samples_per_split={spec.samples_per_split}")
    return cache_size


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
    pf_source: str

    def to_dict(self) -> dict:
        return asdict(self)

    def deterministic_dict(self) -> dict:
        """Report content minus wall-clock fields, for reproducibility checks."""
        wall_clock = ("pf_seconds", "pf_normalized", "elapsed_prune", "elapsed_finetune",
                      "elapsed_infer")
        return {key: value for key, value in self.to_dict().items() if key not in wall_clock}

    def csv_row(self) -> dict:
        row = {}
        for column, name, fmt in _CSV_TABLE:
            value = getattr(self, name)
            row[column] = "" if value is None else fmt.format(value)
        return row


def run_experiment(config: ExperimentConfig, pretrained) -> ExperimentReport:
    """profile -> prune -> distill -> evaluate one run on its ``pretrained``
    source model, timing each stage."""
    (x_train, _), (x_test, y_test) = make_dataset(config.dataset)
    cache_size = run_cache_size(config)
    pf_x = x_test if config.pf_source == "test" else x_train
    needed = config.prune_batch_size + cache_size
    prune_batch = pf_x[: config.prune_batch_size]
    cache_samples = pf_x[config.prune_batch_size : needed]
    eval_x, eval_y = x_test[needed:], y_test[needed:]

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
        elapsed_prune=prune_seconds,
        elapsed_finetune=elapsed_finetune,
        elapsed_infer=elapsed_infer,
        final_loss=report.final_loss,
        pruned=sorted(decision.pruned),
        cache_size=cache_size,
        distill_mode=config.distill_mode,
        pf_source=config.pf_source,
    )


def run_grid(base: ExperimentConfig, grid: dict) -> list[ExperimentReport]:
    """One run of ``base`` per combination of ``grid``'s values, in run
    order; ``grid`` maps some of ``GRID_AXES`` to non-empty lists.  Every
    run's config and cache size are checked before the first pretraining,
    on one source model per seed with the dataset's class count.  PF time
    is normalized to that of the ``proposed`` run whose config differs only
    in method, as the reference tables report it."""
    axes = [axis for axis in GRID_AXES if axis in grid]
    if len(axes) < len(grid):
        raise ConfigError(f"unknown grid keys {sorted(set(grid) - set(axes))}; "
                          f"choose from {list(GRID_AXES)}")
    for axis in axes:
        if not grid[axis]:
            raise ConfigError(f"grid.{axis} must not be empty")
    configs = [replace(base, **dict(zip(axes, values)))
               for values in itertools.product(*(grid[axis] for axis in axes))]
    for cfg in configs:
        run_cache_size(cfg)
    train_split, _ = make_dataset(base.dataset)
    pretrained_by_seed = {
        seed: pretrain_source(train_split, base.arch, base.pretrain_epochs, seed,
                              num_classes=base.dataset.num_classes)
        for seed in dict.fromkeys(cfg.seed for cfg in configs)
    }
    reports = [run_experiment(cfg, pretrained_by_seed[cfg.seed]) for cfg in configs]
    groups = [tuple(getattr(cfg, axis) for axis in GRID_AXES if axis != "method")
              for cfg in configs]
    proposed_pf = {group: report.pf_seconds for group, report in zip(groups, reports)
                   if report.method == "proposed"}
    for group, report in zip(groups, reports):
        if proposed_pf.get(group):
            report.pf_normalized = 100.0 * report.pf_seconds / proposed_pf[group]
    return reports


def reports_to_csv(reports) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerow(report.csv_row())
    return buffer.getvalue()


def _require_json(value, kind, name):
    """``value`` if it is a JSON object (dict) or list, as ``kind`` says."""
    if not isinstance(value, kind):
        noun = "object" if kind is dict else "list"
        raise ConfigError(f"{name} must be a JSON {noun}, got {type(value).__name__}")
    return value


def experiment_config_from_dict(payload: dict) -> ExperimentConfig:
    """Build a config from parsed JSON (the `experiment --config` schema;
    its ``grid`` is read by :func:`experiment_grid_from_dict`)."""
    payload = dict(_require_json(payload, dict, "experiment config"))
    payload.pop("grid", None)
    dataset_payload = dict(_require_json(payload.pop("dataset", {}), dict, "dataset"))
    shift_payload = _require_json(dataset_payload.pop("shift", {}), dict, "dataset.shift")
    distill_payload = _require_json(payload.pop("distill", {}), dict, "distill")
    if "seed" in distill_payload:  # run_experiment seeds distillation with the run's seed
        raise ConfigError("distill.seed is not a setting: the run's seed seeds distillation")
    try:
        dataset = DatasetSpec(shift=ShiftSpec(**shift_payload), **dataset_payload)
        distill_config = DistillConfig(**distill_payload)
        return ExperimentConfig(dataset=dataset, distill=distill_config, **payload)
    except TypeError as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def experiment_grid_from_dict(payload: dict) -> dict:
    """:func:`run_grid`'s grid from the config file's ``grid``: each key's
    JSON list as a tuple.  No grid, or a null one, is ``{}``: one run."""
    grid = payload.get("grid")
    grid = {} if grid is None else _require_json(grid, dict, "grid")
    return {key: tuple(_require_json(values, list, f"grid.{key}"))
            for key, values in grid.items()}
