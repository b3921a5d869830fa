"""One-shot pseudo-label caching and feature-mimicking fine-tuning.

The cache stores a label for each fine-tuning sample, generated exactly
once from the teacher.  Fine-tuning then minimizes the mean squared error
between those stored labels and the same projection of the student's
final-block features with plain SGD; the classifier stays frozen
throughout.  A live mode that re-queries the teacher every mini-batch
exists as the expensive reference: with equal seeds it follows a
bitwise-identical parameter trajectory, it is just slower.

One label rule serves every caller.  A label is the final-block feature map
itself (``final_block``) or its per-sample mean, one pixel wide
(``pooled``, the ablation source); :func:`check_feature_source` rejects any
other name.  Teacher labels, the loss, the whole-cache loss, cache sizing
and the experiment config go through it; serving labels final-block
features.  :func:`feature_loss_and_grads` is the one implementation of the
loss and its gradients, and :class:`DistillRun` steps with it.

Learning-rate schedule: the rate starts at ``lr0`` (0.02 by default) and is
multiplied by ``LR_DECAY_FACTOR`` (0.1) each time another
``LR_DECAY_EVERY_FRACTION`` (40%) of the total steps has elapsed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionError, NumericError, check_choice, check_count,
                     check_ints, check_real)
from .formats import load_cache_file, network_fingerprint, save_cache_file
from .network import (
    ResidualNetwork,
    backprop_from_outputs,
    compact,
    feature_mse,
    forward,
    forward_trace,
    mean_square,
    packed_gradients,
    sgd_step,
)

SOURCE_FINAL_BLOCK = "final_block"
SOURCE_POOLED = "pooled"

LR_DECAY_FACTOR = 0.1
LR_DECAY_EVERY_FRACTION = 0.4


def check_feature_source(feature_source) -> str:
    """``feature_source`` if it names a label source, else ConfigError."""
    return check_choice("feature source", feature_source, (SOURCE_FINAL_BLOCK, SOURCE_POOLED))


def label_pixels(feature_source, width: int) -> int:
    """Pixels per label for a network of feature width ``width``."""
    return 1 if check_feature_source(feature_source) == SOURCE_POOLED else width


def _project(features, feature_source):
    """The labels ``features`` (B, width) give under ``feature_source``."""
    if check_feature_source(feature_source) == SOURCE_POOLED:
        return features.mean(axis=1, keepdims=True)
    return features


@dataclass
class PseudoLabelCache:
    inputs: np.ndarray   # (N, input_dim)
    labels: np.ndarray   # (N, pixels_per_label)
    teacher_fingerprint: int

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def pixels_per_label(self) -> int:
        return self.labels.shape[1]

    @property
    def feature_source(self) -> str:
        """Pooled exactly when a label is one pixel wide; a width-1 final-block
        label equals its one-pixel mean, so reading it as pooled changes nothing."""
        return SOURCE_POOLED if self.pixels_per_label == 1 else SOURCE_FINAL_BLOCK

    def save(self, path) -> None:
        save_cache_file(path, self.inputs, self.labels, self.teacher_fingerprint)

    @classmethod
    def load(cls, path) -> "PseudoLabelCache":
        return cls(*load_cache_file(path))


@dataclass
class DistillConfig:
    steps: int = 500
    batch_size: int = 64
    lr0: float = 0.02
    seed: int = 0

    def __post_init__(self):
        check_ints(self, steps=0, batch_size=1, seed=0)
        self.lr0 = check_real("lr0", self.lr0, positive=True)


@dataclass
class DistillReport:
    loss_trace: list[float]
    wall_time: float
    teacher_query_count: int
    final_loss: float


def lr_at(step: int, config: DistillConfig) -> float:
    """Learning rate for ``step``; one decay per elapsed 40% of the run.

    Decays are applied by sequential multiplication so the canonical
    schedule hits 0.02, 0.002, 0.0002 exactly in float64.
    """
    if step < 0 or step >= max(config.steps, 1):
        raise ConfigError(f"step {step} outside 0..{config.steps - 1}")
    span = LR_DECAY_EVERY_FRACTION * config.steps
    decays = int(step / span) if span > 0 else 0
    lr = config.lr0
    for _ in range(decays):
        lr *= LR_DECAY_FACTOR
    return lr


def required_dataset_size(student_param_count: int, pixels_per_label: int) -> int:
    """Fine-tuning set size below which overfitting is likely: the student's
    parameter count divided by the per-label pixel count, rounded up."""
    check_count("pixels_per_label", pixels_per_label, 1)
    return max(1, math.ceil(student_param_count / pixels_per_label))


def teacher_labels(teacher, inputs, feature_source):
    """Pseudo-labels for a stack of inputs.  The forward path is bitwise
    batch-composition invariant, so a label computed here equals the label
    the same teacher would produce for that sample in any other batch."""
    _, feats = forward(teacher, inputs)
    return _project(feats, feature_source)


def build_cache(teacher, samples, feature_source=SOURCE_FINAL_BLOCK) -> PseudoLabelCache:
    """Generate pseudo-labels once for ``samples`` and store them: a single
    pass over the set, each sample queried exactly once."""
    inputs = np.ascontiguousarray(samples, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ConfigError(f"samples must be a non-empty 2-D array, got shape {inputs.shape}")
    labels = teacher_labels(teacher, inputs, feature_source)
    return PseudoLabelCache(inputs, labels, network_fingerprint(teacher))


def feature_loss_and_grads(student, batch, targets, feature_source=SOURCE_FINAL_BLOCK,
                           out=None):
    """``(loss, Gradients)``: :func:`feature_mse` between the student's
    labels for ``batch`` (its final-block features under ``feature_source``)
    and ``targets``, and the loss's exact gradients, written into ``out``
    when given (see :func:`~latecut.network.backprop_from_outputs`).

    The loss never touches the classifier (its trace skips it), so its
    gradients are zero: the classifier is frozen by construction.  A
    non-finite loss raises NumericError before any gradient is computed.
    """
    trace = forward_trace(student, batch, logits=False)
    feats = trace.features
    predicted = _project(feats, feature_source)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != predicted.shape:
        raise DimensionError(f"labels {targets.shape} != student labels {predicted.shape}")
    diff = predicted - targets  # the gradient reuses it
    loss = mean_square(diff)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite feature loss {loss}")
    diff *= 2.0 / diff.size
    grad = diff
    if predicted is not feats:
        # pooled: d(mean)/d(feature pixel) = 1/width, broadcast over the pixels
        grad = np.broadcast_to(diff / feats.shape[1], feats.shape)
    return loss, backprop_from_outputs(student, trace, grad_features=grad, out=out)


def _batch_indices(size: int, batch_size: int, seed: int):
    """Endless index stream: per-epoch shuffles (epoch e reseeded from
    (seed, e)) concatenated and sliced into fixed-size batches."""
    epoch = 0
    buffer = np.empty(0, dtype=np.intp)
    while True:
        while len(buffer) < batch_size:
            rng = np.random.default_rng([seed, epoch])
            buffer = np.concatenate((buffer, rng.permutation(size)))
            epoch += 1
        yield buffer[:batch_size]
        buffer = buffer[batch_size:]


class DistillRun:
    """Stepwise distillation driver.

    Trains every block of ``student``; to fine-tune a pruned model, pass its
    :func:`~latecut.network.compact` view.  Owns the mini-batch stream and
    the SGD schedule; callers advance it one step at a time (the serving
    loop interleaves these steps with inference).  ``live_teacher``
    switches labels from the stored cache to fresh per-batch teacher
    queries.
    """

    def __init__(self, student, cache: PseudoLabelCache, config: DistillConfig,
                 live_teacher: ResidualNetwork | None = None):
        if cache.size == 0:
            raise ConfigError("pseudo-label cache is empty")
        self.student = student
        self.cache = cache
        self.config = config
        self.live_teacher = live_teacher
        self.batch_size = min(config.batch_size, cache.size)
        self.steps_done = 0
        self.teacher_query_count = 0
        self.loss_trace: list[float] = []
        self._indices = _batch_indices(cache.size, self.batch_size, config.seed)
        # Every step's gradients are written into this one set.
        self.gradients = packed_gradients(student)

    def step(self) -> float:
        if self.steps_done >= self.config.steps:
            raise ConfigError("distillation already ran its configured steps")
        idx = next(self._indices)
        x = self.cache.inputs[idx]
        if self.live_teacher is not None:
            targets = teacher_labels(self.live_teacher, x, self.cache.feature_source)
            self.teacher_query_count += len(idx)
        else:
            targets = self.cache.labels[idx]
        try:
            loss, grads = feature_loss_and_grads(self.student, x, targets,
                                                 self.cache.feature_source, self.gradients)
        except NumericError as exc:
            raise NumericError(f"{exc} at distillation step {self.steps_done}") from exc
        sgd_step(self.student, grads, lr_at(self.steps_done, self.config))
        self.steps_done += 1
        self.loss_trace.append(loss)
        return loss

    @property
    def done(self) -> bool:
        return self.steps_done >= self.config.steps

    def full_cache_loss(self) -> float:
        """Feature loss over the entire cache at the current parameters."""
        _, feats = forward(self.student, self.cache.inputs)
        return feature_mse(_project(feats, self.cache.feature_source), self.cache.labels)


def distill(student, skip, cache: PseudoLabelCache, config: DistillConfig):
    """Fine-tune the blocks of ``student`` that ``skip`` keeps against the
    stored cache, through ``compact(student, skip)``.  The teacher is never
    evaluated.  Returns the (mutated, full) student and a report whose
    final_loss is the whole-cache loss at the final parameters."""
    start = time.perf_counter()
    run = DistillRun(compact(student, skip), cache, config)
    while not run.done:
        run.step()
    final_loss = run.full_cache_loss()
    report = DistillReport(run.loss_trace, time.perf_counter() - start, 0, final_loss)
    return student, report


def distill_live(student, skip, teacher, samples, config: DistillConfig,
                 feature_source=SOURCE_FINAL_BLOCK):
    """Reference fine-tuning that queries the teacher for every mini-batch.

    Identical optimization to :func:`distill` (bitwise, given equal seeds);
    it differs only in where labels come from and what that costs.  The
    teacher is queried exactly steps * batch_size times, so the report's
    final_loss is the last step's mini-batch loss rather than a fresh
    whole-set evaluation.
    """
    start = time.perf_counter()
    inputs = np.ascontiguousarray(samples, dtype=np.float64)
    # Same index stream as cached mode; labels are recomputed, never stored,
    # so this cache holds placeholders and no teacher fingerprint.
    pixels = label_pixels(feature_source, student.width)
    shell = PseudoLabelCache(inputs, np.zeros((inputs.shape[0], pixels)), 0)
    run = DistillRun(compact(student, skip), shell, config, live_teacher=teacher)
    while not run.done:
        run.step()
    final_loss = run.loss_trace[-1] if run.loss_trace else float("nan")
    report = DistillReport(
        run.loss_trace, time.perf_counter() - start, run.teacher_query_count, final_loss
    )
    return student, report
