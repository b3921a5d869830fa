"""Synthetic Gaussian-mixture classification data with controllable
covariate shift, plus source-model pretraining.

The label function never changes under a shift: test inputs are drawn from
the same mixture as training inputs and then transformed (noise, smoothing,
scaling, or a rotation of feature space), keeping their labels.  Severity 0
is always the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, TrainingDivergedError, check_ints
from .network import (
    ResidualNetwork,
    backprop_from_outputs,
    compact,
    forward,
    forward_trace,
    packed_gradients,
    random_network,
    sgd_step,
)

SHIFT_KINDS = ("none", "additive_noise", "smoothing", "scaling", "rotation_mix")


def _check_scale(name, value) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class ShiftSpec:
    kind: str = "none"
    severity: float = 0.0

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ConfigError(f"unknown shift kind {self.kind!r}")
        _check_scale("shift severity", self.severity)


@dataclass
class DatasetSpec:
    num_classes: int = 3
    input_dim: int = 16
    samples_per_split: int = 2000
    class_sep: float = 3.0
    noise_sigma: float = 1.0
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    seed: int = 0

    def __post_init__(self):
        check_ints(self, num_classes=1, input_dim=1, samples_per_split=1, seed=0)
        _check_scale("class_sep", self.class_sep)
        _check_scale("noise_sigma", self.noise_sigma)


def _class_means(spec: DatasetSpec) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, 9])
    means = rng.normal(0.0, spec.class_sep, (spec.num_classes, spec.input_dim))
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            if np.array_equal(means[i], means[j]):
                raise ConfigError(f"class means {i} and {j} coincide")
    return means


def _draw_split(means, spec: DatasetSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    y = rng.integers(0, spec.num_classes, spec.samples_per_split)
    x = means[y] + spec.noise_sigma * rng.standard_normal((spec.samples_per_split, spec.input_dim))
    return x, y


def _smooth_once(x: np.ndarray) -> np.ndarray:
    padded = np.concatenate([x[:, :1], x, x[:, -1:]], axis=1)
    return 0.25 * padded[:, :-2] + 0.5 * padded[:, 1:-1] + 0.25 * padded[:, 2:]


def _rotation_matrix(dim: int, severity: float, seed) -> np.ndarray:
    """Product of seeded Givens rotations, one radian per unit severity in
    each of dim/2 random planes; identity at severity 0.  Severity 1 already
    displaces the test clusters far from their training positions while
    preserving norms and class geometry."""
    rng = np.random.default_rng(seed)
    rot = np.eye(dim)
    n_planes = max(1, dim // 2)
    for _ in range(n_planes):
        i, j = rng.choice(dim, size=2, replace=False)
        theta = 1.0 * severity
        givens = np.eye(dim)
        givens[i, i] = math.cos(theta)
        givens[j, j] = math.cos(theta)
        givens[i, j] = -math.sin(theta)
        givens[j, i] = math.sin(theta)
        rot = rot @ givens
    return rot


def apply_shift(x: np.ndarray, shift: ShiftSpec, rng, seed=0) -> np.ndarray:
    s = shift.severity
    if shift.kind == "none" or s == 0.0:
        return x
    if shift.kind == "additive_noise":
        return x + s * rng.standard_normal(x.shape)
    if shift.kind == "smoothing":
        full, frac = int(s), s - int(s)
        out = x
        for _ in range(full):
            out = _smooth_once(out)
        if frac > 0:
            out = (1.0 - frac) * out + frac * _smooth_once(out)
        return out
    if shift.kind == "scaling":
        return x * (1.0 + s)
    if shift.kind == "rotation_mix":
        return x @ _rotation_matrix(x.shape[1], s, [seed, 3])
    raise ConfigError(f"unknown shift kind {shift.kind!r}")


def make_dataset(spec: DatasetSpec):
    """Returns ``((x_train, y_train), (x_test, y_test))``; the test split is
    drawn from the same mixture and then shifted (covariate shift only)."""
    means = _class_means(spec)
    x_train, y_train = _draw_split(means, spec, np.random.default_rng([spec.seed, 0]))
    x_test, y_test = _draw_split(means, spec, np.random.default_rng([spec.seed, 1]))
    x_test = apply_shift(x_test, spec.shift, np.random.default_rng([spec.seed, 2]), spec.seed)
    return (x_train, y_train), (x_test, y_test)


def log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_loss_and_grads(network, x, y, out=None):
    """Softmax cross-entropy and exact gradients for all parameters,
    classifier included (used only for source pretraining), written into
    ``out`` when given (see :func:`~latecut.network.backprop_from_outputs`)."""
    trace = forward_trace(network, x)
    logp = log_softmax(trace.logits)
    n = x.shape[0]
    loss = -float(logp[np.arange(n), y].mean())
    probs = np.exp(logp)
    probs[np.arange(n), y] -= 1.0
    grad_logits = probs / n
    return loss, backprop_from_outputs(network, trace, grad_logits=grad_logits, out=out)


# Rows per forward in evaluate_accuracy; bounds its temporaries.
EVAL_CHUNK_ROWS = 1024

# Cross-entropy SGD settings of pretrain_source.
PRETRAIN_LR = 0.05
PRETRAIN_BATCH = 64


def evaluate_accuracy(network, x, y, skip=None) -> float:
    """Top-1 accuracy of ``compact(network, skip)``, in chunks of
    ``EVAL_CHUNK_ROWS`` rows: bitwise that of one forward over all of ``x``,
    as the forward pass is batch-composition invariant.  ``x`` must hold at
    least one row and ``y`` one label per row, else :class:`DimensionError`."""
    if skip is not None:
        network = compact(network, skip)
    x = np.asarray(x, dtype=np.float64)
    if len(x) == 0:
        raise DimensionError("accuracy needs at least one row, got 0")
    if np.shape(y) != (len(x),):
        raise DimensionError(f"labels have shape {np.shape(y)}, expected ({len(x)},)")
    predictions = [
        np.argmax(forward(network, x[lo : lo + EVAL_CHUNK_ROWS])[0], axis=1)
        for lo in range(0, len(x), EVAL_CHUNK_ROWS)
    ]
    return float((np.concatenate(predictions) == y).mean())


def pretrain_source(train_split, arch, epochs=30, seed=0, num_classes=None) -> ResidualNetwork:
    """Cross-entropy SGD pretraining of a fresh source model, at rate
    ``PRETRAIN_LR`` in shuffled batches of ``PRETRAIN_BATCH``, with one
    gradient set overwritten every batch.

    ``arch`` is ``{"width": w, "n_blocks": n}``; ``num_classes`` defaults
    to the largest label + 1, which a small split can undercount.  Raises
    :class:`TrainingDivergedError` if, after at least one epoch, train
    accuracy is below 60%.  With ``epochs=0`` the untrained seeded network
    is returned as-is.
    """
    x, y = train_split
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if num_classes is None:
        num_classes = int(y.max()) + 1
    network = random_network(x.shape[1], arch["width"], arch["n_blocks"], num_classes, seed)
    n = x.shape[0]
    grads = packed_gradients(network)
    for epoch in range(epochs):
        order = np.random.default_rng([seed, epoch]).permutation(n)
        for start in range(0, n, PRETRAIN_BATCH):
            idx = order[start : start + PRETRAIN_BATCH]
            cross_entropy_loss_and_grads(network, x[idx], y[idx], grads)
            sgd_step(network, grads, PRETRAIN_LR)
    if epochs > 0:
        accuracy = evaluate_accuracy(network, x, y)
        if accuracy < 0.60:
            raise TrainingDivergedError(
                f"pretraining reached only {accuracy:.1%} train accuracy after {epochs} epochs"
            )
    return network
