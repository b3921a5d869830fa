"""Workload shapes and seeded input generation.

Everything a run feeds to latecut is derived here from the workload seed:
the source model (pretrained with ``data.pretrain_source``), the sample
stream, its open-loop arrival schedules (one per session, so a run averages
over how arrivals line up with the loop's stalls) and the held-out accuracy
set.  The package itself only ever sees these generated
inputs, never the seed.

Model sizes are bounded by the input generator: ``pretrain_source`` trains
with a fixed learning rate of 0.05, and on this data it diverged (non-finite
gradients) at width 96 with 12 blocks and at width 64 with 16 blocks, so no
workload uses a deeper or wider-and-deep model than width 64 / 12 blocks or
width 128 / 8 blocks.  A seed whose pretraining diverges fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from latecut.data import DatasetSpec, ShiftSpec, make_dataset, pretrain_source
from latecut.network import ResidualNetwork

PRETRAIN_SAMPLES = 2000
PRETRAIN_EPOCHS = 3
SCHEDULES = 40  # more than a run has sessions; beyond this they repeat cyclically
SHIFT = ShiftSpec("rotation_mix", 0.5)


@dataclass(frozen=True)
class StreamShape:
    """Serving loop over an open-loop arrival schedule, paper settings."""

    width: int
    n_blocks: int
    rate: float         # mean arrivals per second
    burst: int          # arrivals that share one due time
    arrivals: int       # scheduled requests per session, enough for slow adaptation
    steady: int         # a session ends once Mbar has answered this many
    n_p: int = 3
    prune_batch: int = 64
    cache: int = 64
    steps: int = 500
    lr: float = 0.02
    budget: int = 4
    heldout: int = 2048


@dataclass(frozen=True)
class OfflineShape:
    """Offline prune + finetune, then the held-out set answered in batches."""

    width: int = 128
    n_blocks: int = 8
    n_p: int = 4
    prune_batch: int = 64
    cache: int = 256
    steps: int = 500
    lr: float = 0.02
    heldout: int = 8192
    answer_batch: int = 64


WORKLOADS = {
    # Bursts of 64 at ~1500 req/s on a small model with a long tail after
    # switchover: the per-arrival path of serving.tick and batch-1 forward
    # dominate the steady phase; during adaptation bursts queue behind the
    # ticks that score blocks, label the cache (with the teacher
    # fingerprint) and take distillation steps.
    "stream-burst": StreamShape(width=32, n_blocks=8, rate=1500.0, burst=64, arrivals=64 * 300,
                                steady=64 * 20),
    # No serving loop: batch-64 kernels and the cache fingerprint dominate.
    "offline-pf": OfflineShape(),
}


@dataclass
class Inputs:
    pretrained: ResidualNetwork
    samples: np.ndarray          # stream requests (stream) or prune+cache source (offline)
    due: list[np.ndarray]        # per-session schedules: seconds from session start per request
    heldout_x: np.ndarray
    heldout_y: np.ndarray


def dataset_spec(seed: int, samples: int) -> DatasetSpec:
    return DatasetSpec(num_classes=4, input_dim=16, samples_per_split=samples,
                       class_sep=0.9, noise_sigma=0.7, shift=SHIFT, seed=seed)


def pretrain(seed: int, width: int, n_blocks: int) -> ResidualNetwork:
    train, _ = make_dataset(dataset_spec(seed, PRETRAIN_SAMPLES))
    return pretrain_source(train, {"width": width, "n_blocks": n_blocks},
                           epochs=PRETRAIN_EPOCHS, seed=seed)


def arrival_schedule(seed: int, shape: StreamShape, session: int = 0) -> np.ndarray:
    """Open-loop due times at a mean of ``shape.rate`` arrivals per second,
    the first due at 0: bursts of ``shape.burst`` share a due time, spaced
    by the mean gap with uniform +-50% jitter."""
    n_bursts = -(-shape.arrivals // shape.burst)
    rng = np.random.default_rng([seed, 7, session])
    mean_gap = shape.burst / shape.rate
    gaps = rng.uniform(0.5 * mean_gap, 1.5 * mean_gap, n_bursts)
    gaps[0] = 0.0
    return np.repeat(np.cumsum(gaps), shape.burst)[: shape.arrivals]


def make_inputs(workload: str, seed: int) -> Inputs:
    shape = WORKLOADS[workload]
    pretrained = pretrain(seed, shape.width, shape.n_blocks)
    if isinstance(shape, StreamShape):
        n_samples = shape.arrivals
        due = [arrival_schedule(seed, shape, session) for session in range(SCHEDULES)]
    else:
        n_samples = shape.prune_batch + shape.cache
        due = []
    _, (x_test, y_test) = make_dataset(dataset_spec(seed, n_samples + shape.heldout))
    return Inputs(
        pretrained=pretrained,
        samples=x_test[:n_samples],
        due=due,
        heldout_x=x_test[n_samples:],
        heldout_y=y_test[n_samples:],
    )
