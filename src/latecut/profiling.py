"""Per-model and per-block inference latency, and the normalized latency
saving (T - T_j) / T used by the pruning score.

Two modes:

* ``modeled`` — deterministic multiply-accumulate counts.  A width-w block
  with hidden width h costs 2*w*h MACs per sample (its two affine maps);
  stem and classifier cost fan_in*fan_out per sample.  Costs are additive,
  which makes every latency-saving identity exactly testable.
* ``measured`` — wall-clock timings of repeated forward passes on a
  seeded random batch, after warmup.  Each round times the full network and
  then every single-block-skipped network once.  T is the median full
  time; a skipped network's latency is T times the median over rounds of
  its time over the same round's full time.  The two timings of a ratio
  are taken within one round, so a change in the host's speed between
  rounds cancels out of it.  Measured profiling holds a process-wide lock
  so no two measurements run concurrently.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidBlockError
from .network import ResidualNetwork, forward, normalize_skip

MODE_MEASURED = "measured"
MODE_MODELED = "modeled"

# Exclusive token for wall-clock measurement; modeled mode never takes it.
_measure_lock = threading.Lock()


@dataclass
class LatencyProfile:
    mode: str
    full_latency: float                  # T, seconds or MAC cost units
    skipped_latency: dict[int, float]    # block_id -> latency with that block skipped
    warmup_runs: int = 0
    timed_runs: int = 0
    batch_size: int = 1
    network: ResidualNetwork | None = field(default=None, repr=False)
    batch: np.ndarray | None = field(default=None, repr=False)

    def block_saving(self, block_id: int) -> float:
        if block_id not in self.skipped_latency:
            raise InvalidBlockError(f"block {block_id} not profiled")
        return (self.full_latency - self.skipped_latency[block_id]) / self.full_latency


def block_cost_macs(block, batch_size: int) -> float:
    """MACs of the block's two affine maps for one batch."""
    return float(batch_size * (block.weight1.size + block.weight2.size))


def network_cost_macs(network: ResidualNetwork, batch_size: int, skip=None) -> float:
    skip = normalize_skip(network, skip)
    cost = float(batch_size * (network.stem_weight.size + network.classifier_weight.size))
    for block in network.blocks:
        if block.block_id not in skip:
            cost += block_cost_macs(block, batch_size)
    return cost


def _noise_batch(network: ResidualNetwork, batch_size: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch_size, network.input_dim))


def _forward_seconds(network, batch, skip) -> float:
    start = time.perf_counter()
    forward(network, batch, skip)
    return time.perf_counter() - start


def _median_forward_seconds(network, batch, skips, timed_runs: int):
    """``(full, per_skip)``: the full network's median forward time, and
    for each skip set in ``skips`` that median times the median over rounds
    of the set's time over the round's full time.  Each round times the
    full network and then every set once."""
    full_times = []
    ratios = [[] for _ in skips]
    for _ in range(timed_runs):
        full = _forward_seconds(network, batch, None)
        full_times.append(full)
        for skip, samples in zip(skips, ratios):
            samples.append(_forward_seconds(network, batch, skip) / full)
    full = statistics.median(full_times)
    return full, [full * statistics.median(samples) for samples in ratios]


def profile(network, batch_shape, mode=MODE_MODELED, warmup_runs=3, timed_runs=9, seed=0):
    """Profile full-network latency and each single-block-skipped latency.

    ``batch_shape`` is either a batch size or a ``(batch, input_dim)``
    tuple; the profiled batch is seeded random noise at the network's input
    resolution.
    """
    if isinstance(batch_shape, (tuple, list)):
        batch_size, dim = batch_shape
        if dim != network.input_dim:
            raise ConfigError(f"batch_shape dim {dim} != network input_dim {network.input_dim}")
    else:
        batch_size = int(batch_shape)
    if batch_size < 1:
        raise ConfigError(f"batch size must be positive, got {batch_size}")

    if mode == MODE_MODELED:
        full = network_cost_macs(network, batch_size)
        skipped = {
            block.block_id: full - block_cost_macs(block, batch_size)
            for block in network.blocks
        }
        return LatencyProfile(MODE_MODELED, full, skipped, warmup_runs, timed_runs, batch_size)

    if mode != MODE_MEASURED:
        raise ConfigError(f"unknown latency mode {mode!r}")
    if warmup_runs < 1:
        raise ConfigError(f"measured mode needs warmup_runs >= 1, got {warmup_runs}")
    if timed_runs < 3:
        raise ConfigError(f"measured mode needs timed_runs >= 3, got {timed_runs}")

    batch = _noise_batch(network, batch_size, seed)
    with _measure_lock:
        for _ in range(warmup_runs):
            forward(network, batch)
        block_ids = [block.block_id for block in network.blocks]
        full, per_block = _median_forward_seconds(
            network, batch, [{j} for j in block_ids], timed_runs
        )
        skipped = dict(zip(block_ids, per_block))
    return LatencyProfile(
        MODE_MEASURED, full, skipped, warmup_runs, timed_runs, batch_size, network, batch
    )


def latency_saving(prof: LatencyProfile, skip) -> float:
    """Normalized latency saving of removing ``skip``.

    Singletons use the profiled per-block latency.  Multi-block skips are
    summed in modeled mode (costs are additive) and re-measured in measured
    mode, with the full network timed again in the same rounds, since
    wall-clock savings are not guaranteed additive.
    """
    skip = frozenset(int(j) for j in (skip or ()))
    for j in skip:
        if j not in prof.skipped_latency:
            raise InvalidBlockError(f"block {j} not profiled")
    if not skip:
        return 0.0
    if len(skip) == 1 or prof.mode == MODE_MODELED:
        return sum(prof.block_saving(j) for j in skip)
    if prof.network is None or prof.batch is None:
        raise ConfigError(
            "measured multi-block saving needs the live network; this profile "
            "was loaded from a file"
        )
    with _measure_lock:
        for _ in range(max(1, prof.warmup_runs)):
            forward(prof.network, prof.batch, skip)
        full, (multi,) = _median_forward_seconds(prof.network, prof.batch, [skip],
                                                 prof.timed_runs)
    return (full - multi) / full


def profile_to_dict(prof: LatencyProfile) -> dict:
    """Profile JSON schema: {mode, T, per_block: [{block_id, latency, delta_t}]}."""
    return {
        "mode": prof.mode,
        "T": prof.full_latency,
        "per_block": [
            {
                "block_id": block_id,
                "latency": latency,
                "delta_t": (prof.full_latency - latency) / prof.full_latency,
            }
            for block_id, latency in sorted(prof.skipped_latency.items())
        ],
    }


def profile_from_dict(payload: dict) -> LatencyProfile:
    try:
        mode = payload["mode"]
        full = float(payload["T"])
        skipped = {int(row["block_id"]): float(row["latency"]) for row in payload["per_block"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed profile payload: {exc}") from exc
    if mode not in (MODE_MEASURED, MODE_MODELED):
        raise ConfigError(f"unknown latency mode {mode!r}")
    if not 0 < full < np.inf:
        raise ConfigError(f"profile T must be positive and finite, got {full}")
    for block_id, latency in skipped.items():
        if not np.isfinite(latency):
            raise ConfigError(f"block {block_id} latency must be finite, got {latency}")
    return LatencyProfile(mode, full, skipped)
