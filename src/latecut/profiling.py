"""Per-model and per-block inference latency, and the normalized latency
saving (T - T_j) / T used by the pruning score.

A :class:`LatencyProfile` is a plain value: its mode, the full network's
latency T and each single-block-skipped latency.  It equals its own JSON
round trip (:func:`profile_to_dict`, :func:`profile_from_dict`), so a
profile read from a file behaves exactly as the one that was written.
The saving of a multi-block skip set is the sum of its blocks' savings.

Two modes:

* ``modeled`` — deterministic multiply-accumulate counts.  A width-w block
  with hidden width h costs 2*w*h MACs per sample (its two affine maps);
  stem and classifier cost fan_in*fan_out per sample.  Costs are additive,
  so summed savings are exact and every latency-saving identity is exactly
  testable.
* ``measured`` — wall-clock timings of repeated forward passes on a seeded
  random batch, after warmup.  Each round times the full network and then
  every single-block-skipped network once; each timing covers one forward,
  the n compact views being built before the first.  T is the median full
  time; a skipped network's latency is T times the median over rounds of
  its time over the same round's full time.  The two timings of a ratio
  are taken within one round, so a change in the host's speed between
  rounds cancels out of it.  Measured profiling holds a process-wide lock
  so no two measurements run concurrently.  Wall-clock savings need not be
  additive, so a summed multi-block saving is an estimate in this mode.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidBlockError, is_integer
from .network import ResidualNetwork, block_ids, compact, forward

MODE_MEASURED = "measured"
MODE_MODELED = "modeled"

# Exclusive token for wall-clock measurement; modeled mode never takes it.
_measure_lock = threading.Lock()


@dataclass
class LatencyProfile:
    mode: str
    full_latency: float                  # T, seconds or MAC cost units
    skipped_latency: dict[int, float]    # block_id -> latency with that block skipped

    def block_saving(self, block_id: int) -> float:
        if block_id not in self.skipped_latency:
            raise InvalidBlockError(f"block {block_id} not profiled")
        return (self.full_latency - self.skipped_latency[block_id]) / self.full_latency


def block_cost_macs(block, batch_size: int) -> float:
    """MACs of the block's two affine maps for one batch."""
    return float(batch_size * (block.weight1.size + block.weight2.size))


def network_cost_macs(network: ResidualNetwork, batch_size: int) -> float:
    cost = float(batch_size * (network.stem_weight.size + network.classifier_weight.size))
    for block in network.blocks:
        cost += block_cost_macs(block, batch_size)
    return cost


def _forward_seconds(network, batch) -> float:
    start = time.perf_counter()
    forward(network, batch)
    return time.perf_counter() - start


def profile(network, batch_size, mode=MODE_MODELED, warmup_runs=3, timed_runs=9, seed=0):
    """Profile full-network latency and each single-block-skipped latency
    for a batch of ``batch_size`` rows; measured mode times seeded random
    noise at the network's input width."""
    for name, value in (("batch size", batch_size), ("warmup_runs", warmup_runs),
                        ("timed_runs", timed_runs)):
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if batch_size < 1:
        raise ConfigError(f"batch size must be positive, got {batch_size}")

    if mode == MODE_MODELED:
        full = network_cost_macs(network, batch_size)
        skipped = {
            block.block_id: full - block_cost_macs(block, batch_size)
            for block in network.blocks
        }
        return LatencyProfile(MODE_MODELED, full, skipped)

    if mode != MODE_MEASURED:
        raise ConfigError(f"unknown latency mode {mode!r}")
    if warmup_runs < 1:
        raise ConfigError(f"measured mode needs warmup_runs >= 1, got {warmup_runs}")
    if timed_runs < 3:
        raise ConfigError(f"measured mode needs timed_runs >= 3, got {timed_runs}")

    batch = np.random.default_rng(seed).standard_normal((batch_size, network.input_dim))
    views = {block.block_id: compact(network, {block.block_id}) for block in network.blocks}
    full_times, ratios = [], {block_id: [] for block_id in views}
    with _measure_lock:
        for _ in range(warmup_runs):
            forward(network, batch)
        for _ in range(timed_runs):
            full = _forward_seconds(network, batch)
            full_times.append(full)
            for block_id, view in views.items():
                ratios[block_id].append(_forward_seconds(view, batch) / full)
    full = statistics.median(full_times)
    skipped = {block_id: full * statistics.median(samples) for block_id, samples in ratios.items()}
    return LatencyProfile(MODE_MEASURED, full, skipped)


def check_profile_blocks(prof: LatencyProfile, network) -> None:
    """ConfigError unless ``prof`` profiles exactly blocks 1..n of
    ``network``, the network it ranks: a profile written for another
    network would rank this one by that network's latencies."""
    if set(prof.skipped_latency) != set(range(1, network.n_blocks + 1)):
        raise ConfigError(f"profile covers blocks {sorted(prof.skipped_latency)}, "
                          f"not exactly 1..{network.n_blocks} of the network it ranks")


def latency_saving(prof: LatencyProfile, skip) -> float:
    """Normalized latency saving of removing ``skip`` (block ids as
    :func:`~latecut.network.block_ids` reads them; None is no blocks): the
    sum of its blocks' profiled savings, in either mode."""
    return sum(map(prof.block_saving, block_ids(skip)), 0.0)


def profile_to_dict(prof: LatencyProfile) -> dict:
    """Profile JSON schema: {mode, T, per_block: [{block_id, latency, delta_t}]}."""
    return {
        "mode": prof.mode,
        "T": prof.full_latency,
        "per_block": [
            {
                "block_id": block_id,
                "latency": latency,
                "delta_t": prof.block_saving(block_id),
            }
            for block_id, latency in sorted(prof.skipped_latency.items())
        ],
    }


def profile_from_dict(payload: dict) -> LatencyProfile:
    """The profile a :func:`profile_to_dict` payload holds.  Block ids must
    be unique integers and ``T`` and every latency numbers (JSON's, so not
    bools or strings), else ConfigError."""
    try:
        mode = payload["mode"]
        full = _number("T", payload["T"])
        skipped = {}
        for row in payload["per_block"]:
            block_id = row["block_id"]
            if not is_integer(block_id) or block_id in skipped:
                raise TypeError(f"block id {block_id!r} is not a unique integer")
            skipped[int(block_id)] = _number(f"block {block_id} latency", row["latency"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed profile payload: {exc}") from exc
    if mode not in (MODE_MEASURED, MODE_MODELED):
        raise ConfigError(f"unknown latency mode {mode!r}")
    if not 0 < full < np.inf:
        raise ConfigError(f"profile T must be positive and finite, got {full}")
    for block_id, latency in skipped.items():
        if not np.isfinite(latency):
            raise ConfigError(f"block {block_id} latency must be finite, got {latency}")
    return LatencyProfile(mode, full, skipped)


def _number(name, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} {value!r} is not a number")
    return float(value)
