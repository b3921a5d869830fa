"""Block ranking and removal.

The proposed score for block j combines three per-block quantities:

* epsilon_ini — mean squared change of the final feature map when the block
  is skipped, measured on a fixed prune batch;
* capacity gap G — fraction of the model's parameters the block carries;
* delta_T — normalized latency saving of removing it.

importance I = epsilon_ini * G / delta_T; the lowest-importance blocks are
pruned.  Ranking n blocks costs exactly n + 1 forward passes: one baseline
pass for the full network's features, then one pass per skipped block.

Ablation baselines: random, the l2 in/out-similarity ratio, a prediction-
probability (KL) rule, and an expensive fine-tune oracle that actually
distills each candidate before scoring it.

Per-block scorers read the shared network immutably and are independent of
evaluation order, so results cannot depend on any parallel execution of the
scoring loop; the final sort is a deterministic reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import log_softmax
from .distill import DistillConfig, DistillRun, PseudoLabelCache
from .errors import ConfigError, InvalidBlockError, NumericError, is_integer
from .network import (
    block_param_count,
    clone_network,
    compact,
    feature_mse,
    forward,
    forward_trace,
    parameter_count,
)
from .profiling import LatencyProfile, check_profile, latency_saving

METHODS = ("proposed", "random", "l2ratio", "curl", "oracle")

# The fine-tune oracle's default distillation steps per candidate block:
# ``ExperimentConfig.oracle_k_steps`` and ``latecut prune --k-steps``.
ORACLE_K_STEPS = 50


@dataclass
class BlockProfile:
    """Per-block scoring record.

    Baselines that do not compute a field leave it None; ``importance`` is
    always the quantity the method ranks by (ascending), except for the
    random baseline where it stays None.
    """

    block_id: int
    epsilon_ini: float | None = None
    capacity_gap: float | None = None
    delta_t: float | None = None
    importance: float | None = None
    tuned_loss: float | None = None  # fine-tune oracle only


@dataclass
class PruneDecision:
    """A method's ranking of the blocks and the ``n_p`` it prunes.  It holds
    no seed: the caller that seeded a method already has it."""

    method: str
    n_p: int
    ranked: list[BlockProfile]   # ascending by the method's score
    pruned: frozenset[int]       # the first n_p of ranked


def check_n_p(network, n_p: int) -> None:
    """ConfigError unless ``n_p`` is an integer (a Python or numpy one, not a
    bool) and that many blocks of ``network`` can be pruned."""
    if not (is_integer(n_p) and 0 <= n_p <= network.n_blocks):
        raise ConfigError(f"n_p={n_p!r} must be an integer within 0..{network.n_blocks} "
                          f"removable blocks")


def _count(name, value, low) -> int:
    """``value`` as a Python int: ConfigError, naming ``name``, unless it is
    an integer (a Python or numpy one, not a bool) >= ``low``."""
    if not (is_integer(value) and value >= low):
        raise ConfigError(f"{name} must be >= {low} and an integer (not a bool), got {value!r}")
    return int(value)


def decide(method, n_p, rows) -> PruneDecision:
    """Rank ``rows`` ascending by ``(importance, block_id)`` and prune the
    first ``n_p``: the one sort every scored method shares.  A non-finite
    importance (a NaN or inf input in the prune batch, say) would sort
    arbitrarily, so it raises NumericError instead."""
    for row in rows:
        if not np.isfinite(row.importance):
            raise NumericError(f"block {row.block_id}: non-finite importance {row.importance}")
    ranked = sorted(rows, key=lambda r: (r.importance, r.block_id))
    pruned = frozenset(row.block_id for row in ranked[:n_p])
    return PruneDecision(method, n_p, ranked, pruned)


def initial_noise(network, prune_batch, block_id, baseline_features) -> float:
    """Final-feature MSE between the full network's ``baseline_features`` on
    the batch and the network with ``block_id`` skipped: one forward pass per
    block against one shared baseline pass, n + 1 passes for n blocks.  The
    skipped pass raises InvalidBlockError for a ``block_id`` outside 1..n."""
    _, skipped = forward(compact(network, {block_id}), prune_batch)
    return feature_mse(baseline_features, skipped)


def capacity_gap(network, block_id) -> float:
    """Fraction of total parameters removed by pruning the block."""
    if block_id < 1 or block_id > network.n_blocks:
        raise InvalidBlockError(f"block id {block_id} outside 1..{network.n_blocks}")
    return block_param_count(network.blocks[block_id - 1]) / parameter_count(network)


def score_block(network, block_id, epsilon, latency_profile: LatencyProfile) -> BlockProfile:
    """The proposed method's row for one block, given its ``epsilon_ini``:
    capacity gap G, latency saving delta_T and importance
    I = epsilon_ini * G / delta_T.  ``latency_profile`` must have passed
    :func:`~latecut.profiling.check_profile` for ``network``."""
    gap = capacity_gap(network, block_id)
    delta_t = latency_saving(latency_profile, {block_id})
    return BlockProfile(block_id=block_id, epsilon_ini=epsilon, capacity_gap=gap,
                        delta_t=delta_t, importance=epsilon * gap / delta_t)


def rank_and_prune(network, prune_batch, latency_profile: LatencyProfile, n_p: int) -> PruneDecision:
    """Score every block against the unpruned network in a single pass and
    prune the ``n_p`` lowest-importance blocks (ties broken by lower id).
    ``latency_profile`` is checked by :func:`~latecut.profiling.check_profile`
    before the first pass."""
    check_n_p(network, n_p)
    check_profile(latency_profile, network)
    _, baseline = forward(network, prune_batch)
    rows = [
        score_block(
            network, block.block_id,
            initial_noise(network, prune_batch, block.block_id, baseline),
            latency_profile,
        )
        for block in network.blocks
    ]
    return decide("proposed", n_p, rows)


def baseline_random(network, n_p, seed) -> PruneDecision:
    """Uniform block sample without replacement, seeded by an integer
    ``seed`` >= 0."""
    check_n_p(network, n_p)
    rng = np.random.default_rng(_count("seed", seed, 0))
    order = rng.permutation(network.n_blocks) + 1
    chosen = sorted(int(j) for j in order[:n_p])
    rest = sorted(int(j) for j in order[n_p:])
    rows = [BlockProfile(block_id=j) for j in chosen + rest]
    return PruneDecision("random", n_p, rows, frozenset(chosen))


def baseline_l2_ratio(network, prune_batch, n_p) -> PruneDecision:
    """Prune blocks whose output stays closest to their input: score by
    ||out - in||_2 / ||in||_2 over the prune batch, one forward pass."""
    check_n_p(network, n_p)
    trace = forward_trace(network, prune_batch, logits=False)
    rows = []
    for block in network.blocks:
        x_in = trace.block_inputs[block.block_id]
        branch = trace.block_hidden[block.block_id] @ block.weight2 + block.bias2
        denom = float(np.linalg.norm(x_in))
        if denom == 0.0:
            raise NumericError(f"block {block.block_id}: zero-norm input features")
        rows.append(BlockProfile(block_id=block.block_id,
                                 importance=float(np.linalg.norm(branch)) / denom))
    return decide("l2ratio", n_p, rows)


def kl_divergence(p_logits, q_logits) -> float:
    """Mean over the batch of KL(softmax(p) || softmax(q))."""
    log_p = log_softmax(p_logits)
    log_q = log_softmax(q_logits)
    per_sample = (np.exp(log_p) * (log_p - log_q)).sum(axis=1)
    return float(per_sample.mean())


def baseline_curl(network, prune_batch, n_p) -> PruneDecision:
    """Prune blocks with the least influence on the prediction probability:
    KL divergence between full and block-skipped class distributions."""
    check_n_p(network, n_p)
    full_logits, _ = forward(network, prune_batch)
    rows = []
    for block in network.blocks:
        skipped_logits, _ = forward(compact(network, {block.block_id}), prune_batch)
        rows.append(BlockProfile(block_id=block.block_id,
                                 importance=kl_divergence(full_logits, skipped_logits)))
    return decide("curl", n_p, rows)


def baseline_finetune_oracle(network, prune_batch, cache: PseudoLabelCache, n_p,
                             k_steps, latency_profile: LatencyProfile, seed) -> PruneDecision:
    """Expensive reference the proxy approximates: actually skip each block,
    distill it for ``k_steps`` against the cache, and score by the residual
    post-fine-tuning feature noise on the prune batch divided by the block's
    latency saving in ``latency_profile``, the profile the proxy ranks with
    (small loss and large saving rank first).  Each candidate is distilled
    with :class:`DistillConfig`'s default rate and batch, seeded by ``seed``.
    ``latency_profile`` is checked by :func:`~latecut.profiling.check_profile`,
    and ``k_steps`` (an integer >= 1) and ``seed`` (>= 0), before the first
    pass."""
    check_n_p(network, n_p)
    check_profile(latency_profile, network)
    config = DistillConfig(steps=_count("k_steps", k_steps, 1), seed=_count("seed", seed, 0))
    batch = np.asarray(prune_batch, dtype=np.float64)
    _, teacher_features = forward(network, batch)
    rows = []
    for block in network.blocks:
        delta_t = latency_saving(latency_profile, {block.block_id})
        student = clone_network(compact(network, {block.block_id}))
        run = DistillRun(student, cache, config)
        while not run.done:
            run.step()
        _, student_features = forward(student, batch)
        tuned_loss = feature_mse(teacher_features, student_features)
        rows.append(
            BlockProfile(
                block_id=block.block_id,
                delta_t=delta_t,
                importance=tuned_loss / delta_t,
                tuned_loss=tuned_loss,
            )
        )
    return decide("oracle", n_p, rows)


def prune_by_method(method, network, prune_batch, latency_profile: LatencyProfile, n_p,
                    cache: PseudoLabelCache | None, k_steps, seed) -> PruneDecision:
    """Prune with one of :data:`METHODS`.  ``random`` ignores the prune
    batch; ``oracle`` needs ``cache`` and fine-tunes each candidate for
    ``k_steps``; ``seed`` seeds ``random`` and the oracle's distillation."""
    if method == "proposed":
        return rank_and_prune(network, prune_batch, latency_profile, n_p)
    if method == "random":
        return baseline_random(network, n_p, seed)
    if method == "l2ratio":
        return baseline_l2_ratio(network, prune_batch, n_p)
    if method == "curl":
        return baseline_curl(network, prune_batch, n_p)
    if method == "oracle":
        if cache is None:
            raise ConfigError("method 'oracle' needs a pseudo-label cache to distill against")
        return baseline_finetune_oracle(
            network, prune_batch, cache, n_p, k_steps, latency_profile, seed
        )
    raise ConfigError(f"unknown pruning method {method!r}; choose from {METHODS}")
