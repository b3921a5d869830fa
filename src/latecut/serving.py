"""Streaming test-time serving loop.

Every incoming sample gets exactly one prediction from whichever model the
loop currently trusts: the pretrained network M while pruning and
distillation are in flight, the pruned-and-fine-tuned network afterwards.
Between arrivals the loop spends a bounded budget of work units per tick:
score one block, generate one pseudo-label, or run one distillation step.
Phases advance Pruning -> Distilling -> Serving, each exactly once.  If a
unit raises, the loop enters the terminal Failed phase instead: it keeps
answering every arrival with M, does no more background work, and keeps
the exception as the cause.

Each unit calls the offline pipeline's own code: ``pruning.score_block``
and ``pruning.decide`` rank the blocks as ``rank_and_prune`` does,
``distill.teacher_labels`` labels one cache sample as ``build_cache`` does,
and ``DistillRun`` steps the student as ``distill`` does, so the final
model is bitwise the offline pipeline's.

The first ``prune_batch_size`` streamed samples seed the prune batch and
the next ``cache_size`` seed the pseudo-label cache, so background work
stalls (never the serving of arrivals) until enough samples have arrived.
Each record's ``latency`` is the serving model's modeled cost in
multiply-accumulates per sample.  The whole loop is single-threaded and
bitwise deterministic for a fixed stream and seed.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from .distill import (
    DistillConfig,
    DistillRun,
    PseudoLabelCache,
    SOURCE_FINAL_BLOCK,
    check_feature_source,
    teacher_labels,
)
from .errors import ConfigError, PartialRunError
from .formats import network_fingerprint
from .network import ResidualNetwork, clone_network, forward
from .pruning import BlockProfile, PruneDecision, decide, initial_noise, score_block
from .profiling import network_cost_macs, profile


class Phase(enum.Enum):
    PRUNING = "pruning"
    DISTILLING = "distilling"
    SERVING = "serving"
    FAILED = "failed"


MODEL_FULL = "M"
MODEL_PRUNED = "Mbar"


@dataclass
class ServingRecord:
    sample_index: int
    arrival_tick: int
    phase: Phase
    model_id: str
    predicted_class: int
    latency: float
    correct: bool | None = None


@dataclass
class ServingTimeline:
    records: list[ServingRecord] = field(default_factory=list)

    def to_rows(self):
        return [
            {
                "index": r.sample_index,
                "tick": r.arrival_tick,
                "phase": r.phase.value,
                "model": r.model_id,
                "predicted_class": r.predicted_class,
                "correct": r.correct,
            }
            for r in self.records
        ]


@dataclass
class ServeConfig:
    n_p: int = 1
    prune_batch_size: int = 64
    cache_size: int = 64
    distill: DistillConfig = field(default_factory=DistillConfig)
    budget_per_tick: int = 4
    feature_source: str = SOURCE_FINAL_BLOCK

    def __post_init__(self):
        if self.prune_batch_size < 1:
            raise ConfigError(f"prune_batch_size must be >= 1, got {self.prune_batch_size}")
        if self.cache_size < 1:
            raise ConfigError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.budget_per_tick < 1:
            raise ConfigError(f"budget_per_tick must be >= 1, got {self.budget_per_tick}")
        check_feature_source(self.feature_source)


@dataclass
class ExperimentTimings:
    prune_done_tick: int | None = None
    distill_done_tick: int | None = None
    failed_tick: int | None = None
    total_ticks: int = 0
    prune_done_seconds: float | None = None
    finetune_done_seconds: float | None = None
    inference_done_seconds: float | None = None
    teacher_query_count: int = 0
    inference_count: int = 0


class ServingState:
    """Mutable state of one serving run; advanced one tick at a time."""

    def __init__(self, pretrained: ResidualNetwork, config: ServeConfig):
        if config.n_p < 0 or config.n_p > pretrained.n_blocks:
            raise ConfigError(
                f"n_p={config.n_p} outside 0..{pretrained.n_blocks} removable blocks"
            )
        self.config = config
        self.network = pretrained
        self.phase = Phase.PRUNING
        self.tick_index = 0
        self.samples_seen = 0
        self.start_time = time.perf_counter()
        self.timings = ExperimentTimings()
        # Modeled profile for the prune decision; free of forward passes.
        self.latency_profile = profile(pretrained, config.prune_batch_size, mode="modeled")
        self.prune_samples: list[np.ndarray] = []
        self.prune_batch: np.ndarray | None = None  # prune_samples stacked once full
        self.cache_samples: list[np.ndarray] = []
        self.baseline_features: np.ndarray | None = None
        self.score_rows: list[BlockProfile] = []
        self.decision: PruneDecision | None = None
        self.student: ResidualNetwork | None = None
        self.cache_labels: list[np.ndarray] = []
        self.distill_run: DistillRun | None = None
        self._full_cost = network_cost_macs(pretrained, 1)
        self._pruned_cost: float | None = None
        self.failure: Exception | None = None  # what ended background work early

    # -- sample intake -------------------------------------------------

    def admit(self, sample: np.ndarray) -> None:
        if len(self.prune_samples) < self.config.prune_batch_size:
            self.prune_samples.append(sample)
        elif len(self.cache_samples) < self.config.cache_size:
            self.cache_samples.append(sample)

    @property
    def seeds_filled(self) -> bool:
        return (
            len(self.prune_samples) >= self.config.prune_batch_size
            and len(self.cache_samples) >= self.config.cache_size
        )

    # -- active model ----------------------------------------------------

    def active_model(self):
        """``(network, skip, model_id, cost_macs)`` of the model that
        answers arrivals now."""
        if self.phase is Phase.SERVING:
            return self.student, self.decision.pruned, MODEL_PRUNED, self._pruned_cost
        return self.network, frozenset(), MODEL_FULL, self._full_cost

    # -- background work -------------------------------------------------

    def _work_available(self) -> bool:
        if self.phase is Phase.PRUNING:
            return len(self.prune_samples) >= self.config.prune_batch_size
        if self.phase is Phase.DISTILLING:
            if len(self.cache_labels) < self.config.cache_size:
                return len(self.cache_samples) > len(self.cache_labels)
            return True
        return False

    def _do_one_unit(self) -> None:
        # The loop must keep answering arrivals whatever a unit raises, so
        # every failure is kept as the cause and ends background work.
        try:
            if self.phase is Phase.PRUNING:
                self._prune_unit()
            elif self.phase is Phase.DISTILLING:
                self._distill_unit()
        except Exception as exc:
            self.failure = exc
            self.phase = Phase.FAILED
            self.timings.failed_tick = self.tick_index

    def _prune_unit(self) -> None:
        if self.baseline_features is None:
            self.prune_batch = np.array(self.prune_samples)
            _, self.baseline_features = forward(self.network, self.prune_batch)
            self.timings.teacher_query_count += 1
            return
        block_id = len(self.score_rows) + 1
        eps = initial_noise(self.network, self.prune_batch, block_id, self.baseline_features)
        self.timings.teacher_query_count += 1
        self.score_rows.append(score_block(self.network, block_id, eps, self.latency_profile))
        if len(self.score_rows) == self.network.n_blocks:
            self.decision = decide("proposed", self.config.n_p, self.score_rows)
            self.student = clone_network(self.network)
            self._pruned_cost = network_cost_macs(self.network, 1, self.decision.pruned)
            self.phase = Phase.DISTILLING
            self.timings.prune_done_tick = self.tick_index
            self.timings.prune_done_seconds = time.perf_counter() - self.start_time

    def _distill_unit(self) -> None:
        if len(self.cache_labels) < self.config.cache_size:
            x = self.cache_samples[len(self.cache_labels)][None, :]
            self.cache_labels.append(teacher_labels(self.network, x, self.config.feature_source)[0])
            self.timings.teacher_query_count += 1
            if len(self.cache_labels) < self.config.cache_size:
                return
            cache = PseudoLabelCache(
                np.array(self.cache_samples),
                np.array(self.cache_labels),
                network_fingerprint(self.network),
                self.config.feature_source,
            )
            self.distill_run = DistillRun(
                self.student, self.decision.pruned, cache, self.config.distill
            )
            if self.distill_run.done:  # steps == 0
                self._finish_distilling()
            return
        assert self.distill_run is not None
        if not self.distill_run.done:
            self.distill_run.step()
        if self.distill_run.done:
            self._finish_distilling()

    def _finish_distilling(self) -> None:
        self.phase = Phase.SERVING
        self.timings.distill_done_tick = self.tick_index
        self.timings.finetune_done_seconds = time.perf_counter() - self.start_time


def tick(state: ServingState, arrivals) -> list[ServingRecord]:
    """Serve this tick's arrivals with the active model, then spend up to
    ``budget_per_tick`` units of background work, advancing the phase when
    its work runs out.  The phase changes only in background work, so one
    model answers every arrival of a tick.  A unit that raises moves the
    loop to the Failed phase; the tick still returns its records."""
    records = []
    net, skip, model_id, cost = state.active_model()
    for sample in arrivals:
        x, label = _split_sample(sample)
        logits, _ = forward(net, x[None, :], skip)
        predicted = int(logits.argmax())
        records.append(
            ServingRecord(
                sample_index=state.samples_seen,
                arrival_tick=state.tick_index,
                phase=state.phase,
                model_id=model_id,
                predicted_class=predicted,
                latency=cost,
                correct=None if label is None else predicted == label,
            )
        )
        state.admit(x)
        state.samples_seen += 1
    if records:
        state.timings.inference_count += len(records)
        state.timings.inference_done_seconds = time.perf_counter() - state.start_time
    budget = state.config.budget_per_tick
    while budget > 0 and state._work_available():
        state._do_one_unit()
        budget -= 1
    state.tick_index += 1
    return records


def _split_sample(sample):
    if isinstance(sample, tuple):
        x, label = sample
        return np.asarray(x, dtype=np.float64), int(label)
    return np.asarray(sample, dtype=np.float64), None


def _normalize_schedule(arrival_schedule):
    if isinstance(arrival_schedule, int):
        if arrival_schedule < 1:
            raise ConfigError(f"arrivals per tick must be >= 1, got {arrival_schedule}")
        while True:
            yield arrival_schedule
    else:
        yield from (int(k) for k in arrival_schedule)
        while True:
            yield 1


def serve(stream, pretrained: ResidualNetwork, config: ServeConfig, arrival_schedule=1):
    """Run the full test-time loop over ``stream``.

    Returns ``(final_model, timeline, timings)`` where ``final_model`` is
    the pruned, fine-tuned network that serves the tail of the stream.
    Raises :class:`PartialRunError`, carrying the timeline, if the stream
    ends before the prune batch and cache can be seeded, or, once the whole
    stream has been answered, if background work failed (the unit's
    exception is the error's ``__cause__``).
    """
    state = ServingState(pretrained, config)
    timeline = ServingTimeline()
    it = iter(stream)
    schedule = _normalize_schedule(arrival_schedule)
    exhausted = False
    while True:
        arrivals = []
        if not exhausted:
            for _ in range(next(schedule)):
                try:
                    arrivals.append(next(it))
                except StopIteration:
                    exhausted = True
                    break
        timeline.records.extend(tick(state, arrivals))
        if exhausted:
            if state.phase is Phase.SERVING or state.phase is Phase.FAILED:
                break
            if not state._work_available() and not state.seeds_filled:
                raise PartialRunError(
                    f"stream exhausted after {state.samples_seen} samples, before the "
                    f"prune batch ({config.prune_batch_size}) and cache "
                    f"({config.cache_size}) could be seeded",
                    timeline,
                )
    state.timings.total_ticks = state.tick_index
    if state.failure is not None:
        raise PartialRunError(
            f"background work failed at tick {state.timings.failed_tick}: {state.failure!r}; "
            f"all {state.samples_seen} samples were answered",
            timeline,
        ) from state.failure
    return state.student, timeline, state.timings
