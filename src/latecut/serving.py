"""Streaming test-time serving loop.

Every incoming sample gets exactly one prediction from whichever model the
loop currently trusts: the pretrained network M while pruning and
distillation are in flight, the pruned-and-fine-tuned network afterwards.
Between arrivals the loop spends a bounded budget of work units per tick,
pulled from one generator that runs the offline pipeline in order: the
baseline pass, one block score per unit, one cache label per unit, then one
distillation step per unit.  Phases advance Pruning -> Distilling ->
Serving, each exactly once.  If a unit raises, the loop enters the
terminal Failed phase instead: it keeps answering every arrival with M,
does no more background work, and keeps the exception as the cause.

Each unit calls the offline pipeline's own code: ``pruning.score_block``
and ``pruning.decide`` rank the blocks as ``rank_and_prune`` does,
``distill.teacher_labels`` labels one cache sample as ``build_cache`` does
(always with the teacher's final-block features, the paper's label), and
``DistillRun`` steps the student as ``distill`` does, so the final model is
bitwise the offline pipeline's.  Once the blocks are ranked, the pruned
model Mbar is ``compact(student, pruned)``: a network of n - n_p
blocks that shares its parameters with the full clone ``student``.  It is
what distillation trains, what serves after switchover and what
:func:`serve` returns.

The first ``prune_batch_size`` streamed samples seed the prune batch and
the next ``cache_size`` seed the pseudo-label cache, so background work
stalls (never the serving of arrivals) until enough samples have arrived.
The whole loop is single-threaded and bitwise deterministic for a fixed
stream and seed.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np

from .distill import (
    DistillConfig,
    DistillRun,
    PseudoLabelCache,
    SOURCE_FINAL_BLOCK,
    teacher_labels,
)
from .errors import ConfigError, DimensionError, PartialRunError, check_ints, is_integer
from .formats import network_fingerprint
from .network import ResidualNetwork, clone_network, compact, forward
from .pruning import BlockProfile, PruneDecision, check_n_p, decide, initial_noise, score_block
from .profiling import profile


class Phase(enum.Enum):
    PRUNING = "pruning"
    DISTILLING = "distilling"
    SERVING = "serving"
    FAILED = "failed"


MODEL_FULL = "M"
MODEL_PRUNED = "Mbar"


@dataclass(slots=True)
class ServingRecord:
    sample_index: int
    arrival_tick: int
    phase: Phase
    model_id: str
    predicted_class: int
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

    def __post_init__(self):
        check_ints(self, n_p=0, prune_batch_size=1, cache_size=1, budget_per_tick=1)


@dataclass
class ExperimentTimings:
    prune_done_tick: int | None = None
    distill_done_tick: int | None = None
    failed_tick: int | None = None
    total_ticks: int = 0
    teacher_query_count: int = 0


class ServingState:
    """Mutable state of one serving run; advanced one tick at a time."""

    def __init__(self, pretrained: ResidualNetwork, config: ServeConfig):
        check_n_p(pretrained, config.n_p)
        self.config = config
        self.network = pretrained
        self.phase = Phase.PRUNING
        self.tick_index = 0
        self.samples_seen = 0
        self.timings = ExperimentTimings()
        self.prune_samples: list[np.ndarray] = []
        self.cache_samples: list[np.ndarray] = []
        self.baseline_features: np.ndarray | None = None
        self.score_rows: list[BlockProfile] = []
        self.decision: PruneDecision | None = None
        self.student: ResidualNetwork | None = None  # full clone of M
        self.pruned_model: ResidualNetwork | None = None  # compact(student, pruned)
        self.cache_labels: list[np.ndarray] = []
        self.distill_run: DistillRun | None = None
        self.failure: Exception | None = None  # what ended background work early
        self.waiting = False  # the last unit pulled waits for a sample
        # Modeled profile for the prune decision; free of forward passes.
        self._work = _background_work(
            weakref.proxy(self), profile(pretrained, config.prune_batch_size, mode="modeled"))

    # -- sample intake -------------------------------------------------

    def admit(self, samples) -> None:
        """Keep the rows of ``samples``, ``(x, label)`` pairs in arrival
        order, to fill the prune batch and then the cache; once both are
        full, keep none."""
        for kept, size in ((self.prune_samples, self.config.prune_batch_size),
                           (self.cache_samples, self.config.cache_size)):
            room = max(size - len(kept), 0)
            kept.extend(x for x, _ in samples[:room])
            samples = samples[room:]

    # -- active model ----------------------------------------------------

    def active_model(self):
        """``(network, model_id)`` of the model that answers arrivals now."""
        if self.phase is Phase.SERVING:
            return self.pruned_model, MODEL_PRUNED
        return self.network, MODEL_FULL

    # -- background work -------------------------------------------------

    def _do_one_unit(self) -> bool:
        """Run the next unit of background work.  Returns False, having done
        nothing, when the unit waits for a sample or no work is left."""
        # The loop must keep answering arrivals whatever a unit raises, so
        # every failure is kept as the cause and ends background work.
        try:
            unit = next(self._work, None)
        except Exception as exc:
            self.failure = exc
            self.phase = Phase.FAILED
            self.timings.failed_tick = self.tick_index
            return False
        self.waiting = unit is False
        return bool(unit)


def _background_work(state: ServingState, latency_profile):
    """The offline pipeline, one unit per ``next``: yields True after a
    unit, False while the next unit waits for a sample, and returns on the
    unit that switches to Serving.  ``state`` is a weak proxy, so the
    generator, which the state holds, never keeps the state alive."""
    network, config, timings = state.network, state.config, state.timings
    while len(state.prune_samples) < config.prune_batch_size:
        yield False
    prune_batch = np.array(state.prune_samples)
    _, state.baseline_features = forward(network, prune_batch)
    timings.teacher_query_count += 1
    for block_id in range(1, network.n_blocks + 1):
        yield True
        eps = initial_noise(network, prune_batch, block_id, state.baseline_features)
        timings.teacher_query_count += 1
        state.score_rows.append(score_block(network, block_id, eps, latency_profile))
    state.decision = decide("proposed", config.n_p, state.score_rows)
    state.student = clone_network(network)
    state.pruned_model = compact(state.student, state.decision.pruned)
    state.phase = Phase.DISTILLING
    timings.prune_done_tick = state.tick_index
    for i in range(config.cache_size):
        yield True
        while len(state.cache_samples) <= i:
            yield False
        x = state.cache_samples[i][None, :]
        state.cache_labels.append(teacher_labels(network, x, SOURCE_FINAL_BLOCK)[0])
        timings.teacher_query_count += 1
    cache = PseudoLabelCache(
        np.array(state.cache_samples),
        np.array(state.cache_labels),
        network_fingerprint(network),
    )
    state.distill_run = run = DistillRun(state.pruned_model, cache, config.distill)
    while not run.done:  # steps == 0 switches in the last label unit
        yield True
        run.step()
    state.phase = Phase.SERVING
    timings.distill_done_tick = state.tick_index


def tick(state: ServingState, arrivals) -> list[ServingRecord]:
    """Serve this tick's arrivals with the active model, then spend up to
    ``budget_per_tick`` units of background work, advancing the phase when
    its work runs out.  The phase changes only in background work, so one
    model answers every arrival of a tick.  A unit that raises moves the
    loop to the Failed phase; the tick still returns its records.

    Every arrival is converted and its shape and label checked before any
    is answered, so a malformed one raises :class:`DimensionError` with
    the state untouched: nothing answered, admitted or counted, the tick
    not spent."""
    shape = (state.network.input_dim,)
    samples = [_split_sample(sample) for sample in arrivals]
    for i, (x, _) in enumerate(samples):
        if x.shape != shape:
            raise DimensionError(f"arrival {i} has shape {x.shape}, expected {shape}")
    records = []
    if samples:
        net, model_id = state.active_model()
        phase, tick_index, first = state.phase, state.tick_index, state.samples_seen
        # One forward per arrival, in order; one argmax over their logits.
        logits = np.concatenate([forward(net, x[None, :])[0] for x, _ in samples])
        predictions = logits.argmax(axis=1).tolist()
        records = [ServingRecord(index, tick_index, phase, model_id, predicted,
                                 None if label is None else predicted == label)
                   for index, (predicted, (_, label))
                   in enumerate(zip(predictions, samples), first)]
        state.admit(samples)
        state.samples_seen += len(samples)
    for _ in range(state.config.budget_per_tick):
        if not state._do_one_unit():
            break
    state.tick_index += 1
    return records


def _split_sample(sample):
    """``(x, label)`` of one arrival, ``x`` as a float64 array and ``label``
    an int, or None for an unlabelled arrival; DimensionError for a label
    that is not a Python or numpy integer."""
    if isinstance(sample, tuple):
        x, label = sample
        if not is_integer(label):
            raise DimensionError(f"arrival label {label!r} is not an integer")
        return np.asarray(x, dtype=np.float64), int(label)
    return np.asarray(sample, dtype=np.float64), None


def _arrival_count(count, low):
    if not is_integer(count) or count < low:
        raise ConfigError(f"arrivals per tick must be an integer >= {low}, got {count!r}")
    return count


def serve(stream, pretrained: ResidualNetwork, config: ServeConfig, arrival_schedule=1):
    """Run the full test-time loop over ``stream``: feed, then drain.

    Feed hands each tick its count of arrivals (``arrival_schedule`` every
    tick, or an iterable's counts and then 1 a tick) until a tick reads
    fewer than its count; drain ticks with no arrivals until the loop
    serves with Mbar or has failed.  A count is a Python or numpy integer,
    not a bool: >= 1 for a fixed count, checked before any work, and >= 0
    for a schedule's, checked when its tick comes; else ConfigError.

    Returns ``(final_model, timeline, timings)`` where ``final_model`` is
    Mbar, the pruned, fine-tuned network that serves the tail of the
    stream: n - n_p blocks, numbered 1..n - n_p as a checkpoint numbers
    them.
    Raises :class:`PartialRunError`, carrying the timeline, if the stream
    ends before the prune batch and cache can be seeded, or, once the whole
    stream has been answered, if background work failed (the unit's
    exception is the error's ``__cause__``).
    """
    try:
        counts = chain((_arrival_count(k, 0) for k in arrival_schedule), repeat(1))
    except TypeError:  # not iterable: one count for every tick
        counts = repeat(_arrival_count(arrival_schedule, 1))
    state = ServingState(pretrained, config)
    timeline = ServingTimeline()
    stream = iter(stream)
    for count in counts:
        arrivals = list(islice(stream, count))
        timeline.records.extend(tick(state, arrivals))
        if len(arrivals) < count:
            break
    while state.phase is not Phase.SERVING and state.phase is not Phase.FAILED:
        # Pruning and Distilling run out of work only while their seed
        # samples are missing, and the stream will bring no more.
        if state.waiting:
            raise PartialRunError(
                f"stream exhausted after {state.samples_seen} samples, before the "
                f"prune batch ({config.prune_batch_size}) and cache "
                f"({config.cache_size}) could be seeded",
                timeline,
            )
        timeline.records.extend(tick(state, []))
    state.timings.total_ticks = state.tick_index
    if state.failure is not None:
        raise PartialRunError(
            f"background work failed at tick {state.timings.failed_tick}: {state.failure!r}; "
            f"all {state.samples_seen} samples were answered",
            timeline,
        ) from state.failure
    return state.pruned_model, timeline, state.timings
