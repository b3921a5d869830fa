"""Drive latecut's public API from outside the package: one streaming
serving session on an open-loop schedule, or one offline prune + finetune.

Both return a ``Result`` with the session's raw measurements and record
every check they make in the caller's ``Tally``.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

import numpy as np

from latecut.data import evaluate_accuracy
from latecut.distill import DistillConfig, build_cache, distill
from latecut.formats import load_checkpoint
from latecut.network import clone_network, forward, op_counter
from latecut.profiling import profile
from latecut.pruning import rank_and_prune
from latecut.serving import MODEL_FULL, MODEL_PRUNED, Phase, ServeConfig, ServingState, tick

from checks import Snapshot, Tally, check_answers, wrong_predictions

# Sessions start this long after their clock is read.
LEAD_S = 0.001


@dataclass
class Result:
    setup_s: float
    adapt_ms: np.ndarray          # latency of each request answered by M
    steady_ms: np.ndarray         # ... and by Mbar
    switchover_s: float
    pf_s: float
    capacity_per_s: float
    accuracy_pct: float
    busy_s: float                 # time spent inside the package's calls being measured
    window: tuple[float, float]   # perf_counter interval the metrics cover
    final: Snapshot
    wait_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    arrival_ticks: int = 0        # ticks handed at least one scheduled arrival
    arrivals: int = 0
    background_units: int = 0
    prune_passes: int = 0
    traced: bool = False
    span_range: tuple[int, int] = (0, 0)


def wait_until(deadline: float) -> None:
    """Busy-wait: a sleeping thread on a shared virtual machine can wake
    milliseconds late and on a cold core, which would be charged to the
    requests that were due."""
    while time.perf_counter() < deadline:
        pass


def background_work(state) -> bool:
    """Whether a tick would spend its budget on background work: the
    serving loop's own rule, read from its state."""
    if state.phase is Phase.PRUNING:
        return len(state.prune_samples) >= state.config.prune_batch_size
    if state.phase is Phase.DISTILLING:
        return (len(state.cache_samples) > len(state.cache_labels)
                or state.distill_run is not None)
    return False


def distill_config(shape) -> DistillConfig:
    return DistillConfig(steps=shape.steps, batch_size=64, lr0=shape.lr)


def serve_config(shape) -> ServeConfig:
    return ServeConfig(n_p=shape.n_p, prune_batch_size=shape.prune_batch,
                       cache_size=shape.cache, distill=distill_config(shape),
                       budget_per_tick=shape.budget)


def stream_setup(ckpt, shape, warm_x, tracer):
    """Load, build the serving state (which profiles the model) and run one
    warm forward: everything before the first request can be answered."""
    start = time.perf_counter()
    net = tracer.call("formats.load_checkpoint", load_checkpoint, ckpt)
    state = tracer.call("serving.ServingState", ServingState, net, serve_config(shape))
    tracer.call("network.forward", forward, net, warm_x)
    return time.perf_counter() - start, state


def offline_setup(ckpt, shape, tracer):
    start = time.perf_counter()
    net = tracer.call("formats.load_checkpoint", load_checkpoint, ckpt)
    prof = tracer.call("profiling.profile", profile, net, shape.prune_batch, mode="modeled")
    return time.perf_counter() - start, net, prof


def run_stream_session(shape, inputs, ckpt, tracer, tally: Tally, session: int = 0) -> Result:
    samples = list(inputs.samples)
    due = inputs.due[session % len(inputs.due)].tolist()
    n = len(due)
    setup_s, state = stream_setup(ckpt, shape, inputs.samples[:1], tracer)
    m_snapshot = Snapshot.of(state.network)
    if tracer.enabled:
        tracer.teacher = state.network
    passes_before = op_counter.forward_passes
    served = []  # (first request id, count, records, tick start, tick end)
    pf_start = pf_end = None
    busy_s = 0.0
    sent = steady = 0
    base = time.perf_counter() + LEAD_S
    while steady < shape.steady:
        k = bisect.bisect_right(due, time.perf_counter() - base, sent)
        if k == sent and not background_work(state):
            # No arrival is due and no background work waits: wait for the
            # next arrival (otherwise an empty tick does background work).
            if sent == n:
                if state.phase is Phase.SERVING:
                    break
                raise RuntimeError("stream ended before the prune batch and cache were seeded")
            wait_until(base + due[sent])
            continue
        if tracer.enabled:
            tracer.pending_requests.extend(range(sent, k))
        t_start = time.perf_counter()
        records = tracer.call("serving.tick", tick, state, samples[sent:k])
        t_end = time.perf_counter()
        busy_s += t_end - t_start
        if k > sent or records:
            served.append((sent, k - sent, records, t_start, t_end))
            steady += sum(r.model_id == MODEL_PRUNED for r in records)
        if pf_start is None and state.baseline_features is not None:
            pf_start = t_start
        if pf_end is None and state.phase is Phase.SERVING:
            pf_end = t_end
        sent = k
    passes = op_counter.forward_passes - passes_before
    if tracer.enabled:
        tracer.pending_requests.clear()

    # Checks, outside the timed loop.
    pruned = state.decision.pruned
    final = Snapshot.of(state.student, pruned)
    check_answers([t[:3] for t in served], inputs.samples[:sent],
                  {MODEL_FULL: m_snapshot, MODEL_PRUNED: final}, tally)
    run = state.distill_run
    labels = len(state.cache_labels)
    expected_units = (shape.n_blocks + 1) + shape.cache + shape.steps
    units = (len(state.score_rows) + 1) + labels + run.steps_done
    prune_passes = passes - sent - labels - run.steps_done
    tally.check(prune_passes == shape.n_blocks + 1,
                f"ranking took {prune_passes} forward passes, expected n + 1 = {shape.n_blocks + 1}")
    tally.check(run.teacher_query_count == 0
                and state.timings.teacher_query_count == shape.n_blocks + 1 + shape.cache,
                "teacher queried during distillation steps")
    tally.check(units == expected_units, f"{units} background units, expected {expected_units}")
    tally.check(len(pruned) == shape.n_p, f"pruned {len(pruned)} blocks, expected {shape.n_p}")
    tally.check(Snapshot.of(state.network).same_as(m_snapshot), "serving changed the full model M")
    tally.check(steady > 0, "the schedule ended before Mbar served a request")
    accuracy = tracer.call("data.evaluate_accuracy", evaluate_accuracy, state.student,
                           inputs.heldout_x, inputs.heldout_y, pruned)

    due_abs = np.asarray(due) + base
    latency, wait, by_pruned = [], [], []
    switchover_s = float("nan")
    steady_busy = 0.0
    for first, count, records, t_start, t_end in served:
        d = due_abs[first : first + count]
        latency.append(t_end - d)
        wait.append(t_start - d)
        pruned_model = bool(records) and records[0].model_id == MODEL_PRUNED
        by_pruned.append(np.full(count, pruned_model))
        if pruned_model:
            steady_busy += t_end - t_start
            if switchover_s != switchover_s:
                switchover_s = t_end - due_abs[0]
    latency = np.concatenate(latency) * 1e3
    by_pruned = np.concatenate(by_pruned)
    return Result(
        setup_s=setup_s,
        adapt_ms=latency[~by_pruned],
        steady_ms=latency[by_pruned],
        switchover_s=switchover_s,
        pf_s=pf_end - pf_start,
        # Every tick that Mbar served cleared the backlog due at its start.
        capacity_per_s=int(by_pruned.sum()) / steady_busy,
        accuracy_pct=100.0 * accuracy,
        busy_s=busy_s,
        window=(base, served[-1][4]),
        final=final,
        wait_ms=np.concatenate(wait) * 1e3,
        arrival_ticks=sum(1 for t in served if t[1] > 0),
        arrivals=sent,
        background_units=units,
        prune_passes=prune_passes,
    )


def answer_heldout(model, skip, x, batch, tracer):
    """Answer ``x`` in consecutive batches, closed loop.  Returns per-batch
    latencies (ms), predictions, the first batch's end and the total time."""
    latencies, predictions = [], []
    first_end = None
    start = time.perf_counter()
    for lo in range(0, len(x), batch):
        t0 = time.perf_counter()
        logits, _ = tracer.call("network.forward", forward, model, x[lo : lo + batch], skip)
        t1 = time.perf_counter()
        first_end = first_end or t1
        latencies.append(t1 - t0)
        predictions.append(np.argmax(logits, axis=1))
    total = time.perf_counter() - start
    return np.array(latencies) * 1e3, np.concatenate(predictions), first_end, total


def run_offline_rep(shape, inputs, ckpt, tracer, tally: Tally, session: int = 0) -> Result:
    del session  # every repetition runs the same work
    setup_s, net, prof = offline_setup(ckpt, shape, tracer)
    m_snapshot = Snapshot.of(net)
    if tracer.enabled:
        tracer.teacher = net
    prune_x = inputs.samples[: shape.prune_batch]
    cache_x = inputs.samples[shape.prune_batch :]
    hx, hy = inputs.heldout_x, inputs.heldout_y
    adapt_ms, m_pred, _, _ = answer_heldout(net, None, hx, shape.answer_batch, tracer)

    passes = [op_counter.forward_passes]
    start = time.perf_counter()
    cache = tracer.call("distill.build_cache", build_cache, net, cache_x)
    passes.append(op_counter.forward_passes)
    decision = tracer.call("pruning.rank_and_prune", rank_and_prune, net, prune_x, prof, shape.n_p)
    passes.append(op_counter.forward_passes)
    student = tracer.call("network.clone_network", clone_network, net)
    student, report = tracer.call("distill.distill", distill, student, decision.pruned, cache,
                                  distill_config(shape))
    pf_end = time.perf_counter()
    passes.append(op_counter.forward_passes)
    steady_ms, mbar_pred, first_end, mbar_total = answer_heldout(
        student, decision.pruned, hx, shape.answer_batch, tracer)

    final = Snapshot.of(student, decision.pruned)
    wrong_m = wrong_predictions(m_snapshot, hx, m_pred)
    wrong_mbar = wrong_predictions(final, hx, mbar_pred)
    tally.add(len(hx), int(wrong_m.sum()), "M predictions differ from the reference forward")
    tally.add(len(hx), int(wrong_mbar.sum()), "Mbar predictions differ from the reference forward")
    ref_labels = m_snapshot.features(cache_x)
    tally.check(passes[1] - passes[0] == 1
                and np.allclose(cache.labels, ref_labels, rtol=1e-9,
                                atol=1e-9 * np.abs(ref_labels).max()),
                "pseudo-labels are not one teacher pass over the cache set")
    tally.check(passes[2] - passes[1] == shape.n_blocks + 1,
                f"ranking took {passes[2] - passes[1]} forward passes, "
                f"expected n + 1 = {shape.n_blocks + 1}")
    # One student sweep per step plus at most one final whole-cache loss;
    # a teacher query per step would double the count.
    tally.check(report.teacher_query_count == 0 and len(report.loss_trace) == shape.steps
                and passes[3] - passes[2] <= shape.steps + 1,
                "teacher queried during distillation steps")
    tally.check(len(decision.pruned) == shape.n_p,
                f"pruned {len(decision.pruned)} blocks, expected {shape.n_p}")
    tally.check(Snapshot.of(net).same_as(m_snapshot), "prune + finetune changed the full model M")
    accuracy = tracer.call("data.evaluate_accuracy", evaluate_accuracy, student, hx, hy,
                           decision.pruned)
    tally.check(accuracy == float((mbar_pred == hy).mean()),
                "evaluate_accuracy disagrees with the batched predictions")
    return Result(
        setup_s=setup_s,
        adapt_ms=adapt_ms,
        steady_ms=steady_ms,
        switchover_s=first_end - start,
        pf_s=pf_end - start,
        capacity_per_s=len(hx) / mbar_total,
        accuracy_pct=100.0 * accuracy,
        busy_s=pf_end - start,
        window=(start, pf_end),
        final=final,
        prune_passes=passes[2] - passes[1],
    )
