"""Tests of the benchmark harness itself: seeded inputs, span accounting, and the output checks on fake streams and models."""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(BENCH), "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import loops  # noqa: E402
import run  # noqa: E402
from checks import Snapshot, Tally, check_answers, wrong_predictions  # noqa: E402
from inputs import WORKLOADS, Inputs, OfflineShape, StreamShape, arrival_schedule, make_inputs  # noqa: E402
from spans import END, NAME, PARENT, REQUEST, START, NullTracer, Tracer, self_times, traced  # noqa: E402

from latecut.formats import save_checkpoint  # noqa: E402
from latecut.network import forward, random_network  # noqa: E402
from latecut.profiling import profile  # noqa: E402
from latecut.pruning import rank_and_prune  # noqa: E402
from latecut.serving import MODEL_FULL, MODEL_PRUNED, Phase, ServingRecord  # noqa: E402

TINY_STREAM = StreamShape(width=8, n_blocks=3, rate=4000.0, burst=1, arrivals=120, steady=1000,
                          n_p=1, prune_batch=8, cache=8, steps=10, heldout=64)
TINY_OFFLINE = OfflineShape(width=8, n_blocks=3, n_p=1, prune_batch=8, cache=16, steps=10,
                            heldout=128, answer_batch=64)


def tiny_inputs(shape, n_samples, seed=0):
    rng = np.random.default_rng(seed)
    stream = isinstance(shape, StreamShape)
    return Inputs(
        pretrained=random_network(16, shape.width, shape.n_blocks, 4, seed=seed),
        samples=rng.standard_normal((n_samples, 16)),
        due=[np.sort(rng.uniform(0.0, 0.03, n_samples))] if stream else [],
        heldout_x=rng.standard_normal((shape.heldout, 16)),
        heldout_y=rng.integers(0, 4, shape.heldout),
    )


def checkpoint(tmp_path, inputs):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(inputs.pretrained, path)
    return path


class TestInputs:
    def test_same_seed_same_inputs_other_seed_different(self):
        a = make_inputs("stream-burst", 3)
        b = make_inputs("stream-burst", 3)
        c = make_inputs("stream-burst", 4)
        for field in ("samples", "due", "heldout_x", "heldout_y"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
            assert not np.array_equal(getattr(a, field), getattr(c, field))
        assert not np.array_equal(a.due[0], a.due[1])
        assert Snapshot.of(a.pretrained).same_as(Snapshot.of(b.pretrained))
        assert not Snapshot.of(a.pretrained).same_as(Snapshot.of(c.pretrained))

    def test_schedules_are_open_loop_and_seeded(self):
        shape = WORKLOADS["stream-burst"]
        due = arrival_schedule(5, shape)
        assert len(due) == shape.arrivals and due[0] == 0.0
        assert np.all(np.diff(due) >= 0.0)
        assert np.array_equal(due, arrival_schedule(5, shape))
        assert not np.array_equal(due, arrival_schedule(6, shape))
        assert not np.array_equal(due, arrival_schedule(5, shape, session=1))
        rate = shape.arrivals / due[-1]
        assert 0.8 * shape.rate < rate < 1.25 * shape.rate
        assert len(np.unique(due)) == shape.arrivals // shape.burst


class TestAggregation:
    def test_trimmed_mean_drops_a_tenth_at_each_end(self):
        assert run.trimmed_mean([5.0, 1.0, 3.0]) == 3.0
        assert run.trimmed_mean([100.0, 1.0, 2.0, 3.0, -50.0]) == 2.0
        values = list(range(20)) + [1000.0]
        assert run.trimmed_mean(values) == pytest.approx(np.mean(sorted(values)[2:-2]))

    def test_end_to_end_trims_each_sessions_percentiles(self):
        def session(adapt, steady, setup, switchover, capacity, pf):
            return SimpleNamespace(adapt_ms=np.array(adapt, float),
                                   steady_ms=np.array(steady, float), setup_s=setup,
                                   switchover_s=switchover, capacity_per_s=capacity, pf_s=pf,
                                   accuracy_pct=97.5)

        results = [session([1, 2, 3, 4], [10, 20], 0.5, 1.0, 100.0, 2.0),
                   session([5, 6, 7], [30, 40, 50], 0.7, 3.0, 300.0, 4.0),
                   session([9], [60], 0.6, 2.0, 200.0, 3.0),
                   session([2], [20], 0.6, 2.0, 100.0, 3.0),
                   session([4], [80], 0.6, 9.0, 200.0, 5.0)]
        e2e = run.end_to_end(results, setups=[0.1, 0.2, 0.3, 0.4])
        # Session p50s are 2.5, 6, 9, 2, 4; without the lowest and highest
        # the mean is 12.5 / 3.  p99s are 3.97, 6.98, 9, 2, 4.
        assert e2e["adapt_p50_ms"] == pytest.approx(12.5 / 3)
        assert e2e["adapt_p99_ms"] == pytest.approx((3.97 + 6.98 + 4) / 3)
        # Steady p50s are 15, 40, 60, 20, 80; p99s 19.9, 49.8, 60, 20, 80.
        assert e2e["steady_p50_ms"] == pytest.approx(40.0)
        assert e2e["steady_p99_ms"] == pytest.approx((49.8 + 60 + 20) / 3)
        # Set-ups are the median of the extra repetitions and the sessions' own.
        assert e2e["setup_s"] == pytest.approx(0.5)
        assert e2e["switchover_s"] == pytest.approx(7.0 / 3)
        assert e2e["steady_capacity_per_s"] == pytest.approx(500.0 / 3)
        assert e2e["pf_s"] == pytest.approx(10.0 / 3)
        assert e2e["accuracy_pct"] == 97.5 and e2e["peak_rss_mb"] > 0


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        spans = [
            ["serving.tick", 0.0, 10.0, -1, None, None],
            ["network.forward", 1.0, 4.0, 0, 0, 1],
            ["distill.step", 5.0, 9.0, 0, None, None],
            ["network.sgd_step", 6.0, 7.0, 2, None, None],
            ["formats.load_checkpoint", 11.0, 12.5, -1, None, None],
        ]
        selfs = self_times(spans, range(len(spans)))
        assert selfs == pytest.approx({"serving": 3.0, "network": 4.0, "distill": 3.0,
                                       "formats": 1.5})
        assert sum(selfs.values()) == pytest.approx(10.0 + 1.5)
        # A child outside the selection no longer counts against its parent.
        assert self_times(spans, [0, 2])["serving"] == pytest.approx(6.0)

    def test_rebinding_records_nested_calls_and_restores(self):
        import importlib

        pruning = importlib.import_module("latecut.pruning")
        original = pruning.forward
        net = random_network(16, 8, 3, 4, seed=1)
        batch = np.random.default_rng(1).standard_normal((8, 16))
        tracer = Tracer()
        with traced(tracer):
            assert pruning.forward is not original
            tracer.call("pruning.rank_and_prune", rank_and_prune, net, batch,
                        profile(net, 8, mode="modeled"), 1)
        assert pruning.forward is original
        top, *children = tracer.spans
        assert top[NAME] == "pruning.rank_and_prune" and top[PARENT] == -1
        assert [s[NAME] for s in children] == ["network.forward"] * (net.n_blocks + 1)
        assert all(s[PARENT] == 0 and top[START] <= s[START] <= s[END] <= top[END]
                   for s in children)


def records_for(snapshots_by_id, xs, model_ids, first=0):
    """Records a correct serving loop would return for ``xs``."""
    out = []
    for i, (x, model_id) in enumerate(zip(xs, model_ids)):
        phase = Phase.SERVING if model_id == MODEL_PRUNED else Phase.DISTILLING
        pred = int(np.argmax(snapshots_by_id[model_id].logits(x[None, :])[0]))
        out.append(ServingRecord(first + i, 0, phase, model_id, pred, 0.0))
    return out


class TestChecks:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.net = random_network(16, 8, 3, 4, seed=2)
        self.snaps = {MODEL_FULL: Snapshot.of(self.net), MODEL_PRUNED: Snapshot.of(self.net, {2})}
        self.xs = rng.standard_normal((6, 16))
        models = [MODEL_FULL] * 3 + [MODEL_PRUNED] * 3
        self.records = records_for(self.snaps, self.xs, models)

    def ticks(self, records):
        return [(0, 3, records[:3]), (3, 3, records[3:])]

    def test_correct_stream_passes(self):
        tally = Tally()
        failed = check_answers(self.ticks(self.records), self.xs, self.snaps, tally)
        assert not failed.any() and tally.failed == 0 and tally.attempted == 6

    def test_injected_wrong_prediction_is_caught(self):
        bad = list(self.records)
        r = bad[4]
        bad[4] = ServingRecord(r.sample_index, 0, r.phase, r.model_id,
                               (r.predicted_class + 1) % 4, 0.0)
        tally = Tally()
        failed = check_answers(self.ticks(bad), self.xs, self.snaps, tally)
        assert list(np.flatnonzero(failed)) == [4] and tally.failed == 1

    def test_dropped_sample_is_caught(self):
        tally = Tally()
        failed = check_answers([(0, 3, self.records[:3]), (3, 3, self.records[3:5])],
                               self.xs, self.snaps, tally)
        assert list(np.flatnonzero(failed)) == [3, 4, 5] and tally.failed == 3

    def test_out_of_order_and_wrong_model_are_caught(self):
        swapped = [self.records[1], self.records[0], self.records[2]] + self.records[3:]
        tally = Tally()
        assert check_answers(self.ticks(swapped), self.xs, self.snaps, tally).sum() == 2
        back_to_m = self.records[:5] + records_for(self.snaps, self.xs[5:], [MODEL_FULL], first=5)
        tally = Tally()
        assert list(np.flatnonzero(check_answers(self.ticks(back_to_m), self.xs, self.snaps,
                                                 tally))) == [5]

    def test_exact_top2_tie_is_exempt(self):
        snap = Snapshot((np.eye(2), np.zeros(2)), (), (np.eye(2), np.zeros(2)))
        x = np.array([[1.0, 1.0], [2.0, 1.0]])
        assert list(wrong_predictions(snap, x, [1, 1])) == [False, True]


class TestSessions:
    def test_stream_session_passes_every_check(self, tmp_path):
        inputs = tiny_inputs(TINY_STREAM, TINY_STREAM.arrivals)
        tally = Tally()
        result = loops.run_stream_session(TINY_STREAM, inputs, checkpoint(tmp_path, inputs),
                                          NullTracer(), tally)
        assert tally.failed == 0, tally.problems
        assert tally.attempted >= TINY_STREAM.arrivals
        assert len(result.adapt_ms) + len(result.steady_ms) == TINY_STREAM.arrivals
        assert result.prune_passes == TINY_STREAM.n_blocks + 1
        assert result.background_units == (TINY_STREAM.n_blocks + 1) + 8 + 10

    def test_traced_session_tags_requests_and_counts_no_teacher_queries(self, tmp_path):
        inputs = tiny_inputs(TINY_STREAM, TINY_STREAM.arrivals)
        tracer, tally = Tracer(), Tally()
        with traced(tracer):
            loops.run_stream_session(TINY_STREAM, inputs, checkpoint(tmp_path, inputs),
                                     tracer, tally)
        assert tally.failed == 0, tally.problems
        requests = [s[REQUEST] for s in tracer.spans if s[REQUEST] is not None]
        assert requests == list(range(TINY_STREAM.arrivals))
        assert sum(s[NAME] == "distill.step" for s in tracer.spans) == TINY_STREAM.steps
        assert tracer.teacher_queries_during_steps == 0

    def test_stream_checks_catch_a_dropping_tick(self, tmp_path, monkeypatch):
        real_tick = loops.tick

        def dropping_tick(state, arrivals):
            records = real_tick(state, arrivals)
            return records[:-1] if len(arrivals) > 1 else records

        monkeypatch.setattr(loops, "tick", dropping_tick)
        inputs = tiny_inputs(TINY_STREAM, TINY_STREAM.arrivals)
        tally = Tally()
        loops.run_stream_session(TINY_STREAM, inputs, checkpoint(tmp_path, inputs),
                                 NullTracer(), tally)
        assert tally.failed >= 1

    def test_offline_checks_catch_a_wrong_model(self, tmp_path, monkeypatch):
        inputs = tiny_inputs(TINY_OFFLINE, TINY_OFFLINE.prune_batch + TINY_OFFLINE.cache)
        path = checkpoint(tmp_path, inputs)
        tally = Tally()
        result = loops.run_offline_rep(TINY_OFFLINE, inputs, path, NullTracer(), tally)
        assert tally.failed == 0, tally.problems
        assert result.prune_passes == TINY_OFFLINE.n_blocks + 1

        def wrong_forward(network, batch, skip=None):
            logits, feats = forward(network, batch, skip)
            return logits[:, ::-1], feats

        monkeypatch.setattr(loops, "forward", wrong_forward)
        tally = Tally()
        loops.run_offline_rep(TINY_OFFLINE, inputs, path, NullTracer(), tally)
        assert tally.failed > 0
