"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every tolerance is pinned here; nothing is deferred to later calibration.
Fixtures are seeded, so each criterion is a deterministic check."""

import contextlib
import statistics
import time
from dataclasses import replace

import numpy as np

from latecut.data import DatasetSpec, ShiftSpec, make_dataset, pretrain_source, evaluate_accuracy
from latecut.distill import (
    DistillConfig,
    build_cache,
    distill,
    distill_live,
    feature_loss_and_grads,
    lr_at,
    required_dataset_size,
)
from latecut.experiment import ExperimentConfig, run_experiment
from latecut.network import (
    clone_network,
    op_counter,
    parameter_count,
    random_network,
)
from latecut.profiling import latency_saving, profile
from latecut.pruning import baseline_finetune_oracle, rank_and_prune
from latecut.serving import MODEL_FULL, MODEL_PRUNED, Phase, ServeConfig, serve

from conftest import make_gradcheck_case
from oracles import (
    finite_difference_grads,
    max_relative_gradient_error,
    naive_prune_ranking,
    spearman_rank_correlation,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL — {label}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS — {label}")


def test_criterion_01_proxy_matches_finetune_oracle():
    with criterion(1, "proxy-oracle ranking agreement (>=7/10, spearman >= 0.5)"):
        start = time.perf_counter()
        agree = 0
        eps_pool, loss_pool = [], []
        for seed in range(10):
            rng = np.random.default_rng([77, seed])
            net = random_network(6, 6, 4, 3, seed=seed)
            for block in net.blocks:  # heterogeneous block strengths
                scale = rng.uniform(0.3, 1.6)
                block.weight1 *= scale
                block.weight2 *= scale
            batch = rng.standard_normal((24, 6))
            cache = build_cache(net, rng.standard_normal((40, 6)))
            prof = profile(net, 24, mode="modeled")
            proxy = rank_and_prune(net, batch, prof, 1)
            oracle = baseline_finetune_oracle(
                net, batch, cache, 1, k_steps=100, latency_profile=prof, seed=seed
            )
            agree += proxy.pruned == oracle.pruned
            eps = {r.block_id: r.epsilon_ini for r in proxy.ranked}
            tuned = {r.block_id: r.tuned_loss for r in oracle.ranked}
            for j in range(1, 5):
                eps_pool.append(eps[j])
                loss_pool.append(tuned[j])
        rho = spearman_rank_correlation(eps_pool, loss_pool)
        elapsed = time.perf_counter() - start
        assert agree >= 7, f"proxy matched the oracle in only {agree}/10 runs"
        assert rho >= 0.5, f"pooled spearman {rho:.3f} < 0.5"
        assert elapsed < 120.0


def test_criterion_02_brute_force_equivalence():
    with criterion(2, "rank_and_prune equals naive recomputation (50 instances)"):
        for seed in range(50):
            rng = np.random.default_rng([13, seed])
            n_blocks = int(rng.integers(1, 7))
            width = int(rng.integers(3, 7))
            input_dim = int(rng.integers(3, 7))
            net = random_network(input_dim, width, n_blocks, 3, seed=seed)
            for block in net.blocks:
                block.weight2 *= rng.uniform(0.3, 1.5)
            batch = rng.standard_normal((8, input_dim))
            prof = profile(net, 8, mode="modeled")
            decision = rank_and_prune(net, batch, prof, max(1, n_blocks // 2))
            naive = naive_prune_ranking(net, batch, prof.full_latency, prof.skipped_latency)
            assert [r.block_id for r in decision.ranked] == [row[1] for row in naive]
            for row, naive_row in zip(decision.ranked, naive):
                assert abs(row.importance - naive_row[0]) < 1e-9


def test_criterion_03_cached_distillation_speedup():
    with criterion(3, "cached distillation <= 0.75x live wall time, bitwise equal"):
        teacher = random_network(12, 12, 16, 4, seed=0)
        skip = frozenset(range(1, 14))  # student keeps 3 of 16 blocks
        assert parameter_count(teacher) >= 4 * parameter_count(teacher, skip)
        samples = np.random.default_rng(0).standard_normal((128, 12))
        config = DistillConfig(steps=500, batch_size=64, seed=9)
        cache = build_cache(teacher, samples)
        cached_times, live_times = [], []
        for _ in range(5):
            cached_student = clone_network(teacher)
            t0 = time.perf_counter()
            cached_student, _ = distill(cached_student, skip, cache, config)
            cached_times.append(time.perf_counter() - t0)
            live_student = clone_network(teacher)
            t0 = time.perf_counter()
            live_student, _ = distill_live(live_student, skip, teacher, samples, config)
            live_times.append(time.perf_counter() - t0)
            for a, b in zip(cached_student.parameter_arrays(), live_student.parameter_arrays()):
                assert np.array_equal(a, b)
        ratio = statistics.median(cached_times) / statistics.median(live_times)
        assert ratio <= 0.75, f"cached/live wall-time ratio {ratio:.3f} > 0.75"


def test_criterion_04_learning_rate_schedule_exact():
    with criterion(4, "lr schedule 0.02 / 0.002 / 0.0002 at steps 0/200/400, exact"):
        config = DistillConfig(steps=500)
        assert lr_at(0, config) == 0.02
        assert lr_at(200, config) == 0.002
        assert lr_at(400, config) == 0.0002


def test_criterion_05_test_time_pf_beats_train_time_pf():
    with criterion(5, "test-time PF beats train-time PF in >= 7/10 paired seeds"):
        start = time.perf_counter()
        wins = 0
        for seed in range(10):
            base = ExperimentConfig(
                dataset=DatasetSpec(
                    num_classes=4, input_dim=16, samples_per_split=8000,
                    class_sep=0.9, noise_sigma=0.7,
                    shift=ShiftSpec("rotation_mix", 1.0), seed=seed,
                ),
                arch={"width": 8, "n_blocks": 2},
                n_p=1,
                prune_batch_size=32,
                cache_size=48,
                distill=DistillConfig(steps=300, batch_size=32),
                pretrain_epochs=15,
                seed=seed,
            )
            train, _ = make_dataset(base.dataset)
            pretrained = pretrain_source(train, base.arch, base.pretrain_epochs, seed)
            test_pf = run_experiment(replace(base, pf_source="test"), pretrained)
            train_pf = run_experiment(replace(base, pf_source="train"), pretrained)
            wins += test_pf.accuracy > train_pf.accuracy
        elapsed = time.perf_counter() - start
        assert wins >= 7, f"test-time PF won only {wins}/10 paired seeds"
        assert elapsed < 300.0


def test_criterion_06_label_resolution_overfitting_direction():
    with criterion(6, "pooled labels: lower train loss AND lower accuracy (>=4/5)"):
        loss_wins = 0
        acc_wins = 0
        for seed in range(5):
            spec = DatasetSpec(
                num_classes=4, input_dim=16, samples_per_split=4000,
                class_sep=0.9, noise_sigma=0.7,
                shift=ShiftSpec("rotation_mix", 1.0), seed=seed,
            )
            (x_train, y_train), (x_test, y_test) = make_dataset(spec)
            net = pretrain_source((x_train, y_train), {"width": 10, "n_blocks": 3}, 15, seed)
            prof = profile(net, 32, mode="modeled")
            ranked = rank_and_prune(net, x_test[:32], prof, 3).ranked
            skip = {ranked[-1].block_id}  # most damaging block: real repair work
            small = max(2, required_dataset_size(parameter_count(net, skip), net.width) // 4)
            cache_x = x_test[32 : 32 + small]
            eval_x, eval_y = x_test[32 + small :], y_test[32 + small :]
            outcome = {}
            for source in ("final_block", "pooled"):
                cache = build_cache(net, cache_x, source)
                student = clone_network(net)
                student, report = distill(
                    student, skip, cache, DistillConfig(steps=300, batch_size=32, seed=seed)
                )
                outcome[source] = (
                    report.final_loss,
                    evaluate_accuracy(student, eval_x, eval_y, skip),
                )
            loss_wins += outcome["pooled"][0] < outcome["final_block"][0]
            acc_wins += outcome["pooled"][1] < outcome["final_block"][1]
        assert loss_wins >= 4, f"pooled training loss lower in only {loss_wins}/5 seeds"
        assert acc_wins >= 4, f"pooled held-out accuracy lower in only {acc_wins}/5 seeds"


def test_criterion_07_latency_algebra():
    with criterion(7, "modeled latency: per-block formula, additivity, scale invariance"):
        import dataclasses

        for seed in range(5):
            rng = np.random.default_rng([5, seed])
            n_blocks = int(rng.integers(2, 6))
            net = random_network(
                int(rng.integers(3, 8)), int(rng.integers(3, 8)), n_blocks, 3, seed=seed,
                hidden_widths=[int(h) for h in rng.integers(2, 9, n_blocks)],
            )
            prof = profile(net, int(rng.integers(1, 65)), mode="modeled")
            for block_id, latency in prof.skipped_latency.items():
                direct = (prof.full_latency - latency) / prof.full_latency
                assert abs(latency_saving(prof, {block_id}) - direct) <= 1e-12
            ids = list(range(1, n_blocks + 1))
            left, right = set(ids[::2]), set(ids[1::2])
            combined = latency_saving(prof, left | right)
            split = latency_saving(prof, left) + latency_saving(prof, right)
            assert abs(combined - split) <= 1e-12
            batch = rng.standard_normal((6, net.input_dim))
            base_order = [r.block_id for r in rank_and_prune(net, batch, prof, 1).ranked]
            for scale in (1e-6, 3.7, 1e9):
                scaled = dataclasses.replace(
                    prof,
                    full_latency=prof.full_latency * scale,
                    skipped_latency={j: t * scale for j, t in prof.skipped_latency.items()},
                )
                for j in ids:
                    assert abs(latency_saving(scaled, {j}) - latency_saving(prof, {j})) <= 1e-12
                scaled_decision = rank_and_prune(net, batch, scaled, 1)
                assert [r.block_id for r in scaled_decision.ranked] == base_order
                assert scaled_decision.ranked[0].block_id == base_order[0]  # argmin invariant


def test_criterion_08_serving_loop_conformance():
    with criterion(8, "serving loop properties on 100 randomized streams"):
        phase_rank = {Phase.PRUNING: 0, Phase.DISTILLING: 1, Phase.SERVING: 2}
        for case in range(100):
            rng = np.random.default_rng([31, case])
            n_blocks = int(rng.integers(1, 5))
            net = random_network(
                int(rng.integers(2, 6)), int(rng.integers(2, 6)), n_blocks,
                int(rng.integers(2, 5)), seed=case,
            )
            config = ServeConfig(
                n_p=int(rng.integers(0, n_blocks + 1)),
                prune_batch_size=int(rng.integers(2, 8)),
                cache_size=int(rng.integers(2, 8)),
                distill=DistillConfig(
                    steps=int(rng.integers(0, 13)),
                    batch_size=int(rng.integers(1, 6)),
                    seed=case,
                ),
                budget_per_tick=int(rng.integers(1, 6)),
            )
            length = config.prune_batch_size + config.cache_size + int(rng.integers(5, 30))
            xs = rng.standard_normal((length, net.input_dim))
            schedule = [int(k) for k in rng.integers(0, 4, length)]
            runs = []
            for _ in range(2):
                final, timeline, timings = serve(
                    (x for x in xs), clone_network(net), config, list(schedule)
                )
                runs.append((final, timeline.records))
            records = runs[0][1]
            assert [r.sample_index for r in records] == list(range(length))  # exactly once
            last = 0
            for record in records:
                expected = MODEL_PRUNED if record.phase is Phase.SERVING else MODEL_FULL
                assert record.model_id == expected  # phase-model consistency
                assert phase_rank[record.phase] >= last  # monotone phases
                last = phase_rank[record.phase]
            assert runs[0][1] == runs[1][1]  # deterministic timeline
            for a, b in zip(runs[0][0].parameter_arrays(), runs[1][0].parameter_arrays()):
                assert np.array_equal(a, b)


def test_criterion_09_gradient_correctness():
    with criterion(9, "analytic gradients vs central differences (20 seeds, <1e-4)"):
        for seed in range(20):
            net, batch, target = make_gradcheck_case(seed, max_blocks=3, max_width=8)
            _, grads = feature_loss_and_grads(net, None, batch, target)
            numeric = finite_difference_grads(
                lambda: feature_loss_and_grads(net, None, batch, target)[0], net, h=1e-5
            )
            worst = max_relative_gradient_error(
                list(grads.parameter_arrays()), numeric, skip_below=1e-8
            )
            assert worst < 1e-4, f"seed {seed}: relative gradient error {worst:.2e}"


def test_criterion_10_forward_pass_budget():
    with criterion(10, "ranking n blocks costs exactly n+1 forward passes"):
        for seed, n_blocks in [(0, 1), (1, 3), (2, 6), (3, 10)]:
            net = random_network(5, 5, n_blocks, 3, seed=seed)
            batch = np.random.default_rng(seed).standard_normal((10, 5))
            prof = profile(net, 10, mode="modeled")
            op_counter.reset()
            rank_and_prune(net, batch, prof, 1)
            assert op_counter.forward_passes == n_blocks + 1
