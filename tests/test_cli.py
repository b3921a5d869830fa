import csv
import inspect
import io
import json
import logging
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from latecut import cli, network, serving
from latecut.cli import build_parser, main
from latecut.distill import DistillConfig, build_cache, distill
from latecut.errors import PartialRunError
from latecut.experiment import ExperimentConfig, ExperimentReport, experiment_config_from_dict
from latecut.formats import (
    checkpoint_bytes,
    load_checkpoint,
    load_samples,
    save_cache_file,
    save_checkpoint,
    save_samples,
)
from latecut.network import clone_network, compact, forward, random_network
from latecut.profiling import profile
from latecut.pruning import prune_by_method


@pytest.fixture()
def workspace(tmp_path):
    net = random_network(6, 6, 3, 3, seed=0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(net, ckpt)
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((120, 6))
    ys = rng.integers(0, 3, 120)
    data = tmp_path / "data.bin"
    save_samples(data, xs, ys)
    return tmp_path, net, ckpt, data


def test_no_args_prints_usage_and_exits_1(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_help_exits_0(capsys):
    assert main(["profile", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--checkpoint" in out


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_run_logs_the_kernel_pair_once(workspace, caplog):
    tmp, _, ckpt, _ = workspace
    caplog.set_level(logging.INFO, logger="latecut")
    assert main(["--log-level", "info", "profile", "--checkpoint", str(ckpt),
                 "--out", str(tmp / "profile.json")]) == 0
    lines = [r.getMessage() for r in caplog.records if "kernels" in r.getMessage()]
    assert lines == [f"forward kernels: {network.KERNEL_PAIR}"]


def test_flag_defaults_are_the_configs_defaults():
    parser = build_parser()
    args = parser.parse_args(["serve", "--checkpoint", "c", "--stream", "s",
                              "--timeline", "t", "--out", "o"])
    serve_config, distill_config = serving.ServeConfig(), DistillConfig()
    assert (args.np, args.prune_batch, args.cache_size, args.budget) == (
        serve_config.n_p, serve_config.prune_batch_size, serve_config.cache_size,
        serve_config.budget_per_tick)
    assert (args.steps, args.lr, args.batch, args.seed) == (
        distill_config.steps, distill_config.lr0, distill_config.batch_size, distill_config.seed)
    # prune and profile fill in a flag's default only where the method or
    # mode reads it (test_prune_batch_default_is_the_serving_default,
    # test_oracle_without_k_steps_runs_the_configs_default,
    # test_unread_flags_log_null_and_latecut_seed_needs_a_reader).
    args = parser.parse_args(["prune", "--checkpoint", "c", "--profile", "p", "--np", "1",
                              "--out", "o"])
    assert (args.prune_batch, args.k_steps, args.seed) == (None, None, None)
    args = parser.parse_args(["profile", "--checkpoint", "c", "--out", "o"])
    assert (args.warmup, args.runs, args.seed) == (None, None, None)


def test_oracle_without_k_steps_runs_the_configs_default(workspace, monkeypatch):
    tmp, net, ckpt, data = workspace
    profile_json, cache, out = tmp / "profile.json", tmp / "cache.bin", tmp / "oracle.json"
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)]) == 0
    build_cache(net, load_samples(data)[0]).save(cache)
    ran = []

    def recorded(*args):
        ran.append(args[-2])  # k_steps
        return prune_by_method(*args)

    monkeypatch.setattr(cli, "prune_by_method", recorded)
    assert main(["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
                 "--method", "oracle", "--np", "1", "--prune-batch", "16",
                 "--samples", str(data), "--cache", str(cache), "--out", str(out)]) == 0
    steps = ExperimentConfig().oracle_k_steps
    assert ran == [steps]
    assert json.loads((tmp / "prune_config.json").read_text())["k_steps"] == steps


@pytest.mark.parametrize("method", ["proposed", "random"])
def test_prune_batch_default_is_the_serving_default(workspace, monkeypatch, method):
    tmp, net, ckpt, data = workspace
    profile_json, out = tmp / "profile.json", tmp / "decision.json"
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)]) == 0
    ranked_on = []

    def recorded(*args):
        ranked_on.append(None if args[2] is None else len(args[2]))  # the prune batch
        return prune_by_method(*args)

    monkeypatch.setattr(cli, "prune_by_method", recorded)
    samples = [] if method == "random" else ["--samples", str(data)]
    assert main(["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
                 "--method", method, "--np", "1", *samples, "--out", str(out)]) == 0
    rows = None if method == "random" else serving.ServeConfig.prune_batch_size
    assert ranked_on == [rows]
    assert json.loads((tmp / "prune_config.json").read_text())["prune_batch"] == rows


def test_unread_flags_log_null_and_latecut_seed_needs_a_reader(workspace, monkeypatch, capsys):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"

    def logged(command, *keys):
        config = json.loads((tmp / f"{command}_config.json").read_text())
        return [config[key] for key in keys]

    def run(*argv):
        out = profile_json if argv[0] == "profile" else tmp / "decision.json"
        return main([*argv, "--out", str(out)])

    # Measured mode reads --warmup, --runs and --seed, with profile's defaults.
    assert run("profile", "--checkpoint", str(ckpt), "--mode", "measured") == 0
    defaults = inspect.signature(profile).parameters
    assert logged("profile", "warmup", "runs", "seed") == [
        defaults[name].default for name in ("warmup_runs", "timed_runs", "seed")]
    # A run that reads no seed ignores LATECUT_SEED, however malformed.
    monkeypatch.setenv("LATECUT_SEED", "abc")
    assert run("profile", "--checkpoint", str(ckpt)) == 0
    assert logged("profile", "warmup", "runs", "seed") == [None, None, None]
    prune = ["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json), "--np", "1"]
    for method in ("proposed", "l2ratio", "curl"):
        assert run(*prune, "--method", method, "--samples", str(data)) == 0
        assert logged("prune", "seed") == [None]
    # random reads a seed, so LATECUT_SEED is checked and applied.
    capsys.readouterr()
    assert run(*prune, "--method", "random") == 2
    assert "LATECUT_SEED" in _one_data_error_line(capsys)
    monkeypatch.setenv("LATECUT_SEED", "7")
    assert run(*prune, "--method", "random", "--seed", "3") == 0
    assert logged("prune", "seed") == [7]
    monkeypatch.delenv("LATECUT_SEED")
    assert run(*prune, "--method", "random") == 0
    assert logged("prune", "seed") == [0]


def _readme_walkthrough() -> list[list[str]]:
    """Each command of README.md's CLI walkthrough as an argv: comment lines
    dropped, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI walkthrough", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    text = "\n".join(line for line in block.splitlines() if not line.lstrip().startswith("#"))
    return [shlex.split(line) for line in text.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_walkthrough_runs_as_written(tmp_path, monkeypatch):
    save_checkpoint(random_network(16, 8, 3, 3, seed=0), tmp_path / "model.ckpt")
    rng = np.random.default_rng(0)
    save_samples(tmp_path / "data.bin", rng.standard_normal((200, 16)), rng.integers(0, 3, 200))
    (tmp_path / "exp.json").write_text(json.dumps({
        "dataset": {"samples_per_split": 300, "class_sep": 2.0},
        "arch": {"width": 8, "n_blocks": 2}, "prune_batch_size": 16, "cache_size": 16,
        "distill": {"steps": 2, "batch_size": 8}, "pretrain_epochs": 2}))
    monkeypatch.chdir(tmp_path)
    commands = _readme_walkthrough()
    assert [argv[:2] for argv in commands] == [["latecut", command] for command in (
        "profile", "prune", "distill", "serve", "experiment", "report")]
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
    for output in ("profile.json", "decision.json", "finetuned.ckpt", "report.json",
                   "timeline.json", "results/results.csv", "table.csv"):
        assert (tmp_path / output).exists(), output


def test_profile_prune_distill_serve_pipeline(workspace):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    assert main([
        "profile", "--checkpoint", str(ckpt), "--mode", "modeled",
        "--batch", "16", "--out", str(profile_json),
    ]) == 0
    payload = json.loads(profile_json.read_text())
    assert set(payload) == {"mode", "T", "per_block"}
    assert {row["block_id"] for row in payload["per_block"]} == {1, 2, 3}

    decision_json = tmp / "decision.json"
    assert main([
        "prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
        "--method", "proposed", "--np", "1", "--prune-batch", "32",
        "--samples", str(data), "--out", str(decision_json),
    ]) == 0
    decision = json.loads(decision_json.read_text())
    assert decision["method"] == "proposed" and decision["n_p"] == 1
    assert set(decision["ranked"][0]) == {"block_id", "epsilon", "G", "delta_t", "importance"}
    assert len(decision["pruned"]) == 1

    finetuned = tmp / "finetuned.ckpt"
    report_json = tmp / "report.json"
    assert main([
        "distill", "--student", str(ckpt), "--decision", str(decision_json),
        "--teacher", str(ckpt), "--samples", str(data), "--steps", "12",
        "--batch", "16", "--mode", "cached", "--out", str(finetuned),
        "--report", str(report_json),
    ]) == 0
    report = json.loads(report_json.read_text())
    assert report["teacher_query_count"] == 0
    assert len(report["loss_trace"]) == 12
    load_checkpoint(finetuned)  # intact checkpoint

    timeline_json = tmp / "timeline.json"
    served = tmp / "served.ckpt"
    assert main([
        "serve", "--checkpoint", str(ckpt), "--stream", str(data),
        "--np", "1", "--prune-batch", "10", "--cache-size", "10",
        "--steps", "8", "--batch", "8", "--budget", "4",
        "--timeline", str(timeline_json), "--out", str(served),
    ]) == 0
    rows = json.loads(timeline_json.read_text())
    assert len(rows) == 120
    assert set(rows[0]) == {"index", "tick", "phase", "model", "predicted_class", "correct"}
    assert rows[0]["model"] == "M" and rows[-1]["model"] == "Mbar"
    for command in ("profile", "prune", "distill", "serve"):  # each logged beside its --out
        assert json.loads((tmp / f"{command}_config.json").read_text())["command"] == command


def test_serve_out_is_the_model_that_served(workspace, monkeypatch):
    tmp, net, ckpt, data = workspace
    states = []

    class RecordingState(serving.ServingState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    monkeypatch.setattr(serving, "ServingState", RecordingState)
    timeline_json = tmp / "timeline.json"
    served = tmp / "served.ckpt"
    assert main([
        "serve", "--checkpoint", str(ckpt), "--stream", str(data),
        "--np", "2", "--prune-batch", "10", "--cache-size", "10",
        "--steps", "8", "--batch", "8", "--budget", "4",
        "--timeline", str(timeline_json), "--out", str(served),
    ]) == 0
    (state,) = states
    mbar = load_checkpoint(served)
    assert mbar.n_blocks == net.n_blocks - 2
    rows = [r for r in json.loads(timeline_json.read_text()) if r["model"] == "Mbar"]
    assert rows
    inputs, _ = load_samples(data)
    x = inputs[[r["index"] for r in rows]]
    logits, _ = forward(mbar, x)  # no skip set
    expected, _ = forward(state.student, x, state.decision.pruned)
    assert np.array_equal(logits, expected)
    assert np.argmax(logits, axis=1).tolist() == [r["predicted_class"] for r in rows]


def test_distill_out_is_the_compact_student(workspace):
    tmp, net, ckpt, data = workspace
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [2]}))
    out = tmp / "tuned.ckpt"
    assert main([
        "distill", "--student", str(ckpt), "--decision", str(decision),
        "--teacher", str(ckpt), "--samples", str(data), "--steps", "6",
        "--batch", "8", "--out", str(out),
    ]) == 0
    inputs, _ = load_samples(data)
    config = DistillConfig(steps=6, batch_size=8, seed=0)
    student, _ = distill(clone_network(net), {2}, build_cache(net, inputs), config)
    assert out.read_bytes() == checkpoint_bytes(compact(student, {2}))
    assert load_checkpoint(out).n_blocks == net.n_blocks - 1


def test_cached_and_live_distill_write_the_same_student(workspace):
    tmp, net, ckpt, data = workspace
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [2]}))
    steps, batch = 5, 8
    written = {}
    for mode in ("cached", "live"):
        out, report = tmp / f"{mode}.ckpt", tmp / f"{mode}.json"
        assert main([
            "distill", "--student", str(ckpt), "--decision", str(decision),
            "--teacher", str(ckpt), "--samples", str(data), "--mode", mode,
            "--steps", str(steps), "--batch", str(batch), "--seed", "3",
            "--out", str(out), "--report", str(report),
        ]) == 0
        assert load_checkpoint(out).n_blocks == net.n_blocks - 1
        written[mode] = out.read_bytes(), json.loads(report.read_text())
    assert written["cached"][0] == written["live"][0]
    assert written["cached"][0] != checkpoint_bytes(compact(net, {2}))  # the steps trained it
    assert written["live"][1]["teacher_query_count"] == steps * batch
    assert written["cached"][1]["teacher_query_count"] == 0


def test_oracle_prune_via_saved_cache(workspace):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)])
    decision_json = tmp / "d0.json"
    main(["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
          "--np", "1", "--samples", str(data), "--out", str(decision_json)])
    cache_bin = tmp / "cache.bin"
    assert main([
        "distill", "--student", str(ckpt), "--decision", str(decision_json),
        "--teacher", str(ckpt), "--samples", str(data), "--steps", "2",
        "--batch", "8", "--save-cache", str(cache_bin),
        "--out", str(tmp / "x.ckpt"),
    ]) == 0
    oracle_json = tmp / "oracle.json"
    assert main([
        "prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
        "--method", "oracle", "--np", "1", "--prune-batch", "16",
        "--samples", str(data), "--cache", str(cache_bin), "--k-steps", "4",
        "--out", str(oracle_json),
    ]) == 0
    decision = json.loads(oracle_json.read_text())
    assert decision["method"] == "oracle" and len(decision["pruned"]) == 1


def test_distill_rejects_cache_from_another_teacher(workspace, capsys):
    tmp, net, ckpt, data = workspace
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [1]}))
    cache_bin = tmp / "cache.bin"
    base = ["distill", "--student", str(ckpt), "--decision", str(decision),
            "--steps", "2", "--batch", "8", "--out", str(tmp / "x.ckpt")]
    assert main(base + ["--teacher", str(ckpt), "--samples", str(data),
                        "--save-cache", str(cache_bin)]) == 0
    assert main(base + ["--cache", str(cache_bin), "--teacher", str(ckpt)]) == 0
    other = tmp / "other.ckpt"
    save_checkpoint(random_network(6, 6, 3, 3, seed=1), other)
    capsys.readouterr()
    assert main(base + ["--cache", str(cache_bin), "--teacher", str(other)]) == 2
    err = capsys.readouterr().err
    assert "kind=data" in err and "fingerprint" in err


@pytest.mark.parametrize("change", [
    {"mode": "bogus"},
    {"T": float("nan")},
    {"T": float("inf")},
    {"per_block": [{"block_id": j, "latency": float("nan")} for j in (1, 2, 3)]},
])
def test_prune_rejects_malformed_profile(workspace, capsys, change):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)]) == 0
    payload = json.loads(profile_json.read_text())
    payload.update(change)
    profile_json.write_text(json.dumps(payload))  # NaN and Infinity, as Python's json writes them
    capsys.readouterr()
    code = main(["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
                 "--np", "1", "--prune-batch", "16", "--samples", str(data),
                 "--out", str(tmp / "decision.json")])
    assert code == 2
    assert "kind=data" in capsys.readouterr().err
    assert not (tmp / "decision.json").exists()


def test_live_mode_requires_teacher(workspace, capsys):
    tmp, net, ckpt, data = workspace
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [1]}))
    code = main([
        "distill", "--student", str(ckpt), "--decision", str(decision),
        "--mode", "live", "--steps", "2", "--out", str(tmp / "x.ckpt"),
    ])
    assert code == 2
    assert 'kind=data' in capsys.readouterr().err


def test_missing_checkpoint_exits_2(workspace, capsys):
    tmp, _, _, _ = workspace
    code = main(["profile", "--checkpoint", str(tmp / "nope.ckpt"),
                 "--out", str(tmp / "p.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # single-line diagnostic


def test_numeric_failure_exits_3(workspace, capsys):
    tmp, net, ckpt, data = workspace
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [1]}))
    labels = np.full((4, 6), np.inf)
    cache = tmp / "cache.bin"
    save_cache_file(cache, np.zeros((4, 6)), labels, 0)
    code = main([
        "distill", "--student", str(ckpt), "--decision", str(decision),
        "--cache", str(cache), "--steps", "3", "--batch", "4",
        "--out", str(tmp / "out.ckpt"),
    ])
    assert code == 3
    assert "kind=numeric" in capsys.readouterr().err
    assert not (tmp / "out.ckpt").exists() and not (tmp / "distill_config.json").exists()


def test_prune_nan_sample_exits_3(workspace, capsys):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)]) == 0
    inputs, labels = load_samples(data)
    inputs[5, 2] = np.nan
    save_samples(data, inputs, labels)
    capsys.readouterr()
    code = main(["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
                 "--np", "1", "--prune-batch", "16", "--samples", str(data),
                 "--out", str(tmp / "decision.json")])
    assert code == 3
    assert "kind=numeric" in capsys.readouterr().err
    assert not (tmp / "decision.json").exists()


@pytest.mark.parametrize("method", ["proposed", "oracle"])
def test_prune_latency_above_T_exits_3_before_any_pass(workspace, capsys, method):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)]) == 0
    payload = json.loads(profile_json.read_text())
    payload["per_block"][1]["latency"] = 1.005 * payload["T"]
    profile_json.write_text(json.dumps(payload))
    cache = tmp / "cache.bin"
    build_cache(net, load_samples(data)[0]).save(cache)
    capsys.readouterr()
    network.op_counter.reset()
    oracle_cache = ["--cache", str(cache)] if method == "oracle" else []
    code = main(["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
                 "--method", method, *oracle_cache, "--np", "1",
                 "--prune-batch", "16", "--samples", str(data),
                 "--out", str(tmp / "decision.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "kind=numeric" in err and "block 2 has latency saving" in err
    assert network.op_counter.forward_passes == network.op_counter.backward_passes == 0
    assert not (tmp / "decision.json").exists() and not (tmp / "prune_config.json").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_serve_numeric_failure_exits_3(workspace, capsys):
    tmp, net, ckpt, data = workspace
    code = main([
        "serve", "--checkpoint", str(ckpt), "--stream", str(data),
        "--np", "1", "--prune-batch", "10", "--cache-size", "10",
        "--steps", "8", "--batch", "8", "--lr", "1e300",
        "--timeline", str(tmp / "timeline.json"), "--out", str(tmp / "served.ckpt"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "kind=numeric" in err and "all 120 samples were answered" in err
    assert len(json.loads((tmp / "timeline.json").read_text())) == 120
    assert not (tmp / "served.ckpt").exists() and not (tmp / "serve_config.json").exists()


def test_failed_serve_still_writes_every_answer(workspace, capsys):
    # 100 rows cannot seed a prune batch of 64 and a cache of 64: the run
    # fails, but every sample was answered and the answers are its output.
    tmp, net, ckpt, data = workspace
    inputs, labels = load_samples(data)
    short = tmp / "short.bin"
    save_samples(short, inputs[:100], labels[:100])
    config = serving.ServeConfig(n_p=1, prune_batch_size=64, cache_size=64)
    with pytest.raises(PartialRunError) as caught:
        serving.serve(zip(inputs[:100], labels[:100].tolist()), net, config, 1)
    timeline = tmp / "timeline.json"
    capsys.readouterr()
    assert main(["serve", "--checkpoint", str(ckpt), "--stream", str(short), "--np", "1",
                 "--prune-batch", "64", "--cache-size", "64",
                 "--timeline", str(timeline), "--out", str(tmp / "served.ckpt")]) == 2
    assert "stream exhausted after 100 samples" in _one_data_error_line(capsys)
    rows = json.loads(timeline.read_text())
    assert len(rows) == 100 and rows == caught.value.timeline.to_rows()
    assert not (tmp / "served.ckpt").exists() and not (tmp / "serve_config.json").exists()


def test_seed_env_override(workspace, monkeypatch):
    tmp, net, ckpt, data = workspace
    out_a = tmp / "a.json"
    out_b = tmp / "b.json"
    out_c = tmp / "c.json"
    profile_json = tmp / "profile.json"
    main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)])
    base = ["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
            "--method", "random", "--np", "1"]
    assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
    monkeypatch.setenv("LATECUT_SEED", "2")
    assert main(base + ["--seed", "1", "--out", str(out_b)]) == 0
    monkeypatch.delenv("LATECUT_SEED")
    assert main(base + ["--seed", "2", "--out", str(out_c)]) == 0
    assert json.loads(out_b.read_text()) == json.loads(out_c.read_text())
    assert json.loads(out_a.read_text())["pruned"] != json.loads(out_b.read_text())["pruned"]


def test_logged_config_shows_the_seed_that_ran(workspace, monkeypatch, capsys):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)])
    base = ["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
            "--method", "random", "--np", "1"]
    assert main(base + ["--seed", "5", "--out", str(tmp / "a.json")]) == 0
    monkeypatch.setenv("LATECUT_SEED", "5")
    assert main(base + ["--seed", "0", "--out", str(tmp / "b.json")]) == 0
    assert json.loads((tmp / "prune_config.json").read_text())["seed"] == 5
    assert (tmp / "a.json").read_text() == (tmp / "b.json").read_text()
    # experiment logs the base config and grid that ran, not the file's seeds
    config = {"dataset": {"samples_per_split": 300, "class_sep": 2.0, "seed": 2},
              "arch": {"width": 8, "n_blocks": 2}, "prune_batch_size": 16, "cache_size": 16,
              "distill": {"steps": 2, "batch_size": 8}, "pretrain_epochs": 2, "seed": 2,
              "grid": {"method": ["random"], "seed": [2]}}
    (tmp / "exp.json").write_text(json.dumps(config))
    assert main(["experiment", "--config", str(tmp / "exp.json"), "--out", str(tmp / "exp")]) == 0
    logged = json.loads((tmp / "exp" / "experiment_config.json").read_text())
    assert logged["grid"] == {"method": ["random"], "seed": [5]}
    assert logged["base_config"]["seed"] == 5
    # The logged base config is a config file for the runs that happened.
    assert experiment_config_from_dict(logged["base_config"]) == replace(
        experiment_config_from_dict(config), seed=5)
    monkeypatch.setenv("LATECUT_SEED", "abc")
    capsys.readouterr()
    assert main(base + ["--seed", "0", "--out", str(tmp / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kind=data" in err and "LATECUT_SEED" in err
    assert not (tmp / "c.json").exists()


def _one_data_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kind=data" in err
    return err


@pytest.mark.parametrize("command", ["profile", "prune", "distill", "serve", "env"])
def test_negative_seed_exits_2_before_any_work(workspace, capsys, monkeypatch, command):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)]) == 0
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [1]}))
    out = tmp / "out.bin"
    args = {
        "profile": ["profile", "--checkpoint", str(ckpt), "--mode", "measured"],
        "prune": ["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
                  "--method", "random", "--np", "1"],
        "distill": ["distill", "--student", str(ckpt), "--decision", str(decision),
                    "--teacher", str(ckpt), "--samples", str(data)],
        "serve": ["serve", "--checkpoint", str(ckpt), "--stream", str(data),
                  "--timeline", str(tmp / "timeline.json")],
    }
    if command == "env":
        monkeypatch.setenv("LATECUT_SEED", "-3")
        argv = args["prune"]
    else:
        argv = args[command] + ["--seed", "-1"]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    name = "LATECUT_SEED" if command == "env" else "seed"
    assert f"{name} must be an integer >= 0" in _one_data_error_line(capsys)
    assert not out.exists() and not (tmp / "timeline.json").exists()


@pytest.mark.parametrize("pruned", ["12", [1.7], [True]], ids=["string", "float", "bool"])
def test_decision_file_pruned_must_be_a_list_of_ints(workspace, capsys, pruned):
    tmp, net, ckpt, data = workspace
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": pruned}))
    out = tmp / "student.ckpt"
    capsys.readouterr()
    assert main(["distill", "--student", str(ckpt), "--decision", str(decision),
                 "--teacher", str(ckpt), "--samples", str(data), "--out", str(out)]) == 2
    assert "pruned" in _one_data_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"seed": -1}, "seed must be"),
    ({"dataset": {"seed": -2}}, "DatasetSpec.seed"),
    ({"dataset": {"shift": {"kind": "scaling", "severity": float("nan")}}}, "severity"),
    ({"dataset": {"class_sep": float("inf")}}, "class_sep"),
    # JSON true is no real number: it would run as 1.0 and be logged as true.
    ({"dataset": {"shift": {"kind": "scaling", "severity": True}}}, "shift severity must be"),
    ({"dataset": {"class_sep": True}}, "class_sep must be a finite real >= 0"),
    ({"dataset": {"noise_sigma": True}}, "noise_sigma must be a finite real >= 0"),
    ({"distill": {"lr0": True}}, "lr0 must be a finite real > 0"),
    ({"distill": {"lr0": "0.1"}}, "lr0 must be a finite real > 0"),
    ({"distill": {"lr0": 0}}, "lr0 must be a finite real > 0"),
    ({"dataset": {"shift": {"kind": "blur"}}}, "unknown shift kind 'blur'"),
    ({"arch": {"width": 0, "n_blocks": 2}}, "arch"),
    ({"arch": {"width": 8, "n_blocks": 2, "widht": 3}}, "widht"),  # pretraining would ignore it
    ({"pretrain_epochs": -1}, "pretrain_epochs"),
    # A grid is checked whole: its valid first entry must not start work either.
    ({"grid": {"method": ["proposed", "bogus"]}}, "bogus"),
    ({"grid": {"seed": [2, -1]}}, "seed must be"),
    ({"grid": {"n_p": [1, 5]}}, "n_p must be an integer within 0..4"),  # the default arch
    ({"grid": {"cache_size": [16, 1990]}}, "samples_per_split=2000"),
    ({"grid": {"distill_mode": ["cached", "lived"]}}, "lived"),
    ({"grid": {"pf_source": ["test", "val"]}}, "val"),
    # An empty axis would run nothing; an old or unknown key names the six axes.
    ({"grid": {"seed": []}}, "grid.seed must not be empty"),
    ({"grid": {"method": []}}, "grid.method must not be empty"),
    ({"grid": {"methods": ["proposed"]}}, "unknown grid keys ['methods']; choose from "
                                          "['seed', 'n_p', 'cache_size', 'distill_mode', "
                                          "'pf_source', 'method']"),
    # Each level of the schema must have its JSON type.
    ([{"seed": 0}], "experiment config must be a JSON object"),
    ({"grid": ["proposed"]}, "grid must be a JSON object"),
    ({"dataset": [["seed", 1]]}, "dataset must be a JSON object"),
    ({"dataset": {"shift": "scaling"}}, "dataset.shift must be a JSON object"),
    ({"grid": {"seed": 3}}, "grid.seed must be a JSON list"),
    ({"grid": {"method": "proposed"}}, "grid.method must be a JSON list"),  # not p, r, o, ...
    ({"grid": {"n_p": 1}}, "grid.n_p must be a JSON list"),
    # Integer settings must be integers, and every range is checked up front.
    ({"grid": {"seed": ["0"]}}, "ExperimentConfig.seed"),
    ({"seed": 1.5}, "ExperimentConfig.seed"),
    ({"distill": {"batch_size": 2.5}}, "DistillConfig.batch_size"),
    ({"distill": {"steps": 2.5}}, "DistillConfig.steps"),
    # The run's seed seeds distillation; distill has no seed of its own.
    ({"distill": {"seed": True}}, "distill.seed is not a setting"),
    ({"distill": {"seed": 0}}, "distill.seed is not a setting"),
    ({"distill": [["steps", 5]]}, "distill must be a JSON object"),
    ({"prune_batch_size": 0}, "prune_batch_size"),
    ({"cache_size": -5}, "cache_size"),
    # The default dataset has 2000 rows a split and the default prune batch 64.
    ({"cache_size": 1990}, "samples_per_split=2000"),  # more than the PF source holds
    ({"cache_size": 1936}, "samples_per_split=2000"),  # no held-out test rows left
    # A derived size is checked before pretraining too: pooled labels size the
    # cache at the default model's 2499 parameters.
    ({"feature_source": "pooled", "pretrain_epochs": 300}, "= 2563 samples"),
    ({"kappa": -1}, "kappa"),  # no setting: cache_size or the sizing rule sizes the cache
    ({"method": "oracle", "oracle_k_steps": 0}, "oracle_k_steps"),
], ids=["seed", "dataset_seed", "severity_nan", "class_sep_inf", "severity_bool", "class_sep_bool",
        "noise_sigma_bool", "lr0_bool", "lr0_string", "lr0_0", "shift_kind", "arch_width_0",
        "arch_typo",
        "pretrain_epochs", "grid_method", "grid_seed", "grid_n_p", "grid_cache_size",
        "grid_distill_mode", "grid_pf_source", "grid_seed_empty", "grid_method_empty",
        "grid_old_key", "config_list", "grid_list", "dataset_list", "shift_string",
        "grid_seeds_int", "grid_methods_string", "grid_n_p_values_int", "grid_seed_string",
        "seed_float", "distill_batch_size_float", "distill_steps_float", "distill_seed_bool",
        "distill_seed", "distill_list",
        "prune_batch_size_0", "cache_size_negative", "cache_size_above_pf_source",
        "cache_size_no_held_out", "derived_cache_size_no_held_out", "kappa_negative",
        "oracle_k_steps_0"])
def test_bad_experiment_config_exits_2_before_pretraining(workspace, capsys, monkeypatch,
                                                          payload, message):
    from latecut import experiment

    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretrained a source model for an invalid config")

    monkeypatch.setattr(experiment, "pretrain_source", no_pretraining)
    tmp, net, ckpt, data = workspace
    config = tmp / "exp.json"
    config.write_text(json.dumps(payload))  # NaN and Infinity are JSON extensions json reads
    capsys.readouterr()
    assert main(["experiment", "--config", str(config), "--out", str(tmp / "exp")]) == 2
    assert message in _one_data_error_line(capsys)
    assert not (tmp / "exp").exists()


@pytest.mark.parametrize("prune_batch", ["-5", "0", "121"])
def test_prune_batch_outside_sample_count_exits_2(workspace, capsys, prune_batch):
    # Below 1 is refused as the flag is settled, above the sample count
    # once the samples are read.
    message = "1..120" if prune_batch == "121" else "--prune-batch must be an integer >= 1"
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)]) == 0
    capsys.readouterr()
    code = main(["prune", "--checkpoint", str(ckpt), "--profile", str(profile_json),
                 "--np", "1", "--prune-batch", prune_batch, "--samples", str(data),
                 "--out", str(tmp / "decision.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kind=data" in err and message in err
    assert not (tmp / "decision.json").exists()


@pytest.mark.parametrize("command", ["distill", "serve"])
@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_nonfinite_lr_exits_2_before_any_step(workspace, capsys, command, lr):
    tmp, net, ckpt, data = workspace
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [1]}))
    args = {
        "distill": ["distill", "--student", str(ckpt), "--decision", str(decision),
                    "--teacher", str(ckpt), "--samples", str(data)],
        "serve": ["serve", "--checkpoint", str(ckpt), "--stream", str(data),
                  "--timeline", str(tmp / "timeline.json")],
    }[command]
    assert main(args + ["--lr", lr, "--out", str(tmp / "out.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kind=data" in err and "lr0" in err
    assert not (tmp / "out.ckpt").exists()


def test_resolved_config_logged(workspace):
    tmp, net, ckpt, data = workspace
    out = tmp / "new" / "dir" / "profile.json"  # the output creates its directory
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["profile.json", "profile_config.json"]
    logged = json.loads((out.parent / "profile_config.json").read_text())
    assert logged["checkpoint"] == str(ckpt)
    assert logged["mode"] == "modeled"


def test_output_dir_overrides_where_the_config_is_logged(workspace):
    tmp, net, ckpt, data = workspace
    logs = tmp / "logs"
    assert main(["--output-dir", str(logs), "profile", "--checkpoint", str(ckpt),
                 "--out", str(tmp / "profile.json")]) == 0
    assert json.loads((logs / "profile_config.json").read_text())["output_dir"] == str(logs)
    assert not (tmp / "profile_config.json").exists()


@pytest.mark.parametrize("case", [
    # checked by the library once the work has begun
    "prune_np_9", "prune_oracle_k_steps_0", "profile_measured_runs_1",
    "distill_block_99", "prune_profile_of_another_network",
    # checked by the command before the library runs
    "profile_batch_0", "serve_np_9", "serve_np_9_before_the_stream", "serve_arrivals_per_tick_0",
    "prune_without_samples", "prune_oracle_without_cache", "prune_oracle_cache_of_another_teacher",
    "distill_cached_without_labels", "distill_live_save_cache", "distill_live_cache",
    "distill_cache_and_samples", "prune_random_samples", "prune_random_prune_batch_0",
    "prune_proposed_cache", "prune_proposed_k_steps",
    "prune_profile_without_per_block", "prune_profile_T_not_a_number",
    "prune_profile_extra_float_block_id", "prune_profile_float_and_bool_block_ids",
    "prune_profile_duplicate_block_id", "prune_profile_latency_bool",
    "prune_profile_nonpositive_latency_negative", "prune_profile_nonpositive_latency_zero",
    "report_malformed", "report_empty_tree",
])
def test_invalid_run_writes_nothing(workspace, capsys, case):
    tmp, net, ckpt, data = workspace
    profile_json = tmp / "profile.json"
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(profile_json)]) == 0
    cache = tmp / "cache.bin"
    build_cache(net, load_samples(data)[0]).save(cache)
    other_cache = tmp / "other_cache.bin"
    build_cache(random_network(6, 6, 3, 3, seed=1), load_samples(data)[0]).save(other_cache)
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [99]}))
    malformed = tmp / "malformed"
    malformed.mkdir()
    (malformed / "report_000.json").write_text(json.dumps({"method": "proposed"}))
    empty = tmp / "empty"
    empty.mkdir()
    no_per_block = tmp / "no_per_block.json"
    no_per_block.write_text(json.dumps({"mode": "modeled", "T": 1.0}))
    t_not_a_number = tmp / "t_not_a_number.json"
    t_not_a_number.write_text(json.dumps({**json.loads(profile_json.read_text()), "T": "fast"}))
    # Coerced, each of these would read as another profile: 1.9 would
    # replace block 1's row, 1.7 and true would collapse into block 1, and
    # a latency of true would read as 1.0.
    bad_profiles = {}
    for name, edit in {
        "extra_float_block_id": lambda p, rows: rows + [{"block_id": 1.9, "latency": 0.5 * p["T"]}],
        "float_and_bool_block_ids": lambda p, rows: [dict(rows[0], block_id=1.7),
                                                     dict(rows[1], block_id=True)] + rows[2:],
        "duplicate_block_id": lambda p, rows: rows + rows[:1],
        "latency_bool": lambda p, rows: [dict(rows[0], latency=True)] + rows[1:],
    }.items():
        payload = json.loads(profile_json.read_text())
        payload["per_block"] = edit(payload, payload["per_block"])
        bad_profiles[name] = tmp / f"{name}.json"
        bad_profiles[name].write_text(json.dumps(payload))
    # Read as given, a latency of -1.0 or 0.0 would be a saving of at least
    # the whole network's cost, ranking block 3 first.
    nonpositive = {}
    for name, latency in {"negative": -1.0, "zero": 0.0}.items():
        payload = json.loads(profile_json.read_text())
        payload["per_block"][2]["latency"] = latency
        nonpositive[name] = tmp / f"nonpositive_{name}.json"
        nonpositive[name].write_text(json.dumps(payload))
    # Rows for blocks 9 and -2 (one slower than T): written for another network.
    foreign = json.loads(profile_json.read_text())
    foreign["per_block"] += [{"block_id": 9, "latency": 1.0}, {"block_id": -2, "latency": 1e9}]
    foreign_profile = tmp / "foreign.json"
    foreign_profile.write_text(json.dumps(foreign))
    out = tmp / "out"

    def prune_with(profile):
        return ["prune", "--checkpoint", str(ckpt), "--profile", str(profile),
                "--np", "1", "--prune-batch", "16"]

    prune = prune_with(profile_json)
    samples = ["--samples", str(data)]
    distill = ["distill", "--student", str(ckpt), "--decision", str(decision)]
    serve = ["serve", "--checkpoint", str(ckpt), "--stream", str(data),
             "--timeline", str(out / "timeline.json")]
    argv, message = {
        "prune_np_9": (prune + samples + ["--np", "9"], "n_p must be an integer within 0..3"),
        "prune_oracle_k_steps_0": (prune + samples + ["--method", "oracle", "--cache", str(cache),
                                                      "--k-steps", "0"],
                                   "k_steps must be an integer >= 1"),
        "profile_batch_0": (["profile", "--checkpoint", str(ckpt), "--batch", "0"],
                            "--batch must be an integer >= 1"),
        "profile_measured_runs_1": (["profile", "--checkpoint", str(ckpt), "--mode", "measured",
                                     "--runs", "1"], "timed_runs must be an integer >= 3"),
        "distill_block_99": (distill + ["--teacher", str(ckpt)] + samples,
                             "block id 99 outside 1..3"),
        "serve_np_9": (serve + ["--np", "9"], "n_p must be an integer within 0..3"),
        # n_p is checked against the checkpoint before the stream is read
        "serve_np_9_before_the_stream": (
            ["serve", "--checkpoint", str(ckpt), "--stream", str(tmp / "nonexistent.bin"),
             "--timeline", str(out / "timeline.json"), "--np", "9"],
            "n_p must be an integer within 0..3"),
        "serve_arrivals_per_tick_0": (serve + ["--arrivals-per-tick", "0"],
                                      "--arrivals-per-tick must be an integer >= 1"),
        "prune_profile_of_another_network": (prune_with(foreign_profile) + samples,
                                             "not exactly 1..3"),
        "prune_without_samples": (prune, "needs --samples"),
        "prune_oracle_without_cache": (prune + samples + ["--method", "oracle"], "needs --cache"),
        "prune_oracle_cache_of_another_teacher": (
            prune + samples + ["--method", "oracle", "--cache", str(other_cache)],
            "was built from teacher fingerprint"),
        "distill_cached_without_labels": (distill + ["--teacher", str(ckpt)],
                                          "cached mode needs --cache"),
        # live mode would ignore either flag: write no cache, read none
        "distill_live_save_cache": (distill + ["--teacher", str(ckpt), "--mode", "live",
                                               "--save-cache", str(out / "cache.bin")] + samples,
                                    "apply only to cached mode"),
        "distill_live_cache": (distill + ["--teacher", str(ckpt), "--mode", "live",
                                          "--cache", str(tmp / "nonexistent.bin")] + samples,
                               "apply only to cached mode"),
        # Each flag below would be ignored, so neither named file need exist.
        "distill_cache_and_samples": (distill + ["--cache", str(tmp / "nonexistent.bin"),
                                                 "--samples", str(tmp / "nonexistent2.bin")],
                                      "--samples does not apply"),
        "prune_random_samples": (prune + ["--method", "random", "--samples",
                                          str(tmp / "nonexistent.bin")],
                                 "method 'random' does not read --samples"),
        # random reads no prune batch, so it checks no value of the flag
        "prune_random_prune_batch_0": (prune + ["--method", "random", "--prune-batch", "0"],
                                       "method 'random' does not read --prune-batch"),
        "prune_proposed_cache": (prune + samples + ["--cache", str(tmp / "nonexistent.bin")],
                                 "method 'proposed' does not read --cache"),
        "prune_proposed_k_steps": (prune + samples + ["--k-steps", "5"],
                                   "method 'proposed' does not read --k-steps"),
        "prune_profile_without_per_block": (prune_with(no_per_block) + samples,
                                            "malformed profile payload"),
        "prune_profile_T_not_a_number": (prune_with(t_not_a_number) + samples,
                                         "profile T must be a finite real > 0"),
        **{f"prune_profile_{name}": (prune_with(path) + samples, "malformed profile payload")
           for name, path in bad_profiles.items() if name != "latency_bool"},
        "prune_profile_latency_bool": (prune_with(bad_profiles["latency_bool"]) + samples,
                                       "block 1 latency must be a finite real > 0 (not a bool)"),
        **{f"prune_profile_nonpositive_latency_{name}": (
            prune_with(path) + samples, "block 3 latency must be a finite real > 0")
           for name, path in nonpositive.items()},
        "report_malformed": (["report", "--results", str(malformed)], "malformed report"),
        "report_empty_tree": (["report", "--results", str(empty)], "no report JSON files"),
    }[case]
    capsys.readouterr()
    assert main(argv + ["--out", str(out / "result")]) == 2
    assert message in _one_data_error_line(capsys)
    assert not out.exists()


# Each path below is "FILE": a file that does not exist.  The profile, prune
# and distill flags are settled before any file is read, so every refusal and
# requirement is reported in place of a missing-file error.
_PRUNE = ["prune", "--checkpoint", "FILE", "--profile", "FILE", "--np", "1"]
_DISTILL = ["distill", "--student", "FILE", "--decision", "FILE"]
_PROFILE = ["profile", "--checkpoint", "FILE"]


def _prune(method, *flags):
    samples = [] if method == "random" else ["--samples", "FILE"]
    return _PRUNE + ["--method", method, *samples, *flags]


_REFUSALS = [
    (_prune("random", "--samples", "FILE"), "method 'random' does not read --samples"),
    (_prune("random", "--prune-batch", "16"), "method 'random' does not read --prune-batch"),
    *[(_prune(method, flag, value), f"method '{method}' does not read {flag}")
      for flag, value in (("--cache", "FILE"), ("--k-steps", "5"))
      for method in ("proposed", "random", "l2ratio", "curl")],
    *[(_PRUNE + ["--method", method], f"method '{method}' needs --samples")
      for method in ("proposed", "l2ratio", "curl", "oracle")],
    (_prune("oracle"), "method 'oracle' needs --cache"),
    # Counts the library would check only after the checkpoint is read
    (_PROFILE + ["--batch", "0"], "--batch must be an integer >= 1"),
    (["serve", "--checkpoint", "FILE", "--stream", "FILE", "--timeline", "FILE",
      "--arrivals-per-tick", "0"], "--arrivals-per-tick must be an integer >= 1"),
    *[(_prune(method, "--seed", "5"), f"method '{method}' does not read --seed")
      for method in ("proposed", "l2ratio", "curl")],
    *[(_prune(method, "--prune-batch", value), "--prune-batch must be an integer >= 1")
      for method, value in (("proposed", "0"), ("l2ratio", "-5"))],
    *[(_PROFILE + mode + [flag, value], "mode 'modeled' does not read " + flag)
      for mode in ([], ["--mode", "modeled"])
      for flag, value in (("--warmup", "2"), ("--runs", "20"), ("--seed", "5"))],
    (_DISTILL + ["--mode", "live", "--teacher", "FILE", "--samples", "FILE", "--cache", "FILE"],
     "apply only to cached mode"),
    (_DISTILL + ["--mode", "live", "--teacher", "FILE", "--samples", "FILE",
                 "--save-cache", "FILE"], "apply only to cached mode"),
    (_DISTILL + ["--cache", "FILE", "--samples", "FILE"], "--samples does not apply"),
    *[(_DISTILL + given, "cached mode needs --cache")
      for given in ([], ["--teacher", "FILE"], ["--samples", "FILE"])],
    *[(_DISTILL + ["--mode", "live"] + given, "live mode needs --teacher")
      for given in ([], ["--teacher", "FILE"], ["--samples", "FILE"])],
]


@pytest.mark.parametrize("argv,message", _REFUSALS, ids=[
    # "prune random --samples": the command, its method or mode and the flags given
    " ".join(a for a in argv if a not in ("FILE", "--checkpoint", "--profile", "--np", "1",
                                          "--student", "--decision", "--method", "--mode",
                                          "--stream", "--timeline"))
    for argv, _ in _REFUSALS
])
def test_flag_refusal_reads_no_file(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [str(tmp_path / f"nonexistent{i}") if a == "FILE" else a for i, a in enumerate(argv)]
    assert main(argv + ["--out", str(out / "result")]) == 2
    err = _one_data_error_line(capsys)
    assert message in err and "No such file" not in err
    assert not out.exists()


def test_experiment_and_report_roundtrip(workspace, monkeypatch, capsys):
    tmp, _, ckpt, data = workspace
    config = {
        "dataset": {
            "num_classes": 3, "input_dim": 8, "samples_per_split": 300,
            "class_sep": 2.0, "shift": {"kind": "additive_noise", "severity": 0.5},
            "seed": 1,
        },
        "arch": {"width": 8, "n_blocks": 2},
        "n_p": 1,
        "prune_batch_size": 16,
        "cache_size": 16,
        "distill": {"steps": 6, "batch_size": 8},
        "pretrain_epochs": 6,
        "seed": 1,
    }
    config_path = tmp / "exp.json"
    config_path.write_text(json.dumps(config))
    results = tmp / "results"
    assert main(["experiment", "--config", str(config_path), "--out", str(results)]) == 0
    assert (results / "experiment_config.json").exists()  # resolved config in output dir
    report = json.loads((results / "report_000.json").read_text())
    assert report["method"] == "proposed"
    csv_lines = (results / "results.csv").read_text().splitlines()
    assert csv_lines[0].split(",")[:3] == ["method", "n_p", "seed"]
    assert len(csv_lines) == 2

    # A distill report in the tree is not an experiment report.
    decision = tmp / "decision.json"
    decision.write_text(json.dumps({"pruned": [1]}))
    (results / "distill").mkdir()
    assert main(["distill", "--student", str(ckpt), "--decision", str(decision),
                 "--teacher", str(ckpt), "--samples", str(data), "--steps", "2",
                 "--out", str(results / "distill" / "student.ckpt"),
                 "--report", str(results / "distill" / "report.json")]) == 0
    table = tmp / "table.csv"
    assert main(["report", "--results", str(results), "--out", str(table)]) == 0
    assert table.read_bytes() == (results / "results.csv").read_bytes()
    assert (tmp / "report_config.json").exists()
    # A table and its log written inside the tree are not reports either.
    for _ in range(2):
        assert main(["report", "--results", str(results), "--out", str(results / "t.csv")]) == 0
    assert (results / "report_config.json").exists()
    assert (results / "t.csv").read_bytes() == table.read_bytes()

    # Printing the table writes no file, in the working directory or elsewhere.
    cwd = tmp / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    assert main(["report", "--results", str(results)]) == 0
    assert capsys.readouterr().out == table.read_text()
    assert list(cwd.iterdir()) == []

    monkeypatch.setenv("LATECUT_SEED", "abc")
    capsys.readouterr()
    assert main(["experiment", "--config", str(config_path), "--out", str(tmp / "r2")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kind=data" in err and "LATECUT_SEED" in err


def test_experiment_without_grid_is_a_grid_of_one(workspace):
    tmp, _, _, _ = workspace
    config = {"seed": 3, "pretrain_epochs": 2, "distill": {"steps": 20}, "cache_size": 32}
    reports = []
    for name, extra in [("absent", {}), ("null", {"grid": None}), ("empty", {"grid": {}})]:
        config_path = tmp / f"{name}.json"
        config_path.write_text(json.dumps({**config, **extra}))
        results = tmp / name
        assert main(["experiment", "--config", str(config_path), "--out", str(results)]) == 0
        assert sorted(p.name for p in results.glob("report*.json")) == ["report_000.json"]
        report = ExperimentReport(**json.loads((results / "report_000.json").read_text()))
        assert report.pf_normalized == 100.0  # a lone proposed run is its own baseline
        reports.append(report.deterministic_dict())
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["seed"] == 3


def test_subcommands_idempotent_in_modeled_mode(workspace):
    tmp, net, ckpt, data = workspace
    profile_a, profile_b = tmp / "pa.json", tmp / "pb.json"
    for out in (profile_a, profile_b):
        assert main(["profile", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    assert profile_a.read_bytes() == profile_b.read_bytes()
    decision_a, decision_b = tmp / "da.json", tmp / "db.json"
    for out in (decision_a, decision_b):
        assert main([
            "prune", "--checkpoint", str(ckpt), "--profile", str(profile_a),
            "--np", "1", "--prune-batch", "16", "--samples", str(data), "--out", str(out),
        ]) == 0
    assert decision_a.read_bytes() == decision_b.read_bytes()
    tuned_a, tuned_b = tmp / "ta.ckpt", tmp / "tb.ckpt"
    for out in (tuned_a, tuned_b):
        assert main([
            "distill", "--student", str(ckpt), "--decision", str(decision_a),
            "--teacher", str(ckpt), "--samples", str(data), "--steps", "6",
            "--batch", "8", "--seed", "4", "--out", str(out),
        ]) == 0
    assert tuned_a.read_bytes() == tuned_b.read_bytes()


def test_experiment_grid_runs_every_combination(workspace):
    tmp, _, _, _ = workspace
    config = {
        "dataset": {
            "num_classes": 3, "input_dim": 8, "samples_per_split": 300,
            "class_sep": 2.0, "shift": {"kind": "additive_noise", "severity": 0.5},
            "seed": 2,
        },
        "arch": {"width": 8, "n_blocks": 2},
        "n_p": 1,
        "prune_batch_size": 16,
        "cache_size": 16,
        "distill": {"steps": 5, "batch_size": 8},
        "pretrain_epochs": 5,
        "seed": 2,
        "grid": {"method": ["proposed", "random", "l2ratio"], "seed": [2],
                 "distill_mode": ["cached", "live"]},
    }
    config_path = tmp / "grid.json"
    config_path.write_text(json.dumps(config))
    results = tmp / "grid_results"
    assert main(["experiment", "--config", str(config_path), "--out", str(results)]) == 0
    rows = list(csv.DictReader(io.StringIO((results / "results.csv").read_text())))
    methods = ("proposed", "random", "l2ratio")
    assert [(row["distill_mode"], row["method"]) for row in rows] == [
        (mode, method) for mode in ("cached", "live") for method in methods]
    assert {(row["seed"], row["cache_size"], row["pf_source"]) for row in rows} == {
        ("2", "16", "test")}
    assert len(list(results.glob("report_*.json"))) == 6
    table = tmp / "grid_table.csv"
    assert main(["report", "--results", str(results), "--out", str(table)]) == 0
    # aggregates report_*.json too, into the experiment's own table
    assert table.read_bytes() == (results / "results.csv").read_bytes()


def test_seed_env_overrides_grid_seeds(workspace, monkeypatch):
    tmp, _, _, _ = workspace
    config = {
        "dataset": {
            "num_classes": 3, "input_dim": 8, "samples_per_split": 300,
            "class_sep": 2.0, "shift": {"kind": "additive_noise", "severity": 0.5},
            "seed": 2,
        },
        "arch": {"width": 8, "n_blocks": 2},
        "n_p": 1,
        "prune_batch_size": 16,
        "cache_size": 16,
        "distill": {"steps": 2, "batch_size": 8},
        "pretrain_epochs": 2,
        "seed": 2,
        "grid": {"method": ["random"], "seed": [2]},
    }
    config_path = tmp / "grid.json"
    config_path.write_text(json.dumps(config))
    results = tmp / "grid_results"
    monkeypatch.setenv("LATECUT_SEED", "5")
    assert main(["experiment", "--config", str(config_path), "--out", str(results)]) == 0
    reports = sorted(results.glob("report_*.json"))
    assert len(reports) == 1
    assert json.loads(reports[0].read_text())["seed"] == 5


def test_console_script_installed():
    # The child imports latecut from where this process does (pytest's
    # ``pythonpath`` setting reaches only this process's sys.path).
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-m", "latecut.cli", "--help"], capture_output=True, text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "profile" in result.stdout
