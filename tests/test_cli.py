import json
import subprocess
import sys

import numpy as np
import pytest

from latecut.cli import main
from latecut.formats import load_checkpoint, save_cache_file, save_checkpoint, save_samples
from latecut.network import random_network


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


def test_resolved_config_logged(workspace):
    tmp, net, ckpt, data = workspace
    out = tmp / "runs" / "profile.json"
    out.parent.mkdir()
    assert main(["profile", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    logged = json.loads((out.parent / "profile_config.json").read_text())
    assert logged["checkpoint"] == str(ckpt)
    assert logged["mode"] == "modeled"


def test_experiment_and_report_roundtrip(workspace, monkeypatch, capsys):
    tmp, _, _, _ = workspace
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
    report = json.loads((results / "report.json").read_text())
    assert report["method"] == "proposed"
    csv_lines = (results / "results.csv").read_text().splitlines()
    assert csv_lines[0].split(",")[:3] == ["method", "n_p", "seed"]
    assert len(csv_lines) == 2

    table = tmp / "table.csv"
    assert main(["report", "--results", str(results), "--out", str(table)]) == 0
    assert table.read_bytes() == (results / "results.csv").read_bytes()

    monkeypatch.setenv("LATECUT_SEED", "abc")
    capsys.readouterr()
    assert main(["experiment", "--config", str(config_path), "--out", str(tmp / "r2")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kind=data" in err and "LATECUT_SEED" in err


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
            "--np", "1", "--prune-batch", "16", "--samples", str(data),
            "--seed", "4", "--out", str(out),
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


def test_experiment_grid_runs_compare_methods(workspace):
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
        "grid": {"methods": ["proposed", "random", "l2ratio"], "seeds": [2]},
    }
    config_path = tmp / "grid.json"
    config_path.write_text(json.dumps(config))
    results = tmp / "grid_results"
    assert main(["experiment", "--config", str(config_path), "--out", str(results)]) == 0
    csv_lines = (results / "results.csv").read_text().splitlines()
    assert len(csv_lines) == 4
    methods = [line.split(",")[0] for line in csv_lines[1:]]
    assert methods == ["proposed", "random", "l2ratio"]
    assert len(list(results.glob("report_*.json"))) == 3
    table = tmp / "grid_table.csv"
    assert main(["report", "--results", str(results), "--out", str(table)]) == 0
    # aggregates report_*.json too, into the experiment's own table
    assert table.read_bytes() == (results / "results.csv").read_bytes()


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "latecut.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "profile" in result.stdout
