"""``scripts/model_digests.py`` runs against this checkout and finds M
bitwise equal after a checkpoint round trip, and the offline and serving
pipelines' Mbar bitwise equal, serving one arrival or a burst per tick,
at both benchmark workload shapes and on seeds 0 and 7; its ``--expect``
comparison names every field that differs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# Serving labels its cache with batch-1 forwards, the offline pipeline in
# one batched pass, so equal Mbar digests show that row answers equal
# batched ones end to end.  Seed 7 is the benchmark's held-out seed.
@pytest.mark.parametrize("workload, seed", [
    pytest.param("stream-burst", 0, id="stream-burst"),
    pytest.param("offline-pf", 0, id="offline-pf"),
    pytest.param("stream-burst", 7, id="stream-burst-seed7"),
    pytest.param("offline-pf", 7, id="offline-pf-seed7"),
])
def test_offline_and_serving_mbar_digests_agree(workload, seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "model_digests.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=300, env=env, check=False,
    )
    assert result.returncode == 0, result.stderr
    digests = json.loads(result.stdout)
    assert digests["M_loaded"] == digests["M"]
    assert digests["offline_mbar"] == digests["serving_mbar"] != digests["M"]
    assert digests["serving_mbar_burst"] == digests["serving_mbar"]
    assert 0.0 < digests["mbar_heldout_accuracy"] <= 1.0


def _script(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location(
        "model_digests", ROOT / "scripts" / "model_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expect_names_each_differing_field(monkeypatch):
    differing_fields = _script(monkeypatch).differing_fields
    digests = {"workload": "offline-pf", "seed": 0, "M": "79c211d6633c02c9",
               "M_loaded": "79c211d6633c02c9", "offline_mbar": "1e0eea8db0ce1b75",
               "serving_mbar": "1e0eea8db0ce1b75", "mbar_heldout_accuracy": 0.98}
    assert differing_fields(dict(digests), digests) == []
    changed = dict(digests, seed=7, offline_mbar="0" * 16, mbar_heldout_accuracy=0.97)
    assert differing_fields(changed, digests) == ["seed", "offline_mbar",
                                                  "mbar_heldout_accuracy"]
    # A field the expected line has and this run lacks differs too.
    assert differing_fields(dict(digests, extra=1), digests) == ["extra"]
