"""``scripts/model_digests.py`` runs against this checkout and finds M
bitwise equal after a checkpoint round trip, and the offline and serving
pipelines' Mbar bitwise equal, at both benchmark workload shapes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["stream-burst", "offline-pf"])
def test_offline_and_serving_mbar_digests_agree(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "model_digests.py"),
         "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, timeout=300, env=env, check=False,
    )
    assert result.returncode == 0, result.stderr
    digests = json.loads(result.stdout)
    assert digests["M_loaded"] == digests["M"]
    assert digests["offline_mbar"] == digests["serving_mbar"] != digests["M"]
    assert 0.0 < digests["mbar_heldout_accuracy"] <= 1.0
