"""Tiny-size self-test of the benchmark.

    python3 -m pytest -q perfbench/test_selftest.py

Checks the oracles on published values and runs every workload for one
second (at least one whole pass over its inputs), untraced and traced,
asserting that every metric named in BENCHMARK.json is emitted with its unit.
"""

import json
import math
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import oracles
from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_oracle_fef_x1():
    assert oracles.fef_two_qubit(oracles.x1_matrix()) == pytest.approx(0.5, abs=1e-12)


def test_oracle_fef_y3():
    assert oracles.fef_y3(0.2) == pytest.approx(0.3, abs=1e-12)
    # The optimal rotation attains the closed form on the matrix itself.
    c = 2 * 0.2 / (3 - 7 * 0.2)
    s = math.sqrt(1 - c * c)
    u = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    psi = np.kron(np.eye(3), u) @ (np.eye(3).ravel() / math.sqrt(3))
    assert psi @ oracles.y3_matrix(0.2) @ psi == pytest.approx(0.3, abs=1e-12)


def test_oracle_labels():
    assert oracles.label(0.3, 0.8, 3) == oracles.ACTIVATABLE
    assert oracles.label(1 / 3, 1 / 3, 3) == oracles.ABSOLUTE
    assert oracles.label(0.6, 0.6, 2) == oracles.USEFUL


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    if trace and workload == "spectral":
        assert result["metrics"]["fef.fef.calls"]["value"] == 0


def test_fails_without_the_library():
    """A directory holding only BENCHMARK.json and the benchmark gives no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
