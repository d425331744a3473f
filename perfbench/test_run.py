"""Smoke test of the benchmark itself: the n=5 ``smoke`` workload runs every
command, every gate and the tracer in a few seconds.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from run import REPEATS
from workloads import WORKLOADS, write_ballots

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(root: Path, trace: int, seconds: int = 5) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", "smoke", "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_and_passes_every_gate(trace):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failed_gates"]
    # the first pass runs whole; later ones may stop part way
    assert 1 <= len(record["samples"]["analyze"]) <= record["passes"]
    assert len(record["samples"]["project"]) >= (1 if trace else REPEATS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace:
        assert record["passes"] == 1
        # import, wrapping, cli.main and the tracer's own tail cover each
        # traced process's wall time, less interpreter start and exit
        for command in record["spans"].values():
            assert 0 < command["unaccounted_s"] < 0.4, command


def test_inputs_follow_the_seed(tmp_path):
    w = WORKLOADS["n9_sparse"]
    texts = []
    for seed in (5, 5, 6):
        path = tmp_path / f"{seed}.txt"
        rng = np.random.default_rng(seed)
        stats = write_ballots(path, w.make_ballots(w.n, rng), w.n, rng)
        texts.append(path.read_text())
    assert texts[0] == texts[1] != texts[2]
    assert stats["lines"] == 2000


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0, seconds=1)
    assert proc.returncode != 0
    assert proc.stdout == ""
