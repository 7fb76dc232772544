"""Each workload end to end at a tiny scale, traced and untraced.

Slow (a few world builds): run with ``python -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


def _run(cwd: Path, *args: str, scale: str = "0.002") -> subprocess.CompletedProcess:
    env = dict(os.environ, PERFBENCH_SCALE=scale)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", ["reproduce", "serve", "track"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_and_checks(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (name, unit) for name, unit, _ in expected
    ]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    leftovers = [p.name for p in (BENCH_DIR / "out").glob("run-*")]
    assert leftovers == []


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", "reproduce", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_mirrors_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    import workloads

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_server_is_stopped_when_the_client_fails(tmp_path, monkeypatch):
    import serveclient
    from harness import spawn

    started = []

    def fake_server(npz, log_path):
        proc = spawn([sys.executable, "-c", "import time; time.sleep(120)"])
        started.append(proc)
        return proc

    monkeypatch.setattr(serveclient, "start_server", fake_server)
    with pytest.raises(FileNotFoundError):
        serveclient.run({"npz": str(tmp_path / "missing.npz"), "seed": 1,
                         "seconds": 1, "trace": 0,
                         "server_log": str(tmp_path / "log")}, 0.0)
    assert started and started[0].poll() is not None
