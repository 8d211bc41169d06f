"""The benchmark's own tests: schema of every result line, exact per-layer
counts, self-time accounting, refusal outside a checkout.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layers import EXACT  # noqa: E402
from tracer import Tracer  # noqa: E402


def _smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    status = [ln for ln in lines if ln.startswith("smoke ")]
    results = [json.loads(ln) for ln in lines if ln.startswith("{")]
    return proc, status, results


def test_smoke_runs_every_workload_with_a_valid_schema():
    proc, status, results = _smoke()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(status) == 6 and all(s.endswith(": ok") for s in status), status
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_exact_counts_repeat_between_traced_runs():
    runs = []
    for _ in range(2):
        proc, _, results = _smoke()
        assert proc.returncode == 0
        traced = [r for r in results if "graph.backward.calls" in r["metrics"]]
        runs.append([{k: r["metrics"][k]["value"] for k in EXACT} for r in traced])
    assert len(runs[0]) == 3
    assert runs[0] == runs[1]


class _Work:
    def leaf(self):
        time.sleep(0.002)

    def mid(self):
        self.leaf()
        time.sleep(0.001)
        self.leaf()


def test_self_times_tile_the_root_spans():
    leaf = _Work.__dict__["leaf"]
    tracer = Tracer()
    with tracer:
        tracer.wrap(_Work, "leaf", "leaf")
        tracer.wrap(_Work, "mid", "mid")
        t0 = time.perf_counter()
        _Work().mid()
        wall = time.perf_counter() - t0
    assert _Work.__dict__["leaf"] is leaf  # originals restored
    assert tracer.calls("leaf") == 2 and tracer.calls("mid") == 1
    assert abs(tracer.self_sum() - tracer.root_s) < 1e-9
    assert tracer.root_s <= wall
    assert abs(tracer.self_time("mid") - (tracer.total("mid") - tracer.total("leaf"))) < 1e-9
    assert tracer.self_time("mid") >= 0.001


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hvac-study", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
