"""Benchmark of the mtnn library: study training, closed-loop MPC, bulk rollout.

    python3 perfbench/run.py --workload hvac-study --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from
`src/`. One process, one thread: BLAS is pinned to a single thread before
numpy loads. A run
  1. sets the workload up (data generation, set-up training, warm-up),
     several times when that is cheap, and reports the median as setup_s;
  2. with --trace 0, runs measured passes for about --seconds and reports
     the end-to-end metrics;
  3. with --trace 1, alternates untraced and traced runs of pass 0 and
     reports per-layer metrics per pass from the traced ones.
Human-readable lines go first; the last line of stdout is one JSON object.
With --smoke every workload runs at a tiny size in both modes and only the
output schema is checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3  # set-ups per run at most ...
SETUP_BUDGET_S = 4.0  # ... stopping early once they have taken this long
CONTROL_EPISODE_S = 7.0  # --seconds per control episode: three at 20 s
REFERENCE_SEED = 0
TOLERANCES = {"rel": 1e-6, "abs": 1e-4, "state": 0.05}  # see reference.json

WORKLOAD_NAMES = ("hvac-study", "tclab-control", "tclab-rollout")  # = workloads.WORKLOADS
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "r2_step5_min": "1",
}

clock = time.perf_counter


def _load_library():
    if not (SRC / "mtnn" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no library source under {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import numpy  # noqa: F401
    import mtnn.cli  # noqa: F401  (imports every layer)
    return clock() - t0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(work, seed: int, import_s: float) -> float:
    """Set up (and warm up) repeatedly; returns import time + median set-up."""
    times = []
    while len(times) < SETUP_REPEATS and (not times or sum(times) < SETUP_BUDGET_S):
        t0 = clock()
        work.setup(seed)
        work.warm_up()
        times.append(clock() - t0)
    return import_s + statistics.median(times)


def measured_passes(work, seconds: float, rec) -> int:
    """Untraced passes for about `seconds`: control runs a fixed number of
    episodes; the batch workloads stop when another pass would overrun by
    more than half of one."""
    from workloads import TclabControl

    if isinstance(work, TclabControl):
        n = max(1, round(seconds / CONTROL_EPISODE_S))
        for i in range(n):
            work.run_pass(i, rec)
        return n
    t0 = clock()
    n = 0
    while True:
        work.run_pass(n, rec)
        n += 1
        elapsed = clock() - t0
        if elapsed + 0.5 * elapsed / n > seconds:
            return n


def traced_passes(work, seconds: float, rec, traced_rec):
    """Pairs of (untraced, traced) runs of pass 0 until another pair would
    overrun; returns the tracer and both wall times."""
    from layers import install
    from tracer import Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    pairs = 0
    t0 = clock()
    while True:
        t = clock()
        work.run_pass(0, rec)
        plain_s += clock() - t
        with tracer:
            install(tracer)
            t = clock()
            work.run_pass(0, traced_rec)
            traced_s += clock() - t
        pairs += 1
        if (clock() - t0) * (pairs + 1) / pairs > seconds:
            return tracer, pairs, plain_s, traced_s


def reference_errors(work, rec, path: Path) -> list:
    """Compare pass outputs with the stored default-seed values."""
    stored = json.loads(path.read_text())["values"]
    errors = []
    for name, value, kind in work.references(rec):
        if name not in stored:
            errors.append(f"reference {name} missing from {path.name}")
            continue
        want, tol = stored[name], TOLERANCES[kind]
        off = abs(value - want) / max(abs(want), 1e-300) if kind == "rel" else abs(value - want)
        if not off <= tol:
            errors.append(f"reference {name}: {value!r} vs stored {want!r} ({kind} tol {tol})")
    return errors


def _same_outputs(a: list, b: list) -> bool:
    import numpy as np

    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        for u, v in zip(x, y):
            if not np.array_equal(np.asarray(u), np.asarray(v)):
                return False
    return True


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        import_s: float = 0.0, write_reference: bool = False) -> dict:
    from layers import PER_LAYER, accounting_errors, summarise
    from workloads import WORKLOADS, Record, Sizes

    sizes = Sizes.smoke_sizes() if smoke else Sizes()
    work = WORKLOADS[workload](sizes)
    setup_s = set_up(work, seed, import_s)
    rec = Record()
    rec.errors += work.check_inputs()
    if trace:
        traced_rec = Record()
        tracer, pairs, plain_s, traced_s = traced_passes(work, seconds, rec, traced_rec)
        values = summarise(tracer, pairs, traced_s, plain_s)
        rec.errors += accounting_errors(tracer, traced_s)
        rec.errors += traced_rec.errors
        if not _same_outputs(rec.outputs, traced_rec.outputs):
            rec.fail("traced pass outputs differ from untraced ones")
        metrics = {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}
        info = {"pairs": pairs}
    else:
        passes = measured_passes(work, seconds, rec)
        p50, p90 = rec.latency_ms()
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
            "op_ms.p50": p50,
            "op_ms.p90": p90,
            "r2_step5_min": min(rec.r2) if rec.r2 else float("nan"),
        }
        metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
        info = {"passes": passes, "named": work.named_metrics(rec)}
    ref_path = HERE / "reference.json"
    if write_reference:
        stored = json.loads(ref_path.read_text())["values"] if ref_path.exists() else {}
        stored.update({name: v for name, v, _ in work.references(rec)})
        ref = {"seed": seed, "tolerances": TOLERANCES, "values": stored}
        ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    elif seed == REFERENCE_SEED and not smoke:
        bad = reference_errors(work, rec, ref_path)
        rec.errors += bad
        rec.failed += min(len(bad), rec.ops - rec.failed)
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "data_seed": work.data_seed,
        "ops": rec.ops, "failed": rec.failed, "errors": rec.errors,
        "metrics": metrics, "info": info,
    }


def result_line(res: dict) -> dict:
    ok = res["failed"] == 0 and not res["errors"] and all(
        math.isfinite(v) for v, _ in res["metrics"].values()
    )
    return {
        "correct": ok,
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }


def report(res: dict, env: dict) -> None:
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {res['workload']} seed {res['seed']} (data seed {res['data_seed']}) "
          f"trace {res['trace']} ops {res['ops']} ops_failed {res['failed']} "
          + " ".join(f"{k}={v}" for k, v in res["info"].items()
                     if k != "named"))
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in res["info"].get("named", {}).items():
        print(f"  [{res['workload']}] {name} = {value:.6g} {unit}")
    for err in res["errors"]:
        print(f"  CHECK FAILED: {err}")


def validate(line: dict, trace: bool, spec: dict) -> list:
    """Problems with one result line against BENCHMARK.json's metric lists."""
    from layers import PER_LAYER

    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if not (isinstance(line.get("attempted"), int) and line["attempted"] >= 1):
        problems.append("attempted must be an integer >= 1")
    if not isinstance(line.get("failed"), int):
        problems.append("failed must be an integer")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    own = PER_LAYER if trace else END_TO_END
    want = {m["name"]: m["unit"] for m in listed}
    if want != own:
        problems.append("BENCHMARK.json metric list differs from the benchmark's")
    got = line.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(name):
            problems.append(f"metric {name}: bad entry {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name}: value {m['value']!r}")
    return problems


def smoke(import_s: float) -> int:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not names == list(WORKLOADS) == list(WORKLOAD_NAMES):
        print("smoke: BENCHMARK.json workloads differ from the benchmark's")
        return 1
    failures = 0
    for name in WORKLOADS:
        for trace in (False, True):
            t0 = clock()
            res = run(name, seed=1, seconds=0.0, trace=trace, smoke=True, import_s=import_s)
            line = result_line(res)
            problems = validate(line, trace, spec) + res["errors"]
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {name} trace={int(trace)} {clock() - t0:.1f}s: {status}")
            print(json.dumps(line, sort_keys=True))
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="default: every workload, one after the other")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size and check the output schema")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the default-seed reference")
    args = ap.parse_args(argv)
    import_s = _load_library()
    if args.smoke:
        return smoke(import_s)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    lines = {}
    for name in names:
        res = run(name, args.seed, args.seconds, bool(args.trace),
                  import_s=import_s, write_reference=args.write_reference)
        report(res, environment())
        lines[name] = result_line(res)
    print(json.dumps(lines[names[0]] if args.workload else lines, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
