"""Acceptance gate: nine build criteria, one test and one printed verdict
line each. Run with `pytest tests/test_acceptance.py -v -s` to see the
lines; the whole file takes about a minute, most of it in the 5-seed
benchmark study shared by the ordering criteria."""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mtnn
from mtnn import constraints as ct
from mtnn import evaluation as ev
from mtnn import graph as g
from mtnn import model as md
from mtnn import mpc as ctrl
from mtnn import net as nn
from mtnn import plants as pl
from mtnn import training as tr
import oracles


def report(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def test_criterion_1_differentiation_matches_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(100):
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(1, 4))
        width = int(rng.integers(3, 7))
        net = nn.init_dense([n_in, width, n_out], rng)
        n_params = sum(W.size for W in net.weights) + sum(b.size for b in net.biases)
        assert n_params <= 200
        z = rng.normal(size=n_in)
        worst = max(worst, rel_err(nn.input_jacobian(net, z[None])[1][:, 0],
                                   oracles.fd_input_jacobian(net, z)))
        Z = rng.normal(size=(3, n_in))
        dz = rng.normal(size=(3, n_in))

        def loss(tape):
            out, J = tape.forward_and_jacobian(Z)
            resid = out + g.bmat_vec(J, g.Var(dz))
            mse = g.sum_all(resid * resid) * (1.0 / resid.value.size)
            return mse + g.sum_all(J * J) * 0.1

        _, grad = oracles.loss_gradient(net, loss)
        fd = oracles.fd_loss_gradient(net, loss)
        for got, want in zip(grad.weights + grad.biases, fd.weights + fd.biases):
            worst = max(worst, rel_err(got, want))
    dt = time.perf_counter() - t0
    report(1, "differentiation", worst < 1e-5 and dt < 10.0,
           f"100 nets, max rel err {worst:.2e}, {dt:.1f}s")


def test_criterion_2_taylor_fixpoint_is_exact():
    rng = np.random.default_rng(7)
    orders = (md.TaylorOrder.FIRST, md.TaylorOrder.SECOND)
    gates = (md.GateMode.NONE, md.GateMode.ARCHITECTURE, md.GateMode.SOFT)
    checked = 0
    exact = True
    for i in range(100):
        nx = int(rng.integers(1, 4))
        n = nx + int(rng.integers(1, 3))
        spec = ct.MonoSpec(rng.integers(-1, 2, size=(nx, n)).astype(np.int8))
        width = int(rng.integers(3, 6))  # one per model: stacked nets share a shape
        nets = [nn.init_dense([n, width, n], rng) for _ in range(nx)]
        model = md.MtnnModel(nets, spec, order=orders[i % 2],
                             gate_mode=gates[i % 3])
        Z = rng.normal(size=(100, n)) * 10.0
        exact = exact and np.array_equal(md.predict_batch(model, Z, Z),
                                         Z[:, :nx])
        checked += len(Z)
    report(2, "taylor fixpoint", exact and checked == 10_000,
           f"{checked} (model, z) pairs, exact state equality at zero increment")


def test_criterion_3_gated_jacobians_conform_exactly():
    rng = np.random.default_rng(5)
    total = 0
    violations = 0
    for _ in range(20):
        nx = int(rng.integers(1, 4))
        n = nx + int(rng.integers(1, 3))
        tags = rng.integers(-1, 2, size=(nx, n)).astype(np.int8)
        # own-state persistence is tagged nonnegative, as in both plant
        # priors; a negative own-state tag would fight the identity term.
        for j in range(nx):
            if tags[j, j] < 0:
                tags[j, j] = 1
        spec = ct.MonoSpec(tags)
        nets = [nn.init_dense([n, 5, n], rng)
                for _ in range(nx)]
        model = md.MtnnModel(nets, spec, order=md.TaylorOrder.FIRST,
                             gate_mode=md.GateMode.ARCHITECTURE)
        Z = rng.normal(size=(500, n)) * 5.0
        J = md.jacobian_matrix_batch(model, Z)
        S = np.zeros((nx, n))
        S[:, :nx] = np.eye(nx)
        P = J + S  # d xhat / d z_curr of the first-order predictor
        for M in (J, P):
            violations += int(np.sum(M[:, spec.tags == 1] < 0))
            violations += int(np.sum(M[:, spec.tags == -1] > 0))
        total += len(Z)
    report(3, "hard monotonicity", total == 10_000 and violations == 0,
           f"{total} probes across 20 gated models, {violations} violations")


def test_criterion_4_soft_training_drives_violations_below_1pct():
    bench = pl.hvac_benchmark(seed=0)
    spec = bench.plant.mono_spec()
    t0 = time.perf_counter()
    model, _ = tr.train_variant("soft1", spec, bench.train, seed=0)
    dt = time.perf_counter() - t0
    Z = np.vstack([t.z_curr for t in bench.train]
                  + [t.z_prev for t in bench.train])
    rng = np.random.default_rng(0)
    probes = rng.uniform(Z.min(axis=0), Z.max(axis=0),
                         size=(10_000, Z.shape[1]))
    J = md.jacobian_matrix_batch(model, probes)
    bad = (int(np.sum(J[:, spec.tags == 1] < 0))
           + int(np.sum(J[:, spec.tags == -1] > 0)))
    tagged = len(probes) * int(np.sum(spec.tags != 0))
    frac = bad / tagged
    report(4, "soft monotonicity", frac < 0.01 and dt < 120.0,
           f"violating fraction {frac:.4%} of {tagged} tagged entries, "
           f"training {dt:.1f}s")


STUDY_VARIANTS = ("baseline", "taylor1", "taylor2", "mono1", "soft1")


@pytest.fixture(scope="session")
def hvac_step5_r2():
    """Step-5 rollout R2 per variant, averaged over 5 seeds (data and init)."""
    scores = {name: [] for name in STUDY_VARIANTS}
    for seed in range(5):
        bench = pl.hvac_benchmark(seed=seed)
        spec = bench.plant.mono_spec()
        for name in STUDY_VARIANTS:
            model, _ = tr.train_variant(name, spec, bench.train, seed=seed)
            res = ev.rollout(model, bench.test, steps=5)
            scores[name].append(float(res.r2[-1]))
    return {name: float(np.mean(v)) for name, v in scores.items()}


def test_criterion_5_generalization_ordering(hvac_step5_r2):
    r = hvac_step5_r2
    ok = all(r[n] >= r["baseline"] + 0.2 and r[n] >= r["taylor1"] and r[n] >= 0.85
             for n in ("mono1", "soft1"))
    report(5, "generalization ordering", ok,
           "step-5 R2 means: "
           + ", ".join(f"{n} {r[n]:+.3f}" for n in STUDY_VARIANTS))


def test_criterion_6_second_order_benefit(hvac_step5_r2):
    r = hvac_step5_r2
    report(6, "second-order benefit", r["taylor2"] > r["taylor1"],
           f"taylor2 {r['taylor2']:+.3f} vs taylor1 {r['taylor1']:+.3f}")


def test_criterion_7_solver_matches_grid_oracle(tclab_mono1):
    _, model = tclab_mono1
    x_ref = np.array([55.0, 45.0])
    u_lo = np.array([30.0, 20.0])
    u_hi = np.array([65.0, 65.0])
    x0 = np.array([48.0, 41.0])
    z_prev = np.array([46.5, 40.0, 55.0, 35.0])
    q, r, p = 1.0, 0.01, 5.0
    cfg = ctrl.MpcConfig(x_ref=x_ref, u_min=u_lo, u_max=u_hi, horizon=2,
                         q_diag=q, r_diag=r, p_diag=p,
                         iterations=120, tol=1e-9)
    res = ctrl.solve_horizon(model, x0, z_prev, cfg)

    # exhaustive oracle: 21 levels per input per stage, costs recomputed
    # from predict_batch so the enumeration is independent of horizon_cost
    U0 = np.array(list(itertools.product(np.linspace(u_lo[0], u_hi[0], 21),
                                         np.linspace(u_lo[1], u_hi[1], 21))))
    m = len(U0)
    Zc0 = np.hstack([np.tile(x0, (m, 1)), U0])
    X1 = md.predict_batch(model, Zc0, np.tile(z_prev, (m, 1)))
    e0 = x0 - x_ref
    cA = (float(e0 @ (q * e0))
          + np.einsum("ij,ij->i", U0 * r, U0)
          + np.einsum("ij,ij->i", (X1 - x_ref) * q, X1 - x_ref))
    cB = np.einsum("ij,ij->i", U0 * r, U0)
    idx0 = np.repeat(np.arange(m), m)
    idx1 = np.tile(np.arange(m), m)
    X2 = md.predict_batch(model, np.hstack([X1[idx0], U0[idx1]]), Zc0[idx0])
    cC = np.einsum("ij,ij->i", (X2 - x_ref) * p, X2 - x_ref)
    total = cA[idx0] + cB[idx1] + cC
    best = int(np.argmin(total))
    grid_cost = float(total[best])
    U_best = np.vstack([U0[idx0[best]], U0[idx1[best]]])
    agree = abs(ctrl.horizon_cost(model, U_best, x0, z_prev, cfg)
                - grid_cost) <= 1e-9 * grid_cost
    ratio = res.cost / grid_cost
    report(7, "mpc optimality", agree and ratio <= 1.02,
           f"solver {res.cost:.3f} vs grid {grid_cost:.3f} "
           f"over {m * m} sequences, ratio {ratio:.5f}")


def test_criterion_8_closed_loop_tracking(tclab_mono1):
    ds, model = tclab_mono1
    cfg = ctrl.MpcConfig(x_ref=np.array([55.0, 45.0]),
                         u_min=np.array([30.0, 20.0]),
                         u_max=np.array([65.0, 65.0]),
                         x0=np.array([30.0, 30.0]),
                         horizon=8, iterations=60, tol=1e-6)
    t0 = time.perf_counter()
    trace = ctrl.run_closed_loop(ds.plant, model, cfg, steps=60)
    dt = time.perf_counter() - t0
    err = np.abs(trace.x - cfg.x_ref)
    reached = bool(np.all(err[25] <= 1.0))
    held = bool(np.all(err[25:] <= 1.5))
    bounded = bool(np.all(trace.u >= cfg.u_min) and np.all(trace.u <= cfg.u_max))
    report(8, "closed-loop tracking",
           reached and held and bounded and dt < 60.0,
           f"|err| at step 25 {err[25].max():.2f}C, "
           f"max through step 60 {err[25:].max():.2f}C, inputs in bounds: "
           f"{bounded}, {dt:.1f}s")


def test_criterion_9_cli_rerun_is_byte_identical(tmp_path):
    files = ("train.csv", "test.csv", "taylor1.json", "mono1.json",
             "train_manifest.json", "table.csv")
    # the CLI runs the mtnn this test imported, installed or from src/
    paths = (str(Path(mtnn.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        config = {"seed": 1, "out_dir": str(out),
                  "plant": {"kind": "hvac"},
                  "train": {"variants": ["taylor1", "mono1"], "width": 8,
                            "epochs": 500, "learning_rate": 1e-3},
                  "eval": {"steps": 5}}
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(config))
        for command in ("gen-data", "train", "eval"):
            proc = subprocess.run(
                [sys.executable, "-m", "mtnn.cli", command,
                 "--config", str(cfg_path)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        blobs.append(b"".join((out / name).read_bytes() for name in files))
    report(9, "determinism", blobs[0] == blobs[1],
           f"gen-data/train/eval rerun, {len(files)} output files byte-identical")
