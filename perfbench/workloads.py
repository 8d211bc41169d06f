"""The three benchmark workloads: set-up, one pass of work, output checks.

Each workload is a class with
  * `setup(seed)`: generate inputs and train what the pass needs;
  * `check_inputs()`: messages for generated inputs outside their bounds;
  * `warm_up()`: one small untimed run of the pass's code paths;
  * `run_pass(i, rec)`: pass number i of the measured work; it records its
    timed samples, ops and failed checks into `rec`.
Passes with the same index repeat exactly, which is what lets the traced
run compare per-pass counts between runs.

Sizes come from `Sizes`; `Sizes.smoke_sizes()` shrinks every workload to run in
seconds for the schema test.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from mtnn import evaluation as ev
from mtnn import graph, mpc
from mtnn import plants as pl
from mtnn import training as tr
from mtnn.net import TrainingFault

clock = time.perf_counter

FIRST_ORDER = ("baseline", "taylor1", "mono1", "soft1")  # the rest are second order
ROLLOUT_MODELS = ("taylor1", "mono1", "mono2", "soft2")
STEPS = 5  # rollout horizon in every R^2 check

# criterion-8 controller: bounds, horizon, budget, nominal set-point
U_MIN = np.array([30.0, 20.0])
U_MAX = np.array([65.0, 65.0])
X_REF = np.array([55.0, 45.0])
X0 = np.array([30.0, 30.0])
EPISODE_JITTER_C = 0.5  # seeded offset of each episode's x0 and set-point
SETTLE_STEP = 25
REACH_TOL_C, HOLD_TOL_C = 1.0, 1.5
LOG_Q_RANGE = (10.0, 50.0)  # tclab_dataset's excitation levels, %


@dataclass
class Sizes:
    hvac_epochs: int = 1000
    epoch_chunk: int = 25  # epochs per hvac-study latency sample
    warmup_epochs: int = 30
    control_epochs: int = tr.STUDY_EPOCHS
    episode_steps: int = 28
    horizon: int = 8
    iterations: int = 60
    warmup_steps: int = 4
    rollout_log: int = 20_000
    rollout_epochs: int = 300
    smoke: bool = False

    @classmethod
    def smoke_sizes(cls) -> "Sizes":
        return cls(hvac_epochs=12, epoch_chunk=2, warmup_epochs=2, control_epochs=40,
                   episode_steps=3, horizon=3, iterations=4, warmup_steps=1,
                   rollout_log=400, rollout_epochs=10, smoke=True)


@dataclass
class Record:
    """What the measured passes produced."""

    ops: int = 0
    failed: int = 0
    samples_ms: list = field(default_factory=list)  # one per timed op
    r2: list = field(default_factory=list)  # step-5 R^2 of every model checked
    details: dict = field(default_factory=dict)  # workload-specific figures
    errors: list = field(default_factory=list)  # failed output checks
    outputs: list = field(default_factory=list)  # values compared across passes

    def fail(self, msg: str, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(msg)

    def add(self, key: str, value: float) -> None:
        self.details[key] = self.details.get(key, 0.0) + value

    def latency_ms(self) -> tuple:
        """(p50, p90) of one op."""
        return quantiles(self.samples_ms)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


@contextmanager
def timed_calls(owner, attr: str, out: list):
    """Append (start, duration) of every owner.attr call made inside the block."""
    orig = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return orig(*args, **kwargs)
        finally:
            out.append((t0, clock() - t0))

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def _r2_step5(model, series) -> float:
    return float(ev.rollout(model, series, STEPS).r2[-1])


def hvac_inputs(seed: int):
    """hvac_benchmark(seed), skipping the rare seeds whose range shift the
    generator rejects; the returned data seed is the one actually used."""
    for k in range(20):
        data_seed = seed + 100_003 * k
        try:
            return data_seed, pl.hvac_benchmark(data_seed)
        except RuntimeError:
            continue
    raise RuntimeError(f"no accepted HVAC data seed near {seed}")


class HvacStudy:
    """The paper's study: train all seven variants, roll each out 5 steps."""

    name = "hvac-study"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int):
        self.data_seed, self.bench = hvac_inputs(seed)
        self.spec = self.bench.plant.mono_spec()

    def check_inputs(self) -> list:
        series, plant = self.bench.series, self.bench.plant
        Ts, mdot = series.u[:, 0], series.u[:, 1]
        errors = []
        if not (np.all(mdot >= 0) and np.all(mdot <= plant.mdot_max)):
            errors.append(f"HVAC flow outside [0, {plant.mdot_max}]")
        if not np.all(Ts < series.x[:, 0]):
            errors.append("HVAC supply not colder than the room: sign prior invalid")
        return errors

    def warm_up(self):
        for name in tr.VARIANTS:
            m, _ = tr.train_variant(name, self.spec, self.bench.train, seed=self.data_seed,
                                    epochs=self.sizes.warmup_epochs)
            ev.rollout(m, self.bench.test, STEPS)

    def run_pass(self, i: int, rec: Record):
        epochs, chunk = self.sizes.hvac_epochs, self.sizes.epoch_chunk
        taylor_r2 = []
        chunk_ms = []  # per variant: mean epoch ms of each run of `chunk` epochs
        for name in tr.VARIANTS:
            rec.ops += 1
            backward = []
            t0 = clock()
            try:
                # full batch: one backward pass per epoch, so the gaps between
                # backward starts time the epochs one by one
                with timed_calls(graph, "backward", backward):
                    model, hist = tr.train_variant(name, self.spec, self.bench.train,
                                                   seed=self.data_seed, epochs=epochs)
            except TrainingFault as exc:
                rec.fail(f"{name}: {exc}")
                continue
            dt = clock() - t0
            starts = [t for t, _ in backward][::chunk]
            chunk_ms.append([(b - a) * 1e3 / chunk for a, b in zip(starts, starts[1:])])
            order = "order1" if name in FIRST_ORDER else "order2"
            rec.add(f"epochs.{order}", len(hist))
            rec.add(f"train_s.{order}", dt)
            r2 = _r2_step5(model, self.bench.test)
            loss = float(hist.total[-1])
            rec.outputs.append((name, loss, r2))
            if len(hist) != epochs or not _finite(hist.total, r2):
                rec.fail(f"{name}: {len(hist)} epochs of {epochs} or non-finite output")
            elif name != "baseline":
                taylor_r2.append(r2)
        if taylor_r2:
            rec.r2.append(min(taylor_r2))
        # one study epoch = one epoch of each variant; sample k adds up chunk k
        # of every variant, so each sample spans seven moments of the pass
        # (single epochs flip between a quiet and a contended speed on a
        # shared core, which makes their quantiles jump from run to run)
        if len(chunk_ms) == len(tr.VARIANTS):
            rec.samples_ms.extend(sum(col) for col in zip(*chunk_ms))

    def named_metrics(self, rec: Record) -> dict:
        d = rec.details
        return {
            "train_epochs_per_s.order1": (d.get("epochs.order1", 0)
                                          / max(d.get("train_s.order1", 0), 1e-12), "1/s"),
            "train_epochs_per_s.order2": (d.get("epochs.order2", 0)
                                          / max(d.get("train_s.order2", 0), 1e-12), "1/s"),
            "r2_step5.min_taylor": (min(rec.r2) if rec.r2 else float("nan"), "1"),
        }

    def references(self, rec: Record) -> list:
        first = rec.outputs[: len(tr.VARIANTS)]
        refs = []
        for name, loss, r2 in first:
            refs.append((f"hvac.{name}.final_loss", loss, "rel"))
            refs.append((f"hvac.{name}.r2_step5", r2, "abs"))
        return refs


class TclabControl:
    """Closed-loop set-point episodes with the criterion-8 mono1 model.

    The controller model is always the criterion-8 fixture (mono1 trained on
    tclab_dataset(0) with seed 0): solve cost depends strongly on which model
    is in the loop, and the workload measures the controller, not the luck
    of one training run. The seed draws each episode's initial state and
    set-point around the criterion-8 ones.
    """

    name = "tclab-control"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int):
        s = self.sizes
        self.data_seed = 0
        ds = pl.tclab_dataset(self.data_seed)
        self.plant = ds.plant
        self.model, _ = tr.train_variant("mono1", ds.plant.mono_spec(), ds.train,
                                         seed=self.data_seed, epochs=s.control_epochs)
        self.model_r2 = _r2_step5(self.model, ds.test)
        rng = np.random.default_rng(seed)
        self.episodes = [
            (X0 + rng.uniform(-EPISODE_JITTER_C, EPISODE_JITTER_C, 2),
             X_REF + rng.uniform(-EPISODE_JITTER_C, EPISODE_JITTER_C, 2))
            for _ in range(64)
        ]

    def check_inputs(self) -> list:
        return [] if _finite(self.episodes) else ["non-finite episode start or set-point"]

    def config(self, x0, x_ref) -> mpc.MpcConfig:
        s = self.sizes
        return mpc.MpcConfig(x_ref=x_ref, u_min=U_MIN, u_max=U_MAX, x0=x0,
                             horizon=s.horizon, iterations=s.iterations)

    def warm_up(self):
        x0, x_ref = self.episodes[-1]
        mpc.run_closed_loop(self.plant, self.model, self.config(x0, x_ref),
                            steps=self.sizes.warmup_steps)

    def run_pass(self, i: int, rec: Record):
        x0, x_ref = self.episodes[i % len(self.episodes)]
        cfg = self.config(x0, x_ref)
        steps = self.sizes.episode_steps
        solve_s = []
        with timed_calls(mpc, "solve_horizon", solve_s):
            trace = mpc.run_closed_loop(self.plant, self.model, cfg, steps=steps)
        rec.ops += steps
        rec.samples_ms.extend(d * 1e3 for _, d in solve_s)
        rec.r2.append(self.model_r2)
        rec.add("budget_exhausted", float(np.sum(~trace.converged)))
        rec.outputs.append((f"episode{i}", trace.x[-1].copy()))
        faults = int(np.sum(~np.isfinite(trace.cost)))
        if faults:
            rec.fail(f"episode {i}: {faults} solves with infinite cost", faults)
        if len(solve_s) != steps:
            rec.fail(f"episode {i}: timed {len(solve_s)} solves for {steps} steps")
        if not _finite(trace.x, trace.u):
            rec.fail(f"episode {i}: non-finite state or input")
        out = np.sum((trace.u < U_MIN) | (trace.u > U_MAX))
        if out:
            rec.fail(f"episode {i}: {out} inputs outside the box")
        if steps > SETTLE_STEP:
            err = np.abs(trace.x[SETTLE_STEP:] - x_ref).max(axis=1)
            rec.details["track_err_max"] = max(rec.details.get("track_err_max", 0.0),
                                               float(err.max()))
            late = int(np.sum(err > HOLD_TOL_C)) + int(err[0] > REACH_TOL_C)
            if late:
                rec.fail(f"episode {i}: settled error {err.max():.3f} C over "
                         f"{REACH_TOL_C}/{HOLD_TOL_C} C", late)

    def named_metrics(self, rec: Record) -> dict:
        q = rec.latency_ms()
        return {
            "mpc_solve_ms.p50": (q[0], "ms"),
            "mpc_solve_ms.p90": (q[1], "ms"),
            "track_err_c.settled_max": (rec.details.get("track_err_max", float("nan")), "C"),
            "mpc.budget_exhausted": (rec.details.get("budget_exhausted", 0.0), "count"),
        }

    def references(self, rec: Record) -> list:
        refs = [("control.model_r2_step5", self.model_r2, "abs")]
        for name, x in rec.outputs[:2]:
            for j, v in enumerate(x):
                refs.append((f"control.{name}.final_T{j + 1}", float(v), "state"))
        return refs


class TclabRollout:
    """5-step comparison table over a long TCLab log, numpy only."""

    name = "tclab-rollout"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int):
        s = self.sizes
        self.data_seed = seed
        ds = pl.tclab_dataset(seed, n_test=s.rollout_log)
        self.log = ds.test
        spec = ds.plant.mono_spec()
        self.models = {
            name: tr.train_variant(name, spec, ds.train, seed=seed,
                                   epochs=s.rollout_epochs)[0]
            for name in ROLLOUT_MODELS
        }
        self.predictions = STEPS * len(self.log) - STEPS * (STEPS - 1) // 2

    def check_inputs(self) -> list:
        Q = np.stack([t.z_curr[2:] for t in self.log])
        if np.all((Q >= LOG_Q_RANGE[0]) & (Q <= LOG_Q_RANGE[1])):
            return []
        return [f"TCLab log heater powers outside {LOG_Q_RANGE} %"]

    def warm_up(self):
        ev.comparison_table(self.models, self.log[:2000], steps=STEPS)

    def run_pass(self, i: int, rec: Record):
        call_s = []
        with timed_calls(ev, "rollout", call_s):
            table = ev.comparison_table(self.models, self.log, steps=STEPS)
        rec.samples_ms.append(sum(d for _, d in call_s) * 1e6
                              / (self.predictions * len(call_s)))
        for name, (_, dt) in zip(table.names, call_s):
            order = "order1" if name in FIRST_ORDER else "order2"
            rec.ops += 1
            rec.add(f"pred.{order}", self.predictions)
            rec.add(f"pred_s.{order}", dt)
        rec.outputs.append(("table", table.r2.copy()))
        if len(call_s) != len(self.models):
            rec.fail(f"timed {len(call_s)} rollouts for {len(self.models)} models")
        for v, name in enumerate(table.names):
            r2 = table.r2[:, v]
            if not _finite(r2, table.rmse[:, v]):
                rec.fail(f"{name}: non-finite rollout metrics")
            elif not self.sizes.smoke and r2[0] < 0.9:
                rec.fail(f"{name}: step-1 R2 {r2[0]:.4f} below 0.9")
        rec.r2.append(float(table.r2[-1].min()))

    def named_metrics(self, rec: Record) -> dict:
        d = rec.details
        return {
            f"rollout_kpred_per_s.{o}": (d.get(f"pred.{o}", 0) / 1e3
                                         / max(d.get(f"pred_s.{o}", 0), 1e-12), "1/s")
            for o in ("order1", "order2")
        }

    def references(self, rec: Record) -> list:
        r2 = rec.outputs[0][1]
        return [(f"rollout.{name}.r2_step5", float(r2[-1, v]), "abs")
                for v, name in enumerate(ROLLOUT_MODELS)]


WORKLOADS = {w.name: w for w in (HvacStudy, TclabControl, TclabRollout)}


def quantiles(samples) -> tuple:
    """(p50, p90) with the inclusive method; a single sample is its own quantile."""
    if not samples:
        return float("nan"), float("nan")
    if len(samples) == 1:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), q[8]
