"""Loss assembly and full-batch gradient training for Taylor predictors and
baselines.

The total loss is the batch-mean squared prediction error. The model's
gate mode alone picks the hinges: a soft sign prior (`GateMode.SOFT`) adds
a sign-violation hinge on the learned Jacobian rows and, at second order, a
determinant hinge on the learned Hessian blocks, both evaluated at the
expansion point z_prev of each sample and weighted by the `constraints`
constants. The loss exists only on the graph; its numpy reference is
`tests/oracles.py`.
Gradients are exact (a.e. for the gates/hinges): the penalty terms read
in-graph Jacobians, so their parameter gradients flow through the nested
derivative.

Every variant trains through one loop, `train`: each epoch evaluates the
loss on a whole `Transitions` set and takes one Adam step, and the run
returns the parameters of its best recorded epoch. The loss graph has the
same shape in every epoch, so a run builds it once and replays it.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import constraints, graph
from . import model as md
from . import net as nn
from .constraints import DECREASING, MonoSpec
from .model import BaselineModel, GateMode, MtnnModel, TaylorOrder, taylor_increments
from .net import TrainingFault
from .plants import Transitions, finite, integer, real

Array = np.ndarray

DIVERGENCE_LIMIT = 1e12
SWEEP_RATES = (1e-2, 3e-3, 1e-3, 3e-4)
# Adam's moment decay rates and denominator floor, at the defaults of
# Kingma & Ba ("Adam", ICLR 2015)
ADAM_BETAS = (0.9, 0.999)
ADAM_DENOM_EPS = 1e-8

VARIANTS = ("baseline", "taylor1", "taylor2", "mono1", "mono2", "soft1", "soft2")


@dataclass
class TrainConfig:
    """Settings of one full-batch `train` run; Adam's rates and the hinge
    weights are constants."""

    learning_rate: float = 1e-3
    epochs: int = 300
    weight_decay: float = 0.0  # decoupled, weight matrices only

    def __post_init__(self):
        self.epochs = integer(self.epochs, "epochs", 1)
        real(self.learning_rate, "learning_rate", positive=True)
        real(self.weight_decay, "weight_decay")


@dataclass
class TrainHistory:
    """Per-epoch loss components; rows stop at the last completed epoch."""

    total: Array
    mse: Array
    mono: Array
    convex: Array

    def __post_init__(self):
        self.total = np.asarray(self.total, dtype=np.float64)
        self.mse = np.asarray(self.mse, dtype=np.float64)
        self.convex = np.asarray(self.convex, dtype=np.float64)
        self.mono = np.asarray(self.mono, dtype=np.float64)
        n = len(self.total)
        if not (len(self.mse) == len(self.mono) == len(self.convex) == n):
            raise ValueError("history columns must have equal length")
        for arr in (self.total, self.mse, self.mono, self.convex):
            if not np.all(np.isfinite(arr)):
                raise ValueError("history values must be finite")

    def __len__(self) -> int:
        return len(self.total)

    def save_csv(self, path) -> None:
        lines = ["epoch,total,mse,mono,convex"]
        for e in range(len(self)):
            lines.append(
                f"{e},{float(self.total[e])!r},{float(self.mse[e])!r},"
                f"{float(self.mono[e])!r},{float(self.convex[e])!r}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _loss_graph(tape: nn.NetTape, model, Zp: Array, Zc: Array, Xn: Array):
    """Build the batch loss as a scalar Var; returns (total, components).

    The components are the mse, mono and convex nodes of the graph, a
    constant zero for a hinge the model's gate mode leaves out, so they read
    the values of whatever parameters the graph was last built or replayed
    at. The Taylor step, its gated rows and its Hessian blocks come from
    `model.taylor_increments`; this function adds residuals and penalties.
    """
    B = Zp.shape[0]
    mono = convex = graph.Var(0.0)
    if isinstance(model, BaselineModel):
        resid = tape.forward(Zc) - Xn
        mse = graph.sum_all(resid * resid) * (1.0 / B)
        return mse, (mse, mono, convex)

    soft = model.gate_mode is GateMode.SOFT
    curved = soft and model.order is TaylorOrder.SECOND
    incr, rows, blocks = taylor_increments(tape, model, Zc, Zp, need_blocks=curved)
    resid = incr - (Xn - Zc[:, : model.nx]).T
    mse = graph.sum_all(resid * resid) * (1.0 / B)
    total = mse
    if soft:
        mono = constraints.mono_penalty_rows_graph(rows, model.mono_spec)
        mono = mono * (1.0 / B)
        total = total + mono
    if curved:
        convex = constraints.convex_penalty_blocks_graph(blocks) * (1.0 / B)
        total = total + convex
    return total, (mse, mono, convex)


class _Adam:
    """Adaptive moment estimation over one flat parameter vector, updated
    in place.

    Weight decay is decoupled (applied directly to the iterate, not the
    gradient) and touches only the leading `n_decay` entries, the weights.
    """

    def __init__(self, theta: Array, cfg: TrainConfig, n_decay: int):
        self.theta = theta
        self.lr = cfg.learning_rate
        self.b1, self.b2 = ADAM_BETAS
        self.eps = ADAM_DENOM_EPS
        self.wd = cfg.weight_decay
        self.n_decay = n_decay
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0

    def step(self, g: Array) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        m, v, theta = self.m, self.v, self.theta
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * (g * g)
        theta -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        if self.wd > 0.0:
            w = theta[: self.n_decay]
            w -= self.lr * self.wd * w


def _flatten_params(net: nn.DenseNet):
    """Copy the net's weights, then biases, into one flat vector and rebind
    them to views of it; returns (vector, number of weight entries)."""
    params = [*net.weights, *net.biases]
    theta = np.concatenate([A.reshape(-1) for A in params])
    views, start = [], 0
    for A in params:
        views.append(theta[start:start + A.size].reshape(A.shape))
        start += A.size
    k = len(net.weights)
    net.weights, net.biases = views[:k], views[k:]
    return theta, sum(W.size for W in net.weights)


def _offending_sample(model, Zp, Zc, Xn) -> int:
    with np.errstate(all="ignore"):
        pred = md.predict_batch(model, Zc, Zp)
        per = np.sum((Xn - pred) ** 2, axis=1)
    bad = ~np.isfinite(per)
    if bad.any():
        return int(np.argmax(bad))
    return int(np.argmax(per))


def _partial_history(rows) -> TrainHistory:
    cols = np.array(rows, dtype=np.float64).reshape(-1, 4)
    return TrainHistory(cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3])


def _fault(message: str, rows) -> TrainingFault:
    fault = TrainingFault(message)
    fault.history = _partial_history(rows)
    return fault


def train(model, data: Transitions, cfg: TrainConfig):
    """Gradient-train a copy of `model` on the transitions `data`; returns
    (best model, history).

    Each epoch records the loss at its pre-update parameters, then takes
    one Adam step on the gradient over all of `data`.  The copy's weights
    and biases are views of one flat vector, so Adam, the finiteness check
    and the best-epoch snapshot each act on a single array; the returned
    model carries exactly the parameters of the best recorded epoch, in
    memory of its own.  Divergence is a `TrainingFault` whose `history`
    holds the completed epochs.

    The loss graph is built once, on one `NetTape` whose parameter leaves
    are those views: the first epoch builds it, and every later one
    replays it at the parameters Adam has updated in place, then runs
    `graph.backward` with the order computed at the build. Both give bit
    for bit what a fresh build at the same parameters gives.
    """
    Zp, Zc, Xn = data.z_prev, data.z_curr, data.x_next
    if len(Zp) < 2:
        raise ValueError("need at least 2 training samples")
    model = model.copy()
    if Zp.shape[1] != model.n:
        raise ValueError(f"data z-dim {Zp.shape[1]} vs model {model.n}")
    if Xn.shape[1] != model.nx:
        raise ValueError(f"data x-dim {Xn.shape[1]} vs model {model.nx}")

    net = model.net
    theta, n_weights = _flatten_params(net)
    opt = _Adam(theta, cfg, n_weights)

    tape = nn.NetTape(net)
    with np.errstate(over="ignore", invalid="ignore"):
        total_var, parts = _loss_graph(tape, model, Zp, Zc, Xn)
    order = graph.topological_order(total_var)
    rows = []
    best_total = np.inf
    best_theta = None
    for epoch in range(cfg.epochs):
        if epoch:
            with np.errstate(over="ignore", invalid="ignore"):
                graph.replay(order)
        tot = float(total_var.value)
        if not np.isfinite(tot) or tot > DIVERGENCE_LIMIT:
            bad = _offending_sample(model, Zp, Zc, Xn)
            raise _fault(f"training diverged at epoch {epoch} "
                         f"(loss {tot!r}, worst sample {bad})", rows)
        if tot < best_total:
            best_total = tot
            best_theta = theta.copy()
        # called through the module, once per epoch: the benchmark times an
        # epoch as the gap between two backward starts
        graph.backward(total_var, order)
        pg = tape.gradients()
        g = np.concatenate([G.reshape(-1) for G in (*pg.weights, *pg.biases)])
        if not np.isfinite(g).all():
            raise _fault(f"non-finite parameter gradient at epoch {epoch}", rows)
        opt.step(g)
        rows.append((tot, *(float(p.value) for p in parts)))
    np.copyto(theta, best_theta)
    return model, _partial_history(rows)


def _guarded_std(A: Array, axis=0) -> Array:
    s = np.std(A, axis=axis)
    return np.where(s > 1e-8, s, 1.0)


GATE_ANCHOR_FLOOR = 0.05


def variant_recipe(name: str) -> dict:
    """Order / gate settings for each named model variant; the gate mode
    also fixes the hinges it trains with (see `_loss_graph`)."""
    table = {
        "taylor1": (TaylorOrder.FIRST, GateMode.NONE),
        "taylor2": (TaylorOrder.SECOND, GateMode.NONE),
        "mono1": (TaylorOrder.FIRST, GateMode.ARCHITECTURE),
        "mono2": (TaylorOrder.SECOND, GateMode.ARCHITECTURE),
        "soft1": (TaylorOrder.FIRST, GateMode.SOFT),
        "soft2": (TaylorOrder.SECOND, GateMode.SOFT),
    }
    if name == "baseline":
        return {"baseline": True}
    if name not in table:
        raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}")
    order, gate = table[name]
    return {"baseline": False, "order": order, "gate_mode": gate}


def build_variant(name: str, mono_spec: MonoSpec, data: Transitions, width: int, seed: int):
    """Construct an untrained model for a named variant, standardized to data.

    Jacobian nets get input standardization from the expansion points, a
    per-entry output scale set to the ratio of typical state-increment to
    typical input-increment size, and an output shift anchored at the
    constant least-squares Jacobian row.  For architecture-gated variants the
    anchor is clamped to the tagged sign so every gate starts live.
    """
    recipe = variant_recipe(name)
    Zp, Zc, Xn = data.z_prev, data.z_curr, data.x_next
    N = Zp.shape[1]
    nx = Xn.shape[1]
    if (mono_spec.n_states, mono_spec.n_inputs) != (nx, N):
        raise ValueError("mono spec does not match data dimensions")
    if recipe["baseline"]:
        # a Glorot net with input/output standardization fitted to the data
        net = nn.init_dense([N, width, nx], np.random.default_rng(seed))
        net = replace(net, in_shift=np.mean(Zc, axis=0), in_scale=_guarded_std(Zc),
                      out_shift=np.mean(Xn, axis=0), out_scale=_guarded_std(Xn))
        return BaselineModel(net, nx=nx)

    dz_scale = _guarded_std(Zc - Zp)
    dx_scale = _guarded_std(Xn - Zc[:, :nx])
    # anchor each row at its constant least-squares estimate: with the net's
    # weights near zero (fresh init, or pulled down by weight decay) the row
    # reverts to the best constant Jacobian instead of drifting arbitrarily
    rows0, *_ = np.linalg.lstsq(Zc - Zp, Xn - Zc[:, :nx], rcond=None)
    glorot = nn.init_dense([N, width, N], np.random.default_rng(seed), n_stack=nx)
    anchor = rows0.T.copy()  # (nx, N)
    if recipe["gate_mode"] is GateMode.ARCHITECTURE:
        # nets emit pre-gate values: a decreasing entry -g comes from
        # relu(raw) = g, so the raw anchor is the magnitude; clamp to a
        # small floor so every gate starts live
        dec = mono_spec.tags == DECREASING
        anchor[dec] = -anchor[dec]
        tagged = mono_spec.tags != 0
        anchor[tagged] = np.maximum(anchor[tagged], GATE_ANCHOR_FLOOR)
    net = replace(
        glorot,
        in_shift=np.mean(Zp, axis=0),
        in_scale=_guarded_std(Zp),
        out_shift=anchor,
        # an entry's variation scale is its own magnitude, floored by the
        # increment-size ratio so near-zero anchors stay trainable
        out_scale=np.clip(
            np.maximum(np.abs(anchor), 0.05 * dx_scale[:, None] / dz_scale), 1e-3, 1e3
        ),
    )
    return MtnnModel(
        net=net,
        mono_spec=mono_spec,
        order=recipe["order"],
        gate_mode=recipe["gate_mode"],
    )


# Shared benchmark recipe. Every variant trains with the same budget so the
# comparison isolates the constraint handling rather than per-variant tuning.
# The heavy decoupled weight decay pulls Jacobian rows toward their
# least-squares anchors, which is what keeps multi-step rollouts from
# compounding small slope errors outside the training band.
STUDY_WIDTH = 8
STUDY_EPOCHS = 4000
STUDY_LEARNING_RATE = 1e-3
STUDY_WEIGHT_DECAY = 0.9


def train_variant(name: str, mono_spec: MonoSpec, data: Transitions, seed=0,
                  width=STUDY_WIDTH, **overrides):
    """Build and train a named variant under the shared benchmark recipe.

    Keyword overrides are forwarded to TrainConfig. Returns (model,
    history); the baseline is a `BaselineModel`, so it rolls out like any
    other model.
    """
    cfg_kw = dict(
        epochs=STUDY_EPOCHS,
        learning_rate=STUDY_LEARNING_RATE,
        weight_decay=STUDY_WEIGHT_DECAY,
    )
    cfg_kw.update(overrides)
    cfg = TrainConfig(**cfg_kw)
    return train(build_variant(name, mono_spec, data, width=width, seed=seed), data, cfg)


def _heldout_mse(model, data: Transitions) -> float:
    """Batch-mean squared prediction error on `data`; inf if non-finite."""
    Zp, Zc, Xn = data.z_prev, data.z_curr, data.x_next
    with np.errstate(over="ignore", invalid="ignore"):
        mse = float(np.mean(np.sum((Xn - md.predict_batch(model, Zc, Zp)) ** 2, axis=1)))
    return mse if np.isfinite(mse) else np.inf


def lr_sweep(model, data: Transitions, cfg: TrainConfig, rates=SWEEP_RATES):
    """Pick a learning rate by chronological 80/20 validation, then refit.

    `model` is the untrained model; every candidate and the refit train a
    copy of it (`train` copies its input), so each starts from the same
    parameters. Returns (model, history, best_rate, report) where report
    maps each rate to its validation MSE (inf for diverged runs).
    """
    rates = tuple(rates)
    if not rates or not all(finite(r) and r > 0 for r in rates):
        raise ValueError(f"sweep rates must be one or more finite positive numbers, got {rates!r}")
    n = len(data)
    n_fit = int(round(0.8 * n))
    if n_fit < 2 or n - n_fit < 1:
        raise ValueError(f"too few samples ({n}) for a sweep split")
    fit, val = data[:n_fit], data[n_fit:]
    report = {}
    for rate in rates:
        try:
            candidate, _ = train(model, fit, replace(cfg, learning_rate=rate))
            report[rate] = _heldout_mse(candidate, val)
        except TrainingFault:
            report[rate] = np.inf
    best_rate = min(report, key=lambda r: (report[r], r))
    if not np.isfinite(report[best_rate]):
        raise TrainingFault("every sweep rate diverged")
    trained, hist = train(model, data, replace(cfg, learning_rate=best_rate))
    return trained, hist, best_rate, report
