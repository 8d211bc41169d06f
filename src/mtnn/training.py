"""Loss assembly and gradient training for Taylor predictors and baselines.

The total loss is the batch-mean squared prediction error plus, per mode,
a sign-violation hinge on the learned Jacobian rows and/or a determinant
hinge on the learned Hessian blocks, both evaluated at the expansion point
z_prev of each sample.  Gradients are exact (a.e. for the gates/hinges):
the penalty terms read in-graph Jacobians, so their parameter gradients
flow through the nested derivative.
"""

import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import constraints, graph
from . import net as nn
from .constraints import DECREASING, INCREASING, MonoSpec, PenaltyWeights
from .model import BaselineModel, GateMode, MtnnModel, TaylorOrder, taylor_increments
from .net import DenseNet, TrainingFault
from .plants import transitions_to_arrays

Array = np.ndarray

DIVERGENCE_LIMIT = 1e12
SWEEP_RATES = (1e-2, 3e-3, 1e-3, 3e-4)

# variant name -> (taylor order, gate mode, training mode)
VARIANTS = ("baseline", "taylor1", "taylor2", "mono1", "mono2", "soft1", "soft2")


class TrainMode(str, Enum):
    MSE = "mse"
    MONO_SOFT = "mono_soft"
    CONVEX = "convex"
    MONO_SOFT_CONVEX = "mono_soft_convex"

    @property
    def wants_mono(self) -> bool:
        return self in (TrainMode.MONO_SOFT, TrainMode.MONO_SOFT_CONVEX)

    @property
    def wants_convex(self) -> bool:
        return self in (TrainMode.CONVEX, TrainMode.MONO_SOFT_CONVEX)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    penalty: PenaltyWeights = field(default_factory=PenaltyWeights)
    mode: TrainMode = TrainMode.MSE
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0  # decoupled, weight matrices only
    strict_minors: bool = False  # hinge all leading principal minors, not just det

    def __post_init__(self):
        self.mode = TrainMode(self.mode)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("decay terms must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "penalty" in d:
            d["penalty"] = PenaltyWeights(**d["penalty"])
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class TrainHistory:
    """Per-epoch loss components; rows stop at the last completed epoch."""

    total: Array
    mse: Array
    mono: Array
    convex: Array
    wall_time: float = 0.0

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


def _batch_arrays(batch):
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be nonempty")
    return transitions_to_arrays(batch)


def loss_components(model, batch, cfg: TrainConfig):
    """(total, mse, mono, convex) on a batch, all batch means.

    Reference implementation in plain numpy; training itself uses the graph
    twin below, which must agree with this one to rounding.
    """
    from . import model as md

    Zp, Zc, Xn = _batch_arrays(batch)
    B = Zp.shape[0]
    pred = md.predict_batch(model, Zc, Zp)
    per_sample = np.sum((Xn - pred) ** 2, axis=1)
    if not np.all(np.isfinite(per_sample)):
        bad = int(np.argmax(~np.isfinite(per_sample)))
        raise TrainingFault(f"non-finite loss at sample {bad}")
    mse = float(np.mean(per_sample))
    mono = convex = 0.0
    if cfg.mode.wants_mono or cfg.mode.wants_convex:
        if isinstance(model, BaselineModel):
            raise ValueError("penalty modes need a Taylor model, not a baseline")
    if cfg.mode.wants_mono:
        J = md.jacobian_matrix_batch(model, Zp)
        mono = sum(
            constraints.mono_penalty(J[b], model.mono_spec, cfg.penalty)
            for b in range(B)
        ) / B
    if cfg.mode.wants_convex:
        H = md.hessian_stack_batch(model, Zp)
        pen_fn = (
            constraints.principal_minor_penalty
            if cfg.strict_minors
            else constraints.convex_penalty
        )
        convex = sum(pen_fn(H[b], cfg.penalty.gamma) for b in range(B)) / B
    total = mse + mono + convex
    return total, mse, mono, convex


def total_loss(model, batch, cfg: TrainConfig) -> float:
    return loss_components(model, batch, cfg)[0]


def _loss_graph(tape: nn.NetTape, model, Zp: Array, Zc: Array, Xn: Array, cfg):
    """Build the batch loss as a scalar Var; returns (total, components).

    The Taylor step, its gated rows and its Hessian blocks come from
    `model.taylor_increments`; this function adds residuals and penalties.
    """
    B = Zp.shape[0]
    if isinstance(model, BaselineModel):
        resid = tape.forward(Zc) - Xn
        mse = graph.scale(graph.sum_all(resid * resid), 1.0 / B)
        return mse, (float(mse.value), 0.0, 0.0)

    incr, rows, blocks = taylor_increments(
        tape, model, Zc, Zp, need_blocks=cfg.mode.wants_convex
    )
    resid = incr - (Xn - Zc[:, : model.nx]).T
    mse = graph.scale(graph.sum_all(resid * resid), 1.0 / B)
    total = mse
    mono_val = convex_val = 0.0
    if cfg.mode.wants_mono:
        pen = constraints.mono_penalty_rows_graph(rows, model.mono_spec, cfg.penalty)
        pen = graph.scale(pen, 1.0 / B)
        mono_val = float(pen.value)
        total = total + pen
    if cfg.mode.wants_convex:
        pen_fn = (
            constraints.principal_minor_penalty_blocks_graph
            if cfg.strict_minors
            else constraints.convex_penalty_blocks_graph
        )
        pen = graph.scale(pen_fn(blocks, cfg.penalty.gamma), 1.0 / B)
        convex_val = float(pen.value)
        total = total + pen
    return total, (float(mse.value), mono_val, convex_val)


class _Adam:
    """Adaptive moment estimation over a flat list of live arrays.

    Weight decay is decoupled (applied directly to the iterate, not the
    gradient) and skips entries flagged as biases.
    """

    def __init__(self, arrays, cfg: TrainConfig, is_bias=None):
        self.arrays = arrays
        self.lr = cfg.learning_rate
        self.b1, self.b2, self.eps = cfg.beta1, cfg.beta2, cfg.adam_eps
        self.wd = cfg.weight_decay
        self.is_bias = is_bias if is_bias is not None else [False] * len(arrays)
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, grads) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for a, g, m, v, skip_wd in zip(
            self.arrays, grads, self.m, self.v, self.is_bias
        ):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            a -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.wd > 0.0 and not skip_wd:
                a -= self.lr * self.wd * a


def _offending_sample(model, Zp, Zc, Xn) -> int:
    from . import model as md

    with np.errstate(all="ignore"):
        pred = md.predict_batch(model, Zc, Zp)
        per = np.sum((Xn - pred) ** 2, axis=1)
    bad = ~np.isfinite(per)
    if bad.any():
        return int(np.argmax(bad))
    return int(np.argmax(per))


def _partial_history(rows, t0) -> TrainHistory:
    cols = np.array(rows, dtype=np.float64).reshape(-1, 4)
    return TrainHistory(
        cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3],
        wall_time=time.perf_counter() - t0,
    )


def train(model, data, cfg: TrainConfig):
    """Gradient-train a copy of `model`; returns (best model, history).

    Full-batch runs record the loss at the pre-update parameters of each
    epoch and return exactly the parameters of the best recorded epoch.
    Mini-batch runs record per-epoch mean batch losses and snapshot the
    end-of-epoch parameters instead.
    """
    data = list(data)
    if len(data) < 2:
        raise ValueError("need at least 2 training samples")
    Zp, Zc, Xn = _batch_arrays(data)
    n = len(data)
    model = model.copy()
    if Zp.shape[1] != model.n:
        raise ValueError(f"data z-dim {Zp.shape[1]} vs model {model.n}")
    nx = model.nx
    if Xn.shape[1] != nx:
        raise ValueError(f"data x-dim {Xn.shape[1]} vs model {nx}")
    bs = cfg.batch_size if cfg.batch_size is not None else n
    if bs > n:
        raise ValueError(f"batch_size {bs} exceeds data size {n}")
    full_batch = bs >= n

    net = model.net
    arrays = [*net.weights, *net.biases]
    is_bias = [False] * len(net.weights) + [True] * len(net.biases)
    opt = _Adam(arrays, cfg, is_bias)
    rng = np.random.default_rng(cfg.seed)

    rows = []
    best_total = np.inf
    best_params = None
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = np.arange(n) if full_batch else rng.permutation(n)
        acc = np.zeros(4)
        for k0 in range(0, n, bs):
            idx = order[k0 : k0 + bs]
            tape = nn.NetTape(net)
            with np.errstate(over="ignore", invalid="ignore"):
                total_var, comps = _loss_graph(
                    tape, model, Zp[idx], Zc[idx], Xn[idx], cfg
                )
            tot = float(total_var.value)
            if not np.isfinite(tot) or tot > DIVERGENCE_LIMIT:
                bad = _offending_sample(model, Zp[idx], Zc[idx], Xn[idx])
                fault = TrainingFault(
                    f"training diverged at epoch {epoch} "
                    f"(loss {tot!r}, worst sample {int(idx[bad])})"
                )
                fault.history = _partial_history(rows, t0)
                raise fault
            if full_batch and tot < best_total:
                best_total = tot
                best_params = [A.copy() for A in arrays]
            graph.backward(total_var)
            pg = tape.gradients()
            grads = [*pg.weights, *pg.biases]
            for garr in grads:
                if not np.all(np.isfinite(garr)):
                    fault = TrainingFault(
                        f"non-finite parameter gradient at epoch {epoch}"
                    )
                    fault.history = _partial_history(rows, t0)
                    raise fault
            opt.step(grads)
            acc += len(idx) * np.array([tot, *comps])
        acc /= n
        rows.append(acc)
        if not full_batch and acc[0] < best_total:
            best_total = acc[0]
            best_params = [A.copy() for A in arrays]
    assert best_params is not None and best_total <= rows[0][0]
    for A, snap in zip(arrays, best_params):
        np.copyto(A, snap)
    return model, _partial_history(rows, t0)


def train_baseline(dims, data, cfg: TrainConfig):
    """Train a direct z_curr -> x_next net; returns (DenseNet, history)."""
    if cfg.mode is not TrainMode.MSE:
        raise ValueError("baseline training supports MSE mode only")
    data = list(data)
    if len(data) < 2:
        raise ValueError("need at least 2 training samples")
    Zp, Zc, Xn = _batch_arrays(data)
    dims = [int(d) for d in dims]
    if dims[0] != Zc.shape[1] or dims[-1] != Xn.shape[1]:
        raise ValueError(f"dims {dims} do not match data ({Zc.shape[1]} -> {Xn.shape[1]})")
    net = init_standardized_net(dims, Zc, Xn, cfg.seed)
    model = BaselineModel(net, nx=Xn.shape[1])
    trained, hist = train(model, data, cfg)
    return trained.net, hist


def _guarded_std(A: Array, axis=0) -> Array:
    s = np.std(A, axis=axis)
    return np.where(s > 1e-8, s, 1.0)


def init_standardized_net(dims, Z: Array, Y: Array, seed, activation="tanh") -> DenseNet:
    """Glorot net with input/output affine standardization fitted to data."""
    net = nn.init_dense(dims, np.random.default_rng(seed), activation)
    return replace(
        net,
        in_shift=np.mean(Z, axis=0),
        in_scale=_guarded_std(Z),
        out_shift=np.mean(Y, axis=0),
        out_scale=_guarded_std(Y),
    )


GATE_ANCHOR_FLOOR = 0.05


def variant_recipe(name: str) -> dict:
    """Order / gate / loss-mode settings for each named model variant."""
    table = {
        "taylor1": (TaylorOrder.FIRST, GateMode.NONE, TrainMode.MSE),
        "taylor2": (TaylorOrder.SECOND, GateMode.NONE, TrainMode.MSE),
        "mono1": (TaylorOrder.FIRST, GateMode.ARCHITECTURE, TrainMode.MSE),
        "mono2": (TaylorOrder.SECOND, GateMode.ARCHITECTURE, TrainMode.MSE),
        "soft1": (TaylorOrder.FIRST, GateMode.SOFT, TrainMode.MONO_SOFT),
        "soft2": (TaylorOrder.SECOND, GateMode.SOFT, TrainMode.MONO_SOFT_CONVEX),
    }
    if name == "baseline":
        return {"baseline": True}
    if name not in table:
        raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}")
    order, gate, mode = table[name]
    return {"baseline": False, "order": order, "gate_mode": gate, "mode": mode}


def build_variant(name: str, mono_spec: MonoSpec, data, width: int, seed: int):
    """Construct an untrained model for a named variant, standardized to data.

    Jacobian nets get input standardization from the expansion points, a
    per-entry output scale set to the ratio of typical state-increment to
    typical input-increment size, and an output shift anchored at the
    constant least-squares Jacobian row.  For architecture-gated variants the
    anchor is clamped to the tagged sign so every gate starts live.
    """
    recipe = variant_recipe(name)
    Zp, Zc, Xn = _batch_arrays(data)
    N = Zp.shape[1]
    nx = Xn.shape[1]
    if (mono_spec.n_states, mono_spec.n_inputs) != (nx, N):
        raise ValueError("mono spec does not match data dimensions")
    if recipe["baseline"]:
        return BaselineModel(init_standardized_net([N, width, nx], Zc, Xn, seed), nx=nx)

    dz_scale = _guarded_std(Zc - Zp)
    dx_scale = _guarded_std(Xn - Zc[:, :nx])
    # anchor each row at its constant least-squares estimate: with the net's
    # weights near zero (fresh init, or pulled down by weight decay) the row
    # reverts to the best constant Jacobian instead of drifting arbitrarily
    rows0, *_ = np.linalg.lstsq(Zc - Zp, Xn - Zc[:, :nx], rcond=None)
    glorot = nn.init_dense([N, width, N], np.random.default_rng(seed), "tanh", n_stack=nx)
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


def variant_train_mode(name: str) -> TrainMode:
    recipe = variant_recipe(name)
    return TrainMode.MSE if recipe["baseline"] else recipe["mode"]


# Shared benchmark recipe. Every variant trains with the same budget so the
# comparison isolates the constraint handling rather than per-variant tuning.
# The heavy decoupled weight decay pulls Jacobian rows toward their
# least-squares anchors, which is what keeps multi-step rollouts from
# compounding small slope errors outside the training band.
STUDY_WIDTH = 8
STUDY_EPOCHS = 4000
STUDY_LEARNING_RATE = 1e-3
STUDY_WEIGHT_DECAY = 0.9


def train_variant(name: str, mono_spec: MonoSpec, data, seed=0,
                  width=STUDY_WIDTH, **overrides):
    """Build and train a named variant under the shared benchmark recipe.

    Keyword overrides are forwarded to TrainConfig.  Returns (model, history);
    the baseline comes back wrapped so it rolls out like any other model.
    """
    data = list(data)
    cfg_kw = dict(
        epochs=STUDY_EPOCHS,
        learning_rate=STUDY_LEARNING_RATE,
        weight_decay=STUDY_WEIGHT_DECAY,
    )
    cfg_kw.update(overrides)
    cfg = TrainConfig(seed=seed, mode=variant_train_mode(name), **cfg_kw)
    if variant_recipe(name)["baseline"]:
        Zp, Zc, Xn = _batch_arrays(data)
        net, hist = train_baseline([Zc.shape[1], width, Xn.shape[1]], data, cfg)
        return BaselineModel(net, nx=Xn.shape[1]), hist
    model = build_variant(name, mono_spec, data, width=width, seed=seed)
    return train(model, data, cfg)


def lr_sweep(build_fn, data, cfg: TrainConfig, rates=SWEEP_RATES):
    """Pick a learning rate by chronological 80/20 validation, then refit.

    build_fn() must return a freshly initialized model (same seed each call).
    Returns (model, history, best_rate, report) where report maps each rate
    to its validation MSE (inf for diverged runs).
    """
    data = list(data)
    n = len(data)
    n_fit = int(round(0.8 * n))
    if n_fit < 2 or n - n_fit < 1:
        raise ValueError(f"too few samples ({n}) for a sweep split")
    fit, val = data[:n_fit], data[n_fit:]
    mse_cfg = replace(cfg, mode=TrainMode.MSE)
    report = {}
    for rate in rates:
        if rate <= 0:
            raise ValueError("sweep rates must be positive")
        try:
            candidate, _ = train(build_fn(), fit, replace(cfg, learning_rate=rate))
            report[rate] = total_loss(candidate, val, mse_cfg)
        except TrainingFault:
            report[rate] = np.inf
    best_rate = min(report, key=lambda r: (report[r], r))
    if not np.isfinite(report[best_rate]):
        raise TrainingFault("every sweep rate diverged")
    model, hist = train(build_fn(), data, replace(cfg, learning_rate=best_rate))
    return model, hist, best_rate, report
