"""Plain-numpy reference implementations that the tests check the library
against.

The library computes its losses and penalties on the reverse-mode graph
only. Here are their numpy twins, each written out as directly as it can
be, together with the central-difference oracles for input Jacobians and
parameter gradients, the per-minor cofactor loop, the per-array Adam
training loop and the per-row transition loop. None of this runs outside
the tests.
"""

import numpy as np

from mtnn import constraints as con
from mtnn import graph
from mtnn import model as md
from mtnn import net as nn
from mtnn import training as tr
from mtnn.constraints import DECREASING, INCREASING, MonoSpec
from mtnn.net import TrainingFault
from mtnn.plants import Transition


def mono_penalty(jac, spec: MonoSpec, lam_inc=con.SIGN_WEIGHT,
                 lam_dec=con.SIGN_WEIGHT) -> float:
    """Hinge on sign violations: sum lam_inc * ReLU(-J[inc]) + lam_dec * ReLU(J[dec])."""
    jac = np.asarray(jac, dtype=np.float64)
    if jac.shape != spec.tags.shape:
        raise ValueError(f"jacobian {jac.shape} vs spec {spec.tags.shape}")
    inc = spec.tags == INCREASING
    dec = spec.tags == DECREASING
    pen = ((lam_inc * np.maximum(-jac, 0.0))[inc].sum()
           + (lam_dec * np.maximum(jac, 0.0))[dec].sum())
    return float(pen)


def convex_penalty(hessian_blocks, gamma: float) -> float:
    """sum_j gamma * ReLU(-det(block_j)); penalizes negative determinants."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    blocks = np.asarray(hessian_blocks, dtype=np.float64)
    if blocks.ndim == 2:
        blocks = blocks[None]
    if blocks.shape[-1] != blocks.shape[-2]:
        raise ValueError("Hessian blocks must be square")
    dets = np.linalg.det(blocks)
    return float(gamma * np.maximum(-dets, 0.0).sum())


def principal_minor_penalty(hessian_blocks, gamma: float) -> float:
    """gamma * sum of ReLU(-minor) over every leading principal minor."""
    blocks = np.asarray(hessian_blocks, dtype=np.float64)
    if blocks.ndim == 2:
        blocks = blocks[None]
    n = blocks.shape[-1]
    pen = 0.0
    for m in range(1, n + 1):
        dets = np.linalg.det(blocks[:, :m, :m]) if m > 1 else blocks[:, 0, 0]
        pen += np.maximum(-dets, 0.0).sum()
    return float(gamma * pen)


def loss_components(model, batch, cfg):
    """(total, mse, mono, convex) of `training.train`'s loss on a batch, all
    batch means, from the numpy predictor, Jacobians and Hessian blocks.
    A model with a soft sign prior takes the sign hinge, and at second
    order the curvature hinge; every other model trains on the MSE alone."""
    Zp, Zc, Xn = batch.z_prev, batch.z_curr, batch.x_next
    B = Zp.shape[0]
    pred = md.predict_batch(model, Zc, Zp)
    per_sample = np.sum((Xn - pred) ** 2, axis=1)
    if not np.all(np.isfinite(per_sample)):
        bad = int(np.argmax(~np.isfinite(per_sample)))
        raise TrainingFault(f"non-finite loss at sample {bad}")
    mse = float(np.mean(per_sample))
    mono = convex = 0.0
    soft = getattr(model, "gate_mode", None) is md.GateMode.SOFT
    if soft:
        J = md.jacobian_matrix_batch(model, Zp)
        mono = sum(mono_penalty(J[b], model.mono_spec) for b in range(B)) / B
    if soft and model.order is md.TaylorOrder.SECOND:
        H = md.hessian_stack_batch(model, Zp)
        pen_fn = principal_minor_penalty if cfg.strict_minors else convex_penalty
        convex = sum(pen_fn(H[b], con.CURVATURE_WEIGHT) for b in range(B)) / B
    total = mse + mono + convex
    return total, mse, mono, convex


def fd_input_jacobian(net: nn.DenseNet, z, step: float = 1e-5):
    """Central-difference Jacobian of every member at one input: (S, O, I)."""
    z = np.asarray(z, dtype=np.float64)
    J = np.zeros((net.n_stack, net.n_out, net.n_in))
    for i in range(net.n_in):
        zp, zm = z.copy(), z.copy()
        zp[i] += step
        zm[i] -= step
        J[:, :, i] = (nn.forward(net, zp[None]) - nn.forward(net, zm[None]))[:, 0] / (2 * step)
    return J


def loss_gradient(net: nn.DenseNet, loss_fn):
    """(loss value, ParamGradient) of loss_fn(tape) by reverse mode on a
    fresh tape: the graph path that `fd_loss_gradient` checks."""
    tape = nn.NetTape(net)
    out = loss_fn(tape)
    graph.backward(out)
    return float(out.value), tape.gradients()


def fd_loss_gradient(net: nn.DenseNet, loss_fn, step: float = 1e-6) -> nn.ParamGradient:
    """Central-difference gradient of loss_fn over every parameter."""

    def value():
        tape = nn.NetTape(net)
        return float(loss_fn(tape).value)

    gw, gb = [], []
    for arrs, out in ((net.weights, gw), (net.biases, gb)):
        for A in arrs:
            G = np.zeros_like(A)
            it = np.nditer(A, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = A[idx]
                A[idx] = orig + step
                fp = value()
                A[idx] = orig - step
                fm = value()
                A[idx] = orig
                G[idx] = (fp - fm) / (2 * step)
                it.iternext()
            out.append(G)
    return nn.ParamGradient(gw, gb)


def cofactor(A):
    """Cofactor matrix of A[..., N, N], one np.linalg.det call per minor:
    the loop that `graph._cofactor` runs as one batched determinant."""
    n = A.shape[-1]
    if n == 1:
        return np.ones_like(A)
    C = np.empty_like(A)
    rows = np.arange(n)
    for i in range(n):
        minor_rows = A[..., rows != i, :]
        for j in range(n):
            minor = minor_rows[..., rows != j]
            C[..., i, j] = ((-1.0) ** (i + j)) * np.linalg.det(minor)
    return C


class ArrayAdam:
    """Adam with one moment pair per parameter array; decoupled weight
    decay skips the arrays flagged as biases."""

    def __init__(self, arrays, cfg, is_bias):
        self.arrays = arrays
        self.lr = cfg.learning_rate
        self.b1, self.b2 = tr.ADAM_BETAS
        self.eps = tr.ADAM_DENOM_EPS
        self.wd = cfg.weight_decay
        self.is_bias = is_bias
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


def train_per_array(model, data, cfg):
    """`training.train` with an `ArrayAdam` over the net's own arrays,
    without its fault checks, and with a fresh loss graph built on a new
    tape every epoch where `train` replays one; returns (best model,
    (epochs, 4) array of total, mse, mono and convex per epoch)."""
    Zp, Zc, Xn = data.z_prev, data.z_curr, data.x_next
    model = model.copy()
    net = model.net
    arrays = [*net.weights, *net.biases]
    opt = ArrayAdam(arrays, cfg, [False] * len(net.weights) + [True] * len(net.biases))
    rows, best_total, best_params = [], np.inf, None
    for _ in range(cfg.epochs):
        tape = nn.NetTape(net)
        total_var, parts = tr._loss_graph(tape, model, Zp, Zc, Xn, cfg)
        tot = float(total_var.value)
        if tot < best_total:
            best_total, best_params = tot, [A.copy() for A in arrays]
        graph.backward(total_var)
        pg = tape.gradients()
        opt.step([*pg.weights, *pg.biases])
        rows.append((tot, *(float(p.value) for p in parts)))
    for A, snap in zip(arrays, best_params):
        np.copyto(A, snap)
    return model, np.array(rows)


def transitions_per_row(series) -> tuple:
    """`plants.to_transitions` as a loop over samples: one `Transition` per
    (prev, curr, next) triple, restacked into float64 (Z_prev, Z_curr,
    X_next) arrays."""
    rows = []
    for k in range(1, len(series) - 1):
        z_prev = np.concatenate([series.x[k - 1], series.u[k - 1]])
        z_curr = np.concatenate([series.x[k], series.u[k]])
        rows.append(Transition(z_prev, z_curr, series.x[k + 1].copy()))
    return tuple(np.array([getattr(t, f) for t in rows], dtype=np.float64)
                 for f in ("z_prev", "z_curr", "x_next"))
