"""Plain-numpy reference implementations that the tests check the library
against.

The library computes its losses, penalties and differentiable sign gate on
the reverse-mode graph only. Here are their numpy twins, each written out
as directly as it can be, together with:
  * the central-difference oracles for input Jacobians and parameter
    gradients, the per-minor cofactor loop, the per-array Adam training loop
    and the per-row transition loop;
  * the numpy step kernel as it ran before it worked in place: `run`, the
    batch-major net kernel, which keeps activations as (S, B, H) where
    `net._run` keeps (S, H, B); `predict_batch` over it; `gate_mask_of`;
  * the rollout's per-column scoring, `mean_over_outputs` of the metrics
    `r2` and `rmse`;
  * the controller's step-Jacobian graph as it was built on three leaves
    (`step_jacobians`);
  * the training graph as it ran batch-first, (S, B, H) on the tape:
    `BatchFirstTape`, its `linear`, `bmat_vec` and `dot_rows`, and
    `loss_graph`, the loss of `training._loss_graph` over them.
None of this runs outside the tests.
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


def apply_sign_gate(raw, tags):
    """Increasing -> ReLU(raw), Decreasing -> -ReLU(raw), Free -> raw, as
    raw * con.gate_mask_of(tags)(raw) (a rectified entry may read -0.0):
    the numpy gate that `constraints.apply_sign_gate_graph` is checked
    against. `raw` may carry leading batch axes."""
    raw = np.asarray(raw, dtype=np.float64)
    return raw * con.gate_mask_of(tags)(raw)


def loss_components(model, batch):
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
        convex = sum(convex_penalty(H[b], con.CURVATURE_WEIGHT) for b in range(B)) / B
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


def train_per_array(model, data, cfg, tape_of=nn.NetTape, loss_graph=tr._loss_graph):
    """`training.train` with an `ArrayAdam` over the net's own arrays,
    without its fault checks, and with a fresh loss graph built on a new
    tape every epoch where `train` replays one; returns (best model,
    (epochs, 4) array of total, mse, mono and convex per epoch). `tape_of`
    and `loss_graph` swap in another tape and loss (the batch-first ones)."""
    Zp, Zc, Xn = data.z_prev, data.z_curr, data.x_next
    model = model.copy()
    net = model.net
    arrays = [*net.weights, *net.biases]
    opt = ArrayAdam(arrays, cfg, [False] * len(net.weights) + [True] * len(net.biases))
    rows, best_total, best_params = [], np.inf, None
    for _ in range(cfg.epochs):
        tape = tape_of(net)
        total_var, parts = loss_graph(tape, model, Zp, Zc, Xn)
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


def run(net: nn.DenseNet, z, t=None) -> tuple:
    """`net._run` batch-major, activations (S, B, H), with a fresh array for
    every operation: outputs (S, B, O) and, given an input tangent
    t (..., B, I), its image (..., S, B, O)."""
    a = (nn._batch(net, z) - net.in_shift[:, None, :]) / net.in_scale[:, None, :]
    if t is not None:
        t = t / net.in_scale[:, None, :]
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.tanh(a @ W.mT + b[:, None, :])
        if t is not None:
            t = (1.0 - a * a) * (t @ W.mT)
    out = a @ net.weights[-1].mT + net.biases[-1][:, None, :]
    out = out * net.out_scale[:, None, :] + net.out_shift[:, None, :]
    if t is not None:
        t = (t @ net.weights[-1].mT) * net.out_scale[:, None, :]
    return out, t


def gate_mask_of(tags):
    """`constraints.gate_mask_of` as a broadcast np.where."""
    tags = np.asarray(tags, dtype=np.int8)
    free = tags == con.FREE
    on, off = np.where(free, 1.0, tags), np.where(free, 1.0, 0.0)
    return lambda raw: np.where(np.asarray(raw) > 0.0, on, off)


def predict_batch(model, Z_curr, Z_prev):
    """`model.predict_batch` as one unblocked kernel over `run`, with the
    mask applied by fresh products: (B, N) pairs -> (B, Nx)."""
    Z_c = np.asarray(Z_curr, dtype=np.float64)
    Z_p = np.asarray(Z_prev, dtype=np.float64)
    if isinstance(model, md.BaselineModel):
        return run(model.net, Z_c)[0][0]
    dz = Z_c - Z_p
    if model.order is md.TaylorOrder.SECOND:
        raw, Hdz = (a.swapaxes(0, 1) for a in run(model.net, Z_p, dz))
    else:
        raw, Hdz = run(model.net, Z_p)[0].swapaxes(0, 1), None
    mask = gate_mask_of(model.mono_spec.tags)(raw) if model.gated else 1.0
    x_hat = Z_c[:, : model.nx] + np.einsum("bjn,bn->bj", raw * mask, dz)
    if Hdz is not None:
        x_hat = x_hat + 0.5 * np.einsum("bjn,bn->bj", Hdz * mask, dz)
    zero = ~dz.any(axis=1)
    x_hat[zero] = Z_c[zero, : model.nx]
    return x_hat


def r2(pred, actual) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if pred.shape != actual.shape:
        raise ValueError(f"length mismatch {pred.shape} vs {actual.shape}")
    if len(actual) < 2:
        raise ValueError("r2 needs at least 2 points")
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2 undefined for a constant actual series")
    ss_res = float(np.sum((actual - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def rmse(pred, actual) -> float:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if pred.shape != actual.shape:
        raise ValueError(f"length mismatch {pred.shape} vs {actual.shape}")
    if len(actual) == 0:
        raise ValueError("rmse needs at least 1 point")
    return float(np.sqrt(np.mean((actual - pred) ** 2)))


def mean_over_outputs(metric, pred, act) -> float:
    """A metric of every state column, averaged: the rollout's scoring as
    one `r2` or `rmse` call per column."""
    return float(np.mean([metric(pred[:, j], act[:, j]) for j in range(pred.shape[1])]))


def step_jacobians(model, Z):
    """(d x_hat_k / d z_curr_k, d x_hat_k / d z_prev_k), two (H, nx, N) arrays,
    of every step of the pairs Z (H+1, N), from the controller's graph as it
    was built on three leaves: the states x, the inputs u and z_prev, with
    z_curr = [x; u] assembled by `graph.linear` selector maps and
    x_hat = x + increments recorded on the graph. Each pair is repeated nx
    times and batch row (k, i) picks output i."""
    nx, N, H = model.nx, Z.shape[1], len(Z) - 1
    pairs = np.repeat(Z, nx, axis=0)
    x, u, zp = (graph.Var(a) for a in (pairs[nx:, :nx], pairs[nx:, nx:], pairs[:-nx]))
    select = np.eye(N)
    # (B, N) rows: x (B, nx) @ select[:nx] + u (B, nu) @ select[nx:], exact
    zc = graph.linear(select[:nx], x) + graph.linear(select[nx:], u)
    tape = nn.NetTape(model.net, frozen=True)
    if isinstance(model, md.BaselineModel):
        x_hat = graph.moveaxis(tape.forward(zc), -1, -2)  # (1, B, nx): a stack of one
    else:
        incr, _, _ = md.taylor_increments(tape, model, zc, zp)
        x_hat = x + graph.moveaxis(incr, -1, -2)
    graph.backward(graph.sum_all(graph.mul(x_hat, np.tile(np.eye(nx), (H, 1)))))
    Jc = np.concatenate([x.grad, u.grad], axis=1).reshape(H, nx, N)
    Jp = np.zeros((H, nx, N)) if zp.grad is None else zp.grad.reshape(H, nx, N)
    return Jc, Jp


def linear(x, W, b=None):
    """Batch-first `graph.linear`: y[..., B, O] = x[..., B, I] @ W[..., O, I].T + b[..., O]."""
    x, W = graph._operand(x), graph._operand(W)
    if b is None:
        def fwd():
            return x.value @ W.value.swapaxes(-1, -2)
    else:
        b = graph._operand(b)

        def fwd():
            return x.value @ W.value.swapaxes(-1, -2) + b.value[..., None, :]
    return graph._node(
        fwd,
        (x, lambda g: g @ W.value),
        (W, lambda g: g.swapaxes(-1, -2) @ x.value),
        (b, lambda g: g.sum(axis=-2)),
    )


def bmat_vec(A, v):
    """Batch-first `graph.bmat_vec`: out[..., M] = A[..., M, N] @ v[..., N]."""
    A, v = graph._operand(A), graph._operand(v)
    return graph._node(
        lambda: (A.value @ v.value[..., None])[..., 0],
        (A, lambda g: g[..., :, None] * v.value[..., None, :]),
        (v, lambda g: (A.value.swapaxes(-1, -2) @ g[..., None])[..., 0]),
    )


def dot_rows(u, v):
    """Batch-first `graph.dot_rows`: out[...] = sum_n u[..., n] * v[..., n]."""
    u, v = graph._operand(u), graph._operand(v)
    return graph._node(
        lambda: (u.value * v.value).sum(axis=-1),
        (u, lambda g: g[..., None] * v.value),
        (v, lambda g: g[..., None] * u.value),
    )


class BatchFirstTape(nn.NetTape):
    """`net.NetTape` as it ran batch-first: (S, B, I) standardized inputs,
    (S, B, H) activations, and (S, B, O) outputs, (S, B, O) directional
    tangents and (S, B, O, I) Jacobians, over the batch-first ops above."""

    def forward_and_jacobian(self, z, v=None):
        a = self._input(z)
        n, B = self.net.n_in, a.shape[1]
        if v is None:
            out, T = self._run(a, nn._basis(n, B))
            return out, graph.moveaxis(T, 0, -1)
        return self._run(a, v)

    def _input(self, z):
        net = self.net
        if not isinstance(z, graph.Var):
            return (nn._batch(net, z) - net.in_shift[:, None, :]) / net.in_scale[:, None, :]
        return (z - net.in_shift[:, None, :]) * (1.0 / net.in_scale[:, None, :])

    def _run(self, a, t=None):
        net = self.net
        if t is not None:
            t = t * (1.0 / net.in_scale[:, None, :])
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = graph.tanh(linear(a, W, b))
            if t is not None:
                t = (1.0 - a * a) * linear(t, W)
        out = linear(a, self.weights[-1], self.biases[-1])
        out = out * net.out_scale[:, None, :] + net.out_shift[:, None, :]
        if t is not None:
            t = linear(t, self.weights[-1]) * net.out_scale[:, None, :]
        return out, t


def loss_graph(tape: BatchFirstTape, model, Zp, Zc, Xn):
    """`training._loss_graph` batch-first on a `BatchFirstTape`: (total,
    (mse, mono, convex)), with the Taylor step of `model.taylor_increments`
    and both hinges of `constraints` over (Nx, B, N) rows and (Nx, B, N, N)
    blocks."""
    B = Zp.shape[0]
    mono = convex = graph.Var(0.0)
    if isinstance(model, md.BaselineModel):
        resid = tape.forward(Zc) - Xn
        mse = graph.sum_all(resid * resid) * (1.0 / B)
        return mse, (mse, mono, convex)
    soft = model.gate_mode is md.GateMode.SOFT
    second = model.order is md.TaylorOrder.SECOND
    dz = Zc - Zp
    tags = model.mono_spec.tags[:, None, :]
    blocks = Hdz = None
    if soft and second:
        raw, blocks = tape.forward_and_jacobian(Zp)
    elif second:
        raw, Hdz = tape.forward_and_jacobian(Zp, dz)
    else:
        raw = tape.forward(Zp)
    rows = raw
    if model.gated:
        rows = graph.masked(raw, con.gate_mask_of(tags))
        if Hdz is not None:
            Hdz = graph.masked(Hdz, con.gate_mask_of(tags), raw)
    incr = dot_rows(rows, dz)
    if second:
        if blocks is not None:
            Hdz = bmat_vec(blocks, dz)
        incr = incr + dot_rows(Hdz, dz) * 0.5
    resid = incr - (Xn - Zc[:, : model.nx]).T
    total = mse = graph.sum_all(resid * resid) * (1.0 / B)
    if soft:
        neg_tags = -tags.astype(np.float64)
        mono = graph.sum_all(graph.relu(rows * neg_tags)) * con.SIGN_WEIGHT * (1.0 / B)
        total = total + mono
    if blocks is not None:
        convex = graph.sum_all(graph.relu(-graph.det(blocks))) * con.CURVATURE_WEIGHT * (1.0 / B)
        total = total + convex
    return total, (mse, mono, convex)
