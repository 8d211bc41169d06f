"""Plain-numpy reference implementations that the tests check the library
against.

The library computes its losses and penalties on the reverse-mode graph
only. Here are their numpy twins, each written out as directly as it can
be, together with the central-difference oracles for input Jacobians and
parameter gradients. None of this runs outside the tests.
"""

import numpy as np

from mtnn import constraints as con
from mtnn import graph
from mtnn import model as md
from mtnn import net as nn
from mtnn.constraints import DECREASING, INCREASING, MonoSpec
from mtnn.net import TrainingFault
from mtnn.plants import transitions_to_arrays


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
    batch means, from the numpy predictor, Jacobians and Hessian blocks."""
    Zp, Zc, Xn = transitions_to_arrays(batch)
    B = Zp.shape[0]
    pred = md.predict_batch(model, Zc, Zp)
    per_sample = np.sum((Xn - pred) ** 2, axis=1)
    if not np.all(np.isfinite(per_sample)):
        bad = int(np.argmax(~np.isfinite(per_sample)))
        raise TrainingFault(f"non-finite loss at sample {bad}")
    mse = float(np.mean(per_sample))
    mono = convex = 0.0
    if cfg.mode.wants_mono:
        J = md.jacobian_matrix_batch(model, Zp)
        mono = sum(mono_penalty(J[b], model.mono_spec) for b in range(B)) / B
    if cfg.mode.wants_convex:
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
        J[:, :, i] = (nn.forward(net, zp) - nn.forward(net, zm)) / (2 * step)
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
