"""Taylor predictors built around learned Jacobian networks.

The model never learns the dynamics map directly. One dense net per state
output learns the corresponding row of the Jacobian of the unknown
discrete-time update, evaluated at the previous sample z_prev = [x_prev;
u_prev]. Prediction is then a Taylor step about z_prev:

    first order   x_hat = x_curr + J(z_prev) dz
    second order  x_hat_j += 1/2 dz^T H_j(z_prev) dz

with dz = z_curr - z_prev and H_j the input-derivative of Jacobian row j
(one N x N block per state). Because x_curr is the measured state, the
expansion point is always the previous sample and the zero-increment case
returns x_curr exactly.

The step has exactly two evaluators, both batched: `predict_batch` in
numpy for prediction and rollout, and `taylor_increments` on the reverse-mode
graph, shared by training (the loss) and the controller (differentiating
through the rollout). A single sample is a batch of one, so `predict` is
`predict_batch` on one row.

A direct net z_curr -> x_next serves as the no-structure baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import constraints, graph
from . import net as nn
from .constraints import MonoSpec, apply_sign_gate, gate_derivative_mask

Array = np.ndarray

BUNDLE_VERSION = "mtnn-v1"


class TaylorOrder(str, Enum):
    FIRST = "first"
    SECOND = "second"


class GateMode(str, Enum):
    ARCHITECTURE = "architecture"
    SOFT = "soft"
    NONE = "none"


@dataclass
class MtnnModel:
    nets: list  # one N->N DenseNet per state output
    mono_spec: MonoSpec
    order: TaylorOrder = TaylorOrder.FIRST
    gate_mode: GateMode = GateMode.NONE
    symmetrize_hessian: bool = False

    def __post_init__(self):
        self.order = TaylorOrder(self.order)
        self.gate_mode = GateMode(self.gate_mode)
        if not self.nets:
            raise ValueError("need at least one Jacobian net")
        n = self.nets[0].n_in
        for j, net in enumerate(self.nets):
            if net.n_in != n or net.n_out != n:
                raise ValueError(
                    f"net {j} maps {net.n_in}->{net.n_out}, every net must map {n}->{n}"
                )
        if self.mono_spec.tags.shape != (len(self.nets), n):
            raise ValueError(
                f"mono spec {self.mono_spec.tags.shape} does not match "
                f"({len(self.nets)}, {n})"
            )

    @property
    def nx(self) -> int:
        return len(self.nets)

    @property
    def n(self) -> int:
        return self.nets[0].n_in

    @property
    def nu(self) -> int:
        return self.n - self.nx

    @property
    def gated(self) -> bool:
        return self.gate_mode == GateMode.ARCHITECTURE

    def copy(self) -> "MtnnModel":
        return MtnnModel(
            [net.copy() for net in self.nets],
            MonoSpec(self.mono_spec.tags.copy()),
            self.order,
            self.gate_mode,
            self.symmetrize_hessian,
        )


@dataclass
class BaselineModel:
    """Direct map z_curr -> x_next, no Taylor structure."""

    net: nn.DenseNet
    nx: int

    def __post_init__(self):
        if self.net.n_out != self.nx:
            raise ValueError(f"baseline net outputs {self.net.n_out}, nx = {self.nx}")

    @property
    def nets(self) -> list:
        return [self.net]

    @property
    def n(self) -> int:
        return self.net.n_in

    @property
    def nu(self) -> int:
        return self.n - self.nx

    def copy(self) -> "BaselineModel":
        return BaselineModel(self.net.copy(), self.nx)


def _as_z(z, n: int) -> Array:
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != n:
        raise ValueError(f"z has width {z.shape[-1]}, model expects {n}")
    return z


def jacobian_matrix_batch(model: MtnnModel, Z_prev) -> Array:
    """Learned Jacobian at each row: (B, N) -> (B, Nx, N), gated when the
    model is gated."""
    Z = _as_z(Z_prev, model.n)
    rows = np.stack([nn.forward(net, Z) for net in model.nets], axis=1)
    if model.gated:
        rows = apply_sign_gate(rows, model.mono_spec.tags)
    return rows


def hessian_stack_batch(model: MtnnModel, Z_prev) -> Array:
    """Input-derivatives of the (gated) Jacobian rows: (B, N) -> (B, Nx, N, N).

    Under the architecture gate the block rows are masked by the gate
    derivative (a step function of the raw output), which is the almost-
    everywhere exact derivative of the gated rows.
    """
    Z = _as_z(Z_prev, model.n)
    blocks = np.stack([nn.input_jacobian(net, Z) for net in model.nets], axis=1)
    if model.gated:
        raw = np.stack([nn.forward(net, Z) for net in model.nets], axis=1)
        mask = gate_derivative_mask(raw, model.mono_spec.tags)
        blocks = mask[:, :, :, None] * blocks
    if model.symmetrize_hessian:
        blocks = 0.5 * (blocks + np.swapaxes(blocks, -1, -2))
    return blocks


def predict(model, z_curr, z_prev) -> Array:
    """Next-state prediction x_hat for one pair: a batch of one."""
    z_curr = np.asarray(z_curr, dtype=np.float64)
    z_prev = np.asarray(z_prev, dtype=np.float64)
    return predict_batch(model, z_curr[None], z_prev[None])[0]


def predict_batch(model, Z_curr, Z_prev) -> Array:
    """(B, N) pairs -> (B, Nx); dispatches on the model kind."""
    if isinstance(model, BaselineModel):
        return nn.forward(model.net, _as_z(Z_curr, model.n))
    Z_c = _as_z(Z_curr, model.n)
    Z_p = _as_z(Z_prev, model.n)
    dz = Z_c - Z_p
    if not np.isfinite(dz).all():
        raise ValueError("non-finite increment between z_curr and z_prev")
    J = jacobian_matrix_batch(model, Z_p)
    x_hat = Z_c[:, : model.nx] + np.einsum("bjn,bn->bj", J, dz)
    if model.order == TaylorOrder.SECOND:
        H = hessian_stack_batch(model, Z_p)
        x_hat = x_hat + 0.5 * np.einsum("bm,bjmn,bn->bj", dz, H, dz)
    # restore the exact fixpoint for rows with a literally zero increment
    zero = ~dz.any(axis=1)
    if zero.any():
        x_hat[zero] = Z_c[zero, : model.nx]
    return x_hat


def taylor_increments(tape: nn.NetTape, model: MtnnModel, z_curr, z_prev,
                      need_blocks: bool = False):
    """Graph twin of the Taylor step: x_hat[:, j] = x_curr[:, j] + incrs[j].

    z_curr and z_prev are (B, N) arrays or Vars; gradients flow into the
    net parameters on `tape` and into whichever of z_curr / z_prev is a Var.
    Returns three per-state lists: the (B,) increments, the (gated)
    Jacobian rows (B, N) and the (masked, optionally symmetrized) Hessian
    blocks (B, N, N). Blocks are built for second-order models or when
    `need_blocks` asks for them (a curvature penalty), else they are None.
    """
    dz = z_curr - z_prev
    tags = model.mono_spec.tags
    second = model.order is TaylorOrder.SECOND
    incrs, rows, blocks = [], [], []
    for j in range(model.nx):
        if second or need_blocks:
            raw, block = tape.forward_and_jacobian(z_prev, j)
        else:
            raw, block = tape.forward(z_prev, j), None
        row = raw
        if model.gated:
            # called through the module so that a wrapper installed there
            # (the benchmark's traced run) sees it
            row = constraints.apply_sign_gate_graph(raw, tags[j])
            if block is not None:
                # step-function gate derivative: detached, a.e. exact
                mask = gate_derivative_mask(raw.value, tags[j])
                block = graph.mul(block, mask[:, :, None])
        if block is not None and model.symmetrize_hessian:
            block = graph.scale(block + graph.transpose_last(block), 0.5)
        incr = graph.dot_rows(row, dz)
        if second:
            Hdz = graph.bmat_vec(block, dz)
            incr = incr + graph.scale(graph.dot_rows(Hdz, dz), 0.5)
        incrs.append(incr)
        rows.append(row)
        blocks.append(block)
    return incrs, rows, blocks


def model_to_dict(model) -> dict:
    if isinstance(model, BaselineModel):
        return {
            "version": BUNDLE_VERSION,
            "kind": "baseline",
            "nx": model.nx,
            "net": nn.net_to_dict(model.net),
        }
    return {
        "version": BUNDLE_VERSION,
        "kind": "mtnn",
        "order": model.order.value,
        "gate_mode": model.gate_mode.value,
        "symmetrize_hessian": model.symmetrize_hessian,
        "mono_spec": model.mono_spec.to_symbols(),
        "nets": [nn.net_to_dict(net) for net in model.nets],
    }


def model_from_dict(d: dict):
    if d.get("version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {d.get('version')!r}")
    kind = d.get("kind")
    if kind == "baseline":
        return BaselineModel(nn.net_from_dict(d["net"]), int(d["nx"]))
    if kind == "mtnn":
        return MtnnModel(
            [nn.net_from_dict(nd) for nd in d["nets"]],
            MonoSpec.from_symbols(d["mono_spec"]),
            TaylorOrder(d["order"]),
            GateMode(d["gate_mode"]),
            bool(d["symmetrize_hessian"]),
        )
    raise ValueError(f"unknown bundle kind {kind!r}")


def save_bundle(model, path) -> None:
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, sort_keys=True)
        f.write("\n")


def load_bundle(path):
    with open(path) as f:
        return model_from_dict(json.load(f))
