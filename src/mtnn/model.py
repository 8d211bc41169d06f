"""Taylor predictors built around learned Jacobian networks.

The model never learns the dynamics map directly. One stack of nx dense
nets learns the Jacobian of the unknown discrete-time update, evaluated at
the previous sample z_prev = [x_prev; u_prev]: member j learns row j.
Prediction is then a Taylor step about z_prev:

    first order   x_hat = x_curr + J(z_prev) dz
    second order  x_hat_j += 1/2 dz^T H_j(z_prev) dz

with dz = z_curr - z_prev and H_j the input-derivative of Jacobian row j
(one N x N block per state). Because x_curr is the measured state, the
expansion point is always the previous sample and the zero-increment case
returns x_curr exactly.

The step never builds H_j: dz^T H_j dz needs only H_j dz, the derivative of
row j along dz, so one tangent dz is carried forward through the nets
(`net.input_jacobian(net, z, v)`, `NetTape.forward_and_jacobian(z, v)`)
instead of N Jacobian columns; both return the net outputs too, so a step
runs the net stack once. The full blocks are built only for the curvature
penalty (`hessian_stack_batch`, or `need_blocks` on the graph), which hinges
their determinants as they come, unsymmetrized.
The architecture gate multiplies the rows, H_j dz and the block rows by one
detached mask of the raw outputs, `constraints.gate_mask_of(tags)(raw)`,
which a MonoSpec derives once as its `gate_mask`. The numpy step builds the
mask once per step and applies it in place to the rows and H_j dz, which
the net pass has just made.

The step has exactly two evaluators, both batched: one numpy kernel for
prediction and rollout, and `taylor_increments` on the reverse-mode graph,
shared by training (the loss) and the controller (differentiating through
the rollout). Both handle every state at once through the stack's leading
member axis. The numpy kernel has two entries that differ only in their
checks: `predict_batch` checks a (B, N) batch, and `predict`, which the
controller calls once per rollout step, checks one (N,) pair and runs the
kernel on a batch of one. `predict_batch` streams a batch longer than one
block (BLOCK_FLOATS per activation array) through the kernel in near-equal
row blocks, so a long rollout step holds one block's temporaries, not the
whole batch's. No block is a single row: numpy computes a one-row batch
by matrix-vector products, which round differently, so blocking leaves
every prediction bit for bit as the whole-batch kernel gives it.

A direct net z_curr -> x_next (a stack of one) serves as the no-structure
baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import constraints, graph
from . import net as nn
from .constraints import MonoSpec

Array = np.ndarray

BUNDLE_VERSION = "mtnn-v1"

# floats (256 KiB) per net activation array in a `predict_batch` block: on the
# 20 000-row TCLab rollout (2-core VM, one BLAS thread), 2**15 ran faster
# than 2**14, 2**16 and 2**17
BLOCK_FLOATS = 2**15


class TaylorOrder(str, Enum):
    FIRST = "first"
    SECOND = "second"


class GateMode(str, Enum):
    """How the sign prior is enforced. ARCHITECTURE gates the Jacobian rows,
    so every prediction obeys it. SOFT predicts exactly as NONE (no prior)
    does; `training.train` enforces it by the sign hinge and, at second
    order, the curvature hinge."""

    ARCHITECTURE = "architecture"
    SOFT = "soft"
    NONE = "none"


@dataclass
class MtnnModel:
    net: nn.DenseNet  # a stack of nx N->N nets (or a list of them); member j learns row j
    mono_spec: MonoSpec
    order: TaylorOrder = TaylorOrder.FIRST
    gate_mode: GateMode = GateMode.NONE

    def __post_init__(self):
        self.order = TaylorOrder(self.order)
        self.gate_mode = GateMode(self.gate_mode)
        if not isinstance(self.net, nn.DenseNet):
            self.net = nn.stack(self.net)
        n = self.net.n_in
        if self.net.n_out != n:
            raise ValueError(f"nets map {n}->{self.net.n_out}, every net must map {n}->{n}")
        if self.mono_spec.tags.shape != (self.nx, n):
            raise ValueError(
                f"mono spec {self.mono_spec.tags.shape} does not match ({self.nx}, {n})"
            )

    @property
    def nx(self) -> int:
        return self.net.n_stack

    @property
    def n(self) -> int:
        return self.net.n_in

    @property
    def nu(self) -> int:
        return self.n - self.nx

    @property
    def gated(self) -> bool:
        return self.gate_mode == GateMode.ARCHITECTURE

    def copy(self) -> "MtnnModel":
        return MtnnModel(
            self.net.copy(),
            self.mono_spec,  # read-only, so shared
            self.order,
            self.gate_mode,
        )


@dataclass
class BaselineModel:
    """Direct map z_curr -> x_next, no Taylor structure."""

    net: nn.DenseNet
    nx: int

    def __post_init__(self):
        if self.net.n_stack != 1:
            raise ValueError(f"baseline needs one net, not a stack of {self.net.n_stack}")
        if self.net.n_out != self.nx:
            raise ValueError(f"baseline net outputs {self.net.n_out}, nx = {self.nx}")

    @property
    def n(self) -> int:
        return self.net.n_in

    @property
    def nu(self) -> int:
        return self.n - self.nx

    def copy(self) -> "BaselineModel":
        return BaselineModel(self.net.copy(), self.nx)


def _raw_rows(model: MtnnModel, Z: Array) -> Array:
    """Ungated net outputs (B, Nx, N): member j's output is row j."""
    return nn.forward(model.net, Z).swapaxes(0, 1)


def jacobian_matrix_batch(model: MtnnModel, Z_prev) -> Array:
    """Learned Jacobian at each row: (B, N) -> (B, Nx, N), gated when the
    model is gated."""
    rows = _raw_rows(model, Z_prev)
    if model.gated:
        rows *= model.mono_spec.gate_mask(rows)
    return rows


def hessian_stack_batch(model: MtnnModel, Z_prev) -> Array:
    """Input-derivatives of the (gated) Jacobian rows: (B, N) -> (B, Nx, N, N).

    Under the architecture gate the block rows are masked by the gate
    derivative (a step function of the raw output, read from the same net
    pass), which is the almost-everywhere exact derivative of the gated
    rows. The Taylor step does not build these blocks; only the tests read
    them, among them the numpy loss oracle in `tests/oracles.py`.
    """
    raw, blocks = (np.swapaxes(a, 0, 1) for a in nn.input_jacobian(model.net, Z_prev))
    if model.gated:
        blocks *= model.mono_spec.gate_mask(raw)[..., None]
    return blocks


def predict(model, z_curr, z_prev) -> Array:
    """Next-state prediction x_hat (Nx,) for one (N,) pair: the step kernel on
    a batch of one."""
    z_c = np.asarray(z_curr, dtype=np.float64)
    z_p = np.asarray(z_prev, dtype=np.float64)
    pair = (model.n,)
    if z_c.shape != pair or z_p.shape != pair:
        raise ValueError(f"z_curr has shape {z_c.shape}, z_prev {z_p.shape}; "
                         f"model expects a pair of {pair}")
    return _step(model, z_c[None], z_p[None])[0]


def predict_batch(model, Z_curr, Z_prev) -> Array:
    """(B, N) pairs -> (B, Nx): the step kernel after the batch checks, the
    nets' one batch rule (`net._batch`) on each side and equal shapes.

    The kernel runs on ceil(B / rows) contiguous, near-equal row blocks
    (rows = `_block_rows(model.net)`) written into one (B, Nx) output, so
    only one block's net temporaries exist at a time; every row is bit for
    bit what the kernel gives on the whole batch.
    """
    Z_c = nn._batch(model.net, Z_curr)
    Z_p = nn._batch(model.net, Z_prev)
    if Z_c.shape != Z_p.shape:
        raise ValueError(f"z_curr has shape {Z_c.shape}, z_prev {Z_p.shape}; they must match")
    B, rows = len(Z_c), _block_rows(model.net)
    k = max(-(-B // rows), 1)  # ceil(B / rows) blocks, at least one, of B // k or B // k + 1 rows
    edges = [i * B // k for i in range(k + 1)]
    out = np.empty((B, model.nx))
    for lo, hi in zip(edges[:-1], edges[1:]):
        out[lo:hi] = _step(model, Z_c[lo:hi], Z_p[lo:hi])
    return out


def _block_rows(net: nn.DenseNet) -> int:
    """Rows per `predict_batch` block: BLOCK_FLOATS over one (S, rows, widest
    layer) activation array, and at least 3, so that no near-equal block of
    a longer batch is a single row."""
    return max(BLOCK_FLOATS // (net.n_stack * max(net.layer_dims)), 3)


def _step(model, Z_c: Array, Z_p: Array) -> Array:
    """The step on (B, N) float64 pairs whose shapes the caller has checked;
    dispatches on the model kind.

    The rows are m_j * raw_j and the second-order term 1/2 dz . (m_j * (D_j dz)),
    with m_j the gate derivative mask (1 ungated) and D_j dz the derivative
    of net j along dz, read from the same net pass as raw_j. A non-finite
    increment is a ValueError.
    """
    if isinstance(model, BaselineModel):
        return nn.forward(model.net, Z_c)[0]
    dz = Z_c - Z_p
    if not np.isfinite(dz).all():
        raise ValueError("non-finite increment between z_curr and z_prev")
    if model.order is TaylorOrder.SECOND:
        raw, Hdz = (a.swapaxes(0, 1) for a in nn.input_jacobian(model.net, Z_p, dz))
    else:
        raw, Hdz = _raw_rows(model, Z_p), None
    if model.gated:  # one mask, applied in place to both fresh net outputs
        mask = model.mono_spec.gate_mask(raw)
        raw *= mask
        if Hdz is not None:
            Hdz *= mask
    x_hat = Z_c[:, : model.nx] + np.einsum("bjn,bn->bj", raw, dz)
    if Hdz is not None:
        x_hat += 0.5 * np.einsum("bjn,bn->bj", Hdz, dz)
    if not dz.all():
        # restore the exact fixpoint for rows with a literally zero increment
        zero = ~dz.any(axis=1)
        x_hat[zero] = Z_c[zero, : model.nx]
    return x_hat


def taylor_increments(tape: nn.NetTape, model: MtnnModel, z_curr, z_prev,
                      need_blocks: bool = False):
    """Graph twin of the Taylor step: x_hat = x_curr + increments.T.

    z_curr and z_prev are (B, N) arrays or Vars; gradients flow into the
    net parameters on `tape` and into whichever of z_curr / z_prev is a Var.
    Returns three Vars over all states at once: the increments (Nx, B), the
    (gated) Jacobian rows (Nx, B, N) and, when `need_blocks` asks for them (a
    curvature penalty), the (masked) Hessian blocks (Nx, B, N, N), else
    None. A second-order step reads H dz from the blocks when they are
    built, and otherwise carries the one tangent dz through the nets, as
    `predict_batch` does.
    """
    dz = z_curr - z_prev
    tags = model.mono_spec.tags[:, None, :]
    second = model.order is TaylorOrder.SECOND
    blocks = Hdz = None
    if need_blocks:
        raw, blocks = tape.forward_and_jacobian(z_prev)
    elif second:
        raw, Hdz = tape.forward_and_jacobian(z_prev, dz)
    else:
        raw = tape.forward(z_prev)
    rows = raw
    if model.gated:
        # called through the module so that a wrapper installed there
        # (the benchmark's traced run) sees it
        rows = constraints.apply_sign_gate_graph(raw, tags)
        # step-function gate derivative: detached, a.e. exact, and read from
        # raw's current value on every forward
        mask_of = constraints.gate_mask_of(tags)
        if blocks is not None:
            blocks = graph.masked(blocks, lambda r: mask_of(r)[..., None], raw)
        elif Hdz is not None:
            Hdz = graph.masked(Hdz, mask_of, raw)
    incr = graph.dot_rows(rows, dz)
    if second:
        if blocks is not None:
            Hdz = graph.bmat_vec(blocks, dz)
        incr = incr + graph.dot_rows(Hdz, dz) * 0.5
    return incr, rows, blocks


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
        "symmetrize_hessian": False,  # kept so that bundles stay mtnn-v1
        "mono_spec": model.mono_spec.to_symbols(),
        "nets": [nn.net_to_dict(member) for member in nn.unstack(model.net)],
    }


def model_from_dict(d: dict):
    """Rebuild a model from an `mtnn-v1` bundle; its per-state nets are stacked.

    An mtnn record's symmetrization flag must be a boolean and is otherwise
    ignored: a quadratic form cannot see symmetrization, so no prediction
    depends on it."""
    if not isinstance(d, dict):
        raise ValueError(f"a bundle must be a JSON object, got {type(d).__name__}")
    if d.get("version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {d.get('version')!r}")
    kind = d.get("kind")
    try:
        if kind == "baseline":
            if isinstance(d["nx"], bool) or not isinstance(d["nx"], int):
                raise ValueError(f"nx must be a JSON integer, got {d['nx']!r}")
            return BaselineModel(nn.net_from_dict(d["net"]), d["nx"])
        if kind == "mtnn":
            if not isinstance(d["symmetrize_hessian"], bool):
                raise ValueError("symmetrize_hessian must be a JSON boolean, "
                                 f"got {d['symmetrize_hessian']!r}")
            return MtnnModel(
                nn.stack(nn.net_from_dict(nd) for nd in d["nets"]),
                MonoSpec.from_symbols(d["mono_spec"]),
                TaylorOrder(d["order"]),
                GateMode(d["gate_mode"]),
            )
    except KeyError as e:
        raise ValueError(f"bundle record lacks the field {e.args[0]!r}") from None
    raise ValueError(f"unknown bundle kind {kind!r}")


def save_bundle(model, path) -> None:
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, sort_keys=True)
        f.write("\n")


def load_bundle(path):
    with open(path) as f:
        return model_from_dict(json.load(f))
