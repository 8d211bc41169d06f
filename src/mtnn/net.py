"""Dense networks with exact input-Jacobians and parameter gradients.

Two evaluation paths for the same architecture:

  * plain numpy (`forward`, `input_jacobian`) for prediction and rollout,
  * graph-building (`NetTape`) for training and for differentiating through
    the controller, where the loss may contain input-Jacobian entries and the
    gradient has to flow through them exactly.

The input-Jacobian is assembled analytically as the layer-chain product
J = W_L diag(act') ... diag(act') W_1, accumulated forward through the net.
Building that product out of graph primitives makes reverse mode return
exact d(loss)/d(theta) for losses that read J, which is the nested
forward-inside-reverse scheme the second-order terms need.

Networks optionally carry fixed input/output affine maps (standardization).
These are part of the function the net computes, so the Jacobian is chained
through them: J = out_scale[:,None] * J_core / in_scale[None,:].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import graph
from .graph import Var

Array = np.ndarray

CHECKPOINT_VERSION = "mtnn-v1"

ACTIVATIONS = ("tanh", "sigmoid", "linear")


class TrainingFault(RuntimeError):
    """Raised when a loss or gradient evaluation produces non-finite values."""


@dataclass
class DenseNet:
    weights: list  # layer l: (dims[l+1], dims[l])
    biases: list  # layer l: (dims[l+1],)
    activation: str = "tanh"  # hidden layers; output layer is linear
    in_shift: Array | None = None
    in_scale: Array | None = None
    out_shift: Array | None = None
    out_scale: Array | None = None

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias vector per weight matrix")
        self.weights = [np.asarray(W, dtype=np.float64) for W in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ValueError(f"layer {l}: weight {W.shape} / bias {b.shape} mismatch")
            if l > 0 and W.shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(f"layer {l}: input dim {W.shape[1]} does not chain")
        n_in, n_out = self.weights[0].shape[1], self.weights[-1].shape[0]
        if self.in_shift is None:
            self.in_shift = np.zeros(n_in)
        if self.in_scale is None:
            self.in_scale = np.ones(n_in)
        if self.out_shift is None:
            self.out_shift = np.zeros(n_out)
        if self.out_scale is None:
            self.out_scale = np.ones(n_out)
        self.in_shift = np.asarray(self.in_shift, dtype=np.float64).reshape(n_in)
        self.in_scale = np.asarray(self.in_scale, dtype=np.float64).reshape(n_in)
        self.out_shift = np.asarray(self.out_shift, dtype=np.float64).reshape(n_out)
        self.out_scale = np.asarray(self.out_scale, dtype=np.float64).reshape(n_out)
        if np.any(self.in_scale == 0) or np.any(self.out_scale == 0):
            raise ValueError("affine scales must be nonzero")

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_dims(self) -> list:
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]

    @property
    def n_params(self) -> int:
        return sum(W.size for W in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "DenseNet":
        return DenseNet(
            [W.copy() for W in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
            self.in_shift.copy(),
            self.in_scale.copy(),
            self.out_shift.copy(),
            self.out_scale.copy(),
        )


def init_dense(layer_dims, rng, activation: str = "tanh") -> DenseNet:
    """Glorot-uniform weights (±sqrt(6/(fan_in+fan_out))), zero biases."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ValueError(f"bad layer dims {dims}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNet(weights, biases, activation)


def _act(name: str, a: Array) -> Array:
    if name == "tanh":
        return np.tanh(a)
    if name == "sigmoid":
        return 0.5 * (np.tanh(0.5 * a) + 1.0)
    return a


def _act_deriv_from_h(name: str, h: Array) -> Array:
    # derivative expressed through the activation value itself
    if name == "tanh":
        return 1.0 - h * h
    if name == "sigmoid":
        return h * (1.0 - h)
    return np.ones_like(h)


def forward(net: DenseNet, z) -> Array:
    """Evaluate the net; (I,) -> (O,) or (B,I) -> (B,O)."""
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    a = np.atleast_2d(z)
    if a.shape[1] != net.n_in:
        raise ValueError(f"input dim {a.shape[1]}, net expects {net.n_in}")
    a = (a - net.in_shift) / net.in_scale
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        a = _act(net.activation, a @ W.T + b)
    out = a @ net.weights[-1].T + net.biases[-1]
    out = out * net.out_scale + net.out_shift
    return out[0] if single else out


def input_jacobian(net: DenseNet, z) -> Array:
    """Exact d(output)/d(input); (I,) -> (O,I) or (B,I) -> (B,O,I).

    Forward accumulation of the layer chain, so cost is one pass regardless
    of output count.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    a = np.atleast_2d(z)
    if a.shape[1] != net.n_in:
        raise ValueError(f"input dim {a.shape[1]}, net expects {net.n_in}")
    B = a.shape[0]
    a = (a - net.in_shift) / net.in_scale
    G = np.broadcast_to(np.diag(1.0 / net.in_scale), (B, net.n_in, net.n_in)).copy()
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        h = _act(net.activation, a @ W.T + b)
        G = np.einsum("oh,bhn->bon", W, G)
        if net.activation != "linear":
            G = _act_deriv_from_h(net.activation, h)[:, :, None] * G
        a = h
    G = np.einsum("oh,bhn->bon", net.weights[-1], G)
    G = net.out_scale[None, :, None] * G
    return G[0] if single else G


def fd_input_jacobian(net: DenseNet, z, step: float = 1e-5) -> Array:
    """Central-difference Jacobian, the validation oracle for input_jacobian."""
    z = np.asarray(z, dtype=np.float64)
    J = np.zeros((net.n_out, net.n_in))
    for i in range(net.n_in):
        zp, zm = z.copy(), z.copy()
        zp[i] += step
        zm[i] -= step
        J[:, i] = (forward(net, zp) - forward(net, zm)) / (2 * step)
    return J


class NetTape:
    """Records evaluations of one or more nets with parameters as graph leaves.

    A loss callback receives the tape, calls `forward` / `forward_and_jacobian`
    on plain-array inputs (or Var inputs, for the controller), combines the
    resulting Vars into a scalar with `mtnn.graph` ops, and returns it.
    `loss_gradient` then backpropagates to every parameter.
    """

    def __init__(self, nets):
        if isinstance(nets, DenseNet):
            nets = [nets]
        self.nets = list(nets)
        self.param_vars = [
            ([Var(W) for W in net.weights], [Var(b) for b in net.biases])
            for net in self.nets
        ]

    def forward(self, z, net_index: int = 0) -> Var:
        out, _ = self._run(z, net_index, need_jac=False)
        return out

    def forward_and_jacobian(self, z, net_index: int = 0):
        return self._run(z, net_index, need_jac=True)

    def _run(self, z, net_index: int, need_jac: bool):
        net = self.nets[net_index]
        Ws, bs = self.param_vars[net_index]
        if isinstance(z, Var):
            if z.value.ndim != 2:
                raise ValueError("Var inputs must be batched (B, I)")
            B = z.value.shape[0]
            a = (z - net.in_shift) * (1.0 / net.in_scale)
        else:
            zv = np.atleast_2d(np.asarray(z, dtype=np.float64))
            B = zv.shape[0]
            a = graph.constant((zv - net.in_shift) / net.in_scale)
        G = None
        if need_jac:
            G = graph.constant(
                np.broadcast_to(np.diag(1.0 / net.in_scale), (B, net.n_in, net.n_in))
            )
        n_layers = len(Ws)
        for l in range(n_layers - 1):
            h = graph.linear(a, Ws[l], bs[l])
            if net.activation == "tanh":
                h = graph.tanh(h)
                d = 1.0 - h * h
            elif net.activation == "sigmoid":
                h = graph.sigmoid(h)
                d = h - h * h
            else:
                d = None
            if need_jac:
                G = graph.mat_chain(Ws[l], G)
                if d is not None:
                    G = graph.scale_rows(d, G)
            a = h
        out = graph.linear(a, Ws[-1], bs[-1])
        out = out * net.out_scale + net.out_shift
        if need_jac:
            G = graph.mat_chain(Ws[-1], G)
            G = graph.scale_rows(
                graph.constant(np.broadcast_to(net.out_scale, (B, net.n_out))), G
            )
        return out, G

    def gradients(self, net_index: int = 0) -> "ParamGradient":
        """Collect parameter gradients after graph.backward (zeros if unused)."""
        Ws, bs = self.param_vars[net_index]
        gw = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in Ws]
        gb = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in bs]
        return ParamGradient(gw, gb)


@dataclass
class ParamGradient:
    """d(loss)/d(theta), shaped like the net's weights and biases."""

    weights: list
    biases: list


def loss_gradient(net: DenseNet, loss_fn):
    """Evaluate loss_fn(tape) and return (loss value, ParamGradient).

    loss_fn builds a scalar Var from tape.forward / tape.forward_and_jacobian
    calls; the gradient is exact, including paths through Jacobian entries.
    """
    tape = NetTape(net)
    out = loss_fn(tape)
    val = float(out.value)
    if not np.isfinite(val):
        raise TrainingFault(f"non-finite loss value {val!r}")
    graph.backward(out)
    grad = tape.gradients(0)
    for arr in grad.weights + grad.biases:
        if not np.all(np.isfinite(arr)):
            raise TrainingFault("non-finite parameter gradient")
    return val, grad


def fd_loss_gradient(net: DenseNet, loss_fn, step: float = 1e-6) -> ParamGradient:
    """Central-difference gradient of loss_fn over every parameter (test oracle)."""

    def value():
        tape = NetTape(net)
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
    return ParamGradient(gw, gb)


def net_to_dict(net: DenseNet) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "layer_dims": net.layer_dims,
        "activation": net.activation,
        "weights": [W.tolist() for W in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "in_shift": net.in_shift.tolist(),
        "in_scale": net.in_scale.tolist(),
        "out_shift": net.out_shift.tolist(),
        "out_scale": net.out_scale.tolist(),
    }


def net_from_dict(d: dict) -> DenseNet:
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')!r}")
    net = DenseNet(
        [np.asarray(W) for W in d["weights"]],
        [np.asarray(b) for b in d["biases"]],
        d["activation"],
        np.asarray(d["in_shift"]),
        np.asarray(d["in_scale"]),
        np.asarray(d["out_shift"]),
        np.asarray(d["out_scale"]),
    )
    if net.layer_dims != list(d["layer_dims"]):
        raise ValueError("layer_dims field disagrees with stored weights")
    return net


def save_net(net: DenseNet, path) -> None:
    with open(path, "w") as f:
        json.dump(net_to_dict(net), f, sort_keys=True)
        f.write("\n")


def load_net(path) -> DenseNet:
    with open(path) as f:
        return net_from_dict(json.load(f))
