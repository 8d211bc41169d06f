"""Dense networks with exact input-Jacobians and parameter gradients.

A `DenseNet` is a stack of S nets of one shape that share their input: layer
weights are (S, O, I), biases (S, O), and every evaluation carries the
member axis first. A plain net is a stack of one, so 2-D weights and 1-D
biases are read as a stack of one.

Two evaluation paths for the same architecture, each one layer loop
(`_run` and `NetTape._run`):

  * plain numpy (`forward`, and `input_jacobian`, which returns the outputs
    with their input derivative) for prediction and rollout,
  * graph-building (`NetTape`) for training and for differentiating through
    the controller, where the loss may contain input-Jacobian entries and the
    gradient has to flow through them exactly.

Both take a (B, I) batch only, and any other shape is a ValueError; a single
sample is a batch of one.

Both paths differentiate a net in its input by forward mode: a tangent is
carried through the layers beside the activations. A second-order Taylor
step reads only the directional derivative J v and carries the one tangent
v; the full Jacobian carries the I basis directions at once. Built out of
graph primitives, the tangent lets reverse mode return exact
d(loss)/d(theta) for losses that read J or J v, the nested
forward-inside-reverse scheme the curvature penalties need.

Hidden layers are tanh (`ACTIVATION`) and the output layer is linear; an
`mtnn-v1` record names the activation, and one that names another is an error.

Networks optionally carry fixed input/output affine maps (standardization),
(S, I) and (S, O). These are part of the function the net computes, so the
tangent passes through them: J = out_scale[:,None] * J_core / in_scale[None,:].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .graph import Var

Array = np.ndarray

CHECKPOINT_VERSION = "mtnn-v1"

ACTIVATION = "tanh"  # of every hidden layer

_AFFINE = ("in_shift", "in_scale", "out_shift", "out_scale")  # DenseNet's fixed maps


class TrainingFault(RuntimeError):
    """Raised when a loss or gradient evaluation produces non-finite values."""


@dataclass
class DenseNet:
    weights: list  # layer l: (S, dims[l+1], dims[l])
    biases: list  # layer l: (S, dims[l+1])
    in_shift: Array | None = None  # (S, dims[0]); a vector is shared by all members
    in_scale: Array | None = None
    out_shift: Array | None = None  # (S, dims[-1])
    out_scale: Array | None = None

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias vector per weight matrix")
        self.weights = [_stacked(W, 2) for W in self.weights]
        self.biases = [_stacked(b, 1) for b in self.biases]
        S = self.weights[0].shape[0]
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 3 or W.shape[0] != S or b.shape != W.shape[:2]:
                raise ValueError(f"layer {l}: weight {W.shape} / bias {b.shape} mismatch")
            if l > 0 and W.shape[2] != self.weights[l - 1].shape[1]:
                raise ValueError(f"layer {l}: input dim {W.shape[2]} does not chain")
        n_in, n_out = self.n_in, self.n_out
        self.in_shift = _affine(self.in_shift, 0.0, S, n_in)
        self.in_scale = _affine(self.in_scale, 1.0, S, n_in)
        self.out_shift = _affine(self.out_shift, 0.0, S, n_out)
        self.out_scale = _affine(self.out_scale, 1.0, S, n_out)
        if np.any(self.in_scale == 0) or np.any(self.out_scale == 0):
            raise ValueError("affine scales must be nonzero")

    @property
    def n_stack(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[2]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def layer_dims(self) -> list:
        return [self.n_in] + [W.shape[1] for W in self.weights]

    def copy(self) -> "DenseNet":
        return DenseNet([W.copy() for W in self.weights], [b.copy() for b in self.biases],
                        *(getattr(self, k).copy() for k in _AFFINE))


def _stacked(A, member_ndim: int) -> Array:
    """A member-shaped array is a stack of one."""
    A = np.asarray(A, dtype=np.float64)
    return A[None] if A.ndim == member_ndim else A


def _affine(v, default: float, S: int, n: int) -> Array:
    if v is None:
        return np.full((S, n), default)
    v = np.asarray(v, dtype=np.float64)
    if v.shape not in ((n,), (S, n)):
        raise ValueError(f"affine map {v.shape} does not fit ({S}, {n})")
    return np.broadcast_to(v, (S, n)).copy()


def stack(members) -> DenseNet:
    """One stack from nets (or stacks) of equal layer dims."""
    members = list(members)
    if not members:
        raise ValueError("need at least one net to stack")
    first = members[0]
    for j, net in enumerate(members):
        if net.layer_dims != first.layer_dims:
            raise ValueError(f"net {j} is {net.layer_dims}, net 0 is {first.layer_dims}; "
                             "stacked nets must match")

    def cat(arrays):
        return np.concatenate(arrays, axis=0)

    return DenseNet(
        [cat(Ws) for Ws in zip(*(net.weights for net in members))],
        [cat(bs) for bs in zip(*(net.biases for net in members))],
        *(cat([getattr(net, k) for net in members]) for k in _AFFINE),
    )


def unstack(net: DenseNet) -> list:
    """The members of a stack, each a stack of one (copies)."""
    return [
        DenseNet([W[j] for W in net.weights], [b[j] for b in net.biases],
                 *(getattr(net, k)[j] for k in _AFFINE)).copy()
        for j in range(net.n_stack)
    ]


def init_dense(layer_dims, rng, n_stack: int = 1) -> DenseNet:
    """Glorot-uniform weights (±sqrt(6/(fan_in+fan_out))), zero biases.

    A stack of `n_stack` members draws its weights member by member, so it
    holds the same weights as that many nets drawn one after another.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ValueError(f"bad layer dims {dims}")
    pairs = list(zip(dims[:-1], dims[1:]))

    def glorot(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_out, fan_in))

    members = [[glorot(*p) for p in pairs] for _ in range(n_stack)]
    weights = [np.stack(Ws) for Ws in zip(*members)]
    biases = [np.zeros((n_stack, fan_out)) for _, fan_out in pairs]
    return DenseNet(weights, biases)


def _batch(net: DenseNet, z) -> Array:
    """A (B, I) input as float64; any other shape is a ValueError."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != net.n_in:
        raise ValueError(f"z has shape {z.shape}, net expects (B, {net.n_in})")
    return z


def _standardized(net: DenseNet, z) -> Array:
    """(B, I) input -> (S, B, I) standardized input."""
    return (_batch(net, z) - net.in_shift[:, None, :]) / net.in_scale[:, None, :]


def _basis(n: int, B: int) -> Array:
    """The n basis tangents of a (B, n) input, (n, 1, B, n): direction first."""
    return np.broadcast_to(np.eye(n)[:, None, None, :], (n, 1, B, n))


def _layer(a: Array, W: Array, b: Array) -> Array:
    return a @ np.swapaxes(W, -1, -2) + b[:, None, :]


def _run(net: DenseNet, z, t=None) -> tuple:
    """Numpy twin of `NetTape._run`, from the raw (B, I) input: outputs
    (S, B, O) and, given an input tangent t (..., B, I), its image
    (..., S, B, O); else None."""
    a = _standardized(net, z)
    if t is not None:
        t = t / net.in_scale[:, None, :]
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.tanh(_layer(a, W, b))
        if t is not None:
            t = (1.0 - a * a) * (t @ np.swapaxes(W, -1, -2))
    out = _layer(a, net.weights[-1], net.biases[-1])
    out = out * net.out_scale[:, None, :] + net.out_shift[:, None, :]
    if t is not None:
        t = (t @ np.swapaxes(net.weights[-1], -1, -2)) * net.out_scale[:, None, :]
    return out, t


def forward(net: DenseNet, z) -> Array:
    """(B, I) input -> (S, B, O) outputs of every member."""
    return _run(net, z)[0]


def input_jacobian(net: DenseNet, z, v=None) -> tuple:
    """(B, I) input -> ((S, B, O) outputs, (S, B, O, I) exact input-Jacobians)
    from one pass through the stack, as `NetTape.forward_and_jacobian`.

    The Jacobian carries the I basis tangents at once, so it costs one pass
    and holds no (S, B, H, H) product. With a (B, I) direction v, the second
    value is the directional derivative J v instead, (S, B, O): the one
    tangent v is carried.
    """
    z = _batch(net, z)
    if v is None:
        out, t = _run(net, z, _basis(net.n_in, len(z)))
        return out, np.moveaxis(t, 0, -1)  # (I, S, B, O) -> (S, B, O, I)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != z.shape:
        raise ValueError(f"direction {v.shape} does not match input {z.shape}")
    return _run(net, z, v)


class NetTape:
    """Records evaluations of one net stack with its parameters as graph leaves.

    A caller runs `forward` / `forward_and_jacobian` on plain-array inputs
    (or Var inputs, for the controller) and combines the resulting Vars into
    a scalar with `mtnn.graph` ops; `graph.backward` on that scalar, then
    `gradients`, gives d(scalar)/d(theta) for every parameter.
    """

    def __init__(self, net: DenseNet):
        self.net = net
        self.weights = [Var(W) for W in net.weights]
        self.biases = [Var(b) for b in net.biases]

    def forward(self, z) -> Var:
        """(B, I) input -> (S, B, O) outputs of every member."""
        return self._run(self._input(z))[0]

    def forward_and_jacobian(self, z, v=None):
        """(B, I) input -> ((S, B, O) outputs, (S, B, O, I) input-Jacobians).

        The Jacobian is the tangent of the I basis directions, carried
        through the net at once and moved to the last axis. With a (B, I)
        direction v (an array or a Var), the second output is the
        directional derivative J v, (S, B, O): the one tangent v is carried.
        """
        a = self._input(z)
        B, n = a.shape[1], self.net.n_in
        if v is None:
            out, T = self._run(a, _basis(n, B))
            return out, graph.moveaxis(T, 0, -1)
        if np.shape(v) != (B, n):  # a Var's shape too
            raise ValueError(f"direction {np.shape(v)} does not match input ({B}, {n})")
        return self._run(a, v)

    def _input(self, z):
        """(B, I) array or Var -> (S, B, I) standardized input, an array for
        an array: a constant operand, which gets no gradient."""
        if not isinstance(z, Var):
            return _standardized(self.net, z)
        _batch(self.net, z.value)
        return (z - self.net.in_shift[:, None, :]) * (1.0 / self.net.in_scale[:, None, :])

    def _run(self, a, t=None):
        """Outputs (S, B, O) from the standardized input and, given an input
        tangent t (..., B, I), its image (..., S, B, O); else None. A constant
        tangent stays an array until it meets the weights."""
        net = self.net
        if t is not None:
            t = t * (1.0 / net.in_scale[:, None, :])
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = graph.tanh(graph.linear(a, W, b))
            if t is not None:
                t = (1.0 - a * a) * graph.linear(t, W)
        out = graph.linear(a, self.weights[-1], self.biases[-1])
        out = out * net.out_scale[:, None, :] + net.out_shift[:, None, :]
        if t is not None:
            t = graph.linear(t, self.weights[-1]) * net.out_scale[:, None, :]
        return out, t

    def gradients(self) -> "ParamGradient":
        """Collect parameter gradients after graph.backward (zeros if unused)."""
        gw = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in self.weights]
        gb = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in self.biases]
        return ParamGradient(gw, gb)


@dataclass
class ParamGradient:
    """d(loss)/d(theta), shaped like the net's weights and biases."""

    weights: list
    biases: list


def net_to_dict(net: DenseNet) -> dict:
    """An `mtnn-v1` record; it holds one net, so a stack is saved member by member."""
    if net.n_stack != 1:
        raise ValueError(f"a v1 record holds one net, not a stack of {net.n_stack}")
    return {
        "version": CHECKPOINT_VERSION,
        "layer_dims": net.layer_dims,
        "activation": ACTIVATION,
        "weights": [W[0].tolist() for W in net.weights],
        "biases": [b[0].tolist() for b in net.biases],
        **{k: getattr(net, k)[0].tolist() for k in _AFFINE},
    }


def net_from_dict(d: dict) -> DenseNet:
    if not isinstance(d, dict):
        raise ValueError(f"a net record must be a JSON object, got {type(d).__name__}")
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')!r}")
    weights = [_finite_field(W, "weights") for W in d["weights"]]
    biases = [_finite_field(b, "biases") for b in d["biases"]]
    activation = d["activation"]
    affine = [_finite_field(d[k], k) for k in _AFFINE]
    if activation != ACTIVATION:
        raise ValueError(f"unsupported activation {activation!r}; "
                         f"hidden layers use {ACTIVATION!r}")
    net = DenseNet(weights, biases, *affine)
    if net.layer_dims != list(d["layer_dims"]):
        raise ValueError("layer_dims field disagrees with stored weights")
    return net


def _finite_field(value, name: str) -> Array:
    """A record field as float64; JSON reads NaN and Infinity, which no net holds."""
    a = np.asarray(value, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"net record field {name!r} holds a non-finite number")
    return a
