"""Dense networks with exact input-Jacobians and parameter gradients.

A `DenseNet` is a stack of S nets of one shape that share their input: layer
weights are (S, O, I), biases (S, O), and every evaluation carries the
member axis first. A plain net is a stack of one, so 2-D weights and 1-D
biases are read as a stack of one.

Two evaluation paths for the same architecture, each one layer loop
(`_run` and `NetTape._run`):

  * plain numpy (`forward`, and `input_jacobian`, which returns the outputs
    with their input derivative) for prediction and rollout; its loop works
    in place on the array each layer's matmul returns, bit for bit as the
    same operations on fresh arrays,
  * graph-building (`NetTape`) for training and for differentiating through
    the controller, where the loss may contain input-Jacobian entries and the
    gradient has to flow through them exactly. The controller's tape is
    frozen: it holds the parameters as constants, since only the inputs are
    differentiated there.

Both take a (B, I) batch only, and any other shape is a ValueError; a single
sample is a batch of one. Inside, both keep the batch as the inner axis,
activations (S, H, B), so elementwise ops run long inner loops. The numpy
path returns its public shapes as transposed views; the tape returns its
Vars batch-last.

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
from .plants import reals

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
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 3 or W.shape[0] != self.n_stack or b.shape != W.shape[:2]:
                raise ValueError(f"layer {l}: weights {W.shape} / biases {b.shape} mismatch")
            if l > 0 and W.shape[2] != self.weights[l - 1].shape[1]:
                raise ValueError(f"layer {l}: input dim {W.shape[2]} does not chain")
        S, n_in, n_out = self.n_stack, self.n_in, self.n_out
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
    """A (B, I) input as C-contiguous float64, so that no result depends on
    the caller's memory layout; any other shape is a ValueError."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != net.n_in:
        raise ValueError(f"z has shape {z.shape}, net expects (B, {net.n_in})")
    return np.ascontiguousarray(z)


def _standardized(net: DenseNet, z) -> Array:
    """(B, I) input -> (S, I, B) standardized input, a fresh C-order array."""
    a = np.subtract(_batch(net, z).T, net.in_shift[:, :, None], order="C")
    a /= net.in_scale[:, :, None]
    return a


def _basis(n: int, B: int) -> Array:
    """The n basis tangents of a (B, n) input, (n, 1, B, n): direction first."""
    return np.broadcast_to(np.eye(n)[:, None, None, :], (n, 1, B, n))


def _tanh_slope(a: Array) -> Array:
    """1 - a^2, the slope of tanh where it reads a, in one fresh array."""
    d = a * a
    np.subtract(1.0, d, out=d)
    return d


def _run(net: DenseNet, z, t=None) -> tuple:
    """Outputs (S, B, O) from the raw (B, I) input and, given an input tangent
    t (..., B, I), its image (..., S, B, O); else None. The batch is the inner
    axis: activations and tangents are C-order (S, H, B), each layer is
    `W @ a` and the results are transposed views, so elementwise ops run
    long inner loops. At widths 4 and 8 with two or more outputs, the
    matmuls round as a batch-major loop's do.

    Each layer works in place on the array its matmul returns: the bias,
    tanh, the tangent factor 1 - a^2 and the output scale and shift are
    applied there. So a layer makes one fresh array for the activations
    and, with a tangent, one for the tangent and one for its factor, which
    broadcasts over the leading basis axis of t. Every value is bit for bit
    what the same operations give on fresh arrays.
    """
    a = _standardized(net, z)
    if t is not None:
        t = np.divide(t.mT, net.in_scale[:, :, None], order="C")
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        a = W @ a
        a += b[:, :, None]
        np.tanh(a, out=a)
        if t is not None:
            t = W @ t
            t *= _tanh_slope(a)
    out = net.weights[-1] @ a
    out += net.biases[-1][:, :, None]
    out *= net.out_scale[:, :, None]
    out += net.out_shift[:, :, None]
    if t is not None:
        t = net.weights[-1] @ t
        t *= net.out_scale[:, :, None]
    return out.mT, (None if t is None else t.mT)


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

    A caller runs `forward` / `forward_and_jacobian` on (B, I) plain-array
    inputs (or Var inputs, for the controller) and combines the resulting
    Vars into a scalar with `mtnn.graph` ops; `graph.backward` on that
    scalar, then `gradients`, gives d(scalar)/d(theta) for every parameter.
    The Vars it returns are batch-last, as the graph's ops take them: its
    activations and tangents are (S, H, B).

    A `frozen` tape holds the weights and biases as constant operands
    instead, so no backward computes their gradients and `gradients` is an
    error; the controller, which differentiates only in the inputs, records
    on one.
    """

    def __init__(self, net: DenseNet, frozen: bool = False):
        self.net, self.frozen = net, frozen
        param = (lambda A: A) if frozen else Var
        self.weights = [param(W) for W in net.weights]
        self.biases = [param(b) for b in net.biases]

    def forward(self, z) -> Var:
        """(B, I) input -> (S, O, B) outputs of every member."""
        return self._run(self._input(z))[0]

    def forward_and_jacobian(self, z, v=None):
        """(B, I) input -> ((S, O, B) outputs, (S, O, I, B) input-Jacobians).

        The Jacobian is the tangent of the I basis directions, carried
        through the net at once and moved next to the batch axis. With a
        (B, I) direction v (an array or a Var), the second output is the
        directional derivative J v, (S, O, B): the one tangent v is carried.
        """
        a = self._input(z)
        n, B = a.shape[1:]
        if v is None:
            out, T = self._run(a, _basis(n, B).mT)
            return out, graph.moveaxis(T, 0, -2)
        if np.shape(v) != (B, n):  # a Var's shape too
            raise ValueError(f"direction {np.shape(v)} does not match input ({B}, {n})")
        return self._run(a, graph.moveaxis(v, -1, -2) if isinstance(v, Var) else v.T)

    def _input(self, z):
        """(B, I) array or Var -> (S, I, B) standardized input: for an array,
        a C-order constant operand, which gets no gradient; a Var is moved
        batch-last by one node."""
        if not isinstance(z, Var):
            return _standardized(self.net, z)
        _batch(self.net, z.value)
        z = graph.moveaxis(z, -1, -2)
        return (z - self.net.in_shift[:, :, None]) * (1.0 / self.net.in_scale[:, :, None])

    def _run(self, a, t=None):
        """Outputs (S, O, B) from the standardized input and, given a
        batch-last input tangent t (..., I, B), its image (..., S, O, B);
        else None. A constant tangent stays an array until it meets the
        weights."""
        net = self.net
        if t is not None:
            scale = 1.0 / net.in_scale[:, :, None]
            t = t * scale if isinstance(t, Var) else np.multiply(t, scale, order="C")
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = graph.tanh(graph.linear(a, W, b))
            if t is not None:
                t = (1.0 - a * a) * graph.linear(t, W)
        out = graph.linear(a, self.weights[-1], self.biases[-1])
        out = out * net.out_scale[:, :, None] + net.out_shift[:, :, None]
        if t is not None:
            t = graph.linear(t, self.weights[-1]) * net.out_scale[:, :, None]
        return out, t

    def gradients(self) -> "ParamGradient":
        """Collect parameter gradients after graph.backward (zeros if unused)."""
        if self.frozen:
            raise ValueError("a frozen tape holds its parameters as constants: no gradients")
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
    """The net of an `mtnn-v1` record, whose arrays hold finite numbers under
    `plants.reals`: JSON reads NaN and Infinity, which no net holds."""
    if not isinstance(d, dict):
        raise ValueError(f"a net record must be a JSON object, got {type(d).__name__}")
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')!r}")
    for key in ("weights", "biases", "layer_dims"):
        if not isinstance(d[key], list):
            raise ValueError(f"net record field {key!r} must be a JSON list, got {d[key]!r}")
    weights = [reals(W, "net record field 'weights'") for W in d["weights"]]
    biases = [reals(b, "net record field 'biases'") for b in d["biases"]]
    activation = d["activation"]
    affine = [reals(d[k], f"net record field {k!r}") for k in _AFFINE]
    if activation != ACTIVATION:
        raise ValueError(f"unsupported activation {activation!r}; "
                         f"hidden layers use {ACTIVATION!r}")
    net = DenseNet(weights, biases, *affine)
    if net.layer_dims != list(d["layer_dims"]):
        raise ValueError("layer_dims field disagrees with stored weights")
    return net
