"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small engine: the handful of primitives below is exactly what
the dense-network forward pass, its forward-mode input tangents (one
direction, or the basis directions for a full Jacobian), and the penalty
terms need. Everything is double precision. Each primitive stores a
vector-Jacobian closure; `backward` walks the graph once in reverse
topological order and accumulates gradients on the leaves.

Shape conventions are batch-first throughout:
    (B, N)       batched vectors
    (B, M, N)    batched matrices
    ()           scalars (reduction outputs)
Every op also takes leading stack axes, (S, B, N) and (S, B, M, N), so one
node evaluates S stacked nets at once. Operands broadcast as in numpy,
Vars included: `backward` sums each parent's gradient back to that
parent's shape.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class Var:
    """A node in the computation graph: a value plus how to push gradients back."""

    __slots__ = ("value", "grad", "parents", "vjp")

    def __init__(self, value, parents: tuple = (), vjp: Callable | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self.parents = parents
        self.vjp = vjp  # maps grad w.r.t. this node -> tuple of grads per parent

    @property
    def shape(self):
        return self.value.shape

    # Arithmetic sugar. Non-Var operands are treated as constants (no gradient).
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def constant(value) -> Var:
    """Wrap a plain array as a leaf that receives no gradient."""
    return Var(value)


def _as_value(x) -> Array:
    if isinstance(x, Var):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _node(value, *pairs) -> Var:
    """A node from its value and (operand, vjp) pairs; constant operands drop out."""
    pairs = [(op, vjp) for op, vjp in pairs if isinstance(op, Var)]
    return Var(value, tuple(op for op, _ in pairs), lambda g: tuple(f(g) for _, f in pairs))


def add(a, b) -> Var:
    return _node(_as_value(a) + _as_value(b), (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Var:
    return _node(_as_value(a) - _as_value(b), (a, lambda g: g), (b, lambda g: -g))


def mul(a, b) -> Var:
    av, bv = _as_value(a), _as_value(b)
    return _node(av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


def neg(a: Var) -> Var:
    return Var(-a.value, (a,), lambda g: (-g,))


def scale(a: Var, c: float) -> Var:
    c = float(c)
    return Var(a.value * c, (a,), lambda g: (g * c,))


def tanh(a: Var) -> Var:
    t = np.tanh(a.value)
    return Var(t, (a,), lambda g: (g * (1.0 - t * t),))


def sigmoid(a: Var) -> Var:
    s = 0.5 * (np.tanh(0.5 * a.value) + 1.0)  # overflow-free logistic
    return Var(s, (a,), lambda g: (g * s * (1.0 - s),))


def relu(a: Var) -> Var:
    mask = a.value > 0.0  # subgradient 0 at the kink
    return Var(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def linear(x, W, b=None) -> Var:
    """y[..., B, O] = x[..., B, I] @ W[..., O, I].T + b[..., O]; no bias if b is None."""
    xv, Wv = _as_value(x), _as_value(W)
    y = xv @ np.swapaxes(Wv, -1, -2)
    if b is not None:
        y = y + _as_value(b)[..., None, :]
    return _node(
        y,
        (x, lambda g: g @ Wv),
        (W, lambda g: np.swapaxes(g, -1, -2) @ xv),
        (b, lambda g: g.sum(axis=-2)),
    )


def bmat_vec(A, v) -> Var:
    """out[..., M] = A[..., M, N] @ v[..., N] (per batch element)."""
    Av, vv = _as_value(A), _as_value(v)
    return _node(
        (Av @ vv[..., None])[..., 0],
        (A, lambda g: g[..., :, None] * vv[..., None, :]),
        (v, lambda g: (np.swapaxes(Av, -1, -2) @ g[..., None])[..., 0]),
    )


def dot_rows(u, v) -> Var:
    """out[...] = sum_n u[..., n] * v[..., n]."""
    uv, vv = _as_value(u), _as_value(v)
    return _node(
        (uv * vv).sum(axis=-1),
        (u, lambda g: g[..., None] * vv),
        (v, lambda g: g[..., None] * uv),
    )


def transpose_last(A: Var) -> Var:
    """Swap the last two axes."""
    return Var(
        np.swapaxes(A.value, -1, -2), (A,), lambda g: (np.swapaxes(g, -1, -2),)
    )


def det(A: Var) -> Var:
    """Batched determinant of A[..., N, N] via LU; gradient is the cofactor matrix."""
    Av = A.value
    val = np.linalg.det(Av)

    def vjp(g):
        return (g[..., None, None] * _cofactor(Av),)

    return Var(val, (A,), vjp)


def _cofactor(A: Array) -> Array:
    """Cofactor matrix C with C[..., i, j] = d det(A) / d A[..., i, j], batched.

    Computed from minors so it stays exact at singular matrices, where
    det(A) * inv(A).T is unavailable. N is small here (a handful of states
    and inputs), so the N^2 minor determinants are cheap.
    """
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


def concat_last(parts: Sequence) -> Var:
    """Concatenate (..., k_i) pieces along the last axis."""
    values = [_as_value(p) for p in parts]
    val = np.concatenate(values, axis=-1)
    widths = [v.shape[-1] for v in values]
    offsets = np.cumsum([0] + widths)

    spans = [
        (offsets[i], offsets[i + 1]) for i, p in enumerate(parts) if isinstance(p, Var)
    ]
    parents = tuple(p for p in parts if isinstance(p, Var))

    def vjp(g):
        return tuple(g[..., a:b] for a, b in spans)

    return Var(val, parents, vjp)


def moveaxis(x: Var, source: int, destination: int) -> Var:
    """x with one axis moved, as np.moveaxis; the gradient is moved back."""
    value = np.moveaxis(x.value, source, destination)
    return Var(value, (x,), lambda g: (np.moveaxis(g, destination, source),))


def reshape(x: Var, shape) -> Var:
    """x with its value reshaped; the gradient is reshaped back."""
    return Var(x.value.reshape(shape), (x,), lambda g: (g.reshape(x.value.shape),))


def sum_all(x: Var) -> Var:
    shp = x.value.shape
    return Var(x.value.sum(), (x,), lambda g: (np.broadcast_to(g, shp).copy(),))


def mean_all(x: Var) -> Var:
    n = x.value.size
    return scale(sum_all(x), 1.0 / n)


def backward(root: Var) -> None:
    """Populate .grad on every node reachable from a scalar root."""
    if root.value.shape != ():
        raise ValueError(f"backward expects a scalar root, got shape {root.value.shape}")

    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, Array] = {id(root): np.ones(())}
    for node in reversed(order):
        g = grads.get(id(node))
        node.grad = g
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg.shape != parent.value.shape:
                pg = _sum_to(pg, parent.value.shape)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg


def _sum_to(g: Array, shape: tuple) -> Array:
    """Sum a gradient over the axes its operand was broadcast along."""
    lead = g.ndim - len(shape)
    g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)
