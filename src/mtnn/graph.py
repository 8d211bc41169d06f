"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small engine with one implementation per primitive, and just
the primitives that the dense-network forward pass, its forward-mode input
tangents (one direction, or the basis directions for a full Jacobian), and
the penalty terms need: add, sub and mul (`x * c` scales, `-x` is x * -1.0);
tanh, relu and the detached `masked`; linear, bmat_vec, dot_rows and det;
moveaxis (moveaxis(x, -1, -2) transposes); sum_all.
A leaf is `Var(value)`; a plain array operand is a constant, which no
gradient reaches. Everything is double precision.

Each primitive stores two closures. Its forward closure recomputes the
node's value from its operands' current `.value`, and its vector-Jacobian
closure reads those values, and anything the forward pass cached (the mask
of `relu` and `masked`), when it is called; neither holds an array taken
at build time. So a graph is built once and replayed many times: set new
values on its leaves, `replay` the nodes in `topological_order`, and
`backward` with that same order. A build runs the same forward closures
once, so a replay gives bit for bit the values and gradients of a fresh
build at the same leaf values. `backward` walks the order in reverse and
accumulates gradients on every node.

Shape conventions are batch-last throughout, so elementwise ops run long
inner loops over the batch:
    (N, B)       batched vectors
    (M, N, B)    batched matrices
    ()           scalars (reduction outputs)
Every op also takes leading stack axes, (S, N, B) and (S, M, N, B), so one
node evaluates S stacked nets at once; `det` alone reads its matrices from
the last two axes. Operands broadcast as in numpy, Vars included:
`backward` sums each parent's gradient back to that parent's shape. A
constant operand of add, sub or mul that broadcasts along any axis but the
leading ones (an (S, O, 1) scale on an (S, O, B) node) is copied out to the
node's shape, in C order, once at build: numpy runs a broadcast operand in
an inner loop of its length, and a constant never changes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class Var:
    """A node in the computation graph: a value, how to recompute it from
    its operands, and how to push gradients back to them.

    `Var(value)` makes a leaf; `op` makes every other node.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "fwd", "after")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self.parents: tuple = ()
        self.vjp: Callable | None = None  # grad w.r.t. this node -> grads per parent
        self.fwd: Callable | None = None  # recomputes .value; None on a leaf
        self.after: tuple = ()  # forward-only dependencies (see `op`)

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
        return mul(self, -1.0)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def op(fwd: Callable, parents: tuple, vjp: Callable | None, after: tuple = ()) -> Var:
    """A node valued fwd(), which reads its operands' current values.

    vjp maps the node's gradient to one gradient per parent. `after` lists
    forward-only dependencies: nodes whose values fwd reads but that get no
    gradient through this node. `topological_order` puts them before the
    node, so a replay recomputes them first; `backward` never sends them a
    gradient from here.
    """
    node = Var.__new__(Var)
    node.value = fwd()
    node.grad = None
    node.parents = parents
    node.vjp = vjp
    node.fwd = fwd
    node.after = after
    return node


class _Const:
    """A constant operand: read like a Var's value, never differentiated."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)


def _operand(x):
    return x if isinstance(x, Var) else _Const(x)


def _node(fwd: Callable, *pairs) -> Var:
    """A node from its forward closure and (operand, vjp) pairs; constant
    operands drop out."""
    pairs = [(p, f) for p, f in pairs if isinstance(p, Var)]
    parents, fs = tuple(p for p, _ in pairs), [f for _, f in pairs]
    if len(fs) == 1:
        f, = fs
        return op(fwd, parents, lambda g: (f(g),))
    return op(fwd, parents, lambda g: [f(g) for f in fs])


def _operands(a, b) -> tuple:
    """The operands of an elementwise node; a constant that broadcasts along
    a non-leading axis of the node's shape is copied out to it, in C order."""
    a, b = _operand(a), _operand(b)
    shape = np.broadcast_shapes(a.value.shape, b.value.shape)
    for c in (a, b):
        lead = len(shape) - c.value.ndim
        if isinstance(c, _Const) and c.value.shape != shape[lead:]:
            c.value = np.broadcast_to(c.value, shape).copy()
    return a, b


def add(a, b) -> Var:
    a, b = _operands(a, b)
    return _node(lambda: a.value + b.value, (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Var:
    a, b = _operands(a, b)
    return _node(lambda: a.value - b.value, (a, lambda g: g), (b, lambda g: -g))


def mul(a, b) -> Var:
    a, b = _operands(a, b)
    return _node(lambda: a.value * b.value,
                 (a, lambda g: g * b.value), (b, lambda g: g * a.value))


def tanh(a: Var) -> Var:
    t = None

    def fwd():
        nonlocal t
        t = np.tanh(a.value)
        return t

    return op(fwd, (a,), lambda g: (g * (1.0 - t * t),))


def relu(a: Var) -> Var:
    mask = None

    def fwd():
        nonlocal mask
        mask = a.value > 0.0  # subgradient 0 at the kink
        return np.where(mask, a.value, 0.0)

    return op(fwd, (a,), lambda g: (g * mask,))


def masked(x: Var, mask_of: Callable, src: Var | None = None) -> Var:
    """x * mask_of(src.value), the mask detached: no gradient flows through it.

    The mask is recomputed from src's current value on every forward and
    held for the VJP. src defaults to x; another src is a forward-only
    dependency (see `op`), so a replay recomputes src before the mask.
    """
    src_var = x if src is None else src
    mask = None

    def fwd():
        nonlocal mask
        mask = mask_of(src_var.value)
        return x.value * mask

    return op(fwd, (x,), lambda g: (g * mask,), () if src is None else (src,))


def linear(x, W, b=None) -> Var:
    """y[..., O, B] = W[..., O, I] @ x[..., I, B] + b[..., O]; no bias if b is None.

    The bias is added in place on the matmul's result, so it must broadcast
    into that result's shape."""
    x, W = _operand(x), _operand(W)
    if b is None:
        def fwd():
            return W.value @ x.value
    else:
        b = _operand(b)

        def fwd():
            y = W.value @ x.value
            y += b.value[..., None]
            return y
    return _node(
        fwd,
        (x, lambda g: W.value.mT @ g),
        (W, lambda g: g @ x.value.mT),
        (b, lambda g: g.sum(axis=-1)),
    )


def bmat_vec(A, v) -> Var:
    """out[..., M, B] = sum_n A[..., M, n, B] * v[..., n, B] (per batch element)."""
    A, v = _operand(A), _operand(v)
    return _node(
        lambda: (A.value * v.value[..., None, :, :]).sum(axis=-2),
        (A, lambda g: g[..., :, None, :] * v.value[..., None, :, :]),
        (v, lambda g: (A.value * g[..., :, None, :]).sum(axis=-3)),
    )


def dot_rows(u, v) -> Var:
    """out[..., B] = sum_n u[..., n, B] * v[..., n, B]."""
    u, v = _operand(u), _operand(v)
    return _node(
        lambda: (u.value * v.value).sum(axis=-2),
        (u, lambda g: g[..., None, :] * v.value),
        (v, lambda g: g[..., None, :] * u.value),
    )


def det(A: Var) -> Var:
    """Batched determinant of A[..., N, N] via LU; gradient is the cofactor matrix.

    The VJP builds cofactors only for the blocks whose upstream gradient is
    nonzero (a NaN or inf counts as nonzero, so it still propagates); the
    others get exact zeros. A determinant hinge is live on few blocks, so
    most of them are skipped.
    """

    def vjp(g):
        Av = A.value
        out = np.zeros_like(Av)
        live = g != 0.0
        if live.any():
            out[live] = g[live][..., None, None] * _cofactor(Av[live])
        return (out,)

    return op(lambda: np.linalg.det(A.value), (A,), vjp)


def _cofactor(A: Array) -> Array:
    """Cofactor matrix C with C[..., i, j] = d det(A) / d A[..., i, j], batched.

    Computed from minors so it stays exact at singular matrices, where
    det(A) * inv(A).T is unavailable. N is small here (a handful of states
    and inputs), so all N^2 minors go through one batched determinant.
    """
    n = A.shape[-1]
    if n == 1:
        return np.ones_like(A)
    idx = np.arange(n)
    keep = np.array([idx[idx != i] for i in range(n)])  # row/column i struck out
    minors = A[..., keep[:, None, :, None], keep[None, :, None, :]]  # (..., n, n, n-1, n-1)
    sign = (-1.0) ** (idx[:, None] + idx[None, :])
    return sign * np.linalg.det(minors)


def moveaxis(x: Var, source: int, destination: int) -> Var:
    """x with one axis moved, as np.moveaxis; the gradient is moved back.
    The permutation is fixed at build, so each call is one transpose."""
    n = x.value.ndim
    perm = [i for i in range(n) if i != source % n]
    perm.insert(destination % n, source % n)
    back = tuple(int(i) for i in np.argsort(perm))
    perm = tuple(perm)
    return op(lambda: x.value.transpose(perm), (x,), lambda g: (g.transpose(back),))


def sum_all(x: Var) -> Var:
    shp = x.value.shape
    return op(lambda: x.value.sum(), (x,), lambda g: (np.full(shp, g),))


def topological_order(root: Var) -> list:
    """Every node that root depends on, root last, each after its operands.

    The post-order of one depth-first walk. Below each node it walks the
    parents first and the forward-only dependencies last, so the parents
    and everything placed before them keep the places they would have
    without those dependencies.
    """
    order: list[Var] = []
    seen: set[Var] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.after:
            if p not in seen:
                stack.append((p, False))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def replay(order: Sequence[Var]) -> None:
    """Recompute every node of `order` from its operands' current values.

    `order` is a `topological_order`; leaves keep the values they hold.
    """
    for node in order:
        if node.fwd is not None:
            node.value = node.fwd()


def backward(root: Var, order: Sequence[Var] | None = None) -> None:
    """Populate .grad on every node reachable from a scalar root.

    `order` is `topological_order(root)`, computed here when not given; a
    caller that replays a graph passes the order it replays with. Every
    node of it has its .grad reset first, so a graph can be walked again
    from another root; a node outside it keeps its old .grad. Gradients are
    summed in reverse order, so the sums run in the same order on every
    call.
    """
    if root.value.shape != ():
        raise ValueError(f"backward expects a scalar root, got shape {root.value.shape}")
    if order is None:
        order = topological_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones(())
    for node in reversed(order):
        g = node.grad
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg.shape != parent.value.shape:
                pg = _sum_to(pg, parent.value.shape)
            parent.grad = pg if parent.grad is None else parent.grad + pg


def _sum_to(g: Array, shape: tuple) -> Array:
    """Sum a gradient over the axes its operand was broadcast along."""
    lead = g.ndim - len(shape)
    g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)
