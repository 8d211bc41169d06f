"""Finite-difference checks for the autodiff engine.

Every primitive gets its gradient compared against central differences on
random inputs; a couple of composite graphs exercise fan-out accumulation
and the batched matrix products together.
"""

import numpy as np
import pytest

from mtnn import graph as g
from mtnn import net as nn
import oracles

RNG = np.random.default_rng(20240811)


def fd_grad(f, args, i, eps=1e-6):
    """Central finite differences of scalar f w.r.t. args[i]."""
    x = args[i]
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f(*args)
        x[idx] = orig - eps
        fm = f(*args)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_grads(build, arrays, atol=1e-7, rtol=1e-5):
    """build(*Vars) -> scalar Var; compares backward() grads to FD."""
    leaves = [g.Var(a.copy()) for a in arrays]
    out = build(*leaves)
    g.backward(out)

    def value_fn(*args):
        return build(*[g.Var(a) for a in args]).value

    for i, leaf in enumerate(leaves):
        want = fd_grad(value_fn, [a.copy() for a in arrays], i)
        got = leaf.grad
        assert got is not None, f"leaf {i} got no gradient"
        np.testing.assert_allclose(got, want, atol=atol, rtol=rtol)


class TestArithmetic:
    def test_add_sub_mul(self):
        a = RNG.normal(size=(4, 3))
        b = RNG.normal(size=(4, 3))
        check_grads(lambda x, y: g.sum_all((x + y) * (x - y) * y), [a, b])

    def test_scalar_and_constant_operands(self):
        a = RNG.normal(size=(5, 2))
        c = RNG.normal(size=(5, 2))
        check_grads(lambda x: g.sum_all(2.0 * x + (x * c) - 1.5), [a])

    def test_neg_and_scale(self):
        # both are `mul` by a constant: one node on x, negation exact
        a = RNG.normal(size=(3, 3))
        check_grads(lambda x: g.sum_all((-x) * 0.25), [a])
        x = g.Var(a)
        for y, want in ((-x, -a), (x * 0.25, a * 0.25)):
            assert y.parents == (x,)
            assert y.value.tobytes() == want.tobytes()

    def test_var_broadcast_along_leading_axis(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(2, 3, 4))
        check_grads(lambda x, y: g.sum_all((x * y - y + x) * w), [a, b])

    def test_var_broadcast_along_size_one_axis(self):
        a = RNG.normal(size=(3, 1))
        b = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(3, 4))
        check_grads(lambda x, y: g.sum_all((x + y) * (y - x) * x * w), [a, b])


class TestActivations:
    def test_tanh(self):
        a = RNG.normal(size=(4, 5))
        check_grads(lambda x: g.sum_all(g.tanh(x)), [a])

    def test_relu_away_from_kink(self):
        a = RNG.normal(size=(4, 5))
        a[np.abs(a) < 0.1] = 0.5  # keep FD away from the nondifferentiable point
        check_grads(lambda x: g.sum_all(g.relu(x)), [a])

    def test_relu_subgradient_zero_at_kink(self):
        x = g.Var(np.zeros((1, 3)))
        out = g.sum_all(g.relu(x))
        g.backward(out)
        np.testing.assert_array_equal(x.grad, np.zeros((1, 3)))


class TestLinear:
    def test_all_three_grads(self):
        x = RNG.normal(size=(6, 4))
        W = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3,))
        check_grads(lambda xx, WW, bb: g.sum_all(g.tanh(g.linear(xx, WW, bb))), [x, W, b])

    def test_constant_input(self):
        x = RNG.normal(size=(2, 4))
        W = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3,))
        check_grads(lambda WW, bb: g.sum_all(g.linear(x, WW, bb)), [W, b])

    def test_value(self):
        x = np.array([[1.0, 2.0]])
        W = np.array([[3.0, 4.0], [5.0, 6.0]])
        b = np.array([0.5, -0.5])
        np.testing.assert_allclose(
            g.linear(g.Var(x), W, b).value, [[11.5, 16.5]]
        )
        np.testing.assert_allclose(g.linear(g.Var(x), W).value, [[11.0, 17.0]])

    def test_no_bias_grads(self):
        x = RNG.normal(size=(2, 5, 4))
        W = RNG.normal(size=(2, 3, 4))
        check_grads(lambda xx, WW: g.sum_all(g.tanh(g.linear(xx, WW))), [x, W])


class TestNetTangent:
    """The net's directional-derivative graph, differentiated in its inputs."""

    @pytest.mark.parametrize("dims", [[3, 2], [3, 4, 2], [3, 4, 3, 2]])
    def test_grads_in_point_and_direction(self, dims):
        net = nn.init_dense(dims, RNG, n_stack=2)
        for bias in net.biases:
            bias[:] = RNG.normal(size=bias.shape)
        net.in_scale[:] = RNG.uniform(0.5, 2.0, size=net.in_scale.shape)
        Z, V = RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3))
        w = RNG.normal(size=(2, 3, 2))

        def value(z, v):
            out, Jv = nn.NetTape(net).forward_and_jacobian(z, v)
            return g.sum_all((out + Jv * w) * Jv)

        check_grads(value, [Z, V])
        # the direction may be a Var while the point is a plain array
        check_grads(lambda v: value(Z, v), [V])


class TestBatchedMatrixOps:
    def test_bmat_vec(self):
        A = RNG.normal(size=(3, 4, 5))
        v = RNG.normal(size=(3, 5))
        check_grads(lambda AA, vv: g.sum_all(g.tanh(g.bmat_vec(AA, vv))), [A, v])

    def test_dot_rows(self):
        u = RNG.normal(size=(5, 3))
        v = RNG.normal(size=(5, 3))
        check_grads(lambda uu, vv: g.sum_all(g.dot_rows(uu, vv) * np.arange(1.0, 6.0)), [u, v])

    def test_transpose_last(self):
        A = RNG.normal(size=(4, 3, 2))
        out = g.moveaxis(g.Var(A), -1, -2)
        np.testing.assert_array_equal(out.value, np.swapaxes(A, -1, -2))
        check_grads(
            lambda AA: g.sum_all(g.moveaxis(AA, -1, -2) * np.swapaxes(RNG_WEIGHTS, -1, -2)),
            [A],
        )

    @pytest.mark.parametrize("source, destination", [(0, -1), (-1, 1), (2, 0)])
    def test_moveaxis(self, source, destination):
        A = RNG.normal(size=(2, 4, 3, 2))
        w = np.moveaxis(RNG.normal(size=A.shape), source, destination)
        out = g.moveaxis(g.Var(A), source, destination)
        np.testing.assert_array_equal(out.value, np.moveaxis(A, source, destination))
        check_grads(lambda AA: g.sum_all(g.tanh(g.moveaxis(AA, source, destination)) * w), [A])


RNG_WEIGHTS = np.random.default_rng(7).normal(size=(4, 3, 2))


class TestStackedOps:
    """Leading stack axes (S = 2), with an operand shared by the stack."""

    def test_linear_shared_input(self):
        x = RNG.normal(size=(4, 3))
        W = RNG.normal(size=(2, 5, 3))
        b = RNG.normal(size=(2, 5))
        w = RNG.normal(size=(2, 4, 5))
        check_grads(lambda xx, WW, bb: g.sum_all(g.tanh(g.linear(xx, WW, bb)) * w), [x, W, b])

    def test_bmat_vec_and_dot_rows_shared_vector(self):
        A = RNG.normal(size=(2, 4, 3, 3))
        v = RNG.normal(size=(4, 3))
        w = RNG.normal(size=(2, 4))
        check_grads(
            lambda AA, vv: g.sum_all(g.dot_rows(g.bmat_vec(AA, vv), vv) * w), [A, v]
        )

    def test_det(self):
        A = RNG.normal(size=(2, 3, 3, 3))
        w = RNG.normal(size=(2, 3))
        np.testing.assert_allclose(g.det(g.Var(A)).value, np.linalg.det(A))
        check_grads(lambda AA: g.sum_all(g.det(AA) * w), [A], atol=1e-6, rtol=1e-4)


class TestDet:
    def test_grad_matches_fd(self):
        A = RNG.normal(size=(5, 3, 3))
        w = np.arange(1.0, 6.0)
        check_grads(lambda AA: g.sum_all(g.det(AA) * w), [A], atol=1e-6, rtol=1e-4)

    def test_value_batched(self):
        A = RNG.normal(size=(7, 4, 4))
        np.testing.assert_allclose(g.det(g.Var(A)).value, np.linalg.det(A))

    def test_grad_exact_at_singular(self):
        # Rank-1 matrix: det = 0 but the cofactor gradient is well defined.
        A = np.array([[[1.0, 2.0], [2.0, 4.0]]])
        v = g.Var(A)
        out = g.sum_all(g.det(v))
        g.backward(out)
        # d det / dA = [[a22, -a21], [-a12, a11]]
        np.testing.assert_allclose(v.grad[0], [[4.0, -2.0], [-2.0, 1.0]])

    def test_grad_1x1(self):
        A = np.array([[[3.0]], [[-2.0]]])
        v = g.Var(A)
        g.backward(g.sum_all(g.det(v)))
        np.testing.assert_allclose(v.grad, np.ones((2, 1, 1)))


class TestDetVjp:
    """The det VJP: batched cofactors, built only where the upstream
    gradient is nonzero."""

    @staticmethod
    def blocks(n):
        A = RNG.normal(size=(3, 4, n, n))
        A[1, 2] = np.outer(np.arange(1.0, n + 1), RNG.normal(size=n))  # rank 1
        A[2, 0] = 0.0
        return A

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cofactor_matches_per_minor_loop_bit_for_bit(self, n):
        A = self.blocks(n)
        got = g._cofactor(A)
        assert got.shape == A.shape
        assert got.tobytes() == oracles.cofactor(A).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_dead_blocks_get_exact_zeros(self, n):
        A = self.blocks(n)
        w = RNG.normal(size=(3, 4))
        w[0] = 0.0
        w[1, 1:] = -0.0
        v = g.Var(A)
        g.backward(g.sum_all(g.det(v) * w))
        live = w != 0.0
        assert np.all(v.grad[~live] == 0.0)
        want = w[live][:, None, None] * oracles.cofactor(A[live])
        assert v.grad[live].tobytes() == want.tobytes()

    def test_nan_upstream_propagates(self):
        A = self.blocks(3)
        w = np.zeros((3, 4))
        w[1, 2] = np.nan  # on the rank-1 block, whose cofactors are finite
        w[0, 3] = 1.0
        v = g.Var(A)
        g.backward(g.sum_all(g.det(v) * w))
        assert np.isnan(v.grad[1, 2]).all()
        np.testing.assert_array_equal(v.grad[0, 3], oracles.cofactor(A[0, 3]))
        rest = np.ones((3, 4), dtype=bool)
        rest[1, 2] = rest[0, 3] = False
        assert np.all(v.grad[rest] == 0.0)

    def test_no_live_block(self):
        A = self.blocks(3)
        v = g.Var(A)
        g.backward(g.sum_all(g.det(v) * np.zeros((3, 4))))
        assert v.grad.shape == A.shape and np.all(v.grad == 0.0)

    def test_single_matrix(self):
        A = RNG.normal(size=(3, 3))
        v = g.Var(A)
        g.backward(g.det(v))
        assert v.grad.tobytes() == oracles.cofactor(A).tobytes()


class TestStructuralOps:
    def test_concat_last(self):
        a = RNG.normal(size=(4, 2))
        b = RNG.normal(size=(4, 3))
        w = np.random.default_rng(3).normal(size=(4, 5))
        check_grads(lambda x, y: g.sum_all(g.concat_last([x, y]) * w), [a, b])

    def test_concat_with_constant_piece(self):
        a = RNG.normal(size=(4, 2))
        cst = RNG.normal(size=(4, 1))
        check_grads(lambda x: g.sum_all(g.tanh(g.concat_last([x, cst]))), [a])

    def test_reshape(self):
        a = RNG.normal(size=(1, 4, 3))
        w = RNG.normal(size=(4, 3))
        check_grads(lambda x: g.sum_all(g.tanh(g.reshape(x, (4, 3))) * w), [a])


class TestBackward:
    def test_requires_scalar_root(self):
        with pytest.raises(ValueError):
            g.backward(g.Var(np.ones(3)))

    def test_fanout_accumulation(self):
        x = g.Var(np.array(2.0).reshape(()))
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        g.backward(y)
        np.testing.assert_allclose(x.grad, 7.0)

    def test_deep_chain_no_recursion_limit(self):
        x = g.Var(np.ones((1, 1)) * 0.001)
        v = x
        for _ in range(5000):
            v = v + x
        g.backward(g.sum_all(v))
        np.testing.assert_allclose(x.grad, np.full((1, 1), 5001.0))

    def test_unreached_leaf_has_none_grad(self):
        x = g.Var(np.ones((2, 2)))
        y = g.Var(np.ones((2, 2)))
        g.backward(g.sum_all(x * 2.0))
        assert y.grad is None

    def test_second_backward_gives_fresh_grads(self):
        x = g.Var(np.ones((2, 2)))
        y = g.sum_all(x * 2.0)
        g.backward(y)
        g.backward(y)  # the same graph again: not summed onto the first call
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))
        g.backward(g.sum_all(x * 3.0))  # a new root over the same leaf
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 3.0))

    def test_unreached_node_keeps_old_grad(self):
        x = g.Var(np.ones((2, 2)))
        y = g.Var(np.full((2, 2), 5.0))
        g.backward(g.sum_all(x * y))
        old = y.grad
        g.backward(g.sum_all(x * 2.0))
        assert y.grad is old
        np.testing.assert_array_equal(y.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_composite_network_like_graph(self):
        # One hidden layer with the input Jacobian carried as basis tangents,
        # then a mixed loss over both, mirroring how the trainer uses the engine.
        x = RNG.normal(size=(3, 4))
        W1 = RNG.normal(size=(5, 4)) * 0.5
        b1 = RNG.normal(size=(5,))
        W2 = RNG.normal(size=(2, 5)) * 0.5
        b2 = RNG.normal(size=(2,))
        dz = RNG.normal(size=(3, 4))

        def build(W1v, b1v, W2v, b2v):
            h = g.tanh(g.linear(g.Var(x), W1v, b1v))
            out = g.linear(h, W2v, b2v)
            ones = 1.0 - h * h  # tanh' at the hidden preactivation
            basis = np.broadcast_to(np.eye(4)[:, None, :], (4, 3, 4))  # (I, B, I)
            J = g.moveaxis(g.linear(ones * g.linear(basis, W1v), W2v), 0, -1)
            corr = g.bmat_vec(J, g.Var(dz))
            return g.sum_all((out + corr) * (out + corr)) * (1.0 / out.value.size)

        check_grads(build, [W1, b1, W2, b2], atol=1e-6, rtol=1e-4)


def fresh_and_replayed(build, before, after):
    """((root value, leaf grads) of a fresh build at `after`, the same of a
    build at `before` whose leaves were then set to `after` and replayed)."""
    leaves = [g.Var(a.copy()) for a in before]
    root = build(*leaves)
    order = g.topological_order(root)
    g.backward(root, order)
    for leaf, a in zip(leaves, after):
        np.copyto(leaf.value, a)
    g.replay(order)
    g.backward(root, order)
    fresh_leaves = [g.Var(a.copy()) for a in after]
    fresh_root = build(*fresh_leaves)
    g.backward(fresh_root)
    return ((fresh_root.value, [v.grad for v in fresh_leaves]),
            (root.value, [v.grad for v in leaves]))


def assert_bitwise_equal(a, b):
    if a is None or b is None:
        assert a is None and b is None
    else:
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_replay_exact(build, before, after):
    (value, grads), (replayed, replayed_grads) = fresh_and_replayed(build, before, after)
    assert_bitwise_equal(replayed, value)
    for got, want in zip(replayed_grads, grads):
        assert_bitwise_equal(got, want)
    start = build(*[g.Var(a.copy()) for a in before]).value
    assert np.asarray(start).tobytes() != np.asarray(value).tobytes()  # replay had work


R = np.random.default_rng(99)
C43, W43, W234 = R.normal(size=(4, 3)), R.normal(size=(4, 3)), R.normal(size=(2, 3, 4))
W245, X34, W53, C41 = R.normal(size=(2, 4, 5)), R.normal(size=(3, 4)), R.normal(size=(5, 3)), R.normal(size=(4, 1))
W35, W46 = R.normal(size=(3, 5)), R.normal(size=(4, 6))

# name -> (scalar graph over the leaves, leaf shapes); one or more per primitive
REPLAY_CASES = {
    "add_sub_mul": (lambda x, y: g.sum_all((x + y) * (x - y) * y), [(4, 3), (4, 3)]),
    "constant_operands": (lambda x: g.sum_all(2.0 * x + (x * C43) - 1.5), [(4, 3)]),
    "neg_scale": (lambda x: g.sum_all((-x) * 0.25 * x), [(3, 3)]),
    "broadcast": (lambda x, y: g.sum_all((x * y - y + x) * W234), [(2, 3, 4), (3, 1)]),
    "tanh": (lambda x: g.sum_all(g.tanh(x) * W43), [(4, 3)]),
    "relu": (lambda x: g.sum_all(g.relu(x) * W43), [(4, 3)]),
    "masked_by_itself": (lambda x: g.sum_all(g.masked(x, lambda r: np.where(r > 0, 2.0, -1.0))
                                             * W43), [(4, 3)]),
    "masked_by_another_node": (
        lambda x, y: g.sum_all(g.masked(x, lambda r: (r > 0.0) * 1.0, g.tanh(y - 0.1)) * W43),
        [(4, 3), (4, 3)]),
    "linear": (lambda x, W, b: g.sum_all(g.tanh(g.linear(x, W, b)) * W245),
               [(2, 4, 3), (2, 5, 3), (2, 5)]),
    "linear_constant_input_no_bias": (lambda W: g.sum_all(g.linear(X34, W) * W35), [(5, 4)]),
    "bmat_vec": (lambda A, v: g.sum_all(g.tanh(g.bmat_vec(A, v))), [(3, 4, 5), (3, 5)]),
    "dot_rows": (lambda u, v: g.sum_all(g.dot_rows(u, v) * np.arange(1.0, 6.0)),
                 [(5, 3), (5, 3)]),
    "transpose_last": (lambda A: g.sum_all(g.moveaxis(A, -1, -2) * W53), [(3, 5)]),
    "moveaxis": (lambda A: g.sum_all(g.tanh(g.moveaxis(A, 0, -1)) * W53), [(3, 5)]),
    "reshape": (lambda x: g.sum_all(g.tanh(g.reshape(x, (4, 3))) * W43), [(1, 4, 3)]),
    "concat_last": (lambda x, y: g.sum_all(g.concat_last([x, C41, y]) * W46), [(4, 2), (4, 3)]),
    "det": (lambda A: g.sum_all(g.det(A) * np.arange(1.0, 6.0)), [(5, 3, 3)]),
    "sum_all": (lambda x: g.sum_all(x * x) * 0.5, [(2, 3)]),
}


class TestReplay:
    """A graph built once and replayed at new leaf values gives bit for bit
    the value and gradients of a fresh build at those values."""

    @pytest.mark.parametrize("name", sorted(REPLAY_CASES))
    def test_every_primitive(self, name):
        build, shapes = REPLAY_CASES[name]
        rng = np.random.default_rng(len(name))
        before = [rng.normal(size=s) for s in shapes]
        after = [rng.normal(size=s) for s in shapes]
        assert_replay_exact(build, before, after)

    def test_relu_whose_live_set_flips(self):
        before = np.abs(RNG.normal(size=(4, 3))) + 0.1
        after = before * np.where(RNG.random((4, 3)) < 0.5, -1.0, 1.0)
        assert (after < 0).any() and (after > 0).any()
        assert_replay_exact(lambda x: g.sum_all(g.relu(x) * W43), [before], [after])

    def test_det_hinge_whose_live_set_flips(self):
        before = np.eye(3) + 0.1 * RNG.normal(size=(6, 3, 3))
        after = before.copy()
        after[::2, 0] *= -1.0  # flips the sign of every other determinant
        assert (np.linalg.det(before) > 0).all()
        assert (np.linalg.det(after) < 0).sum() == 3
        w = np.arange(1.0, 7.0)
        assert_replay_exact(lambda A: g.sum_all(g.relu(-g.det(A)) * w), [before], [after])

    @pytest.mark.parametrize("need_blocks", [False, True])
    def test_both_gates_of_a_gated_second_order_step(self, need_blocks):
        # the gate on the rows reads its own operand; the mask on H dz (or on
        # the blocks) reads the raw rows, which the walk from the loss would
        # otherwise reach only after it
        from mtnn import model as md
        from mtnn.constraints import MonoSpec, gate_mask_of

        rng = np.random.default_rng(8)
        net = nn.init_dense([3, 5, 3], rng, n_stack=2)
        model = md.MtnnModel(net, MonoSpec.from_symbols(["+-.", "-++"]),
                             md.TaylorOrder.SECOND, md.GateMode.ARCHITECTURE)
        Zp = rng.normal(size=(6, 3))
        Zc = Zp + 0.5 * rng.normal(size=(6, 3))
        w = rng.normal(size=(2, 6))

        def build(net):
            tape = nn.NetTape(net)
            incr, rows, blocks = md.taylor_increments(tape, model, Zc, Zp, need_blocks)
            loss = g.sum_all(rows * rows) * 0.1
            if blocks is not None:
                loss = loss + g.sum_all(blocks * blocks)
            # last, so that the walk reaches the masked term before raw
            return tape, loss + g.sum_all(incr * w)

        after = net.copy()
        after.biases[-1] += rng.normal(scale=0.5, size=after.biases[-1].shape)
        tags = model.mono_spec.tags[:, None, :]
        masks = [gate_mask_of(tags[:, 0])(np.swapaxes(nn.forward(n, Zp), 0, 1))
                 for n in (net, after)]
        assert (masks[0] != masks[1]).any()  # some gate flips between the two

        tape, root = build(net.copy())
        order = g.topological_order(root)
        g.backward(root, order)
        for leaf, A in zip(tape.weights + tape.biases, after.weights + after.biases):
            np.copyto(leaf.value, A)
        g.replay(order)
        g.backward(root, order)
        fresh_tape, fresh = build(after)
        g.backward(fresh)
        assert_bitwise_equal(root.value, fresh.value)
        got, want = tape.gradients(), fresh_tape.gradients()
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert_bitwise_equal(a, b)

    def test_order_puts_forward_only_dependencies_first(self):
        x, y = g.Var(np.ones(3)), g.Var(np.ones(3))
        src = g.tanh(y)
        out = g.sum_all(g.masked(x, lambda r: (r > 0) * 1.0, src))
        order = g.topological_order(out)
        assert order.index(src) < order.index(out.parents[0])
        assert out.parents[0].parents == (x,)  # src is not a parent
        g.backward(out, order)
        assert y.grad is None and src.grad is None

    def test_backward_with_an_order_resets_only_its_nodes(self):
        x = g.Var(np.ones((2, 2)))
        other = g.sum_all(x * 3.0)
        g.backward(other)
        y = g.sum_all(x * 2.0)
        g.backward(y, g.topological_order(y))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))
        assert other.grad is not None  # not in y's order: untouched
