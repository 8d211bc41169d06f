"""Finite-difference checks for the autodiff engine.

Every primitive gets its gradient compared against central differences on
random inputs; a couple of composite graphs exercise fan-out accumulation
and the batched matrix products together.
"""

import numpy as np
import pytest

from mtnn import graph as g
from mtnn import net as nn

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
        a = RNG.normal(size=(3, 3))
        check_grads(lambda x: g.sum_all(g.scale(-x, 0.25)), [a])

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

    def test_mean_all(self):
        a = RNG.normal(size=(6, 2))
        check_grads(lambda x: g.mean_all(x * x), [a])


class TestActivations:
    def test_tanh(self):
        a = RNG.normal(size=(4, 5))
        check_grads(lambda x: g.sum_all(g.tanh(x)), [a])

    def test_sigmoid(self):
        a = RNG.normal(size=(4, 5)) * 3
        check_grads(lambda x: g.sum_all(g.sigmoid(x)), [a])

    def test_sigmoid_extreme_inputs_finite(self):
        v = g.sigmoid(g.Var(np.array([[-800.0, 800.0]])))
        assert np.all(np.isfinite(v.value))
        np.testing.assert_allclose(v.value, [[0.0, 1.0]], atol=1e-12)

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

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    @pytest.mark.parametrize("dims", [[3, 2], [3, 4, 2], [3, 4, 3, 2]])
    def test_grads_in_point_and_direction(self, activation, dims):
        net = nn.init_dense(dims, RNG, activation, n_stack=2)
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
        out = g.transpose_last(g.Var(A))
        np.testing.assert_array_equal(out.value, np.swapaxes(A, -1, -2))
        check_grads(
            lambda AA: g.sum_all(g.transpose_last(AA) * np.swapaxes(RNG_WEIGHTS, -1, -2)),
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
            return g.mean_all((out + corr) * (out + corr))

        check_grads(build, [W1, b1, W2, b2], atol=1e-6, rtol=1e-4)
