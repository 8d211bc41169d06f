"""Dense-net forward, exact Jacobians, parameter gradients, checkpoints."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtnn import graph as g
from mtnn import model as md
from mtnn import net as nn
from mtnn import training as tr
from mtnn.constraints import MonoSpec
from mtnn.model import MtnnModel
from mtnn.plants import Transitions
import oracles

RNG = np.random.default_rng(42)


def random_net(dims, seed=0):
    return nn.init_dense(dims, np.random.default_rng(seed))


def batch_first(a):
    """A tape value's batch axis moved after the stack axis: (S, O, B) ->
    (S, B, O) and (S, O, I, B) -> (S, B, O, I), the numpy paths' shapes."""
    return np.moveaxis(a, -1, 1)


class TestForward:
    def test_identity_linear_layer(self):
        net = nn.DenseNet([np.eye(3)], [np.zeros(3)])
        np.testing.assert_array_equal(nn.forward(net, np.array([[1.0, 2.0, 3.0]]))[0, 0],
                                      [1, 2, 3])

    def test_zero_weights_give_bias(self):
        b = np.array([0.7, -1.2])
        net = nn.DenseNet([np.zeros((2, 3))], [b])
        for _ in range(3):
            z = RNG.normal(size=(1, 3))
            np.testing.assert_array_equal(nn.forward(net, z)[0, 0], b)

    def test_two_layer_tanh_matches_straightline_reeval(self):
        net = random_net([2, 4, 2], seed=42)
        z = np.array([0.5, -0.5])
        # independent re-evaluation, no shared code path
        h = np.tanh(net.weights[0][0] @ z + net.biases[0][0])
        want = net.weights[1][0] @ h + net.biases[1][0]
        np.testing.assert_allclose(nn.forward(net, z[None])[0, 0], want, rtol=0, atol=0)

    def test_batched_equals_loop(self):
        net = random_net([3, 5, 2], seed=1)
        Z = RNG.normal(size=(6, 3))
        batched = nn.forward(net, Z)
        for k in range(6):
            # BLAS may reorder the sums between the two shapes; only ulp-level drift
            np.testing.assert_allclose(batched[:, k], nn.forward(net, Z[k:k + 1])[:, 0],
                                       rtol=1e-13)

    def test_dimension_mismatch_rejected(self):
        net = random_net([3, 4, 2])
        with pytest.raises(ValueError):
            nn.forward(net, np.zeros((1, 4)))

    def test_single_sample_is_a_batch_of_one(self):
        net = random_net([3, 4, 2])
        for run in (lambda z: nn.forward(net, z), lambda z: nn.input_jacobian(net, z),
                    lambda z: nn.input_jacobian(net, z, z),
                    lambda z: nn.NetTape(net).forward(z),
                    lambda z: nn.NetTape(net).forward(g.Var(z))):
            with pytest.raises(ValueError, match=r"z has shape \(3,\), net expects \(B, 3\)"):
                run(np.zeros(3))
            with pytest.raises(ValueError, match=r"z has shape \(\)"):
                run(np.zeros(()))

    @pytest.mark.parametrize("activation", ["sigmoid", "linear", "relu"])
    def test_activation_other_than_tanh_is_named(self, activation):
        d = nn.net_to_dict(random_net([2, 3, 2]))
        assert d["activation"] == nn.ACTIVATION == "tanh"
        d["activation"] = activation
        with pytest.raises(ValueError, match=f"activation '{activation}'"):
            nn.net_from_dict(d)

    def test_pure_bit_identical(self):
        net = random_net([3, 8, 3], seed=5)
        z = RNG.normal(size=(1, 3))
        a, b = nn.forward(net, z), nn.forward(net, z)
        assert np.array_equal(a, b)

    def test_standardization_is_affine_composition(self):
        core = random_net([2, 4, 2], seed=9)
        in_shift, in_scale = np.array([70.0, 0.5]), np.array([3.0, 0.2])
        out_shift, out_scale = np.array([-1.0, 2.0]), np.array([4.0, 0.5])
        net = replace(core, in_shift=in_shift, in_scale=in_scale,
                      out_shift=out_shift, out_scale=out_scale)
        z = np.array([[71.3, 0.44]])
        want = nn.forward(core, (z - in_shift) / in_scale) * out_scale + out_shift
        np.testing.assert_allclose(nn.forward(net, z), want, rtol=1e-15)


class TestInputJacobian:
    def test_linear_net_is_weight_matrix(self):
        W = RNG.normal(size=(2, 4))
        net = nn.DenseNet([W], [np.zeros(2)])
        np.testing.assert_allclose(nn.input_jacobian(net, RNG.normal(size=(1, 4)))[1][0, 0], W)

    def test_tanh_scalar_at_zero(self):
        # hidden tanh only exists with >= 2 layers
        net = nn.DenseNet([np.eye(1), np.eye(1)], [np.zeros(1), np.zeros(1)])
        np.testing.assert_allclose(nn.input_jacobian(net, np.zeros((1, 1)))[1][0, 0], [[1.0]])

    @pytest.mark.parametrize("dims", [[3, 3], [2, 7, 2], [4, 6, 6, 4]])
    def test_matches_finite_differences(self, dims):
        net = random_net(dims, seed=len(dims))
        z = np.random.default_rng(3).normal(size=dims[0])
        J = nn.input_jacobian(net, z[None])[1][:, 0]
        Jfd = oracles.fd_input_jacobian(net, z)
        err = np.abs(J - Jfd) / np.maximum(1.0, np.abs(Jfd))
        assert err.max() < 1e-6

    def test_batched_equals_loop(self):
        net = random_net([3, 5, 3], seed=2)
        Z = RNG.normal(size=(4, 3))
        batched = nn.input_jacobian(net, Z)[1]
        for k in range(4):
            np.testing.assert_allclose(batched[:, k], nn.input_jacobian(net, Z[k:k + 1])[1][:, 0],
                                       rtol=1e-13)

    def test_standardization_chain_rule(self):
        core = random_net([2, 5, 2], seed=11)
        in_shift, in_scale = np.array([70.0, 0.5]), np.array([3.0, 0.2])
        out_scale = np.array([4.0, 0.5])
        net = replace(core, in_shift=in_shift, in_scale=in_scale, out_scale=out_scale)
        z = np.array([69.0, 0.61])
        J_core = nn.input_jacobian(core, ((z - in_shift) / in_scale)[None])[1][:, 0]
        want = out_scale[:, None] * J_core / in_scale[None, :]
        J = nn.input_jacobian(net, z[None])[1][:, 0]
        np.testing.assert_allclose(J, want, rtol=1e-12)
        Jfd = oracles.fd_input_jacobian(net, z)
        err = np.abs(J - Jfd) / np.maximum(1.0, np.abs(Jfd))
        assert err.max() < 1e-6


def random_full_net(rng, dims, n_stack=1):
    """A stack with random biases and random affine maps, so every term of
    the chain rule is exercised."""
    net = nn.init_dense(dims, rng, n_stack=n_stack)
    for b in net.biases:
        b[:] = rng.normal(size=b.shape)
    S, n_in, n_out = n_stack, dims[0], dims[-1]
    sign = rng.choice([-1.0, 1.0], size=(S, n_in))
    return replace(net, in_shift=rng.normal(size=(S, n_in)),
                   in_scale=sign * rng.uniform(0.5, 2.0, size=(S, n_in)),
                   out_shift=rng.normal(size=(S, n_out)),
                   out_scale=rng.uniform(0.5, 2.0, size=(S, n_out)))


class TestFullJacobian:
    """input_jacobian(net, z) and forward_and_jacobian(z) carry the basis tangents."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_numpy_and_graph_match_finite_differences(self, data):
        S = data.draw(st.integers(1, 3), label="stack")
        hidden = data.draw(st.lists(st.integers(1, 5), max_size=2), label="hidden")
        n_in, n_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        B = data.draw(st.integers(2, 4), label="batch")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        net = random_full_net(rng, [n_in, *hidden, n_out], S)
        Z = rng.normal(size=(B, n_in))

        fd = np.stack([oracles.fd_input_jacobian(net, z) for z in Z], axis=1)
        out_np, J = nn.input_jacobian(net, Z)
        out, J_graph = nn.NetTape(net).forward_and_jacobian(Z)
        assert J_graph.shape == (S, n_out, n_in, B)
        J_graph = batch_first(J_graph.value)
        assert J.shape == J_graph.shape == fd.shape == (S, B, n_out, n_in)
        for got in (J, J_graph):
            assert (np.abs(got - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6
        np.testing.assert_allclose(J_graph, J, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(batch_first(out.value), nn.forward(net, Z),
                                   rtol=1e-12, atol=1e-12)
        assert np.array_equal(out_np, nn.forward(net, Z))
        out0, J0 = nn.input_jacobian(net, Z[:1])
        assert np.array_equal(out0, nn.forward(net, Z[:1]))
        np.testing.assert_allclose(J0, J[:, :1], rtol=1e-12, atol=1e-12)


class TestInPlaceKernel:
    """`forward` and `input_jacobian` run one layer loop that works in place;
    every value is bit for bit what the allocate-per-op loop
    (`oracles.run`) gives."""

    @pytest.mark.parametrize("S", [1, 2])
    @pytest.mark.parametrize("B", [1, 2, 3, 2049])
    def test_bytes_equal_the_oracle_loop(self, B, S):
        rng = np.random.default_rng(10 * B + S)
        for dims in ([4, 8, 4], [3, 5, 4, 2]):
            net = random_full_net(rng, dims, S)
            Z, V = rng.normal(size=(2, B, dims[0]))
            assert nn.forward(net, Z).tobytes() == oracles.run(net, Z)[0].tobytes()
            out, J = nn.input_jacobian(net, Z)
            want, T = oracles.run(net, Z, nn._basis(dims[0], B))
            assert out.tobytes() == want.tobytes()
            assert J.tobytes() == np.moveaxis(T, 0, -1).tobytes()
            out, Jv = nn.input_jacobian(net, Z, V)
            want, Jv_want = oracles.run(net, Z, V)
            assert out.tobytes() == want.tobytes() and Jv.tobytes() == Jv_want.tobytes()

    def test_peak_memory_of_a_block_forward(self):
        # the TCLab stack over one predict_batch block: the bound is two
        # (2, 2048, 8) activation arrays, which the per-op loop exceeds
        net = nn.init_dense([4, 8, 4], 0, n_stack=2)
        Z = RNG.normal(size=(2048, 4))
        bound = 2 * np.empty((2, 2048, 8)).nbytes

        def peak(run):
            run(net, Z)
            tracemalloc.start()
            try:
                run(net, Z)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(nn.forward) < bound
        assert peak(oracles.run) > bound


LAYOUT_BATCHES = (1, 2, 3, 7, 100, 2048, 2049)
# `nn._run`'s matmuls may sum in another order than the batch-major oracle's;
# where they do, each array stays within 16 ulps of its largest entry
LAYOUT_BOUND = 16 * np.finfo(np.float64).eps


def layout_pairs(net, rng):
    """(nn._run, oracles.run) array pairs at every LAYOUT_BATCHES size: the
    outputs and the tangent images of no tangent, a direction and the full
    basis."""
    n = net.n_in
    for B in LAYOUT_BATCHES:
        Z, V = rng.normal(size=(2, B, n))
        for t in (None, V, nn._basis(n, B)):
            for got, want in zip(nn._run(net, Z, t), oracles.run(net, Z, t)):
                if want is not None:
                    assert got.shape == want.shape
                    yield got, want


def layout_stack(rng, width, depth, S, n_out=None):
    """A random stack of `depth` hidden layers of `width`, 2 to 5 inputs and
    `n_out` (else 2 to 5) outputs."""
    n_in, n_out = rng.integers(2, 6), n_out or rng.integers(2, 6)
    return random_full_net(rng, [n_in, *[width] * depth, n_out], S)


class TestBatchInnerLayout:
    """`nn._run` keeps (S, H, B) inside; the oracle loop keeps (S, B, H)."""

    @pytest.mark.parametrize("width", [4, 8])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_bytes_equal_the_batch_major_oracle(self, width, depth):
        rng = np.random.default_rng(10 * width + depth)
        for S in (1, 2, 3):
            for got, want in layout_pairs(layout_stack(rng, width, depth, S), rng):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width, n_out", [(16, None), (32, None), (64, None), (4, 1), (8, 1)])
    def test_wider_and_one_output_nets_within_the_bound(self, width, n_out):
        rng = np.random.default_rng(width + 7 * (n_out or 0))
        for depth in (1, 2, 3):
            for S in (1, 2, 3):
                for got, want in layout_pairs(layout_stack(rng, width, depth, S, n_out), rng):
                    assert np.abs(got - want).max() <= LAYOUT_BOUND * np.abs(want).max()

    @pytest.mark.parametrize("order", list(md.TaylorOrder))
    @pytest.mark.parametrize("gate", list(md.GateMode))
    def test_tclab_stack_predictions_bytes_equal_the_oracle(self, order, gate):
        rng = np.random.default_rng(5)
        m = MtnnModel(random_full_net(rng, [4, 8, 4], 2),
                      MonoSpec.from_symbols(["+-.+", ".+-."]), order, gate)
        rows = md._block_rows(m.net)
        Z_prev = rng.normal(size=(2 * rows + 1, 4))
        Z_curr = Z_prev + 0.2 * rng.normal(size=Z_prev.shape)
        Z_curr[rows] = Z_prev[rows]  # an exact fixpoint at a block edge
        for B in (1, 2, 3, rows - 1, rows, rows + 1, 2 * rows + 1):
            want = oracles.predict_batch(m, Z_curr[:B], Z_prev[:B])
            assert md.predict_batch(m, Z_curr[:B], Z_prev[:B]).tobytes() == want.tobytes()


class TestDirectionalDerivative:
    """input_jacobian(net, z, v) and forward_and_jacobian(z, v) are J v."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_numpy_and_graph_equal_jacobian_times_direction(self, data):
        S = data.draw(st.integers(1, 3), label="stack")
        hidden = data.draw(st.lists(st.integers(1, 5), max_size=2), label="hidden")
        n_in, n_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        batch = data.draw(st.integers(1, 4), label="batch")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        net = random_full_net(rng, [n_in, *hidden, n_out], S)
        Z, V = rng.normal(size=(batch, n_in)), rng.normal(size=(batch, n_in))

        want = np.einsum("...oi,...i->...o", nn.input_jacobian(net, Z)[1], V[None])
        out_np, got = nn.input_jacobian(net, Z, V)
        assert np.array_equal(out_np, nn.forward(net, Z))
        assert got.shape == want.shape == (S, batch, n_out)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

        out, Jv = nn.NetTape(net).forward_and_jacobian(Z, V)
        assert Jv.shape == (S, n_out, batch)
        np.testing.assert_allclose(batch_first(out.value), nn.forward(net, Z),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(batch_first(Jv.value), nn.input_jacobian(net, Z, V)[1],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dims", [[3, 2], [3, 4, 2], [3, 4, 3, 2]])
    def test_graph_parameter_gradients_match_fd(self, dims):
        # gradients with respect to Var z and Var v: tests/test_graph.py::TestNetTangent
        rng = np.random.default_rng(61)
        net = random_full_net(rng, dims, n_stack=2)
        Z, V = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        w = rng.normal(size=(2, 2, 3))  # (S, O, B), as the tape's outputs

        def loss(tape):
            out, Jv = tape.forward_and_jacobian(Z, V)
            return g.sum_all((out + Jv * w) * Jv)

        _, grad = oracles.loss_gradient(net, loss)
        fd = oracles.fd_loss_gradient(net, loss)
        for got, want in zip(grad.weights + grad.biases, fd.weights + fd.biases):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() < 1e-5

    def test_direction_shape_must_match_input(self):
        net = random_net([3, 4, 2])
        with pytest.raises(ValueError, match="direction"):
            nn.input_jacobian(net, np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="direction"):
            nn.input_jacobian(net, np.zeros((1, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="direction"):
            nn.NetTape(net).forward_and_jacobian(np.zeros((2, 3)), g.Var(np.zeros((1, 3))))


class TestTape:
    def test_tape_values_match_numpy_paths(self):
        net = random_net([3, 6, 3], seed=21)
        Z = RNG.normal(size=(5, 3))
        tape = nn.NetTape(net)
        out, J = tape.forward_and_jacobian(Z)
        np.testing.assert_allclose(batch_first(out.value), nn.forward(net, Z), rtol=1e-14)
        np.testing.assert_allclose(batch_first(J.value), nn.input_jacobian(net, Z)[1],
                                   rtol=1e-14)

    def test_var_input_gradient_matches_fd(self):
        # the controller differentiates the net w.r.t. its inputs
        net = random_net([3, 6, 2], seed=22)
        Z = RNG.normal(size=(2, 3))

        def loss_at(Zv):
            tape = nn.NetTape(net)
            out = tape.forward(g.Var(Zv) if isinstance(Zv, np.ndarray) else Zv)
            return g.sum_all(out * out)

        zvar = g.Var(Z.copy())
        tape = nn.NetTape(net)
        out = tape.forward(zvar)
        val = g.sum_all(out * out)
        g.backward(val)
        eps = 1e-6
        fd = np.zeros_like(Z)
        for idx in np.ndindex(Z.shape):
            Zp, Zm = Z.copy(), Z.copy()
            Zp[idx] += eps
            Zm[idx] -= eps
            fd[idx] = (loss_at(Zp).value - loss_at(Zm).value) / (2 * eps)
        np.testing.assert_allclose(zvar.grad, fd, atol=1e-7, rtol=1e-5)

    def test_frozen_tape_holds_its_parameters_as_constants(self):
        net = random_net([3, 6, 2], seed=23)
        Z, V = RNG.normal(size=(2, 4, 3))
        grads = []
        for frozen in (False, True):
            zvar = g.Var(Z)
            tape = nn.NetTape(net, frozen=frozen)
            out, Jv = tape.forward_and_jacobian(zvar, V)
            root = g.sum_all(out * out) + g.sum_all(Jv * Jv)
            g.backward(root)
            grads.append((root.value, zvar.grad))
            leaves = {id(n) for n in g.topological_order(root) if n.fwd is None}
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*grads))
        assert leaves == {id(zvar)}
        with pytest.raises(ValueError, match="frozen tape"):
            tape.gradients()


class TestLossGradient:
    def test_quadratic_form_linear_net_analytic(self):
        W = RNG.normal(size=(2, 3))
        net = nn.DenseNet([W.copy()], [np.zeros(2)])
        z = RNG.normal(size=3)

        def loss(tape):
            out = tape.forward(z[None])
            return g.sum_all(out * out) * 0.5

        val, grad = oracles.loss_gradient(net, loss)
        np.testing.assert_allclose(val, 0.5 * np.sum((W @ z) ** 2), rtol=1e-14)
        np.testing.assert_allclose(grad.weights[0][0], np.outer(W @ z, z), rtol=1e-12)

    def test_constant_loss_zero_gradient(self):
        net = random_net([2, 3, 2])

        def loss(tape):
            return g.Var(np.asarray(4.2))

        val, grad = oracles.loss_gradient(net, loss)
        assert val == 4.2
        assert all(np.all(gw == 0) for gw in grad.weights)
        assert all(np.all(gb == 0) for gb in grad.biases)

    def test_jacobian_term_loss_matches_fd(self):
        net = random_net([3, 5, 3], seed=31)
        Z = np.random.default_rng(8).normal(size=(4, 3))
        dz = np.random.default_rng(9).normal(size=(4, 3))

        def loss(tape):
            out, J = tape.forward_and_jacobian(Z)
            corr = g.bmat_vec(J, g.Var(dz.T))
            resid = out + corr
            mse = g.sum_all(resid * resid) * (1.0 / resid.value.size)
            return mse + g.sum_all(g.relu(-J)) * 0.1

        val, grad = oracles.loss_gradient(net, loss)
        fd = oracles.fd_loss_gradient(net, loss)
        for got, want in zip(grad.weights + grad.biases, fd.weights + fd.biases):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() < 1e-5

    def test_nonfinite_loss_raises_fault(self):
        model = MtnnModel([random_net([2, 2])], MonoSpec.free(1, 2))
        z = np.ones(2)
        data = Transitions([z, z], [z + 1.0, z + 1.0], [[np.inf], [np.inf]])
        with pytest.raises(nn.TrainingFault, match="diverged at epoch 0"):
            tr.train(model, data, tr.TrainConfig(epochs=1))


class TestInitAndCheckpoints:
    def test_glorot_bounds_and_zero_bias(self):
        net = nn.init_dense([10, 20, 5], 7)
        lim0 = np.sqrt(6.0 / 30)
        lim1 = np.sqrt(6.0 / 25)
        assert np.abs(net.weights[0]).max() <= lim0
        assert np.abs(net.weights[1]).max() <= lim1
        assert all(np.all(b == 0) for b in net.biases)

    def test_init_deterministic(self):
        a = nn.init_dense([3, 8, 3], 123)
        b = nn.init_dense([3, 8, 3], 123)
        for Wa, Wb in zip(a.weights, b.weights):
            assert np.array_equal(Wa, Wb)

    def test_version_checked(self, tmp_path):
        net = random_net([2, 2])
        d = nn.net_to_dict(net)
        d["version"] = "other"
        with pytest.raises(ValueError):
            nn.net_from_dict(d)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nn.DenseNet([np.zeros((2, 3)), np.zeros((2, 4))], [np.zeros(2), np.zeros(2)])
        with pytest.raises(ValueError):
            nn.DenseNet([np.zeros((2, 3))], [np.zeros(3)])

    @pytest.mark.parametrize("weights, shape", [([1.0, 2.0], "()"), ([[1.0, 2.0]], "(2,)"),
                                                ([np.zeros((1, 1, 2, 2))], "(1, 1, 2, 2)")])
    def test_weights_that_are_not_matrices_rejected(self, weights, shape):
        # layer 0's shape is checked before the stack size is read from it
        want = f"layer 0: weights {shape} / biases (1, 2) mismatch"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            nn.DenseNet(weights, [np.zeros(2)] * len(weights))


def distinct_stack():
    """Three members with unequal weights and affine maps."""
    rng = np.random.default_rng(123)
    members = []
    for j in range(3):
        net = random_net([3, 5, 2], seed=40 + j)
        members.append(replace(
            net,
            biases=[rng.normal(size=b.shape) for b in net.biases],
            in_shift=rng.normal(size=3),
            in_scale=rng.uniform(0.5, 2.0, size=3),
            out_shift=rng.normal(size=2),
            out_scale=rng.uniform(0.5, 2.0, size=2),
        ))
    return members, nn.stack(members)


class TestStack:
    def test_members_evaluate_as_alone(self):
        members, net = distinct_stack()
        Z = RNG.normal(size=(6, 3))
        out, J = nn.forward(net, Z), nn.input_jacobian(net, Z)[1]
        assert out.shape == (3, 6, 2) and J.shape == (3, 6, 2, 3)
        for j, member in enumerate(members):
            np.testing.assert_allclose(out[j], nn.forward(member, Z)[0], rtol=1e-13)
            np.testing.assert_allclose(J[j], nn.input_jacobian(member, Z)[1][0], rtol=1e-13)

    def test_tape_gradients_are_per_member(self):
        members, net = distinct_stack()
        Z = RNG.normal(size=(4, 3))
        dz = RNG.normal(size=(4, 3))

        def loss(tape):
            out, J = tape.forward_and_jacobian(Z)
            resid = out + g.bmat_vec(J, g.Var(dz.T))
            return g.sum_all(resid * resid) + g.sum_all(g.relu(-J)) * 0.1

        _, grad = oracles.loss_gradient(net, loss)
        fd = oracles.fd_loss_gradient(net, loss)
        for got, want in zip(grad.weights + grad.biases, fd.weights + fd.biases):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() < 1e-5
        for j, member in enumerate(members):
            _, alone = oracles.loss_gradient(member, loss)
            for got, want in zip(grad.weights + grad.biases, alone.weights + alone.biases):
                np.testing.assert_allclose(got[j], want[0], rtol=1e-12, atol=1e-14)

    def test_unstack_inverts_stack(self):
        members, net = distinct_stack()
        for member, back in zip(members, nn.unstack(net)):
            assert nn.net_to_dict(back) == nn.net_to_dict(member)

    def test_init_stack_draws_member_by_member(self):
        stacked = nn.init_dense([3, 4, 3], 5, n_stack=2)
        rng = np.random.default_rng(5)
        one_by_one = nn.stack([nn.init_dense([3, 4, 3], rng) for _ in range(2)])
        for Wa, Wb in zip(stacked.weights, one_by_one.weights):
            assert np.array_equal(Wa, Wb)

    def test_unequal_members_rejected(self):
        with pytest.raises(ValueError, match="net 1"):
            nn.stack([random_net([3, 4, 3]), random_net([3, 5, 3])])

    def test_v1_record_holds_one_net(self):
        _, net = distinct_stack()
        with pytest.raises(ValueError):
            nn.net_to_dict(net)
