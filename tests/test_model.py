"""Taylor predictor: Jacobian assembly, Hessian stack, predictions, bundles."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtnn import graph
from mtnn import model as md
from mtnn import net as nn
from mtnn.constraints import MonoSpec
import oracles

RNG = np.random.default_rng(1717)
DATA = Path(__file__).parent / "data"


def constant_net(values, n_in):
    """Net that outputs `values` for every input."""
    values = np.asarray(values, dtype=np.float64)
    return nn.DenseNet([np.zeros((len(values), n_in))], [values])


def linear_net(W):
    W = np.asarray(W, dtype=np.float64)
    return nn.DenseNet([W], [np.zeros(W.shape[0])])


def random_model(nx, nu, seed=0, order=md.TaylorOrder.FIRST, gate=md.GateMode.NONE, spec=None):
    n = nx + nu
    rng = np.random.default_rng(seed)
    nets = [nn.init_dense([n, 6, n], rng) for _ in range(nx)]
    if spec is None:
        spec = MonoSpec.free(nx, n)
    return md.MtnnModel(nets, spec, order, gate)


KINDS = ["baseline", *((order, gate) for order in md.TaylorOrder for gate in md.GateMode)]


def kind_id(kind):
    return kind if isinstance(kind, str) else f"{kind[0].value}-{kind[1].value}"


def model_of_kind(kind, seed=16):
    if kind == "baseline":
        return md.BaselineModel(nn.init_dense([4, 6, 2], seed), nx=2)
    spec = MonoSpec.from_symbols(["+-.+", ".+-."])
    return random_model(2, 2, seed=seed, order=kind[0], gate=kind[1], spec=spec)


def batch_pairs(B, seed=0):
    rng = np.random.default_rng(seed)
    Z_prev = rng.normal(size=(B, 4))
    return Z_prev + rng.normal(size=(B, 4)) * 0.2, Z_prev


class TestJacobianMatrix:
    def test_identity_net_passthrough(self):
        m = md.MtnnModel([linear_net(np.eye(2))], MonoSpec.free(1, 2))
        z = np.array([0.3, -0.2])
        np.testing.assert_allclose(md.jacobian_matrix_batch(m, z[None])[0], [[0.3, -0.2]])

    def test_architecture_gate_all_increasing_nonnegative(self):
        spec = MonoSpec.from_symbols(["+++"])
        m = random_model(1, 2, seed=4, gate=md.GateMode.ARCHITECTURE, spec=spec)
        for _ in range(20):
            J = md.jacobian_matrix_batch(m, (RNG.normal(size=3) * 5)[None])[0]
            assert (J >= 0).all()

    def test_rows_equal_stacked_forwards(self):
        m = random_model(2, 1, seed=5)
        z = RNG.normal(size=3)
        J = md.jacobian_matrix_batch(m, z[None])[0]
        for j in range(2):
            np.testing.assert_array_equal(J[j], nn.forward(nn.unstack(m.net)[j], z[None])[0, 0])

    def test_batch_matches_loop(self):
        m = random_model(2, 2, seed=6, gate=md.GateMode.ARCHITECTURE,
                         spec=MonoSpec.from_symbols(["+.-.", ".+.-"]))
        Z = RNG.normal(size=(7, 4))
        JB = md.jacobian_matrix_batch(m, Z)
        for k in range(7):
            np.testing.assert_allclose(JB[k], md.jacobian_matrix_batch(m, Z[k][None])[0],
                                       rtol=1e-13)


class TestHessianStack:
    def test_linear_net_constant_block(self):
        W = RNG.normal(size=(3, 3))
        m = md.MtnnModel([linear_net(W)], MonoSpec.free(1, 3))
        H = md.hessian_stack_batch(m, RNG.normal(size=3)[None])[0]
        np.testing.assert_allclose(H[0], W)

    def test_zero_weights_zero_blocks(self):
        m = md.MtnnModel(
            [constant_net([0.0, 0.0], 2), constant_net([0.0, 0.0], 2)],
            MonoSpec.free(2, 2),
        )
        H = md.hessian_stack_batch(m, np.zeros((1, 2)))[0]
        np.testing.assert_array_equal(H, np.zeros((2, 2, 2)))

    def test_blocks_match_fd_of_jacobian_rows(self):
        m = random_model(2, 1, seed=8)
        z = RNG.normal(size=3)
        H = md.hessian_stack_batch(m, z[None])[0]
        eps = 1e-6
        for i in range(3):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            col = (md.jacobian_matrix_batch(m, zp[None])[0]
                   - md.jacobian_matrix_batch(m, zm[None])[0]) / (2 * eps)
            err = np.abs(H[:, :, i] - col) / np.maximum(1.0, np.abs(col))
            assert err.max() < 1e-6

    def test_gated_blocks_match_fd_away_from_kinks(self):
        spec = MonoSpec.from_symbols(["++-", "-.+"])
        m = random_model(2, 1, seed=9, gate=md.GateMode.ARCHITECTURE, spec=spec)
        z = RNG.normal(size=3)
        raw = nn.forward(m.net, z[None])
        if np.abs(raw).min() < 1e-2:  # keep the probe off the gate kink
            z = z + 0.37
        H = md.hessian_stack_batch(m, z[None])[0]
        eps = 1e-6
        for i in range(3):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            col = (md.jacobian_matrix_batch(m, zp[None])[0]
                   - md.jacobian_matrix_batch(m, zm[None])[0]) / (2 * eps)
            np.testing.assert_allclose(H[:, :, i], col, atol=1e-6)

    def test_batch_matches_loop(self):
        m = random_model(2, 2, seed=11, gate=md.GateMode.ARCHITECTURE,
                         spec=MonoSpec.from_symbols(["++..", "..--"]))
        Z = RNG.normal(size=(5, 4))
        HB = md.hessian_stack_batch(m, Z)
        for k in range(5):
            np.testing.assert_allclose(HB[k], md.hessian_stack_batch(m, Z[k][None])[0],
                                       rtol=1e-12, atol=1e-15)


class TestPredict:
    def test_zero_increment_fixpoint_exact(self):
        for seed in range(10):
            m = random_model(2, 1, seed=seed, order=md.TaylorOrder.SECOND)
            z = RNG.normal(size=3) * 50
            x_hat = md.predict(m, z, z)
            assert np.array_equal(x_hat, z[:2])

    def test_first_order_hand_expansion(self):
        # constant Jacobian row (a, b): x_hat = x + a dx + b du
        a, b = 0.7, -1.3
        m = md.MtnnModel([constant_net([a, b], 2)], MonoSpec.free(1, 2))
        z_prev = np.array([2.0, 1.0])
        z_curr = np.array([2.5, 0.4])
        want = 2.5 + a * 0.5 + b * (-0.6)
        np.testing.assert_allclose(md.predict(m, z_curr, z_prev), [want], rtol=1e-15)

    def test_second_order_linear_net_closed_form(self):
        W = RNG.normal(size=(3, 3))
        m = md.MtnnModel([linear_net(W)], MonoSpec.free(1, 3), md.TaylorOrder.SECOND)
        z_prev = RNG.normal(size=3)
        z_curr = RNG.normal(size=3)
        dz = z_curr - z_prev
        want = z_curr[0] + (W @ z_prev) @ dz + 0.5 * dz @ W @ dz
        np.testing.assert_allclose(md.predict(m, z_curr, z_prev), [want], rtol=1e-12)

    def test_order_consistency(self):
        spec = MonoSpec.from_symbols(["+.-", ".+."])
        m1 = random_model(2, 1, seed=13, spec=spec, gate=md.GateMode.ARCHITECTURE)
        m2 = m1.copy()
        m2.order = md.TaylorOrder.SECOND
        z_prev = RNG.normal(size=3)
        z_curr = z_prev + RNG.normal(size=3) * 0.3
        dz = z_curr - z_prev
        H = md.hessian_stack_batch(m2, z_prev[None])[0]
        quad = 0.5 * np.einsum("m,jmn,n->j", dz, H, dz)
        np.testing.assert_allclose(
            md.predict(m2, z_curr, z_prev) - md.predict(m1, z_curr, z_prev),
            quad,
            rtol=1e-12,
            atol=1e-15,
        )

    def test_first_order_predict_derivative_is_identity_plus_jacobian(self):
        # the base term contributes an identity block on the state slice,
        # so the full derivative is [I 0] + J; the increment's is J itself
        m = random_model(2, 1, seed=14)
        z_prev = RNG.normal(size=3)
        z_curr = RNG.normal(size=3)
        J = md.jacobian_matrix_batch(m, z_prev[None])[0]
        Iaug = np.hstack([np.eye(2), np.zeros((2, 1))])
        base = md.predict(m, z_curr, z_prev)
        h = 0.5
        for i in range(3):
            zp = z_curr.copy()
            zp[i] += h
            got = (md.predict(m, zp, z_prev) - base) / h
            np.testing.assert_allclose(got, (Iaug + J)[:, i], rtol=1e-9)

    def test_nonfinite_increment_rejected(self):
        m = random_model(1, 1, seed=15)
        with pytest.raises(ValueError):
            md.predict(m, np.array([np.inf, 0.0]), np.zeros(2))

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_batch_matches_loop_and_fixpoint_rows(self, kind):
        # predict is byte for byte predict_batch on its row alone; a wider
        # batch may round differently: numpy computes a one-row batch's
        # products as matrix-vector products, a wider one as matrix products
        m = model_of_kind(kind)
        Z_prev = RNG.normal(size=(6, 4))
        Z_curr = Z_prev + RNG.normal(size=(6, 4)) * 0.2
        Z_curr[3] = Z_prev[3]  # one exact-fixpoint row inside the batch
        out = md.predict_batch(m, Z_curr, Z_prev)
        for k in range(6):
            one = md.predict(m, Z_curr[k], Z_prev[k])
            alone = md.predict_batch(m, Z_curr[k:k + 1], Z_prev[k:k + 1])[0]
            assert one.tobytes() == alone.tobytes()
            np.testing.assert_allclose(out[k], one, rtol=1e-12, atol=1e-15)
        if kind != "baseline":
            assert np.array_equal(out[3], Z_curr[3, :2])
            assert md.predict(m, Z_curr[3], Z_prev[3]).tobytes() == Z_curr[3, :2].tobytes()

    def test_baseline_is_direct_forward(self):
        net = nn.init_dense([3, 5, 2], 17)
        m = md.BaselineModel(net, nx=2)
        z_curr = RNG.normal(size=3)
        np.testing.assert_array_equal(
            md.predict(m, z_curr, np.zeros(3)), nn.forward(net, z_curr[None])[0, 0]
        )


class TestBlockedBatch:
    """`predict_batch` streams a long batch through near-equal row blocks."""

    def test_block_rows_follow_the_float_budget(self):
        tclab_stack = nn.init_dense([4, 8, 4], 0, n_stack=2)
        assert md._block_rows(tclab_stack) == md.BLOCK_FLOATS // 16 == 2048
        huge = nn.init_dense([2, md.BLOCK_FLOATS, 2], 0)
        assert md._block_rows(huge) == 3  # never single-row blocks

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_blocked_batch_is_the_whole_batch_kernel(self, kind):
        m = model_of_kind(kind)
        rows = md._block_rows(m.net)
        Z_curr, Z_prev = batch_pairs(5 * rows // 2)
        Z_curr[-2] = Z_prev[-2]  # an exact fixpoint in the last block
        for B in (0, 2, rows - 1, rows, rows + 1, 2 * rows + 1, 5 * rows // 2):
            out = md.predict_batch(m, Z_curr[:B], Z_prev[:B])
            whole = md._step(m, Z_curr[:B], Z_prev[:B])
            assert out.shape == (B, 2) and out.tobytes() == whole.tobytes()
        if kind != "baseline":
            assert out[-2].tobytes() == Z_curr[-2, :2].tobytes()

    @pytest.mark.parametrize("kind", KINDS[1:], ids=kind_id)
    def test_nonfinite_increment_in_the_last_block_rejected(self, kind):
        m = model_of_kind(kind)
        Z_curr, Z_prev = batch_pairs(2 * md._block_rows(m.net) + 1)
        Z_curr[-1, 3] = np.nan
        with pytest.raises(ValueError, match="^non-finite increment between z_curr and z_prev$"):
            md.predict_batch(m, Z_curr, Z_prev)

    def test_peak_memory_of_a_long_batch_is_one_block(self, monkeypatch):
        # a TCLab-sized second-order gated stack over 20 000 rows: unblocked,
        # its (2, 20 000, 8) temporaries alone take about 10 MiB
        m = md.MtnnModel(nn.init_dense([4, 8, 4], 0, n_stack=2),
                         MonoSpec.from_symbols(["+-.+", ".+-."]),
                         md.TaylorOrder.SECOND, md.GateMode.ARCHITECTURE)
        Z_curr, Z_prev = batch_pairs(20_000)

        def peak_mib():
            md.predict_batch(m, Z_curr[:8], Z_prev[:8])
            tracemalloc.start()
            try:
                md.predict_batch(m, Z_curr, Z_prev)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        assert peak_mib() < 2.0
        monkeypatch.setattr(md, "BLOCK_FLOATS", 2**40)  # one block: the bound bites
        assert peak_mib() > 2.0


class TestStepKernelOracle:
    """The in-place net loop and the once-built gate mask leave every
    prediction bit for bit as the allocate-per-op kernel
    (`oracles.predict_batch`) gives it."""

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_predict_and_predict_batch_bytes_equal_the_oracle(self, kind):
        m = model_of_kind(kind)
        rows = md._block_rows(m.net)
        Z_curr, Z_prev = batch_pairs(2 * rows + 1)
        Z_curr[2] = Z_prev[2]  # an exact fixpoint
        for B in (1, 2, 3, 2049, 2 * rows + 1):
            want = oracles.predict_batch(m, Z_curr[:B], Z_prev[:B])
            assert md.predict_batch(m, Z_curr[:B], Z_prev[:B]).tobytes() == want.tobytes()
        for k in range(4):
            want = oracles.predict_batch(m, Z_curr[k:k + 1], Z_prev[k:k + 1])[0]
            assert md.predict(m, Z_curr[k], Z_prev[k]).tobytes() == want.tobytes()


class TestBundles:
    def test_mtnn_round_trip(self, tmp_path):
        spec = MonoSpec.from_symbols(["++-", ".+."])
        m = random_model(2, 1, seed=18, order=md.TaylorOrder.SECOND,
                         gate=md.GateMode.ARCHITECTURE, spec=spec)
        p = tmp_path / "model.json"
        md.save_bundle(m, p)
        back = md.load_bundle(p)
        assert isinstance(back, md.MtnnModel)
        assert back.order == md.TaylorOrder.SECOND
        assert back.gate_mode == md.GateMode.ARCHITECTURE
        np.testing.assert_array_equal(back.mono_spec.tags, spec.tags)
        z = RNG.normal(size=3)
        np.testing.assert_array_equal(
            md.predict(back, z + 0.1, z), md.predict(m, z + 0.1, z)
        )

    def test_baseline_round_trip(self, tmp_path):
        m = md.BaselineModel(nn.init_dense([4, 6, 2], 19), nx=2)
        p = tmp_path / "baseline.json"
        md.save_bundle(m, p)
        back = md.load_bundle(p)
        assert isinstance(back, md.BaselineModel)
        z = RNG.normal(size=4)
        np.testing.assert_array_equal(
            md.predict(back, z, np.zeros(4)), md.predict(m, z, np.zeros(4))
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_reproduces_record_and_predictions(self, data):
        kind = data.draw(st.sampled_from(["mtnn", "baseline"]), label="kind")
        nx, nu = data.draw(st.integers(1, 3), label="nx"), data.draw(st.integers(1, 2), label="nu")
        width = data.draw(st.integers(1, 9), label="width")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        n = nx + nu
        out = nx if kind == "baseline" else n
        nets = [nn.init_dense([n, width, out], rng)
                for _ in range(1 if kind == "baseline" else nx)]
        for net in nets:  # init_dense leaves the biases at zero
            for b in net.biases:
                b += rng.normal(0.0, 0.5, size=b.shape)
        if kind == "baseline":
            m = md.BaselineModel(nets[0], nx)
        else:
            order = data.draw(st.sampled_from(list(md.TaylorOrder)), label="order")
            gate = data.draw(st.sampled_from(list(md.GateMode)), label="gate")
            spec = MonoSpec(rng.integers(-1, 2, size=(nx, n)).astype(np.int8))
            m = md.MtnnModel(nets, spec, order, gate)
        with tempfile.TemporaryDirectory() as d:
            md.save_bundle(m, Path(d) / "m.json")
            back = md.load_bundle(Path(d) / "m.json")
        assert md.model_to_dict(back) == md.model_to_dict(m)
        Zc, Zp = rng.normal(0.0, 3.0, (2, 16, n))
        np.testing.assert_array_equal(md.predict_batch(back, Zc, Zp),
                                      md.predict_batch(m, Zc, Zp))

    def test_save_byte_deterministic(self, tmp_path):
        m = random_model(2, 1, seed=20)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        md.save_bundle(m, p1)
        md.save_bundle(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            md.model_from_dict({"version": md.BUNDLE_VERSION, "kind": "mystery"})

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            md.model_from_dict({"version": "v0", "kind": "mtnn"})

    def test_pinned_v1_bundle_predicts_as_written(self):
        # written once by an earlier version of this code: a second-order,
        # architecture-gated model (nx=2, N=4, width 3) and its predict_batch
        # output on five fixed pairs, the third a zero increment
        m = md.load_bundle(DATA / "mono2_bundle_v1.json")
        assert m.order == md.TaylorOrder.SECOND and m.gated
        want = json.loads((DATA / "mono2_bundle_v1_expected.json").read_text())
        Zc, Zp = np.array(want["z_curr"]), np.array(want["z_prev"])
        np.testing.assert_allclose(md.predict_batch(m, Zc, Zp), want["x_hat"],
                                   rtol=1e-12, atol=1e-12)

    def test_pinned_v1_bundle_saves_as_written(self, tmp_path):
        # the stack is split back into one v1 record per state on save
        p = tmp_path / "again.json"
        md.save_bundle(md.load_bundle(DATA / "mono2_bundle_v1.json"), p)
        assert p.read_bytes() == (DATA / "mono2_bundle_v1.json").read_bytes()

    def test_symmetrize_key_is_checked_and_ignored(self, tmp_path):
        # a quadratic form cannot see symmetrization, so a bundle that sets
        # the key predicts and saves as one that leaves it false
        original = (DATA / "mono2_bundle_v1.json").read_bytes()
        d = json.loads(original)
        assert d["symmetrize_hessian"] is False
        Zc, Zp = RNG.normal(size=(2, 9, 4))
        outs = []
        for flag in (False, True):
            m = md.model_from_dict(dict(d, symmetrize_hessian=flag))
            outs.append(md.predict_batch(m, Zc, Zp).tobytes())
            md.save_bundle(m, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == original
        assert outs[0] == outs[1]
        with pytest.raises(ValueError, match="^symmetrize_hessian must be a JSON boolean, "
                                             "got 'true'$"):
            md.model_from_dict(dict(d, symmetrize_hessian="true"))

    def test_v1_nets_that_cannot_stack_rejected(self):
        d = json.loads((DATA / "mono2_bundle_v1.json").read_text())
        rec = d["nets"][1]  # one hidden unit fewer than net 0
        rec["weights"] = [rec["weights"][0][:-1], [row[:-1] for row in rec["weights"][1]]]
        rec["biases"][0] = rec["biases"][0][:-1]
        rec["layer_dims"][1] -= 1
        with pytest.raises(ValueError, match="net 1"):
            md.model_from_dict(d)

    @pytest.mark.parametrize("activation", ["sigmoid", "linear"])
    def test_v1_net_with_a_removed_activation_is_named(self, activation):
        d = json.loads((DATA / "mono2_bundle_v1.json").read_text())
        d["nets"][1]["activation"] = activation
        with pytest.raises(ValueError, match=f"activation '{activation}'"):
            md.model_from_dict(d)

    @pytest.mark.parametrize("field", ["weights", "biases", "in_shift", "in_scale",
                                       "out_shift", "out_scale"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, field, bad):
        d = json.loads((DATA / "mono2_bundle_v1.json").read_text())
        row = d["nets"][1][field]
        while isinstance(row[0], list):
            row = row[0]
        row[0] = json.loads(bad)  # what JSON reads for these tokens
        with pytest.raises(ValueError, match=f"'{field}' holds a non-finite number"):
            md.model_from_dict(d)

    @pytest.mark.parametrize("nx", [1.5, 1.0, True, "1", None])
    def test_baseline_nx_must_be_a_json_integer(self, nx):
        d = md.model_to_dict(md.BaselineModel(nn.init_dense([3, 4, 1], 0), nx=1))
        assert md.model_from_dict(d).nx == 1
        d["nx"] = nx
        with pytest.raises(ValueError, match="nx must be a JSON integer"):
            md.model_from_dict(d)

    @pytest.mark.parametrize("record", [[], "mtnn", None])
    def test_non_object_record_rejected(self, record):
        with pytest.raises(ValueError, match="JSON object"):
            md.model_from_dict(record)
        d = json.loads((DATA / "mono2_bundle_v1.json").read_text())
        d["nets"][0] = record
        with pytest.raises(ValueError, match="JSON object"):
            md.model_from_dict(d)

    @pytest.mark.parametrize("path", [("nets",), ("nets", 1, "weights"), ("nets", 0, "activation"),
                                      ("mono_spec",)])
    def test_missing_field_rejected(self, path):
        d = json.loads((DATA / "mono2_bundle_v1.json").read_text())
        record = d
        for key in path[:-1]:
            record = record[key]
        del record[path[-1]]
        with pytest.raises(ValueError, match="lacks the field"):
            md.model_from_dict(d)

    def count_net_calls(self, monkeypatch):
        calls = {"forward": [], "input_jacobian": [], "hessian_stack_batch": []}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name].append(args)
                return inner(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(nn, "forward")
        counted(nn, "input_jacobian")
        counted(md, "hessian_stack_batch")
        return calls

    def test_second_order_gated_predict_runs_nets_forward_once(self, monkeypatch):
        m = md.load_bundle(DATA / "mono2_bundle_v1.json")
        calls = self.count_net_calls(monkeypatch)
        md.predict_batch(m, RNG.normal(size=(5, 4)), RNG.normal(size=(5, 4)))
        # one directional derivative (net, z, v) gives the rows and H dz
        assert calls["forward"] == []
        assert [len(args) for args in calls["input_jacobian"]] == [3]
        assert calls["hessian_stack_batch"] == []

    def test_gated_hessian_stack_runs_nets_forward_once(self, monkeypatch):
        m = md.load_bundle(DATA / "mono2_bundle_v1.json")
        calls = self.count_net_calls(monkeypatch)
        md.hessian_stack_batch(m, RNG.normal(size=(5, 4)))
        # the mask rows come from the pass that builds the blocks
        assert calls["forward"] == []
        assert [len(args) for args in calls["input_jacobian"]] == [2]


class TestValidation:
    @pytest.mark.parametrize("baseline", [False, True])
    def test_predict_batch_shapes_must_match(self, baseline):
        m = md.BaselineModel(nn.init_dense([4, 5, 2], 3), nx=2) if baseline \
            else random_model(2, 2, seed=21, order=md.TaylorOrder.SECOND)
        Zc, Zp = RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))
        with pytest.raises(ValueError, match=r"\(1, 4\).*\(3, 4\)"):
            md.predict_batch(m, Zc[:1], Zp)
        with pytest.raises(ValueError, match=r"\(3, 4\).*\(2, 4\)"):
            md.predict_batch(m, Zc, Zp[:2])
        with pytest.raises(ValueError, match=r"\(4,\)"):
            md.predict_batch(m, Zc[0], Zp[0])
        with pytest.raises(ValueError, match=r"\(3, 3\)"):
            md.predict_batch(m, Zc[:, :3], Zp[:, :3])

    def test_predict_names_the_pair_shape_it_expects(self):
        m = random_model(2, 2, seed=23)
        expects = r"\(1, 4\), z_prev \(1, 4\); model expects a pair of \(4,\)"
        with pytest.raises(ValueError, match=expects):
            md.predict(m, np.zeros((1, 4)), np.zeros((1, 4)))
        with pytest.raises(ValueError, match=r"z_prev \(3,\).*pair of \(4,\)"):
            md.predict(m, np.zeros(4), np.zeros(3))

    def test_batch_functions_need_two_dimensional_rows(self):
        m = random_model(2, 2, seed=22)
        for fn in (md.jacobian_matrix_batch, md.hessian_stack_batch):
            with pytest.raises(ValueError, match=r"\(4,\).*\(B, 4\)"):
                fn(m, RNG.normal(size=4))
            with pytest.raises(ValueError, match=r"\(1, 2, 4\)"):
                fn(m, RNG.normal(size=(1, 2, 4)))

    def test_net_dims_must_be_square_in_n(self):
        bad = nn.init_dense([3, 4, 2], 1)
        with pytest.raises(ValueError):
            md.MtnnModel([bad], MonoSpec.free(1, 3))

    def test_spec_shape_must_match(self):
        nets = [nn.init_dense([3, 4, 3], 2)]
        with pytest.raises(ValueError):
            md.MtnnModel(nets, MonoSpec.free(2, 3))

    def test_baseline_output_dim_checked(self):
        with pytest.raises(ValueError):
            md.BaselineModel(nn.init_dense([3, 4, 3], 3), nx=2)


def block_formula_predict(m, Zc, Zp):
    """The second-order step from full Hessian blocks, x + J dz + 1/2 dz' H dz:
    the oracle for the directional-derivative evaluators."""
    dz = Zc - Zp
    X = Zc[:, : m.nx] + np.einsum("bjn,bn->bj", md.jacobian_matrix_batch(m, Zp), dz)
    X += 0.5 * np.einsum("bm,bjmn,bn->bj", dz, md.hessian_stack_batch(m, Zp), dz)
    zero = ~dz.any(axis=1)
    X[zero] = Zc[zero, : m.nx]
    return X


class TestSecondOrderTerm:
    @pytest.mark.parametrize("gate", list(md.GateMode))
    def test_directional_step_matches_block_formula(self, gate):
        rng = np.random.default_rng(23)
        nets = [nn.init_dense([4, 5, 4], rng) for _ in range(2)]
        for net in nets:  # offset outputs so some gates are shut
            net.biases[-1][:] = rng.normal(size=4)
        m = md.MtnnModel(nets, MonoSpec.from_symbols(["+.-+", "-+.."]),
                         md.TaylorOrder.SECOND, gate)
        Zp = rng.normal(size=(40, 4))
        Zc = Zp + 0.5 * rng.normal(size=Zp.shape)
        Zc[7] = Zp[7]
        want = block_formula_predict(m, Zc, Zp)
        np.testing.assert_allclose(md.predict_batch(m, Zc, Zp), want, rtol=1e-12)
        # the graph twin without blocks carries the tangent; with blocks for a
        # penalty it reads H dz from them
        for need_blocks in (False, True):
            incr, _, blocks = md.taylor_increments(nn.NetTape(m.net), m, Zc, Zp,
                                                   need_blocks=need_blocks)
            assert (blocks is None) is not need_blocks
            np.testing.assert_allclose(Zc[:, :2] + incr.value.T, want, rtol=1e-12)

    @pytest.mark.parametrize("need_blocks", [False, True])
    def test_graph_builds_blocks_only_when_asked(self, need_blocks, monkeypatch):
        m = random_model(2, 1, seed=24, order=md.TaylorOrder.SECOND)
        directions = []
        inner = nn.NetTape.forward_and_jacobian

        def counted(self, z, v=None):
            directions.append(v)
            return inner(self, z, v)

        monkeypatch.setattr(nn.NetTape, "forward_and_jacobian", counted)
        Zp = RNG.normal(size=(3, 3))
        md.taylor_increments(nn.NetTape(m.net), m, Zp + 0.1, Zp, need_blocks=need_blocks)
        assert len(directions) == 1
        assert (directions[0] is None) is need_blocks


class TestEvaluatorsAgree:
    """predict, predict_batch and taylor_increments, on arrays and at batch
    one on Var leaves as the controller records it, are one Taylor step."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_graph_and_numpy_steps_agree(self, data):
        nx = data.draw(st.integers(1, 3), label="nx")
        nu = data.draw(st.integers(1, 2), label="nu")
        n = nx + nu
        order = data.draw(st.sampled_from(list(md.TaylorOrder)), label="order")
        gate = data.draw(st.sampled_from(list(md.GateMode)), label="gate")
        symbols = data.draw(st.lists(st.text("+-.", min_size=n, max_size=n),
                                     min_size=nx, max_size=nx), label="spec")
        zero = np.array(data.draw(st.lists(st.booleans(), min_size=1, max_size=5),
                                  label="zero rows"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        nets = [nn.init_dense([n, 4, n], rng) for _ in range(nx)]
        for net in nets:  # offset outputs so some gates are shut
            net.biases[-1][:] = rng.normal(size=n)
        m = md.MtnnModel(nets, MonoSpec.from_symbols(symbols), order, gate)
        Zp = rng.normal(size=(len(zero), n))
        Zc = Zp + 0.5 * rng.normal(size=Zp.shape)
        Zc[zero] = Zp[zero]

        X = md.predict_batch(m, Zc, Zp)
        incr, rows, blocks = md.taylor_increments(nn.NetTape(m.net), m, Zc, Zp,
                                                  need_blocks=True)
        Xg = Zc[:, :nx] + incr.value.T
        np.testing.assert_allclose(Xg, X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(np.swapaxes(rows.value, 0, 1),
                                   md.jacobian_matrix_batch(m, Zp), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(np.swapaxes(blocks.value, 0, 1),
                                   md.hessian_stack_batch(m, Zp), rtol=1e-12, atol=1e-12)
        assert np.array_equal(X[zero], Zc[zero, :nx])
        assert np.array_equal(Xg[zero], Zc[zero, :nx])

        for k in range(len(zero)):
            x = md.predict(m, Zc[k], Zp[k])
            np.testing.assert_allclose(x, X[k], rtol=1e-12, atol=1e-12)
            incr_k, _, _ = md.taylor_increments(nn.NetTape(m.net, frozen=True), m,
                                                graph.Var(Zc[k : k + 1]),
                                                graph.Var(Zp[k : k + 1]))
            np.testing.assert_allclose(Zc[k, :nx] + incr_k.value[:, 0], x,
                                       rtol=1e-12, atol=1e-12)
