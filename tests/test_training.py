"""Loss composition, gradient training, variants, and the LR sweep."""

import gc
import json
from dataclasses import replace

import numpy as np
import pytest

from mtnn import constraints as ct
from mtnn import graph
from mtnn import model as md
from mtnn import net as nn
from mtnn import plants as pl
from mtnn import training as tr
from mtnn.model import BaselineModel, GateMode, MtnnModel, TaylorOrder
from mtnn.net import TrainingFault
import oracles


def make_transitions(rng, B, nx, nu, scale=1.0):
    N = nx + nu
    Zp = rng.normal(size=(B, N)) * scale
    Zc = Zp + rng.normal(size=(B, N)) * 0.4
    Xn = Zc[:, :nx] + rng.normal(size=(B, nx)) * 0.3
    return pl.Transitions(Zp, Zc, Xn)


def with_target(data, i, value):
    """A copy of `data` whose sample i has the next state `value`."""
    Xn = data.x_next.copy()
    Xn[i] = value
    return pl.Transitions(data.z_prev, data.z_curr, Xn)


def make_model(rng_seed, nx, nu, width=3, order=TaylorOrder.FIRST,
               gate=GateMode.NONE, tags=None, bias_shift=0.0):
    N = nx + nu
    rng = np.random.default_rng(rng_seed)
    nets = []
    for _ in range(nx):
        net = nn.init_dense([N, width, N], rng)
        net.biases[-1] += bias_shift
        nets.append(net)
    spec = ct.MonoSpec.free(nx, N) if tags is None else ct.MonoSpec.from_symbols(tags)
    return MtnnModel(nets, spec, order, gate)


def flat_params(model):
    return [*model.net.weights, *model.net.biases]


def total_loss(model, data):
    return oracles.loss_components(model, data)[0]


class TestTotalLoss:
    def test_zero_residual(self):
        # zero increment predicts x_curr exactly; make that the target
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(6, 3))
        data = pl.Transitions(Z, Z, Z[:, :1])
        model = make_model(1, nx=1, nu=2)
        assert total_loss(model, data) == 0.0

    def test_single_sample_squared_residual(self):
        net = nn.init_dense([2, 2], 0)
        net.weights[0][:] = 0.0  # constant-zero Jacobian row
        net.biases[0][:] = 0.0
        model = MtnnModel([net], ct.MonoSpec.free(1, 2), TaylorOrder.FIRST, GateMode.NONE)
        z = np.array([1.0, 2.0])
        data = pl.Transitions([z], [z + 1.0], [[2.3]])  # pred = x_curr = 2.0
        assert total_loss(model, data) == pytest.approx(0.09, abs=1e-15)

    def test_mono_soft_composition(self):
        rng = np.random.default_rng(3)
        data = make_transitions(rng, 8, 2, 1)
        model = make_model(4, nx=2, nu=1, gate=GateMode.SOFT, tags=["+-.", ".+-"])
        total, mse, mono, convex = oracles.loss_components(model, data)
        assert convex == 0.0  # first order: no curvature hinge
        assert mono > 0  # random nets should violate something
        plain = model.copy()
        plain.gate_mode = GateMode.NONE  # predicts exactly as SOFT does
        mse_only = total_loss(plain, data)
        J = md.jacobian_matrix_batch(model, data.z_prev)
        pen = np.mean([oracles.mono_penalty(J[b], model.mono_spec)
                       for b in range(len(data))])
        assert total == mse_only + pen


class TestLossGraphTwin:
    CASES = [
        (TaylorOrder.FIRST, GateMode.NONE),
        (TaylorOrder.SECOND, GateMode.NONE),
        (TaylorOrder.FIRST, GateMode.SOFT),
        (TaylorOrder.SECOND, GateMode.SOFT),
        (TaylorOrder.FIRST, GateMode.ARCHITECTURE),
        (TaylorOrder.SECOND, GateMode.ARCHITECTURE),
    ]

    @pytest.mark.parametrize("order,gate", CASES)
    def test_graph_matches_numpy(self, order, gate):
        rng = np.random.default_rng(11)
        data = make_transitions(rng, 7, 2, 1)
        model = make_model(12, nx=2, nu=1, order=order, gate=gate,
                           tags=["+.-", "-+."], bias_shift=0.3)
        Zp, Zc, Xn = data.z_prev, data.z_curr, data.x_next
        tape = nn.NetTape(model.net)
        total_var, parts = tr._loss_graph(tape, model, Zp, Zc, Xn)
        ref = oracles.loss_components(model, data)
        np.testing.assert_allclose(float(total_var.value), ref[0], rtol=1e-12)
        np.testing.assert_allclose([float(p.value) for p in parts], ref[1:], rtol=1e-12)

    @pytest.mark.parametrize("order,gate", CASES)
    def test_parameter_gradients_match_fd(self, order, gate):
        rng = np.random.default_rng(21)
        data = make_transitions(rng, 3, 2, 1)
        model = make_model(22, nx=2, nu=1, order=order, gate=gate,
                           tags=["+.-", "-+."], bias_shift=0.35)
        Zp, Zc, Xn = data.z_prev, data.z_curr, data.x_next
        tape = nn.NetTape(model.net)
        total_var, _ = tr._loss_graph(tape, model, Zp, Zc, Xn)
        graph.backward(total_var)
        pg = tape.gradients()
        grads = [*pg.weights, *pg.biases]
        step = 1e-6
        for A, G in zip(flat_params(model), grads):
            it = np.nditer(A, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = A[idx]
                A[idx] = orig + step
                fp = total_loss(model, data)
                A[idx] = orig - step
                fm = total_loss(model, data)
                A[idx] = orig
                fd = (fp - fm) / (2 * step)
                assert abs(G[idx] - fd) < 1e-5 * max(1.0, abs(fd)), (idx, G[idx], fd)
                it.iternext()


class TestTrain:
    def linear_problem(self, B=32, seed=0):
        rng = np.random.default_rng(seed)
        Zp = rng.normal(size=(B, 2))
        Zc = Zp + rng.normal(size=(B, 2)) * 0.5
        Xn = (Zc[:, 0] + 0.5 * (Zc[:, 1] - Zp[:, 1])).reshape(-1, 1)
        return pl.Transitions(Zp, Zc, Xn)

    def linear_model(self, seed=3):
        net = nn.init_dense([2, 2], seed)
        return MtnnModel([net], ct.MonoSpec.free(1, 2), TaylorOrder.FIRST, GateMode.NONE)

    def test_linear_realizable_converges(self):
        data = self.linear_problem()
        cfg = tr.TrainConfig(learning_rate=3e-2, epochs=500)
        model, hist = tr.train(self.linear_model(), data, cfg)
        assert total_loss(model, data) < 1e-8
        assert len(hist) == 500

    def test_returns_best_recorded_epoch(self):
        data = self.linear_problem()
        cfg = tr.TrainConfig(learning_rate=0.5, epochs=40)  # oscillatory
        model, hist = tr.train(self.linear_model(), data, cfg)
        got = total_loss(model, data)
        np.testing.assert_allclose(got, hist.total.min(), rtol=1e-9)
        assert hist.total.min() <= hist.total[-1]

    def test_best_leq_initial(self):
        data = self.linear_problem()
        cfg = tr.TrainConfig(epochs=5)
        _, hist = tr.train(self.linear_model(), data, cfg)
        assert hist.total.min() <= hist.total[0]

    def test_deterministic(self):
        data = self.linear_problem()
        cfg = tr.TrainConfig(learning_rate=1e-2, epochs=50)
        m1, h1 = tr.train(self.linear_model(), data, cfg)
        m2, h2 = tr.train(self.linear_model(), data, cfg)
        assert np.array_equal(h1.total, h2.total)
        for a, b in zip(flat_params(m1), flat_params(m2)):
            assert np.array_equal(a, b)

    def test_input_model_untouched(self):
        data = self.linear_problem()
        model = self.linear_model()
        before = [A.copy() for A in flat_params(model)]
        tr.train(model, data, tr.TrainConfig(epochs=10))
        for a, b in zip(flat_params(model), before):
            assert np.array_equal(a, b)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(epochs=0)

    def test_tiny_dataset_rejected(self):
        data = self.linear_problem(B=1)
        with pytest.raises(ValueError):
            tr.train(self.linear_model(), data, tr.TrainConfig(epochs=1))

    def test_divergence_fault_carries_history_and_sample(self):
        data = with_target(self.linear_problem(), 7, 1e200)
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=10)
        with pytest.raises(TrainingFault, match="sample 7") as ei:
            tr.train(self.linear_model(), data, cfg)
        assert len(ei.value.history) < 10

    def test_feasible_spec_drives_mono_penalty_to_zero(self):
        b = pl.hvac_benchmark(seed=3)
        data = b.train[:80]
        spec = b.plant.mono_spec()
        model = tr.build_variant("soft1", spec, data, width=16, seed=5)
        cfg = tr.TrainConfig(learning_rate=3e-3, epochs=400)
        trained, hist = tr.train(model, data, cfg)
        assert hist.mono[-1] < 1e-6

    @pytest.mark.parametrize("name", tr.VARIANTS)
    def test_history_and_best_epoch_match_numpy_loss(self, name):
        # an oscillatory rate, so the best epoch is often not the last one
        b = pl.hvac_benchmark(seed=0)
        data = b.train[:40]
        model = tr.build_variant(name, b.plant.mono_spec(), data, tr.STUDY_WIDTH, seed=0)
        cfg = tr.TrainConfig(learning_rate=0.3, epochs=30)
        trained, hist = tr.train(model, data, cfg)
        np.testing.assert_allclose(
            hist.total[0], oracles.loss_components(model, data)[0], rtol=1e-12
        )
        got = oracles.loss_components(trained, data)
        best = int(np.argmin(hist.total))
        np.testing.assert_allclose(got[0], hist.total.min(), rtol=1e-9)
        np.testing.assert_allclose(
            got[1:], [hist.mse[best], hist.mono[best], hist.convex[best]], rtol=1e-9
        )


def live_vars() -> int:
    return sum(isinstance(o, graph.Var) for o in gc.get_objects())


class TestFlatAdam:
    """`train` runs Adam over one flat parameter vector and replays one loss
    graph; the per-array loop in `oracles`, which builds a fresh graph every
    epoch, is what it must reproduce bit for bit."""

    @pytest.mark.parametrize("name", tr.VARIANTS)
    def test_matches_per_array_loop_bit_for_bit(self, name, monkeypatch, built_tapes):
        b = pl.hvac_benchmark(seed=0)
        data = b.train[:40]
        model = tr.build_variant(name, b.plant.mono_spec(), data, tr.STUDY_WIDTH, seed=0)
        cfg = tr.TrainConfig(learning_rate=0.3, epochs=30, weight_decay=tr.STUDY_WEIGHT_DECAY)
        got, hist = tr.train(model, data, cfg)
        assert len(built_tapes) == 1  # one loss graph for the whole run
        monkeypatch.undo()
        want, rows = oracles.train_per_array(model, data, cfg)
        for a, w in zip(flat_params(got), flat_params(want)):
            assert a.shape == w.shape and a.tobytes() == w.tobytes()
        cols = np.column_stack([hist.total, hist.mse, hist.mono, hist.convex])
        assert cols.tobytes() == rows.tobytes()
        if name == "soft2":  # the determinant hinge was live, on some blocks only
            assert rows[:, 3].max() > 0.0

    def test_a_run_keeps_one_graph_alive_and_frees_it(self, monkeypatch, built_tapes):
        b = pl.hvac_benchmark(seed=0)
        data = b.train[:20]
        model = tr.build_variant("mono2", b.plant.mono_spec(), data, tr.STUDY_WIDTH, seed=0)
        cfg = tr.TrainConfig(epochs=6)
        counts, real = [], graph.backward

        def backward(*args):
            counts.append(live_vars())
            real(*args)

        monkeypatch.setattr(graph, "backward", backward)
        start = live_vars()
        tr.train(model, data, cfg)
        assert len(counts) == 6 and len(set(counts)) == 1 and counts[0] > start
        # freed by reference counting alone: the graph holds no cycle
        assert live_vars() == start
        assert len(built_tapes) == 1 and built_tapes[0]() is None

    def test_two_runs_share_no_memory(self):
        b = pl.hvac_benchmark(seed=0)
        data = b.train[:20]
        model = tr.build_variant("soft2", b.plant.mono_spec(), data, tr.STUDY_WIDTH, seed=0)
        cfg = tr.TrainConfig(epochs=3)
        first, _ = tr.train(model, data, cfg)
        second, _ = tr.train(model, data, cfg)
        for a in flat_params(first):
            for other in (*flat_params(second), *flat_params(model)):
                assert not np.shares_memory(a, other)
        for a, w in zip(flat_params(first), flat_params(second)):
            assert np.array_equal(a, w)


class TestTrainBaseline:
    """A `BaselineModel` from `build_variant`, trained by `train`."""

    def baseline(self, data, seed=0):
        return tr.build_variant("baseline", ct.MonoSpec.free(1, 3), data, 4, seed)

    def test_constant_target_realizable(self):
        rng = np.random.default_rng(6)
        Zp = rng.normal(size=(16, 3))
        Zc = Zp + rng.normal(size=(16, 3)) * 0.3
        data = pl.Transitions(Zp, Zc, np.full((16, 1), 4.2))
        # the recipe's weight decay pulls the hidden layer toward zero, which
        # leaves the output shift fitted to the constant target
        cfg = tr.TrainConfig(learning_rate=1e-2, epochs=600,
                             weight_decay=tr.STUDY_WEIGHT_DECAY)
        model, hist = tr.train(self.baseline(data), data, cfg)
        pred = nn.forward(model.net, Zc)
        assert np.mean((pred - 4.2) ** 2) < 1e-8

    def test_deterministic(self):
        data = make_transitions(np.random.default_rng(1), 12, 1, 2)
        cfg = tr.TrainConfig(epochs=20)
        m1, h1 = tr.train(self.baseline(data, seed=4), data, cfg)
        m2, h2 = tr.train(self.baseline(data, seed=4), data, cfg)
        assert np.array_equal(h1.total, h2.total)
        for a, b in zip(flat_params(m1), flat_params(m2)):
            assert np.array_equal(a, b)


class TestHistory:
    def test_csv_format(self, tmp_path):
        data = make_transitions(np.random.default_rng(2), 8, 1, 1)
        net = nn.init_dense([2, 2], 0)
        model = MtnnModel([net], ct.MonoSpec.free(1, 2), TaylorOrder.FIRST, GateMode.NONE)
        _, hist = tr.train(model, data, tr.TrainConfig(epochs=7))
        p = tmp_path / "hist.csv"
        hist.save_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,total,mse,mono,convex"
        assert len(lines) == 8
        assert lines[1].startswith("0,")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainHistory(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainHistory(np.array([np.inf]), np.zeros(1), np.zeros(1), np.zeros(1))


class TestGateModePicksTheHinges:
    """`train` adds the sign hinge for a soft sign prior, and the curvature
    hinge too when that model is second order; nothing else selects them."""

    def count_hinges(self, monkeypatch):
        calls = {}
        for name in ("mono_penalty_rows_graph", "convex_penalty_blocks_graph"):
            def counted(*a, _real=getattr(ct, name), _name=name, **k):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*a, **k)
            monkeypatch.setattr(ct, name, counted)
        return calls

    @pytest.mark.parametrize("name", tr.VARIANTS)
    def test_hinges_follow_the_variant(self, name, monkeypatch):
        b = pl.hvac_benchmark(seed=0)
        calls = self.count_hinges(monkeypatch)
        tr.train_variant(name, b.plant.mono_spec(), b.train[:20], epochs=3)
        # one build per run, replayed every epoch
        want = {"soft1": {"mono_penalty_rows_graph": 1},
                "soft2": {"mono_penalty_rows_graph": 1, "convex_penalty_blocks_graph": 1}}
        assert calls == want.get(name, {})

    def test_reloaded_soft2_retrains_with_both_hinges(self, monkeypatch, tmp_path):
        b = pl.hvac_benchmark(seed=0)
        data = b.train[:20]
        model, _ = tr.train_variant("soft2", b.plant.mono_spec(), data, epochs=3)
        md.save_bundle(model, tmp_path / "soft2.json")
        back = md.load_bundle(tmp_path / "soft2.json")
        cfg = tr.TrainConfig(learning_rate=0.3, epochs=20)
        calls = self.count_hinges(monkeypatch)
        _, got = tr.train(back, data, cfg)
        assert calls == {"mono_penalty_rows_graph": 1, "convex_penalty_blocks_graph": 1}
        assert got.convex.max() > 0.0
        monkeypatch.undo()
        _, want = tr.train(model, data, cfg)
        for col in ("total", "mse", "mono", "convex"):
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes()


class TestVariants:
    def test_recipe_table(self):
        assert tr.variant_recipe("baseline")["baseline"]
        r = tr.variant_recipe("mono2")
        assert r["order"] is TaylorOrder.SECOND
        assert r["gate_mode"] is GateMode.ARCHITECTURE
        r = tr.variant_recipe("soft2")
        assert r == {"baseline": False, "order": TaylorOrder.SECOND, "gate_mode": GateMode.SOFT}
        assert tr.variant_recipe("soft1")["gate_mode"] is GateMode.SOFT
        with pytest.raises(ValueError, match="unknown variant"):
            tr.variant_recipe("taylor3")

    @pytest.mark.parametrize("name,mode", [("soft1", "mse"), ("taylor1", "mono_soft")])
    def test_train_variant_rejects_mode_override(self, name, mode):
        # the variant's gate mode picks its hinges; there is no mode to override
        b = pl.hvac_benchmark(seed=0)
        with pytest.raises(TypeError, match="'mode'"):
            tr.train_variant(name, b.plant.mono_spec(), b.train[:10], epochs=1, mode=mode)

    def test_build_shapes_hvac(self):
        b = pl.hvac_benchmark(seed=0)
        m = tr.build_variant("taylor1", b.plant.mono_spec(), b.train, 32, seed=0)
        assert isinstance(m, MtnnModel)
        assert m.nx == 1 and m.n == 3
        assert m.net.layer_dims == [3, 32, 3]

    def test_build_baseline_kind(self):
        b = pl.hvac_benchmark(seed=0)
        m = tr.build_variant("baseline", b.plant.mono_spec(), b.train, 32, seed=0)
        assert isinstance(m, BaselineModel)
        assert m.net.layer_dims == [3, 32, 1]

    def test_rows_anchored_at_least_squares(self):
        b = pl.hvac_benchmark(seed=0)
        spec = b.plant.mono_spec()
        m = tr.build_variant("taylor1", spec, b.train, 8, seed=1)
        Zp, Zc, Xn = b.train.z_prev, b.train.z_curr, b.train.x_next
        row0, *_ = np.linalg.lstsq(Zc - Zp, Xn[:, 0] - Zc[:, 0], rcond=None)
        np.testing.assert_allclose(m.net.out_shift[0], row0)

    def test_gated_anchor_clamped_to_tag_sign(self):
        # plant moves opposite its declared tag: x' = x - 0.3 du, tag "+"
        rng = np.random.default_rng(0)
        Zp = rng.uniform(0, 1, size=(60, 2))
        Zc = Zp + rng.uniform(-0.5, 0.5, size=(60, 2))
        Xn = (Zc[:, :1] - 0.3 * (Zc[:, 1:] - Zp[:, 1:]))
        data = pl.Transitions(Zp, Zc, Xn)
        spec = ct.MonoSpec.from_symbols([".+"])
        gated = tr.build_variant("mono1", spec, data, 4, seed=0)
        plain = tr.build_variant("taylor1", spec, data, 4, seed=0)
        assert plain.net.out_shift[0, 1] < 0  # the honest estimate
        assert gated.net.out_shift[0, 1] == tr.GATE_ANCHOR_FLOOR
        # untagged entry keeps the least-squares value
        assert gated.net.out_shift[0, 0] == plain.net.out_shift[0, 0]
        assert np.array_equal(gated.net.biases[-1][0], plain.net.biases[-1][0])

    def test_decreasing_anchor_mirrored_to_raw(self):
        # gate emits -relu(raw), so a decreasing entry anchors raw at +|row|
        b = pl.hvac_benchmark(seed=0)
        spec = b.plant.mono_spec()  # "++-": mdot column decreasing
        gated = tr.build_variant("mono1", spec, b.train, 8, seed=1)
        plain = tr.build_variant("taylor1", spec, b.train, 8, seed=1)
        assert plain.net.out_shift[0, 2] < -5  # strongly negative partial
        np.testing.assert_allclose(
            gated.net.out_shift[0, 2], -plain.net.out_shift[0, 2]
        )

    def test_standardization_fitted(self):
        b = pl.hvac_benchmark(seed=0)
        m = tr.build_variant("taylor1", b.plant.mono_spec(), b.train, 8, seed=0)
        np.testing.assert_allclose(m.net.in_shift[0], b.train.z_prev.mean(axis=0))

    def test_spec_mismatch_rejected(self):
        b = pl.hvac_benchmark(seed=0)
        with pytest.raises(ValueError, match="spec"):
            tr.build_variant("taylor1", ct.MonoSpec.free(2, 4), b.train, 8, seed=0)

    def test_train_variant_wraps_baseline(self):
        b = pl.hvac_benchmark(seed=0)
        m, hist = tr.train_variant("baseline", b.plant.mono_spec(), b.train[:40],
                                   seed=0, epochs=5)
        assert isinstance(m, BaselineModel)
        assert len(hist.total) == 5

    def test_train_variant_matches_manual_path(self):
        b = pl.hvac_benchmark(seed=0)
        spec = b.plant.mono_spec()
        via_helper, _ = tr.train_variant("taylor1", spec, b.train[:40],
                                         seed=3, epochs=8)
        model = tr.build_variant("taylor1", spec, b.train[:40],
                                 width=tr.STUDY_WIDTH, seed=3)
        cfg = tr.TrainConfig(epochs=8,
                             learning_rate=tr.STUDY_LEARNING_RATE,
                             weight_decay=tr.STUDY_WEIGHT_DECAY)
        manual, _ = tr.train(model, b.train[:40], cfg)
        for a, m_ in zip(flat_params(via_helper), flat_params(manual)):
            np.testing.assert_array_equal(a, m_)

    def test_trained_gated_model_sign_conformance(self):
        b = pl.hvac_benchmark(seed=1)
        spec = b.plant.mono_spec()
        model = tr.build_variant("mono1", spec, b.train[:60], 8, seed=2)
        cfg = tr.TrainConfig(epochs=150)
        trained, _ = tr.train(model, b.train[:60], cfg)
        from mtnn import model as md
        rng = np.random.default_rng(0)
        Z = rng.uniform([60, 50, 0], [80, 60, 1], size=(10_000, 3))
        J = md.jacobian_matrix_batch(trained, Z)
        assert (J[:, :, spec.tags[0] == ct.INCREASING] >= 0).all()
        assert (J[:, :, spec.tags[0] == ct.DECREASING] <= 0).all()


class TestConfig:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=0.0)
        # each error names its field
        for field, value in [
            ("learning_rate", np.nan), ("learning_rate", np.inf),
            ("weight_decay", np.nan), ("weight_decay", np.inf),
            ("epochs", 2.5), ("epochs", np.nan), ("epochs", np.inf),
            # an int too large for a float
            ("epochs", 10**400), ("learning_rate", 10**400), ("weight_decay", 10**400),
        ]:
            with pytest.raises(ValueError, match=field):
                tr.TrainConfig(**{field: value})
        # a config file's NaN parses as a float
        with pytest.raises(ValueError, match="learning_rate"):
            tr.TrainConfig(**json.loads('{"learning_rate": NaN}'))

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "epochs"])
    @pytest.mark.parametrize("value", ["0.1", "x", None, True, False, [1.0]])
    def test_value_that_is_not_a_real_number_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})

    def test_integral_counts_become_ints(self):
        for epochs in (3.0, np.int64(3)):
            cfg = tr.TrainConfig(epochs=epochs)
            assert cfg.epochs == 3 and type(cfg.epochs) is int


class TestLrSweep:
    def test_picks_lower_validation_mse(self):
        prob = TestTrain().linear_problem(B=40)
        untrained = TestTrain().linear_model(seed=3)
        before = untrained.copy()
        cfg = tr.TrainConfig(epochs=200)
        model, hist, rate, report = tr.lr_sweep(untrained, prob, cfg, rates=(3e-2, 1e-9))
        for got, want in zip((*untrained.net.weights, *untrained.net.biases),
                             (*before.net.weights, *before.net.biases)):
            assert got.tobytes() == want.tobytes()  # the sweep trains copies
        refit, _ = tr.train(before, prob, replace(cfg, learning_rate=3e-2))
        assert nn.net_to_dict(model.net) == nn.net_to_dict(refit.net)
        assert rate == 3e-2
        assert set(report) == {3e-2, 1e-9}
        assert report[3e-2] < report[1e-9]
        assert total_loss(model, prob) < 1e-6

    @pytest.mark.parametrize("rates", [(), (1e-3, -1.0), (1e-3, 0.0), (1e-3, np.nan),
                                       (1e-3, np.inf), (1e-3, "0.1"), (True,)])
    def test_bad_rate_list_is_rejected_before_any_training(self, monkeypatch, rates):
        prob = TestTrain().linear_problem(B=40)
        trained = []
        monkeypatch.setattr(tr, "train", lambda *args: trained.append(args))
        with pytest.raises(ValueError,
                           match=r"sweep rates must be one or more finite positive numbers, got \("):
            tr.lr_sweep(TestTrain().linear_model(), prob, tr.TrainConfig(epochs=5), rates=rates)
        assert trained == []

    def test_too_small_split_rejected(self):
        prob = TestTrain().linear_problem(B=2)
        with pytest.raises(ValueError):
            tr.lr_sweep(TestTrain().linear_model(), prob, tr.TrainConfig(epochs=1))

    def test_report_is_the_heldout_mse(self):
        # a soft gate, so the loss the candidates train on is not the MSE
        prob = TestTrain().linear_problem(B=40)
        spec = ct.MonoSpec.from_symbols(["-+"])
        model = MtnnModel([nn.init_dense([2, 2], 3)], spec, gate_mode=GateMode.SOFT)
        cfg = tr.TrainConfig(epochs=60)
        _, _, _, report = tr.lr_sweep(model, prob, cfg, rates=(3e-2, 1e-3))
        fit, val = prob[:32], prob[32:]  # the chronological 80/20 split
        for rate, got in report.items():
            candidate, _ = tr.train(model, fit, replace(cfg, learning_rate=rate))
            comps = oracles.loss_components(candidate, val)
            assert got == comps[1]
            assert comps[2] > 0.0  # the penalty is left out of the report

    def test_nonfinite_heldout_prediction_reads_inf(self, monkeypatch):
        prob = TestTrain().linear_problem(B=40)
        real_train = tr.train

        def train(model, data, cfg):
            # the 1e-9 candidate predicts NaN everywhere; its training was fine
            model, hist = real_train(model, data, cfg)
            if cfg.learning_rate == 1e-9:
                model.net.biases[-1][:] = np.nan
            return model, hist

        monkeypatch.setattr(tr, "train", train)
        _, _, rate, report = tr.lr_sweep(TestTrain().linear_model(), prob,
                                         tr.TrainConfig(epochs=20), rates=(3e-2, 1e-9))
        assert rate == 3e-2
        assert report[1e-9] == np.inf and np.isfinite(report[3e-2])

    def test_every_rate_diverging_is_a_fault(self):
        prob = with_target(TestTrain().linear_problem(B=40), 3, 1e200)
        with pytest.raises(TrainingFault, match="every sweep rate diverged"):
            tr.lr_sweep(TestTrain().linear_model(), prob,
                        tr.TrainConfig(epochs=5), rates=(3e-2, 1e-3))
