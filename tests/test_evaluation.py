"""Rollout recursion, metric arithmetic, comparison tables."""

import numpy as np
import pytest

from mtnn import constraints as ct
from mtnn import evaluation as ev
from mtnn import model as md
from mtnn import net as nn
from mtnn import plants as pl
from mtnn.model import GateMode, MtnnModel, TaylorOrder
import oracles


def tclab_oracle(p: pl.TcLabPlant) -> MtnnModel:
    """An exact model of the plant: its step is affine in z = (T1, T2, Q1, Q2),
    so a first-order Taylor step on its constant Jacobian, which zero-weight
    nets emit as their output shift, reproduces a noise-free series."""
    own, couple = 1.0 - p.dt * (p.k_loss + p.k_couple), p.dt * p.k_couple
    J = np.array([[own, couple, p.dt * p.alpha1, 0.0],
                  [couple, own, 0.0, p.dt * p.alpha2]])
    net = nn.DenseNet([np.zeros((2, 4, 4))], [np.zeros((2, 4))], out_shift=J)
    return MtnnModel(net, p.mono_spec())


def small_model(seed=0, nx=1, nu=2, width=3, order=TaylorOrder.FIRST):
    rng = np.random.default_rng(seed)
    N = nx + nu
    nets = [nn.init_dense([N, width, N], rng) for _ in range(nx)]
    return MtnnModel(nets, ct.MonoSpec.free(nx, N), order, GateMode.NONE)


def tclab_series(n=40, seed=1):
    d = pl.tclab_dataset(seed=seed, n_train=n, n_test=3, noise_sigma=0.0)
    return d.train


class TestRollout:
    def test_single_step_equals_predict(self):
        series = tclab_series(20)
        model = small_model(nx=2, nu=2)
        res = ev.rollout(model, series, steps=1)
        assert res.steps == 1
        assert res.predicted[0].shape == (20, 2)
        for k, t in enumerate(series):
            np.testing.assert_array_equal(res.actual[0][k], t.x_next)
        direct = md.predict_batch(
            model,
            np.stack([t.z_curr for t in series]),
            np.stack([t.z_prev for t in series]),
        )
        np.testing.assert_array_equal(res.predicted[0], direct)

    def test_perfect_model_zero_error(self):
        plant = pl.TcLabPlant()
        series = tclab_series(30)
        res = ev.rollout(tclab_oracle(plant), series, steps=5)
        for i in range(5):
            np.testing.assert_allclose(res.predicted[i], res.actual[i], atol=1e-10)
        np.testing.assert_allclose(res.rmse, 0.0, atol=1e-10)
        np.testing.assert_allclose(res.r2, 1.0, atol=1e-12)

    def test_data_narrower_than_the_model_rejected(self):
        # a ragged set cannot be built at all (see test_plants); a set of
        # consistent rows one input short of the model is refused here
        data = tclab_series(12)
        narrow = pl.Transitions(data.z_prev[:, :3], data.z_curr[:, :3], data.x_next)
        with pytest.raises(ValueError, match=r"\(12, 3\), net expects \(B, 4\)"):
            ev.rollout(small_model(nx=2, nu=2), narrow, steps=2)

    def test_origin_counts_shrink(self):
        series = tclab_series(12)
        res = ev.rollout(small_model(nx=2, nu=2), series, steps=4)
        assert [p.shape[0] for p in res.predicted] == [12, 11, 10, 9]

    def test_three_step_hand_unrolled(self):
        series = tclab_series(8)
        model = small_model(seed=5, nx=2, nu=2, width=2)
        res = ev.rollout(model, series, steps=3)
        nx = 2
        for j in range(len(series) - 2):
            z_prev = series[j].z_prev.copy()
            z_curr = series[j].z_curr.copy()
            for i in range(1, 4):
                x_hat = md.predict(model, z_curr, z_prev)
                np.testing.assert_allclose(
                    res.predicted[i - 1][j], x_hat, rtol=1e-12, atol=1e-12
                )
                if i < 3:
                    z_next = series[j + i].z_curr.copy()
                    z_next[:nx] = x_hat
                    z_prev, z_curr = z_curr, z_next

    def test_measured_inputs_are_used(self):
        # a model that echoes the previous state: predictions depend on inputs
        # only through z_curr, which must carry the *measured* u column
        series = tclab_series(10)
        model = small_model(seed=7, nx=2, nu=2)
        res = ev.rollout(model, series, steps=2)
        j = 3
        z_curr_step2 = np.concatenate([res.predicted[0][j], series[j + 1].z_curr[2:]])
        expect = md.predict(model, z_curr_step2, series[j].z_curr)
        np.testing.assert_allclose(res.predicted[1][j], expect, rtol=1e-12)

    def test_short_series_rejected(self):
        series = tclab_series(4)
        with pytest.raises(ValueError, match="8 samples"):
            ev.rollout(small_model(nx=2, nu=2), series, steps=5)

    def test_one_transition_per_step_is_too_short(self):
        # the last step would have a single origin, and r2 needs two
        model = small_model(nx=2, nu=2)
        with pytest.raises(ValueError, match="5 transitions .7 samples.*needs at least 8"):
            ev.rollout(model, tclab_series(5), steps=5)
        assert ev.rollout(model, tclab_series(6), steps=5).predicted[-1].shape == (2, 2)

    @pytest.mark.parametrize("steps", [0, -1, 2.5, True, "3", np.nan, np.inf, None])
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(ValueError, match=r"^steps must be an integer >= 1, got "):
            ev.rollout(small_model(nx=2, nu=2), tclab_series(6), steps=steps)

    @pytest.mark.parametrize("steps", [3.0, np.int64(3), np.float64(3.0)])
    def test_integral_steps_accepted(self, steps):
        assert ev.rollout(small_model(nx=2, nu=2), tclab_series(6), steps=steps).steps == 3

    def test_scores_bytes_equal_the_per_column_metrics(self):
        series = tclab_series(60)
        for order in TaylorOrder:
            res = ev.rollout(small_model(seed=4, nx=2, nu=2, order=order), series, steps=4)
            for metric, got in ((oracles.r2, res.r2), (oracles.rmse, res.rmse)):
                want = [oracles.mean_over_outputs(metric, p, a)
                        for p, a in zip(res.predicted, res.actual)]
                assert got.tobytes() == np.array(want).tobytes()

    def test_constant_actual_column_rejected(self):
        data = tclab_series(12)
        x_next = data.x_next.copy()
        x_next[:, 1] = 40.0
        flat = pl.Transitions(data.z_prev, data.z_curr, x_next)
        with pytest.raises(ValueError, match="^r2 undefined for a constant actual series$"):
            ev.rollout(small_model(nx=2, nu=2), flat, steps=2)

    def test_log_longer_than_a_block_rolls_out_as_one_batch(self, monkeypatch):
        # tclab_series(n) holds n transitions, n - 1 origins at step 2
        model = small_model(seed=3, nx=2, nu=2, order=TaylorOrder.SECOND)
        series = tclab_series(md._block_rows(model.net) + 40)
        blocked = ev.rollout(model, series, steps=3)
        monkeypatch.setattr(md, "BLOCK_FLOATS", 2**40)
        whole = ev.rollout(model, series, steps=3)
        for b, w in zip(blocked.predicted, whole.predicted):
            assert b.tobytes() == w.tobytes()
        assert blocked.r2.tobytes() == whole.r2.tobytes()


class TestR2:
    def test_perfect(self):
        a = np.array([1.0, 2.0, 3.0, 5.0])
        assert oracles.r2(a, a) == 1.0

    def test_mean_predictor_scores_zero(self):
        a = np.array([1.0, 2.0, 3.0, 6.0])
        p = np.full(4, a.mean())
        assert oracles.r2(p, a) == pytest.approx(0.0, abs=1e-15)

    def test_five_point_hand_value(self):
        # SS_res = 0.01+0.04+0.09+0.01+0.0625 = 0.2125; mean(actual) = 3
        # SS_tot = 4+1+0+1+4 = 10; r2 = 1 - 0.02125
        actual = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        pred = np.array([1.1, 2.2, 2.7, 3.9, 5.25])
        assert oracles.r2(pred, actual) == pytest.approx(1 - 0.02125, abs=1e-12)

    def test_constant_actual_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            oracles.r2(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            oracles.r2(np.zeros(3), np.zeros(4))

    def test_one_iff_equal(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=50)
        p = a.copy()
        p[13] += 1e-3
        assert oracles.r2(p, a) < 1.0
        assert oracles.r2(a.copy(), a) == 1.0


class TestRmse:
    def test_zero_on_equal(self):
        a = np.array([2.0, 4.0])
        assert oracles.rmse(a, a) == 0.0

    def test_two_residual_arithmetic(self):
        assert oracles.rmse(np.array([3.0, -4.0]), np.zeros(2)) == pytest.approx(
            np.sqrt(12.5), abs=1e-12
        )

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        p, a = rng.normal(size=30), rng.normal(size=30)
        brute = np.sqrt(sum((p[i] - a[i]) ** 2 for i in range(30)) / 30)
        assert oracles.rmse(p, a) == pytest.approx(brute, rel=1e-12)

    def test_single_step_replacement_never_increases(self):
        rng = np.random.default_rng(8)
        p, a = rng.normal(size=25), rng.normal(size=25)
        base = oracles.rmse(p, a)
        for k in range(25):
            q = p.copy()
            q[k] = a[k]
            assert oracles.rmse(q, a) <= base


class TestComparisonTable:
    def test_perfect_oracle_rows(self):
        series = tclab_series(25)
        table = ev.comparison_table({"oracle": tclab_oracle(pl.TcLabPlant())}, series)
        assert table.steps == 5
        np.testing.assert_allclose(table.r2[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(table.rmse[:, 0], 0.0, atol=1e-10)

    def test_cells_equal_direct_calls(self):
        series = tclab_series(20)
        models = {"a": small_model(seed=1, nx=2, nu=2), "b": small_model(seed=2, nx=2, nu=2)}
        table = ev.comparison_table(models, series, steps=3)
        for v, name in enumerate(("a", "b")):
            res = ev.rollout(models[name], series, 3)
            np.testing.assert_array_equal(table.r2[:, v], res.r2)
            np.testing.assert_array_equal(table.rmse[:, v], res.rmse)

    def test_column_order_preserved(self):
        series = tclab_series(15)
        models = {
            "zeta": small_model(seed=1, nx=2, nu=2),
            "alpha": small_model(seed=2, nx=2, nu=2),
        }
        table = ev.comparison_table(models, series, steps=2)
        assert table.names == ["zeta", "alpha"]

    def test_csv_layout(self, tmp_path):
        series = tclab_series(15)
        table = ev.comparison_table(
            {"m1": small_model(seed=3, nx=2, nu=2)}, series, steps=4
        )
        p = tmp_path / "table.csv"
        table.save_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "step,m1_r2,m1_rmse"
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "1"
        assert all(len(c.split(".")[-1]) == 4 for c in lines[1].split(",")[1:])

    def test_csv_text_is_pinned(self, tmp_path):
        # the one CSV whose floats are rounded: 4 decimals, not repr
        table = ev.ComparisonTable(["a", "b"], np.array([[0.98766, -0.0], [5e-324, -1.23456]]),
                                   np.array([[0.1, np.inf], [1e-5, 2.0]]))
        p = tmp_path / "table.csv"
        table.save_csv(p)
        assert p.read_text() == ("step,a_r2,a_rmse,b_r2,b_rmse\n"
                                 "1,0.9877,0.1000,-0.0000,inf\n"
                                 "2,0.0000,0.0000,-1.2346,2.0000\n")

    def test_str_renders_all_rows_and_names(self):
        series = tclab_series(15)
        models = {
            "taylor1": small_model(seed=1, nx=2, nu=2),
            "mono1": small_model(seed=2, nx=2, nu=2),
        }
        text = str(ev.comparison_table(models, series, steps=3))
        lines = text.splitlines()
        assert len(lines) == 4
        assert "taylor1" in lines[0] and "mono1" in lines[0]
        assert lines[0].index("taylor1") < lines[0].index("mono1")
        assert lines[1].startswith("1") and lines[3].startswith("3")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.comparison_table({}, tclab_series(10))

    @pytest.mark.parametrize("steps", [0, 2.5, True, "3", np.nan])
    def test_bad_steps_rejected_before_any_rollout(self, steps, monkeypatch):
        monkeypatch.setattr(ev, "rollout", None)  # a rollout would raise TypeError
        with pytest.raises(ValueError, match=r"^steps must be an integer >= 1, got "):
            ev.comparison_table({"m": small_model(nx=2, nu=2)}, tclab_series(10), steps=steps)
