"""Controller: config, horizon cost, projected-gradient solve, closed loop."""

import numpy as np
import pytest

from mtnn import mpc
from mtnn import net as nn
from mtnn import plants as pl
from mtnn.constraints import MonoSpec
from mtnn.model import GateMode, MtnnModel, TaylorOrder


def const_row_model(rows, nx=None, order=TaylorOrder.FIRST, gate=GateMode.NONE):
    """Taylor model whose Jacobian rows are the given constants."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    nx = nx or rows.shape[0]
    N = rows.shape[1]
    nets = []
    for row in rows:
        net = nn.init_dense([N, N], 0, "linear")
        net.weights[0][:] = 0.0
        net.biases[0][:] = row
        nets.append(net)
    return MtnnModel(nets, MonoSpec.free(nx, N), order, gate)


def tclab_exact_model():
    """First-order twin of the linear two-heater plant; exact on its paths."""
    p = pl.TcLabPlant()
    own = 1.0 - p.dt * (p.k_loss + p.k_couple)
    rows = [
        [own, p.dt * p.k_couple, p.dt * p.alpha1, 0.0],
        [p.dt * p.k_couple, own, 0.0, p.dt * p.alpha2],
    ]
    m = const_row_model(rows)
    return p, m


def small_cfg(**kw):
    base = dict(x_ref=[0.0], u_min=[-1.0], u_max=[1.0], horizon=2)
    base.update(kw)
    return mpc.MpcConfig(**base)


class TestMpcConfig:
    def test_scalar_weights_broadcast(self):
        cfg = mpc.MpcConfig(x_ref=[1.0, 2.0], u_min=[0.0], u_max=[1.0], q_diag=3.0)
        np.testing.assert_array_equal(cfg.q_diag, [3.0, 3.0])
        np.testing.assert_array_equal(cfg.r_diag, [0.01])
        assert cfg.nx == 2 and cfg.nu == 1

    def test_bound_order_enforced(self):
        with pytest.raises(ValueError, match="u_min"):
            mpc.MpcConfig(x_ref=[0.0], u_min=[2.0], u_max=[1.0])
        with pytest.raises(ValueError, match="x_min"):
            mpc.MpcConfig(
                x_ref=[0.0], u_min=[0.0], u_max=[1.0], x_min=[5.0], x_max=[1.0]
            )

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_cfg(horizon=0)
        with pytest.raises(ValueError):
            small_cfg(q_diag=-1.0)
        with pytest.raises(ValueError):
            small_cfg(tol=0.0)
        with pytest.raises(ValueError, match="x0"):
            small_cfg(x0=[1.0, 2.0])

    def test_from_dict_names_unknown_key(self):
        with pytest.raises(ValueError, match="horizon_len"):
            mpc.MpcConfig.from_dict(
                {"x_ref": [0.0], "u_min": [0.0], "u_max": [1.0], "horizon_len": 3}
            )


class TestHorizonCost:
    def test_stationary_at_reference_is_zero(self):
        model = const_row_model([[0.0, 0.0]])
        cfg = small_cfg(x_ref=[0.7], p_diag=1.0)
        U = np.zeros((2, 1))
        c = mpc.horizon_cost(model, U, [0.7], [0.7, 0.0], cfg)
        assert c == 0.0

    def test_scalar_hand_quadratic(self):
        # one stage, q = r = 1, p = 0: cost is (x0-ref)^2 + u^2 exactly
        model = const_row_model([[0.4, 2.0]])
        cfg = small_cfg(horizon=1, q_diag=1.0, r_diag=1.0, p_diag=0.0, x_ref=[1.0])
        for u in (-0.5, 0.0, 0.8):
            c = mpc.horizon_cost(model, [[u]], [0.3], [0.1, 0.2], cfg)
            assert c == pytest.approx((0.3 - 1.0) ** 2 + u**2, abs=1e-14)

    def test_terminal_tracks_prediction(self):
        # q = r = 0, p = 1: cost = (x1(u) - ref)^2 with x1 affine in u
        a, b = 0.4, 2.0
        model = const_row_model([[a, b]])
        cfg = small_cfg(horizon=1, q_diag=0.0, r_diag=0.0, p_diag=1.0, x_ref=[1.0])
        x0, xp, up = 0.3, 0.1, 0.2
        u = 0.6
        x1 = x0 + a * (x0 - xp) + b * (u - up)
        c = mpc.horizon_cost(model, [[u]], [x0], [xp, up], cfg)
        assert c == pytest.approx((x1 - 1.0) ** 2, abs=1e-14)

    def test_doubling_q_doubles_cost(self):
        model = const_row_model([[0.4, 2.0]])
        kw = dict(horizon=3, r_diag=0.0, p_diag=0.0, x_ref=[1.0])
        U = [[0.3], [-0.2], [0.5]]
        c1 = mpc.horizon_cost(model, U, [0.3], [0.1, 0.2], small_cfg(q_diag=1.0, **kw))
        c2 = mpc.horizon_cost(model, U, [0.3], [0.1, 0.2], small_cfg(q_diag=2.0, **kw))
        assert c2 == pytest.approx(2.0 * c1, rel=1e-15)

    def test_state_bound_penalty_quadratic(self):
        model = const_row_model([[0.0, 0.0]])  # state frozen at x0
        cfg = small_cfg(
            horizon=1, q_diag=0.0, r_diag=0.0, p_diag=0.0,
            x_max=[1.0], x_min=[-1.0], state_weight=7.0,
        )
        # x0 violates the upper bound by 0.5 at the stage and the terminal
        c = mpc.horizon_cost(model, [[0.0]], [1.5], [1.5, 0.0], cfg)
        assert c == pytest.approx(2 * 7.0 * 0.5**2, rel=1e-14)

    def test_nonfinite_rollout_prices_inf(self):
        model = const_row_model([[1e160, 0.0]])
        cfg = small_cfg(horizon=3)
        c = mpc.horizon_cost(model, np.zeros((3, 1)), [1.0], [0.0, 0.0], cfg)
        assert c == float("inf")

    def test_shape_errors(self):
        model = const_row_model([[0.4, 2.0]])
        cfg = small_cfg()
        with pytest.raises(ValueError, match="u_seq"):
            mpc.horizon_cost(model, np.zeros((3, 1)), [0.0], [0.0, 0.0], cfg)
        with pytest.raises(ValueError, match="z_prev"):
            mpc.horizon_cost(model, np.zeros((2, 1)), [0.0], [0.0, 0.0, 0.0], cfg)
        cfg2 = mpc.MpcConfig(x_ref=[0.0, 0.0], u_min=[0.0], u_max=[1.0])
        with pytest.raises(ValueError, match="states"):
            mpc.horizon_cost(model, np.zeros((8, 1)), [0.0, 0.0], np.zeros(3), cfg2)


class TestCostGradient:
    def rand_model(self, seed, order, gate):
        rng = np.random.default_rng(seed)
        nets = [nn.init_dense([4, 5, 4], rng, "tanh") for _ in range(2)]
        for net in nets:
            net.biases[-1] += rng.normal(0.0, 0.3, size=4)
        spec = MonoSpec.from_symbols(["+++.", "++.+"])
        return MtnnModel(nets, spec, order, gate)

    @pytest.mark.parametrize(
        "order,gate",
        [
            (TaylorOrder.FIRST, GateMode.NONE),
            (TaylorOrder.FIRST, GateMode.ARCHITECTURE),
            (TaylorOrder.SECOND, GateMode.NONE),
            (TaylorOrder.SECOND, GateMode.ARCHITECTURE),
        ],
    )
    def test_matches_finite_differences(self, order, gate):
        model = self.rand_model(3, order, gate)
        cfg = mpc.MpcConfig(
            x_ref=[0.5, -0.2], u_min=[-1.0, -1.0], u_max=[1.0, 1.0],
            horizon=3, x_min=[-2.0, -2.0], x_max=[2.0, 2.0],
        )
        rng = np.random.default_rng(7)
        x0 = np.array([0.3, 0.1])
        zp = np.array([0.2, 0.0, 0.1, -0.1])
        U = rng.uniform(-0.8, 0.8, size=(3, 2))
        c, G = mpc._cost_and_grad(model, U, x0, zp, cfg)
        assert c == pytest.approx(mpc.horizon_cost(model, U, x0, zp, cfg), rel=1e-12)
        h = 1e-6
        for k in range(3):
            for j in range(2):
                Up, Um = U.copy(), U.copy()
                Up[k, j] += h
                Um[k, j] -= h
                fd = (
                    mpc.horizon_cost(model, Up, x0, zp, cfg)
                    - mpc.horizon_cost(model, Um, x0, zp, cfg)
                ) / (2 * h)
                assert G[k, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestSolveHorizon:
    def test_pinned_bounds_return_the_point(self):
        model = const_row_model([[0.4, 2.0]])
        cfg = small_cfg(u_min=[0.3], u_max=[0.3], horizon=3)
        res = mpc.solve_horizon(model, [0.5], [0.4, 0.3], cfg)
        np.testing.assert_array_equal(res.u_seq, np.full((3, 1), 0.3))
        assert res.converged
        assert res.cost == pytest.approx(
            mpc.horizon_cost(model, res.u_seq, [0.5], [0.4, 0.3], cfg)
        )

    def test_scalar_interior_optimum_closed_form(self):
        a, b = 0.4, 2.0
        model = const_row_model([[a, b]])
        cfg = small_cfg(
            horizon=1, q_diag=0.0, r_diag=1.0, p_diag=1.0,
            x_ref=[1.0], u_min=[-5.0], u_max=[5.0], iterations=200, tol=1e-12,
        )
        x0, xp, up = 0.3, 0.1, 0.2
        c0 = x0 + a * (x0 - xp) - b * up  # x1 = c0 + b u
        u_star = -b * (c0 - 1.0) / (1.0 + b * b)
        assert abs(u_star) < 5.0  # interior
        res = mpc.solve_horizon(model, [x0], [xp, up], cfg)
        assert res.u_seq[0, 0] == pytest.approx(u_star, abs=1e-6)

    def test_zero_jacobian_settles_at_projected_zero(self):
        model = const_row_model([[0.0, 0.0]])
        cfg = small_cfg(x_ref=[0.5], u_min=[0.2], u_max=[1.0], horizon=3)
        res = mpc.solve_horizon(model, [0.5], [0.5, 0.4], cfg)
        np.testing.assert_allclose(res.u_seq, 0.2, atol=1e-9)

    def test_feasibility_always(self):
        rng = np.random.default_rng(1)
        nets = [nn.init_dense([3, 4, 3], rng, "tanh")]
        model = MtnnModel(nets, MonoSpec.free(1, 3), TaylorOrder.FIRST, GateMode.NONE)
        cfg = mpc.MpcConfig(
            x_ref=[0.0], u_min=[-0.3, 0.1], u_max=[0.4, 0.9], horizon=4, iterations=20
        )
        res = mpc.solve_horizon(model, [0.2], [0.1, 0.0, 0.5], cfg)
        assert (res.u_seq >= cfg.u_min - 0.0).all()
        assert (res.u_seq <= cfg.u_max + 0.0).all()

    def test_monotone_in_iteration_budget(self):
        _, model = tclab_exact_model()
        zp = np.array([39.0, 37.5, 45.0, 30.0])
        costs = []
        for iters in (1, 2, 4, 8, 16):
            cfg = mpc.MpcConfig(
                x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
                horizon=4, iterations=iters,
            )
            costs.append(mpc.solve_horizon(model, [40.0, 38.0], zp, cfg).cost)
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_warm_start_consistency(self):
        _, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
            horizon=6, iterations=120, tol=1e-8,
        )
        zp = np.array([39.0, 37.5, 45.0, 30.0])
        res = mpc.solve_horizon(model, [40.0, 38.0], zp, cfg)
        assert res.converged
        res2 = mpc.solve_horizon(model, [40.0, 38.0], zp, cfg, u_init=res.u_seq)
        assert abs(res2.cost - res.cost) <= 1e-6 * max(1.0, abs(res.cost))

    def test_out_of_box_warm_start_clipped(self):
        model = const_row_model([[0.0, 0.0]])
        cfg = small_cfg(u_min=[0.0], u_max=[1.0], iterations=1)
        res = mpc.solve_horizon(
            model, [0.5], [0.5, 0.5], cfg, u_init=np.full((2, 1), 9.0)
        )
        assert (res.u_seq <= 1.0).all()

    def test_budget_exhaustion_flags_nonconverged(self):
        _, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
            horizon=6, iterations=1, tol=1e-12,
        )
        res = mpc.solve_horizon(model, [40.0, 38.0], [39.0, 37.5, 45.0, 30.0], cfg)
        assert not res.converged

    def test_blown_up_model_returns_nonconverged_inf(self):
        model = const_row_model([[1e160, 0.0]])
        cfg = small_cfg(horizon=3, u_min=[0.0], u_max=[1.0])
        res = mpc.solve_horizon(model, [1.0], [0.0, 0.0], cfg)
        assert res.cost == float("inf")
        assert not res.converged


class TestClosedLoop:
    def test_exact_model_tracks_reference(self):
        plant, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
            x0=[30.0, 30.0], horizon=6, iterations=40,
        )
        trace = mpc.run_closed_loop(plant, model, cfg, steps=30)
        assert len(trace) == 30
        assert ((trace.u >= cfg.u_min) & (trace.u <= cfg.u_max)).all()
        err = np.abs(trace.x[-5:] - cfg.x_ref)
        assert err.max() < 1.0

    def test_one_input_per_step_and_time_axis(self):
        plant, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[40.0, 40.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
            x0=[30.0, 30.0], horizon=2, iterations=5,
        )
        trace = mpc.run_closed_loop(plant, model, cfg, steps=7)
        assert trace.u.shape == (7, 2) and trace.x.shape == (7, 2)
        np.testing.assert_allclose(np.diff(trace.t), plant.dt)

    def test_fault_falls_back_to_held_input(self):
        plant = pl.TcLabPlant()
        model = const_row_model(
            [[1e160, 0.0, 0.0, 0.0], [0.0, 1e160, 0.0, 0.0]]
        )
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
            x0=[30.0, 30.0], horizon=3, iterations=4,
        )
        trace = mpc.run_closed_loop(plant, model, cfg, steps=5)
        assert len(trace) == 5
        assert not trace.converged.any()
        assert np.isinf(trace.cost).all()
        # held input is the projection of the quiet input into the box
        np.testing.assert_array_equal(trace.u, np.tile([30.0, 20.0], (5, 1)))

    def test_solver_value_error_propagates(self, monkeypatch):
        # shapes are validated up front, so a ValueError inside the solve is
        # a bug and must not be logged as an ordinary non-converged step
        plant, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
            x0=[30.0, 30.0], horizon=3, iterations=4,
        )

        def broken(*args, **kwargs):
            raise ValueError("dimension bug")

        monkeypatch.setattr(mpc, "solve_horizon", broken)
        with pytest.raises(ValueError, match="dimension bug"):
            mpc.run_closed_loop(plant, model, cfg, steps=3)

    def test_requires_initial_state(self):
        plant, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0]
        )
        with pytest.raises(ValueError, match="x0"):
            mpc.run_closed_loop(plant, model, cfg, steps=3)

    def test_trace_csv_round_trip(self, tmp_path):
        t = np.array([0.0, 15.0])
        x = np.array([[30.0, 31.0], [32.5, 33.5]])
        u = np.array([[40.0, 20.0], [41.0, 21.0]])
        trace = mpc.ClosedLoopTrace(
            t, x, u, np.array([5.5, 4.25]), np.array([True, False]),
            np.array([0.01, 0.02]),
        )
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,T1,T2,Q1,Q2,cost,converged"
        assert lines[1] == "0.0,30.0,31.0,40.0,20.0,5.5,1"
        assert lines[2] == "15.0,32.5,33.5,41.0,21.0,4.25,0"

    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            mpc.ClosedLoopTrace(
                np.arange(3), np.zeros((2, 1)), np.zeros((3, 1)),
                np.zeros(3), np.zeros(3, dtype=bool), np.zeros(3),
            )
