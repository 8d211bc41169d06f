"""Controller: config, horizon cost, Gauss-Newton solve against a projected-gradient
oracle, closed loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtnn import graph, mpc
from mtnn import model as md
from mtnn import net as nn
from mtnn import plants as pl
from mtnn import training as tr
from mtnn.constraints import MonoSpec
from mtnn.model import BaselineModel, GateMode, MtnnModel, TaylorOrder
import oracles


def const_row_model(rows, nx=None, order=TaylorOrder.FIRST, gate=GateMode.NONE, spec=None):
    """Taylor model whose Jacobian rows are the given constants; spec None
    tags no entry."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    nx = nx or rows.shape[0]
    N = rows.shape[1]
    nets = []
    for row in rows:
        net = nn.init_dense([N, N], 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = row
        nets.append(net)
    return MtnnModel(nets, spec or MonoSpec.free(nx, N), order, gate)


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


def graph_rollout_cost_and_grad(model, U, x0, z_prev, cfg):
    """Reference (cost, d cost / dU): the whole rollout built on the
    reverse-mode graph at batch one and differentiated by one backward."""

    def quad_form(v, w):
        return graph.sum_all(graph.dot_rows(graph.mul(v, w), v))

    def add_bound_penalty(term, x):
        if cfg.x_max is not None:
            over = graph.relu(x - cfg.x_max[None, :])
            term = term + quad_form(over, np.ones(cfg.nx)) * cfg.state_weight
        if cfg.x_min is not None:
            under = graph.relu(-(x - cfg.x_min[None, :]))
            term = term + quad_form(under, np.ones(cfg.nx)) * cfg.state_weight
        return term

    tape = nn.NetTape(model.net)
    select = np.eye(cfg.nx + cfg.nu)  # z_curr = [x; u] by selector maps
    u_vars = [graph.Var(U[k : k + 1]) for k in range(cfg.horizon)]
    x = graph.Var(np.asarray(x0, dtype=np.float64)[None, :])
    zp = graph.Var(np.asarray(z_prev, dtype=np.float64)[None, :])
    x_ref = cfg.x_ref[None, :]
    total = None
    for k in range(cfg.horizon):
        term = quad_form(x - x_ref, cfg.q_diag) + quad_form(u_vars[k], cfg.r_diag)
        term = add_bound_penalty(term, x)
        total = term if total is None else total + term
        zc = graph.linear(x, select[:, :cfg.nx]) + graph.linear(u_vars[k], select[:, cfg.nx:])
        if isinstance(model, BaselineModel):
            # the (1, 1, nx) outputs of a stack of one, the stack axis summed away
            x = graph.dot_rows(graph.moveaxis(tape.forward(zc), 0, -1), np.ones(1))
        else:
            incr, _, _ = md.taylor_increments(tape, model, zc, zp)
            x = x + graph.moveaxis(incr, -1, -2)
        zp = zc
    total = total + add_bound_penalty(quad_form(x - x_ref, cfg.p_diag), x)
    graph.backward(total)
    G = np.array([uv.grad[0] for uv in u_vars])
    return float(total.value), G


def cost_and_grad(model, U, x0, z_prev, cfg):
    """(cost, gradient, Gauss-Newton matrix) of U: priced by `horizon_cost`
    into fresh buffers, then differentiated by `_cost_and_grad` on a
    step-Jacobian graph of its own."""
    out = mpc._buffers(cfg)
    cost = mpc.horizon_cost(model, U, x0, z_prev, cfg, out=out)
    return (cost, *mpc._cost_and_grad(U, (cost, *out), cfg, mpc._StepJacobians(model, cfg)))


def pg_oracle_solve(model, x0, z_prev, cfg, u_init=None):
    """Reference solver: projected gradient with Barzilai-Borwein trial steps
    and Armijo backtracking, returned as a `SolveResult`. It reads only the
    cost and the gradient, so it checks the library's solve independently
    of the Gauss-Newton matrix and the active-set rule."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    z_prev = np.asarray(z_prev, dtype=np.float64).reshape(-1)
    if u_init is None:
        U = np.tile(0.5 * (cfg.u_min + cfg.u_max), (cfg.horizon, 1))
    else:
        U = np.array(u_init, dtype=np.float64)
    U = np.clip(U, cfg.u_min, cfg.u_max)
    best_U, best_cost = U.copy(), mpc.horizon_cost(model, U, x0, z_prev, cfg)
    exit, step, prev, it, backtracks, full_steps = "budget", 0.5, None, 0, 0, 0
    for it in range(1, cfg.iterations + 1):
        cost, G, _ = cost_and_grad(model, U, x0, z_prev, cfg)
        if G is None:
            exit = "nonfinite"
            break
        trial = step * 2.0
        if prev is not None:
            s = (U - prev[0]).ravel()
            y = (G - prev[1]).ravel()
            sy = float(s @ y)
            if sy > 0.0:
                trial = min(max(float(s @ s) / sy, 1e-12), 1e12)
        prev = (U.copy(), G)
        moved, first = None, True
        for _ in range(mpc.MAX_BACKTRACKS):
            U_new = np.clip(U - trial * G, cfg.u_min, cfg.u_max)
            delta = U_new - U
            c_new = mpc.horizon_cost(model, U_new, x0, z_prev, cfg)
            if c_new <= cost - (mpc.ARMIJO_SIGMA / trial) * float(np.sum(delta * delta)):
                moved = (U_new, c_new, trial)
                break
            backtracks += 1
            trial *= 0.5
            first = False
        if moved is None:
            exit = "stationary"
            break
        full_steps += first
        U, cost, step = moved
        if cost < best_cost:
            best_cost, best_U = cost, U.copy()
        if np.max(np.abs(delta)) < cfg.tol:
            exit = "tolerance"
            break
    return mpc.SolveResult(best_U, best_cost, it, exit, backtracks, full_steps)


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

    def test_integral_float_counts_and_wide_ints_accepted(self):
        cfg = small_cfg(horizon=3.0, iterations=np.int64(5), x_ref=[10**30])
        assert (cfg.horizon, cfg.iterations) == (3, 5)
        assert type(cfg.horizon) is int and type(cfg.iterations) is int
        np.testing.assert_array_equal(cfg.x_ref, [1e30])

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
        with pytest.raises(ValueError, match="x_ref"):
            mpc.MpcConfig(x_ref=[np.nan], u_min=[-np.inf], u_max=[1.0])
        with pytest.raises(ValueError, match="u_min"):
            small_cfg(u_min=[-np.inf])
        with pytest.raises(ValueError, match="u_max"):
            small_cfg(u_max=[np.nan])
        with pytest.raises(ValueError, match="x0"):
            small_cfg(x0=[np.inf])
        for name in ("q_diag", "r_diag", "p_diag", "state_weight", "tol"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=name):
                    small_cfg(**{name: bad})
        for name in ("horizon", "iterations"):
            for bad in (np.nan, np.inf, 2.5, 0, "8", True, 10**400):
                with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
                    small_cfg(**{name: bad})
        # every field must hold numbers: no string, no bool, no int beyond a float
        for name, bad in [("tol", "1e-3"), ("x_ref", ["55", "45"]), ("q_diag", True),
                          ("q_diag", [True]), ("u_max", [10**400]), ("state_weight", 10**400),
                          ("x0", [None]), ("x_max", "inf"), ("q_diag", [[1.0, 2.0], [3.0]])]:
            with pytest.raises(ValueError, match=f"^{name} must be a number or a vector"):
                small_cfg(**{name: bad})
        with pytest.raises(ValueError, match="x_min"):
            small_cfg(x_min=[np.nan])
        with pytest.raises(ValueError, match="x_max"):
            small_cfg(x_max=[np.nan])
        # an infinite state bound is no bound on that side
        cfg = small_cfg(x_min=[-np.inf], x_max=[np.inf])
        model = const_row_model([[0.4, 2.0]])
        assert mpc.horizon_cost(model, np.zeros((2, 1)), [5.0], [4.0, 0.0], cfg) == (
            mpc.horizon_cost(model, np.zeros((2, 1)), [5.0], [4.0, 0.0], small_cfg())
        )

    def test_from_dict_names_unknown_key(self):
        with pytest.raises(ValueError, match="horizon_len"):
            mpc.MpcConfig.from_dict(
                {"x_ref": [0.0], "u_min": [0.0], "u_max": [1.0], "horizon_len": 3}
            )

    def test_from_dict_names_the_removed_step_size(self):
        # the Gauss-Newton step sets its own length; a config that still
        # sets step_size is told so rather than silently ignored
        with pytest.raises(ValueError, match="step_size"):
            mpc.MpcConfig.from_dict(
                {"x_ref": [0.0], "u_min": [0.0], "u_max": [1.0], "step_size": 1.0}
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

    def test_out_receives_the_priced_rollout(self):
        model, x0, zp, cfg = backtracking_problem()
        U = np.random.default_rng(2).uniform(-1.0, 1.0, (cfg.horizon, cfg.nu))
        out = (np.full((7, 2), np.nan), np.full((7, 4), np.nan))
        c = mpc.horizon_cost(model, U, x0, zp, cfg, out=out)
        c_ref, X, Z = mpc._rollout(model, U, x0, zp, cfg)
        assert c == c_ref == mpc.horizon_cost(model, U, x0, zp, cfg)
        np.testing.assert_array_equal(out[0], X)
        np.testing.assert_array_equal(out[1], Z)

    @pytest.mark.parametrize(
        "out",
        [
            pytest.param((np.empty((6, 2)), np.empty((7, 4))), id="short-states"),
            pytest.param((np.empty((7, 2)), np.empty((7, 2))), id="narrow-pairs"),
            pytest.param((np.empty((7, 4)), np.empty((7, 2))), id="swapped"),
            pytest.param((np.empty((7, 2), np.float32), np.empty((7, 4))), id="float32"),
            pytest.param((np.empty((7, 2)),), id="one-array"),
            pytest.param((np.empty((7, 2)), np.empty((7, 4)), np.empty(1)), id="three-arrays"),
        ],
    )
    def test_out_of_the_wrong_shape_is_rejected(self, out):
        model, x0, zp, cfg = backtracking_problem()
        with pytest.raises(ValueError, match="out must be a pair"):
            mpc.horizon_cost(model, np.zeros((cfg.horizon, cfg.nu)), x0, zp, cfg, out=out)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_sequence_is_named(self, bad):
        # checked up front, not met as a non-finite increment in the rollout
        model, x0, zp, cfg = backtracking_problem()
        U = np.zeros((cfg.horizon, cfg.nu))
        U[2, 1] = bad
        with pytest.raises(ValueError, match="^u_seq must be finite$"):
            mpc.horizon_cost(model, U, x0, zp, cfg)
        with pytest.raises(ValueError, match="^u_init must be finite$"):
            mpc.solve_horizon(model, x0, zp, cfg, u_init=U)


def rand_model(seed, kind="mtnn", order=TaylorOrder.FIRST, gate=GateMode.NONE,
               spec=None):
    """Random tanh model with 2 states and 2 inputs; the Jacobian nets get a
    bias so gates sit off the kink. spec=None draws random sign tags."""
    rng = np.random.default_rng(seed)
    if kind == "baseline":
        return BaselineModel(nn.init_dense([4, 5, 2], rng), 2)
    nets = [nn.init_dense([4, 5, 4], rng) for _ in range(2)]
    for net in nets:
        net.biases[-1] += rng.normal(0.0, 0.3, size=4)
    if spec is None:
        spec = MonoSpec.from_symbols(["".join(r) for r in rng.choice(list("+-."), (2, 4))])
    return MtnnModel(nets, spec, order, gate)


def backtracking_problem():
    """(model, x0, z_prev, cfg) of a solve whose line search backtracks. The
    model is nonlinear: on a linear one the full Gauss-Newton step is exact
    and the line search never backtracks."""
    model = rand_model(1, spec=MonoSpec.from_symbols(["+++.", "++.+"]))
    cfg = mpc.MpcConfig(
        x_ref=[0.5, -0.2], u_min=[-1.0, -1.0], u_max=[1.0, 1.0],
        horizon=6, iterations=30, tol=1e-8,
    )
    return model, np.array([0.3, 0.1]), np.array([0.2, 0.0, 0.1, -0.1]), cfg


class TestCostGradient:
    @pytest.mark.parametrize(
        "kind,order,gate,horizon",
        [
            pytest.param("mtnn", TaylorOrder.FIRST, GateMode.NONE, 3, id="first-none"),
            pytest.param("mtnn", TaylorOrder.FIRST, GateMode.ARCHITECTURE, 3,
                         id="first-architecture"),
            pytest.param("mtnn", TaylorOrder.SECOND, GateMode.NONE, 3, id="second-none"),
            pytest.param("mtnn", TaylorOrder.SECOND, GateMode.ARCHITECTURE, 3,
                         id="second-architecture"),
            pytest.param("baseline", None, None, 3, id="baseline"),
            pytest.param("mtnn", TaylorOrder.SECOND, GateMode.ARCHITECTURE, 1,
                         id="second-architecture-horizon1"),
        ],
    )
    def test_matches_finite_differences(self, kind, order, gate, horizon):
        model = rand_model(3, kind, order, gate, MonoSpec.from_symbols(["+++.", "++.+"]))
        cfg = mpc.MpcConfig(
            x_ref=[0.5, -0.2], u_min=[-1.0, -1.0], u_max=[1.0, 1.0],
            horizon=horizon, x_min=[-2.0, -2.0], x_max=[2.0, 2.0],
        )
        rng = np.random.default_rng(7)
        x0 = np.array([0.3, 0.1])
        zp = np.array([0.2, 0.0, 0.1, -0.1])
        U = rng.uniform(-0.8, 0.8, size=(horizon, 2))
        c, G, _ = cost_and_grad(model, U, x0, zp, cfg)
        assert c == pytest.approx(mpc.horizon_cost(model, U, x0, zp, cfg), rel=1e-12)
        h = 1e-6
        for k in range(horizon):
            for j in range(2):
                Up, Um = U.copy(), U.copy()
                Up[k, j] += h
                Um[k, j] -= h
                fd = (
                    mpc.horizon_cost(model, Up, x0, zp, cfg)
                    - mpc.horizon_cost(model, Um, x0, zp, cfg)
                ) / (2 * h)
                assert G[k, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_graph_rollout_oracle(self, data):
        kind = data.draw(st.sampled_from(["mtnn", "baseline"]), label="kind")
        order = data.draw(st.sampled_from(list(TaylorOrder)), label="order")
        gate = data.draw(st.sampled_from(list(GateMode)), label="gate")
        bounds = data.draw(st.sampled_from(["none", "min", "max", "both"]), label="bounds")
        horizon = data.draw(st.integers(1, 4), label="horizon")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        model = rand_model(seed, kind, order, gate)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-0.5, 0.5, 2)
        zp = np.concatenate([x0 + rng.normal(0.0, 0.2, 2), rng.uniform(-1.0, 1.0, 2)])
        U = rng.uniform(-1.0, 1.0, size=(horizon, 2))
        # box edges near the states, so the soft penalty is often active
        x_max = rng.uniform(-0.3, 0.4, 2)
        x_min = x_max - rng.uniform(0.1, 0.8, 2)
        cfg = mpc.MpcConfig(
            x_ref=rng.uniform(-0.5, 0.5, 2), u_min=[-1.0, -1.0], u_max=[1.0, 1.0],
            horizon=horizon, x_min=x_min if bounds in ("min", "both") else None,
            x_max=x_max if bounds in ("max", "both") else None, state_weight=50.0,
        )
        c, G, _ = cost_and_grad(model, U, x0, zp, cfg)
        c_ref, G_ref = graph_rollout_cost_and_grad(model, U, x0, zp, cfg)
        assert c == pytest.approx(c_ref, rel=1e-12)
        # relative to the largest entry: single entries may cancel to ~0
        assert np.max(np.abs(G - G_ref)) <= 1e-9 * np.max(np.abs(G_ref))

    def test_nonfinite_rollout_has_no_gradient(self):
        model = const_row_model([[1e160, 0.0]])
        cfg = small_cfg(horizon=3)
        c, G, B = cost_and_grad(model, np.zeros((3, 1)), np.ones(1), np.zeros(2), cfg)
        assert c == float("inf") and G is None and B is None


class TestSolveHorizon:
    def test_pinned_bounds_return_the_point(self):
        model = const_row_model([[0.4, 2.0]])
        cfg = small_cfg(u_min=[0.3], u_max=[0.3], horizon=3)
        res = mpc.solve_horizon(model, [0.5], [0.4, 0.3], cfg)
        np.testing.assert_array_equal(res.u_seq, np.full((3, 1), 0.3))
        assert res.converged
        assert res.exit == "tolerance"
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

    def test_rank_deficient_matrix_still_reaches_the_minimum(self):
        # two inputs, one state, one stage and no input weight: the
        # Gauss-Newton matrix has rank one and a line of minimizers
        model = const_row_model([[0.4, 2.0, 1.0]])
        cfg = small_cfg(u_min=[-1.0, -1.0], u_max=[1.0, 1.0], horizon=1, q_diag=0.0,
                        r_diag=0.0, p_diag=1.0, x_ref=[1.0])
        res = mpc.solve_horizon(model, [0.3], [0.1, 0.2, 0.0], cfg)
        assert res.converged
        assert res.cost <= 1e-12

    def test_zero_jacobian_settles_at_projected_zero(self):
        model = const_row_model([[0.0, 0.0]])
        cfg = small_cfg(x_ref=[0.5], u_min=[0.2], u_max=[1.0], horizon=3)
        res = mpc.solve_horizon(model, [0.5], [0.5, 0.4], cfg)
        np.testing.assert_allclose(res.u_seq, 0.2, atol=1e-9)

    def test_feasibility_always(self):
        rng = np.random.default_rng(1)
        nets = [nn.init_dense([3, 4, 3], rng)]
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
        assert res.exit == "budget"

    def test_blown_up_model_returns_nonconverged_inf(self):
        model = const_row_model([[1e160, 0.0]])
        cfg = small_cfg(horizon=3, u_min=[0.0], u_max=[1.0])
        res = mpc.solve_horizon(model, [1.0], [0.0, 0.0], cfg)
        assert res.cost == float("inf")
        assert not res.converged
        assert res.exit == "nonfinite"

    def test_call_pattern_read_by_the_benchmark_trace(self, monkeypatch):
        # the traced benchmark rebuilds line-search outcomes from this order:
        # one horizon_cost for the start point, then per iteration one
        # _cost_and_grad followed by 1..MAX_BACKTRACKS trial horizon_costs.
        model, x0, zp, cfg = backtracking_problem()
        events, inside = [], []
        real_grad, real_cost, real_rollout = (
            mpc._cost_and_grad, mpc.horizon_cost, mpc._rollout
        )

        def grad(*a, **k):
            events.append("g")
            inside.append(True)
            try:
                return real_grad(*a, **k)
            finally:
                inside.pop()

        def cost(*a, **k):
            assert not inside, "horizon_cost called from inside _cost_and_grad"
            events.append("c")
            return real_cost(*a, **k)

        def rollout(*a, **k):
            events.append("r")
            return real_rollout(*a, **k)

        monkeypatch.setattr(mpc, "_cost_and_grad", grad)
        monkeypatch.setattr(mpc, "horizon_cost", cost)
        monkeypatch.setattr(mpc, "_rollout", rollout)
        res = mpc.solve_horizon(model, x0, zp, cfg)
        calls = "".join(e for e in events if e != "r")
        # every horizon_cost rolls out exactly once; _cost_and_grad never does
        assert "".join(events) == "".join(e + "r" if e == "c" else e for e in calls)
        assert calls.count("g") == res.iterations > 1
        assert calls[0] == "c"
        trials = [len(run) for run in calls[1:].split("g")[1:]]
        assert len(trials) == res.iterations
        assert all(1 <= t <= mpc.MAX_BACKTRACKS for t in trials)
        assert calls.count("c") == 1 + sum(trials)
        assert events.count("r") == 1 + sum(trials)  # the start and each trial
        assert sum(trials) > res.iterations  # the line search did backtrack
        assert res.converged and res.exit == "decrease"
        # every iteration accepted one trial; the others were backtracks
        assert res.backtracks == sum(trials) - res.iterations
        assert res.full_steps == trials.count(1)

    def test_gradient_differentiates_the_current_iterate(self, monkeypatch):
        # the (cost, X, Z) handed to _cost_and_grad must be the rollout of the
        # U it differentiates, never a stale or rejected trial's buffers
        model, x0, zp, cfg = backtracking_problem()
        real_grad, checked = mpc._cost_and_grad, []

        def grad(U, priced, cfg, jacobians):
            cost, X, Z = mpc._rollout(model, U, x0, zp, cfg)
            assert priced[0] == cost
            np.testing.assert_array_equal(priced[1], X)
            np.testing.assert_array_equal(priced[2], Z)
            checked.append(U.copy())
            return real_grad(U, priced, cfg, jacobians)

        monkeypatch.setattr(mpc, "_cost_and_grad", grad)
        res = mpc.solve_horizon(model, x0, zp, cfg)
        assert len(checked) == res.iterations > 1
        assert res.backtracks > 0  # rejected trials were priced into a buffer
        assert not np.array_equal(checked[0], checked[-1])

    @pytest.mark.parametrize("name,bad", [("x0", [0.3]), ("z_prev", [0.2, 0.0, 0.1])])
    def test_wrong_length_state_or_pair_is_named(self, name, bad):
        model, x0, zp, cfg = backtracking_problem()
        args = {"x0": x0, "z_prev": zp, name: bad}
        with pytest.raises(ValueError, match=name):
            mpc.solve_horizon(model, args["x0"], args["z_prev"], cfg)


def state_blind_model(seed=3):
    """Scalar tanh baseline that ignores its state input: every predicted
    state after k = 0 depends on the inputs alone, so x0 only moves the
    constant k = 0 term of the cost."""
    net = nn.init_dense([2, 4, 1], seed)
    net.weights[0][0, :, 0] = 0.0
    return BaselineModel(net, 1)


def slow_problem(**kw):
    """(model, z_prev, cfg) of a nonlinear solve that Gauss-Newton finishes
    only linearly, so the cost decrease shrinks over about a dozen steps."""
    cfg = small_cfg(x_ref=[1.0], u_min=[-3.0], u_max=[3.0], horizon=3, r_diag=0.05,
                    iterations=200, tol=1e-13, **kw)
    return state_blind_model(), np.zeros(2), cfg


def k0_term(x0, cfg):
    """q e_0^2 plus the soft-box term of x0: the part of the cost that no
    input can change."""
    x0 = np.asarray(x0, dtype=np.float64)
    e = x0 - cfg.x_ref
    lo = -np.inf if cfg.x_min is None else cfg.x_min
    hi = np.inf if cfg.x_max is None else cfg.x_max
    return float(e @ (cfg.q_diag * e) + cfg.state_weight * np.sum((x0 - np.clip(x0, lo, hi)) ** 2))


def logged_solve(monkeypatch, model, x0, zp, cfg, reject_full=False):
    """(result, start cost, costs of each iteration's trials): the last trial
    of an iteration is the one it accepted. With reject_full, the full
    (alpha = 1) trial of every iteration prices as inf, so every accepted
    step has backtracked."""
    real_grad, real_cost = mpc._cost_and_grad, mpc.horizon_cost
    start, iters = [], []

    def grad(*a, **k):
        iters.append([])
        return real_grad(*a, **k)

    def cost(*a, **k):
        c = real_cost(*a, **k)
        if not iters:
            start.append(c)
        else:
            if reject_full and not iters[-1]:
                c = float("inf")
            iters[-1].append(c)
        return c

    monkeypatch.setattr(mpc, "_cost_and_grad", grad)
    monkeypatch.setattr(mpc, "horizon_cost", cost)
    res = mpc.solve_horizon(model, x0, zp, cfg)
    monkeypatch.undo()
    return res, start[0], iters


def accepted_steps(start, iters):
    """(decrease, new cost, full step?) of every accepted iteration."""
    steps, cost = [], start
    for trials in iters:
        steps.append((cost - trials[-1], trials[-1], len(trials) == 1))
        cost = trials[-1]
    return steps


class TestStepJacobianGraph:
    """A standalone solve builds one step-Jacobian graph and replays it every
    iteration; a closed loop builds one for all its solves."""

    @pytest.mark.parametrize("kind,order,gate", [
        ("baseline", TaylorOrder.FIRST, GateMode.NONE),
        ("mtnn", TaylorOrder.FIRST, GateMode.ARCHITECTURE),
        ("mtnn", TaylorOrder.SECOND, GateMode.NONE),
        ("mtnn", TaylorOrder.SECOND, GateMode.ARCHITECTURE),
    ])
    def test_one_graph_per_solve_and_each_iteration_matches_a_fresh_build(
            self, monkeypatch, built_tapes, kind, order, gate):
        _, x0, zp, cfg = backtracking_problem()
        model = rand_model(1, kind, order, gate)
        real_grad, checked = mpc._cost_and_grad, []

        def grad(U, priced, cfg, jacobians):
            G, B = real_grad(U, priced, cfg, jacobians)
            n = len(built_tapes)
            G0, B0 = real_grad(U, priced, cfg, mpc._StepJacobians(model, cfg))  # a fresh graph
            del built_tapes[n:]
            assert G.tobytes() == G0.tobytes() and B.tobytes() == B0.tobytes()
            checked.append(U.copy())
            return G, B

        monkeypatch.setattr(mpc, "_cost_and_grad", grad)
        res = mpc.solve_horizon(model, x0, zp, cfg)
        assert len(checked) == res.iterations > 1
        assert not np.array_equal(checked[0], checked[-1])
        assert len(built_tapes) == 1
        mpc.solve_horizon(model, x0, zp, cfg)
        assert len(built_tapes) == 2  # the next solve builds its own

    @pytest.mark.parametrize("variant", ["mono1", "mono2", "baseline"])
    def test_closed_loop_shares_one_graph_and_equals_standalone_solves(
            self, tclab_mono1, monkeypatch, built_tapes, variant):
        ds, model = tclab_mono1
        if variant != "mono1":
            model, _ = tr.train_variant(variant, ds.plant.mono_spec(), ds.train, epochs=60)
        cfg = mpc.MpcConfig(**CRITERION_8_CFG)
        built_tapes.clear()
        shared = mpc.run_closed_loop(ds.plant, model, cfg, steps=10)
        assert len(built_tapes) == 1
        real_solve = mpc.solve_horizon

        def standalone(model, x0, z_prev, cfg, u_init=None, *, jacobians):
            return real_solve(model, x0, z_prev, cfg, u_init=u_init)  # a fresh graph

        monkeypatch.setattr(mpc, "solve_horizon", standalone)
        fresh = mpc.run_closed_loop(ds.plant, model, cfg, steps=10)
        assert len(built_tapes) == 1 + 10
        assert shared.iterations.sum() > 10
        for name in ("x", "u", "cost", "converged", "iterations"):
            assert getattr(shared, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert list(shared.exit) == list(fresh.exit)

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_graph_has_two_leaves_and_no_parameter_var(self, variant):
        recipe = tr.variant_recipe(variant)
        kind = "baseline" if recipe["baseline"] else "mtnn"
        _, x0, zp, cfg = backtracking_problem()
        model = rand_model(1, kind, recipe.get("order"), recipe.get("gate_mode"))
        jacobians = mpc._StepJacobians(model, cfg)
        _, _, Z = mpc._rollout(model, np.zeros((cfg.horizon, cfg.nu)), x0, zp, cfg)
        jacobians(Z)
        (z_curr, z_prev), _, nodes = jacobians.built
        leaves = {id(n) for n in nodes if n.fwd is None}
        assert leaves == {id(z_curr)} | (set() if kind == "baseline" else {id(z_prev)})
        params = {id(A) for A in (*model.net.weights, *model.net.biases)}
        assert not any(id(n.value) in params for n in nodes)

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_step_jacobians_bytes_equal_the_three_leaf_oracle(self, variant):
        recipe = tr.variant_recipe(variant)
        kind = "baseline" if recipe["baseline"] else "mtnn"
        _, x0, zp, cfg = backtracking_problem()
        for seed in range(3):
            model = rand_model(seed, kind, recipe.get("order"), recipe.get("gate_mode"))
            jacobians = mpc._StepJacobians(model, cfg)
            rng = np.random.default_rng(seed)
            for _ in range(3):
                U = rng.uniform(-1.0, 1.0, size=(cfg.horizon, cfg.nu))
                _, _, Z = mpc._rollout(model, U, x0, zp, cfg)
                for pairs in (Z, Z + rng.normal(0.0, 0.5, Z.shape)):
                    Jc, Jp = jacobians(pairs)
                    Jc_ref, Jp_ref = oracles.step_jacobians(model, pairs)
                    assert Jc.tobytes() == Jc_ref.tobytes()
                    assert Jp.tobytes() == Jp_ref.tobytes()

    def test_a_graph_of_another_model_or_config_is_rejected(self):
        model, x0, zp, cfg = backtracking_problem()
        for jacobians in (mpc._StepJacobians(model.copy(), cfg),
                          mpc._StepJacobians(model, mpc.MpcConfig(**vars(cfg)))):
            with pytest.raises(ValueError, match="another model or config"):
                mpc.solve_horizon(model, x0, zp, cfg, jacobians=jacobians)


class TestDecreaseStop:
    """A full step that lowers the cost by at most DECREASE_RTOL of its
    controllable part ends the solve with exit "decrease"."""

    def test_first_small_full_step_ends_the_solve(self, monkeypatch):
        model, zp, cfg = slow_problem()
        x0 = np.array([1.0])
        res, start, iters = logged_solve(monkeypatch, model, x0, zp, cfg)
        assert res.exit == "decrease" and res.converged
        c0 = k0_term(x0, cfg)
        steps = accepted_steps(start, iters)
        assert len(steps) == res.iterations > 5
        decrease, c_new, full = steps[-1]
        assert full and decrease <= mpc.DECREASE_RTOL * (c_new - c0)
        assert all(d > mpc.DECREASE_RTOL * (c - c0) for d, c, f in steps[:-1] if f)
        assert res.cost == c_new

    def test_backtracked_step_does_not_end_the_solve(self, monkeypatch):
        model, zp, cfg = slow_problem()
        x0 = np.array([1.0])
        res, start, iters = logged_solve(monkeypatch, model, x0, zp, cfg, reject_full=True)
        c0 = k0_term(x0, cfg)
        steps = accepted_steps(start, iters)
        assert res.full_steps == 0 and not any(f for _, _, f in steps)
        small = [i for i, (d, c, _) in enumerate(steps) if d <= mpc.DECREASE_RTOL * (c - c0)]
        assert small and small[0] < res.iterations - 1  # the solve went on past it
        assert res.exit != "decrease"

    def test_tolerance_wins_when_both_rules_hold(self, monkeypatch):
        # on a linear model the first Gauss-Newton step is exact, so the
        # second moves the inputs by rounding only and lowers nothing
        _, model = tclab_exact_model()
        cfg = mpc.MpcConfig(x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
                            horizon=4)
        x0, zp = np.array([40.0, 38.0]), np.array([39.0, 37.5, 45.0, 30.0])
        res, start, iters = logged_solve(monkeypatch, model, x0, zp, cfg)
        c0 = k0_term(x0, cfg)
        decrease, c_new, full = accepted_steps(start, iters)[-1]
        assert full and decrease <= mpc.DECREASE_RTOL * (c_new - c0)
        assert res.exit == "tolerance" and res.converged

    @pytest.mark.parametrize("x0,bounds", [(121.0, {}), (7.0, {"x_max": [3.0]})],
                             ids=["tracking", "soft_box"])
    def test_large_k0_term_does_not_loosen_the_rule(self, monkeypatch, x0, bounds):
        # x0 moves only the k = 0 term; the solve must not stop sooner for it
        model, zp, cfg = slow_problem(**bounds)
        near = mpc.solve_horizon(model, [1.0], zp, cfg)
        far, start, iters = logged_solve(monkeypatch, model, [x0], zp, cfg)
        c0 = k0_term([x0], cfg)
        assert c0 > 1e4 * near.cost
        assert far.exit == near.exit == "decrease"
        assert far.iterations == near.iterations
        np.testing.assert_allclose(far.u_seq, near.u_seq, rtol=0.0, atol=1e-9)
        # measured against the whole cost, the rule would have stopped sooner
        steps = accepted_steps(start, iters)
        assert any(f and d <= mpc.DECREASE_RTOL * c for d, c, f in steps[:-1])


CRITERION_8_CFG = dict(
    x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0], x0=[30.0, 30.0],
    horizon=8, iterations=60, tol=1e-6,
)


class TestAgainstOracle:
    """Projected Gauss-Newton never ends above the projected-gradient oracle
    by more than 1e-6 relative where the oracle's answer is trusted."""

    def test_criterion_8_loop_costs_at_most_the_oracle(self, tclab_mono1, monkeypatch):
        ds, model = tclab_mono1
        cfg = mpc.MpcConfig(**CRITERION_8_CFG)
        real_solve, ratios, results = mpc.solve_horizon, [], []

        def both(model, x0, z_prev, cfg, u_init=None, *, jacobians=None):
            res = real_solve(model, x0, z_prev, cfg, u_init=u_init, jacobians=jacobians)
            ref = pg_oracle_solve(model, x0, z_prev, cfg, u_init=u_init)
            ratios.append(res.cost / ref.cost)
            results.append(res)
            return res

        monkeypatch.setattr(mpc, "solve_horizon", both)
        mpc.run_closed_loop(ds.plant, model, cfg, steps=60)
        assert len(ratios) == 60
        assert max(ratios) <= 1.0 + 1e-6, max(ratios)
        assert all(r.converged and r.exit in ("tolerance", "decrease") for r in results)

    def test_criterion_7_fixture_costs_at_most_the_oracle(self, tclab_mono1):
        _, model = tclab_mono1
        cfg = mpc.MpcConfig(x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
                            horizon=2, iterations=120, tol=1e-9)
        args = (model, [48.0, 41.0], [46.5, 40.0, 55.0, 35.0], cfg)
        res, ref = mpc.solve_horizon(*args), pg_oracle_solve(*args)
        assert res.converged
        assert res.cost <= ref.cost * (1.0 + 1e-6)
        assert res.iterations < ref.iterations

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_feasible_descending_and_optimal_when_convex(self, data):
        kind = data.draw(st.sampled_from(["mtnn", "baseline"]), label="kind")
        order = data.draw(st.sampled_from(list(TaylorOrder)), label="order")
        gate = data.draw(st.sampled_from(list(GateMode)), label="gate")
        bounds = data.draw(st.sampled_from(["none", "min", "max", "both"]), label="bounds")
        convex = data.draw(st.booleans(), label="constant rows")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        spec = MonoSpec.from_symbols(["".join(r) for r in rng.choice(list("+-."), (2, 4))])
        if not convex:
            model = rand_model(seed, kind, order, gate, spec=spec)
        elif kind == "baseline":  # a linear baseline is an affine plant
            model = BaselineModel(nn.init_dense([4, 2], rng), 2)
        else:  # constant Jacobian rows make the predictor affine in U
            rows = rng.normal(0.0, 0.5, (2, 4))
            model = const_row_model(rows, order=order, gate=gate, spec=spec)
        x0 = rng.uniform(-0.5, 0.5, 2)
        zp = np.concatenate([x0 + rng.normal(0.0, 0.2, 2), rng.uniform(-1.0, 1.0, 2)])
        x_max = rng.uniform(-0.3, 0.4, 2)
        x_min = x_max - rng.uniform(0.1, 0.8, 2)
        cfg = mpc.MpcConfig(
            x_ref=rng.uniform(-0.5, 0.5, 2), u_min=rng.uniform(-1.0, 0.0, 2),
            u_max=rng.uniform(0.0, 1.0, 2), horizon=int(rng.integers(1, 5)),
            x_min=x_min if bounds in ("min", "both") else None,
            x_max=x_max if bounds in ("max", "both") else None,
            state_weight=50.0, iterations=200,
            r_diag=data.draw(st.sampled_from([0.0, 0.01]), label="r_diag"),
        )
        u_init = rng.uniform(-1.0, 1.0, (cfg.horizon, 2))
        res = mpc.solve_horizon(model, x0, zp, cfg, u_init=u_init)
        assert ((res.u_seq >= cfg.u_min) & (res.u_seq <= cfg.u_max)).all()
        start = mpc.horizon_cost(model, np.clip(u_init, cfg.u_min, cfg.u_max), x0, zp, cfg)
        assert res.cost <= start
        if convex:
            ref = pg_oracle_solve(model, x0, zp, cfg, u_init=u_init)
            assert res.cost <= ref.cost * (1.0 + 1e-6)


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
        assert list(trace.exit) == ["nonfinite"] * 5

    def test_floating_point_error_is_a_fault_with_its_reason(self, monkeypatch):
        plant, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
            x0=[30.0, 30.0], horizon=3, iterations=4,
        )
        real_solve = mpc.solve_horizon

        def raising_once(*args, **kwargs):
            if not calls:
                calls.append(1)
                raise FloatingPointError("overflow")
            return real_solve(*args, **kwargs)

        calls = []
        monkeypatch.setattr(mpc, "solve_horizon", raising_once)
        trace = mpc.run_closed_loop(plant, model, cfg, steps=3)
        assert trace.exit[0] == "floating_point_error" and trace.iterations[0] == 0
        assert not trace.converged[0] and np.isinf(trace.cost[0])
        assert list(trace.exit[1:]) == ["tolerance"] * 2
        assert (trace.iterations[1:] >= 1).all() and trace.converged[1:].all()

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

    def test_input_box_checked_against_plant_before_solving(self, monkeypatch):
        plant, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[120.0, 65.0],
            x0=[30.0, 30.0], horizon=3, iterations=4,
        )
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            raise AssertionError("solved before the box was checked")

        monkeypatch.setattr(mpc, "solve_horizon", counting)
        with pytest.raises(ValueError, match=r"u_max=\[120\.0, 65\.0\]"):
            mpc.run_closed_loop(plant, model, cfg, steps=3)
        assert solves == []

    @pytest.mark.parametrize("steps", [0, -2, 2.5, True, "3", np.nan, np.inf])
    def test_bad_steps_rejected_before_any_plant_step(self, steps, monkeypatch):
        plant, model = tclab_exact_model()
        cfg = mpc.MpcConfig(
            x_ref=[55.0, 45.0], u_min=[30.0, 20.0], u_max=[65.0, 65.0],
            x0=[30.0, 30.0], horizon=3, iterations=4,
        )
        monkeypatch.setattr(plant, "step", None)  # stepping the plant would raise TypeError
        with pytest.raises(ValueError, match=r"^steps must be an integer >= 1, got "):
            mpc.run_closed_loop(plant, model, cfg, steps=steps)

    def test_hvac_flow_above_its_audited_range_is_outside_the_box(self):
        plant = pl.HvacPlant()
        model = MtnnModel([nn.init_dense([3, 4, 3], 0)], plant.mono_spec())
        cfg = mpc.MpcConfig(x_ref=[72.0], u_min=[55.0, 0.1], u_max=[60.0, 5.0],
                            x0=[75.3], horizon=3, iterations=4)
        with pytest.raises(ValueError, match=r"u_max=\[60\.0, 5\.0\].*mdot must lie"):
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
            t, x, u, np.array([5.5, 4.25]), np.array([7, 60]), ["tolerance", "budget"],
            np.array([0.01, 0.02]),
        )
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,T1,T2,Q1,Q2,cost,converged,iterations,exit"
        assert lines[1] == "0.0,30.0,31.0,40.0,20.0,5.5,1,7,tolerance"
        assert lines[2] == "15.0,32.5,33.5,41.0,21.0,4.25,0,60,budget"

    def test_seeded_reruns_write_identical_traces(self, tclab_mono1, tmp_path):
        # criterion 9: the decrease rule must not make a rerun drift
        ds, model = tclab_mono1
        cfg = mpc.MpcConfig(**CRITERION_8_CFG)
        blobs, exits = [], set()
        for tag in ("a", "b"):
            trace = mpc.run_closed_loop(ds.plant, model, cfg, steps=12)
            trace.save_csv(tmp_path / f"{tag}.csv")
            blobs.append((tmp_path / f"{tag}.csv").read_bytes())
            exits.update(trace.exit)
        assert blobs[0] == blobs[1]
        assert "decrease" in exits

    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            mpc.ClosedLoopTrace(
                np.arange(3), np.zeros((2, 1)), np.zeros((3, 1)),
                np.zeros(3), np.zeros(3), ["budget"] * 3, np.zeros(3),
            )
