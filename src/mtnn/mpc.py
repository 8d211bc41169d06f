"""Receding-horizon control by projected gradient through the predictor.

The learned model plays the role of the plant constraint: a candidate input
sequence is rolled through the predictor feeding predicted states back, the
quadratic tracking cost is read off the predicted trajectory, and its exact
gradient with respect to every input entry comes out of the same reverse-mode
graph that trains the networks. Input boxes are handled by projection (so
feasibility is exact), state boxes by a soft quadratic penalty, since hard
state constraints under a learned model are easily infeasible.

The stage cost keeps the k = 0 state term even though the current state is
not controllable; it is a constant offset that leaves the argmin alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import graph
from . import model as md
from . import net as nn
from .model import BaselineModel

Array = np.ndarray

ARMIJO_SIGMA = 1e-4
MAX_BACKTRACKS = 40


def _diag_weights(w, size: int, name: str) -> Array:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 0:
        w = np.full(size, float(w))
    if w.shape != (size,):
        raise ValueError(f"{name} must be a scalar or a vector of length {size}")
    if np.any(w < 0):
        raise ValueError(f"{name} entries must be nonnegative")
    return w


@dataclass
class MpcConfig:
    """Tracking-cost weights, box bounds, and solver knobs.

    Q, R, P are diagonal, given as their diagonals (scalars broadcast).
    x_min/x_max are optional soft state bounds with quadratic weight
    `state_weight`; x0 is the closed-loop initial state.
    """

    x_ref: Array
    u_min: Array
    u_max: Array
    horizon: int = 8
    q_diag: Array | float = 1.0
    r_diag: Array | float = 0.01
    p_diag: Array | float = 5.0
    x_min: Array | None = None
    x_max: Array | None = None
    x0: Array | None = None
    state_weight: float = 1e3
    iterations: int = 80
    step_size: float = 1.0
    tol: float = 1e-6

    def __post_init__(self):
        self.x_ref = np.asarray(self.x_ref, dtype=np.float64).reshape(-1)
        self.u_min = np.asarray(self.u_min, dtype=np.float64).reshape(-1)
        self.u_max = np.asarray(self.u_max, dtype=np.float64).reshape(-1)
        if self.u_min.shape != self.u_max.shape:
            raise ValueError("u_min and u_max lengths disagree")
        if np.any(self.u_min > self.u_max):
            raise ValueError("need u_min <= u_max elementwise")
        self.horizon = int(self.horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.q_diag = _diag_weights(self.q_diag, self.nx, "q_diag")
        self.r_diag = _diag_weights(self.r_diag, self.nu, "r_diag")
        self.p_diag = _diag_weights(self.p_diag, self.nx, "p_diag")
        for name in ("x_min", "x_max", "x0"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=np.float64).reshape(-1)
                if v.shape != (self.nx,):
                    raise ValueError(f"{name} must have length {self.nx}")
                setattr(self, name, v)
        if (
            self.x_min is not None
            and self.x_max is not None
            and np.any(self.x_min > self.x_max)
        ):
            raise ValueError("need x_min <= x_max elementwise")
        if self.state_weight < 0:
            raise ValueError("state_weight must be nonnegative")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.step_size <= 0 or self.tol <= 0:
            raise ValueError("step_size and tol must be positive")

    @property
    def nx(self) -> int:
        return len(self.x_ref)

    @property
    def nu(self) -> int:
        return len(self.u_min)

    @classmethod
    def from_dict(cls, d: dict) -> "MpcConfig":
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown mpc config keys: {sorted(unknown)}")
        return cls(**d)


def _check_dims(model, cfg: MpcConfig):
    if model.nx != cfg.nx or model.nu != cfg.nu:
        raise ValueError(
            f"model is {model.nx} states / {model.nu} inputs, "
            f"config says {cfg.nx} / {cfg.nu}"
        )


def _u_matrix(u_seq, cfg: MpcConfig) -> Array:
    U = np.asarray(u_seq, dtype=np.float64)
    if U.shape != (cfg.horizon, cfg.nu):
        raise ValueError(f"u_seq must be ({cfg.horizon}, {cfg.nu}), got {U.shape}")
    return U


def _bound_violation_sq(x: Array, cfg: MpcConfig) -> float:
    pen = 0.0
    if cfg.x_max is not None:
        pen += float(np.sum(np.maximum(x - cfg.x_max, 0.0) ** 2))
    if cfg.x_min is not None:
        pen += float(np.sum(np.maximum(cfg.x_min - x, 0.0) ** 2))
    return pen


def horizon_cost(model, u_seq, x0, z_prev, cfg: MpcConfig) -> float:
    """Quadratic tracking cost of one input sequence under the model.

    Rolls the predictor horizon steps forward feeding predicted states back,
    accumulating ||x - x_ref||_Q^2 + ||u||_R^2 per stage plus the terminal
    ||x - x_ref||_P^2; soft state-bound violations are added at every stage
    and the terminal. A rollout that leaves the finite range prices as inf.
    """
    _check_dims(model, cfg)
    U = _u_matrix(u_seq, cfg)
    x = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x.shape != (cfg.nx,):
        raise ValueError(f"x0 must have length {cfg.nx}")
    zp = np.asarray(z_prev, dtype=np.float64).reshape(-1)
    if zp.shape != (cfg.nx + cfg.nu,):
        raise ValueError(f"z_prev must have length {cfg.nx + cfg.nu}")
    cost = 0.0
    with np.errstate(all="ignore"):
        for k in range(cfg.horizon):
            if not np.all(np.isfinite(x)):
                return float("inf")
            e = x - cfg.x_ref
            cost += float(e @ (cfg.q_diag * e) + U[k] @ (cfg.r_diag * U[k]))
            cost += cfg.state_weight * _bound_violation_sq(x, cfg)
            zc = np.concatenate([x, U[k]])
            x = md.predict(model, zc, zp)
            zp = zc
        if not np.all(np.isfinite(x)):
            return float("inf")
        e = x - cfg.x_ref
        cost += float(e @ (cfg.p_diag * e))
        cost += cfg.state_weight * _bound_violation_sq(x, cfg)
    return cost if np.isfinite(cost) else float("inf")


def _predict_graph(tape: nn.NetTape, model, z_curr, z_prev):
    """Graph twin of md.predict on (1, N) Vars; gradients flow into z.

    The Taylor step itself is `md.taylor_increments`.
    """
    if isinstance(model, BaselineModel):
        return tape.forward(z_curr, 0)
    incrs, _, _ = md.taylor_increments(tape, model, z_curr, z_prev)
    return graph.stack_cols([graph.col(z_curr, j) + incr for j, incr in enumerate(incrs)])


def _quad_form(v, w: Array):
    """sum_i w_i v_i^2 for a (1, n) Var v and a weight vector."""
    return graph.sum_all(graph.dot_rows(graph.mul(v, w), v))


def _add_bound_penalty(term, x, cfg: MpcConfig):
    """term plus the weighted soft state-box violation of the (1, nx) Var x."""
    if cfg.x_max is not None:
        term = term + graph.scale(
            _quad_form(graph.relu(x - cfg.x_max[None, :]), np.ones(cfg.nx)),
            cfg.state_weight,
        )
    if cfg.x_min is not None:
        term = term + graph.scale(
            _quad_form(graph.relu(-(x - cfg.x_min[None, :])), np.ones(cfg.nx)),
            cfg.state_weight,
        )
    return term


def _cost_and_grad(model, U: Array, x0: Array, z_prev: Array, cfg: MpcConfig):
    """(cost, d cost / dU) via the reverse-mode graph; (inf, None) on blowup."""
    tape = nn.NetTape(model.nets)
    u_vars = [graph.Var(U[k : k + 1]) for k in range(cfg.horizon)]
    x = graph.constant(x0[None, :])
    zp = graph.constant(z_prev[None, :])
    x_ref = cfg.x_ref[None, :]
    total = None
    with np.errstate(all="ignore"):
        for k in range(cfg.horizon):
            term = _quad_form(x - x_ref, cfg.q_diag) + _quad_form(
                u_vars[k], cfg.r_diag
            )
            term = _add_bound_penalty(term, x, cfg)
            total = term if total is None else total + term
            zc = graph.concat_last([x, u_vars[k]])
            x = _predict_graph(tape, model, zc, zp)
            zp = zc
        total = total + _add_bound_penalty(_quad_form(x - x_ref, cfg.p_diag), x, cfg)
        val = float(total.value)
        if not np.isfinite(val):
            return float("inf"), None
        graph.backward(total)
    G = np.zeros_like(U)
    for k, uv in enumerate(u_vars):
        if uv.grad is not None:
            G[k] = uv.grad[0]
    if not np.all(np.isfinite(G)):
        return val, None
    return val, G


@dataclass
class SolveResult:
    """Best input sequence found, its cost, and how the solve ended."""

    u_seq: Array
    cost: float
    converged: bool
    iterations: int


def solve_horizon(model, x0, z_prev, cfg: MpcConfig, u_init=None) -> SolveResult:
    """Minimize the horizon cost over box-feasible input sequences.

    Projected gradient with a backtracking (Armijo) line search; every
    iterate is clipped into [u_min, u_max], so the returned sequence is
    feasible by construction. Returns the best iterate seen. `converged`
    is False only when the iteration budget ran out while the solution was
    still moving more than `tol` per step.
    """
    _check_dims(model, cfg)
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    z_prev = np.asarray(z_prev, dtype=np.float64).reshape(-1)
    if u_init is None:
        U = np.tile(0.5 * (cfg.u_min + cfg.u_max), (cfg.horizon, 1))
    else:
        U = _u_matrix(u_init, cfg).copy()
    U = np.clip(U, cfg.u_min, cfg.u_max)
    best_U, best_cost = U.copy(), horizon_cost(model, U, x0, z_prev, cfg)
    converged = False
    step = 0.5 * cfg.step_size  # trials open at twice the last accepted step
    prev = None
    it = 0
    for it in range(1, cfg.iterations + 1):
        cost, G = _cost_and_grad(model, U, x0, z_prev, cfg)
        if G is None:
            break  # nothing to descend along; keep the best iterate
        trial = step * 2.0
        if prev is not None:
            # spectral (Barzilai-Borwein) trial step: curvature along the
            # last move; backtracking below keeps descent monotone
            s = (U - prev[0]).ravel()
            y = (G - prev[1]).ravel()
            sy = float(s @ y)
            if sy > 0.0:
                trial = min(max(float(s @ s) / sy, 1e-12), 1e12)
        prev = (U.copy(), G)
        moved = None
        for _ in range(MAX_BACKTRACKS):
            U_new = np.clip(U - trial * G, cfg.u_min, cfg.u_max)
            delta = U_new - U
            c_new = horizon_cost(model, U_new, x0, z_prev, cfg)
            if c_new <= cost - (ARMIJO_SIGMA / trial) * float(np.sum(delta * delta)):
                moved = (U_new, c_new, trial)
                break
            trial *= 0.5
        if moved is None:
            converged = True  # line search can no longer improve: stationary
            break
        U, cost, step = moved
        if cost < best_cost:
            best_cost, best_U = cost, U.copy()
        if np.max(np.abs(delta)) < cfg.tol:
            converged = True
            break
    return SolveResult(best_U, best_cost, converged, it)


@dataclass
class ClosedLoopTrace:
    """Per control step: measured state, applied input, solver outcome."""

    t: Array
    x: Array  # (steps, nx) measured
    u: Array  # (steps, nu) applied
    cost: Array
    converged: Array  # bool per step
    solve_time: Array  # seconds per solve

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.u = np.atleast_2d(np.asarray(self.u, dtype=np.float64))
        self.cost = np.asarray(self.cost, dtype=np.float64)
        self.converged = np.asarray(self.converged, dtype=bool)
        self.solve_time = np.asarray(self.solve_time, dtype=np.float64)
        n = len(self.t)
        if not (
            self.x.shape[0] == self.u.shape[0] == len(self.cost)
            == len(self.converged) == len(self.solve_time) == n
        ):
            raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.t)

    def save_csv(self, path) -> None:
        nx, nu = self.x.shape[1], self.u.shape[1]
        header = (
            ["t"]
            + [f"T{i + 1}" for i in range(nx)]
            + [f"Q{j + 1}" for j in range(nu)]
            + ["cost", "converged"]
        )
        lines = [",".join(header)]
        for k in range(len(self)):
            row = [repr(float(self.t[k]))]
            row += [repr(float(v)) for v in self.x[k]]
            row += [repr(float(v)) for v in self.u[k]]
            row += [repr(float(self.cost[k])), str(int(self.converged[k]))]
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def run_closed_loop(plant, model, cfg: MpcConfig, steps: int) -> ClosedLoopTrace:
    """Drive the plant with receding-horizon solves of the model.

    Each step solves the horizon problem from the measured state, applies
    only the first input to the plant, and shifts the expansion history.
    The model needs a previous sample before the first solve, so the loop
    is seeded with one zero-input plant step from cfg.x0. A solver fault
    (non-finite cost or a FloatingPointError) falls back to holding the
    last applied input, flagged non-converged in the trace. Any other
    exception is a bug, not a fault, and propagates.
    """
    _check_dims(model, cfg)
    if cfg.x0 is None:
        raise ValueError("closed loop needs cfg.x0 (initial plant state)")
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u_quiet = np.zeros(cfg.nu)
    z_prev = np.concatenate([cfg.x0, u_quiet])
    x_meas = np.asarray(plant.step(cfg.x0, u_quiet), dtype=np.float64)
    u_held = np.clip(u_quiet, cfg.u_min, cfg.u_max)
    warm = None
    t = np.arange(steps, dtype=np.float64) * plant.dt
    xs = np.empty((steps, cfg.nx))
    us = np.empty((steps, cfg.nu))
    costs = np.empty(steps)
    flags = np.empty(steps, dtype=bool)
    times = np.empty(steps)
    for k in range(steps):
        t0 = time.perf_counter()
        try:
            res = solve_horizon(model, x_meas, z_prev, cfg, u_init=warm)
            fault = not np.isfinite(res.cost)
        except FloatingPointError:
            res, fault = None, True
        times[k] = time.perf_counter() - t0
        if fault:
            u_apply = u_held
            costs[k] = float("inf")
            flags[k] = False
        else:
            u_apply = res.u_seq[0]
            costs[k] = res.cost
            flags[k] = res.converged
            warm = np.vstack([res.u_seq[1:], res.u_seq[-1:]])
        xs[k] = x_meas
        us[k] = u_apply
        z_prev = np.concatenate([x_meas, u_apply])
        x_meas = np.asarray(plant.step(x_meas, u_apply), dtype=np.float64)
        u_held = u_apply
    return ClosedLoopTrace(t, xs, us, costs, flags, times)
