"""Receding-horizon control by projected Gauss-Newton through the predictor.

The learned model plays the role of the plant constraint: a candidate input
sequence is rolled through the numpy predictor feeding predicted states back,
and the quadratic tracking cost is read off the predicted trajectory. One
batched reverse-mode graph of the Taylor step yields the step Jacobians of
every recorded pair at once, for every model kind. A forward recursion over
them gives the sensitivities S_k = dx_k/dU of the predicted states to the
whole input sequence, including the path through the expansion point
z_prev. They give the exact gradient and the Gauss-Newton matrix, which a
projected Newton method for box constraints (Bertsekas, SIAM J. Control
Optim. 1982) uses: Newton steps on the free inputs, scaled gradient steps on
the active ones, and Armijo backtracking along the projection arc. Each
trial is rolled out once; the trajectory that priced an accepted trial is
the one the next gradient differentiates, so no rollout is repeated. Input
boxes are handled by projection (so feasibility is exact), state boxes by a
soft quadratic penalty, since hard state constraints under a learned model
are easily infeasible. A solve ends when a step moves every input by less
than `tol`, or when a full step stops lowering the cost by more than a
DECREASE_RTOL share of its controllable part, whichever comes first.

The stage cost keeps the k = 0 state term even though the current state is
not controllable; it is a constant offset that leaves the argmin alone, and
the decrease rule measures against the cost without it.
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
ACTIVE_EPS = 1e-3  # widest active-set margin, as a fraction of the input box
DECREASE_RTOL = 1e-9  # a full step that lowers the cost by less ends the solve


def _vector(v, name: str, size: int | None = None, allow_inf: bool = False) -> Array:
    """v as a float vector of the given length; NaN is never allowed, and
    infinities only with allow_inf."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if size is not None and v.shape != (size,):
        raise ValueError(f"{name} must have length {size}")
    if np.isnan(v).any() or not (allow_inf or np.isfinite(v).all()):
        raise ValueError(f"{name} must be {'free of NaN' if allow_inf else 'finite'}")
    return v


def _weights(w, size: int, name: str) -> Array:
    """Nonnegative finite weights; a scalar is broadcast to the size."""
    w = _vector(np.full(size, w, dtype=np.float64) if np.ndim(w) == 0 else w, name, size)
    if np.any(w < 0):
        raise ValueError(f"{name} entries must be nonnegative")
    return w


@dataclass
class MpcConfig:
    """Tracking-cost weights, box bounds, and solver knobs.

    Q, R, P are diagonal, given as their diagonals (scalars broadcast).
    x_min/x_max are optional soft state bounds with quadratic weight
    `state_weight` (an infinite bound leaves that side free); x0 is the
    closed-loop initial state. `iterations` caps the solver's iterations
    and `tol` ends a solve whose last step moved every input by less. A
    solve also ends, with no knob of its own, at a full step that lowered
    the cost by at most DECREASE_RTOL times its controllable part (see
    `solve_horizon`). Everything else must be finite.
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
    tol: float = 1e-6

    def __post_init__(self):
        self.x_ref = _vector(self.x_ref, "x_ref")
        self.u_min = _vector(self.u_min, "u_min")
        self.u_max = _vector(self.u_max, "u_max", self.nu)
        if np.any(self.u_min > self.u_max):
            raise ValueError("need u_min <= u_max elementwise")
        for name in ("horizon", "iterations"):
            n = _vector(getattr(self, name), name, 1)[0]
            if n < 1 or n != int(n):
                raise ValueError(f"{name} must be an integer >= 1")
            setattr(self, name, int(n))
        self.q_diag = _weights(self.q_diag, self.nx, "q_diag")
        self.r_diag = _weights(self.r_diag, self.nu, "r_diag")
        self.p_diag = _weights(self.p_diag, self.nx, "p_diag")
        for name in ("x_min", "x_max", "x0"):
            if getattr(self, name) is not None:
                v = _vector(getattr(self, name), name, self.nx, allow_inf=name != "x0")
                setattr(self, name, v)
        if self.x_min is not None and self.x_max is not None and np.any(self.x_min > self.x_max):
            raise ValueError("need x_min <= x_max elementwise")
        self.state_weight = float(_weights(self.state_weight, 1, "state_weight")[0])
        self.tol = float(_vector(self.tol, "tol", 1)[0])
        if self.tol <= 0:
            raise ValueError("tol must be positive")

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


def _excess(X: Array, cfg: MpcConfig) -> Array:
    """Signed soft-box excess of states X: + above x_max, - below x_min."""
    v = np.zeros_like(X)
    if cfg.x_max is not None:
        v += np.maximum(X - cfg.x_max, 0.0)
    if cfg.x_min is not None:
        v -= np.maximum(cfg.x_min - X, 0.0)
    return v


def _buffers(cfg: MpcConfig) -> tuple:
    """A fresh (X, Z) pair shaped for one rollout: (H+1, nx) and (H+1, N)."""
    return np.empty((cfg.horizon + 1, cfg.nx)), np.empty((cfg.horizon + 1, cfg.nx + cfg.nu))


def _rollout(model, U: Array, x0: Array, z_prev: Array, cfg: MpcConfig, out=None):
    """(cost, X, Z) of the input sequence U: states X (H+1, nx) and pairs
    Z (H+1, N), Z[0] = z_prev and Z[k+1] = [x_k; u_k], so that
    x_{k+1} = predict(Z[k+1], Z[k]). X and Z are written into `out` when
    given, else into a fresh `_buffers` pair. A rollout that leaves the
    finite range prices as inf, and X is then filled only up to the first
    bad state.
    """
    H, nx = cfg.horizon, cfg.nx
    X, Z = _buffers(cfg) if out is None else out
    X[0], Z[0], Z[1:, nx:] = x0, z_prev, U
    with np.errstate(all="ignore"):
        for k in range(H):
            if not np.isfinite(X[k]).all():
                return float("inf"), X, Z
            Z[k + 1, :nx] = X[k]
            X[k + 1] = md.predict(model, Z[k + 1], Z[k])
        if not np.isfinite(X[H]).all():
            return float("inf"), X, Z
        E = X - cfg.x_ref
        cost = float(np.sum(E[:H] * E[:H] * cfg.q_diag) + np.sum(U * U * cfg.r_diag)
                     + E[H] @ (cfg.p_diag * E[H])
                     + cfg.state_weight * np.sum(_excess(X, cfg) ** 2))
    return (cost if np.isfinite(cost) else float("inf")), X, Z


def horizon_cost(model, u_seq, x0, z_prev, cfg: MpcConfig, *, out=None) -> float:
    """Quadratic tracking cost of one input sequence under the model.

    Rolls the predictor horizon steps forward feeding predicted states back,
    accumulating ||x - x_ref||_Q^2 + ||u||_R^2 per stage plus the terminal
    ||x - x_ref||_P^2; soft state-bound violations are added at every stage
    and the terminal. A rollout that leaves the finite range prices as inf.

    `out`, as in numpy, is an optional pair of preallocated float64 arrays
    shaped (H+1, nx) and (H+1, N) that receive the predicted states X and
    the pairs Z of the rollout (see `_rollout`), so that `_cost_and_grad`
    can differentiate the trajectory this call priced without rolling it
    out again. The return value is the cost either way.
    """
    _check_dims(model, cfg)
    U = _u_matrix(u_seq, cfg)
    x0, zp = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (x0, z_prev))
    if x0.shape != (cfg.nx,) or zp.shape != (cfg.nx + cfg.nu,):
        raise ValueError(f"x0 and z_prev must have lengths {cfg.nx} and {cfg.nx + cfg.nu}")
    if out is not None:
        shapes = ((cfg.horizon + 1, cfg.nx), (cfg.horizon + 1, cfg.nx + cfg.nu))
        if len(out) != 2 or not all(isinstance(a, np.ndarray) and a.dtype == np.float64
                                    and a.shape == s for a, s in zip(out, shapes)):
            raise ValueError(f"out must be a pair of float64 arrays shaped {shapes[0]} "
                             f"and {shapes[1]}")
    return _rollout(model, U, x0, zp, cfg, out)[0]


def _predict_graph(tape: nn.NetTape, model, x, z_curr, z_prev):
    """Graph twin of md.predict_batch on (B, N) Vars; x is the state part of
    z_curr, and gradients flow into all three.

    The Taylor step itself is `md.taylor_increments`.
    """
    if isinstance(model, BaselineModel):
        return graph.reshape(tape.forward(z_curr), x.shape)
    incr, _, _ = md.taylor_increments(tape, model, z_curr, z_prev)
    return x + graph.moveaxis(incr, -1, -2)


def _step_jacobians(model, cfg: MpcConfig):
    """A function Z -> (d x_hat_k / d z_curr_k, d x_hat_k / d z_prev_k) of
    every step x_hat_k = predict(Z[k+1], Z[k]), with z_curr_k = [x_k; u_k]:
    two (H, nx, N) arrays.

    One graph: each pair is repeated nx times and batch row (k, i) picks
    output i, so one backward leaves row i of step k's Jacobians on the
    inputs. The first call builds the graph; later calls set the pairs of
    their Z on its input leaves and replay it, which gives bit for bit what
    a fresh build gives. A baseline has no z_prev path; that Jacobian is
    zero.
    """
    H, nx, N = cfg.horizon, cfg.nx, cfg.nx + cfg.nu
    built = None

    def jacobians(Z: Array):
        nonlocal built
        pairs = np.repeat(Z, nx, axis=0)
        inputs = (pairs[nx:, :nx], pairs[nx:, nx:], pairs[:-nx])
        if built is None:
            x, u, zp = (graph.Var(a) for a in inputs)
            x_hat = _predict_graph(nn.NetTape(model.net), model, x,
                                   graph.concat_last([x, u]), zp)
            root = graph.sum_all(graph.mul(x_hat, np.tile(np.eye(nx), (H, 1))))
            built = (x, u, zp), root, graph.topological_order(root)
        else:
            for leaf, a in zip(built[0], inputs):
                leaf.value = a
            graph.replay(built[2])
        (x, u, zp), root, order = built
        graph.backward(root, order)
        Jp = np.zeros((H, nx, N)) if zp.grad is None else zp.grad.reshape(H, nx, N)
        return np.concatenate([x.grad, u.grad], axis=1).reshape(H, nx, N), Jp

    return jacobians


def _cost_and_grad(U: Array, priced: tuple, cfg: MpcConfig, jacobians):
    """(d cost / dU, Gauss-Newton matrix) of U; (None, None) on blowup.
    The gradient has U's shape; the matrix is (H nu, H nu) over the inputs
    flattened stage by stage.

    `priced` is the (cost, X, Z) of U's rollout, as `horizon_cost` priced it
    with `out=(X, Z)`; nothing is rolled out here. A non-finite cost has no
    derivatives. `jacobians` is the solve's `_step_jacobians` function,
    whose graph is built once per solve.

    One forward recursion over the step Jacobians gives the sensitivities
    S_k = d x_k / dU. With D_k = d Z_k / dU (D_0 = 0, since Z_0 = z_prev is
    fixed, and D_{k+1} = [S_k; E_k], E_k picking u_k out of U):

        S_{k+1} = dx_hat_k/dz_curr D_{k+1} + dx_hat_k/dz_prev D_k

    With W_k = Q (P at the terminal), e the tracking error, v the signed
    soft-box excess and w the state weight,

        grad = sum_k 2 S_k' (W_k e_k + w v_k) + 2 R U
        B    = sum_k 2 S_k' (W_k + w [v_k != 0]) S_k + 2 R
    """
    cost, X, Z = priced
    if not np.isfinite(cost):
        return None, None
    H, nx, nu = cfg.horizon, cfg.nx, cfg.nu
    with np.errstate(all="ignore"):
        Jc, Jp = jacobians(Z)
        S = np.zeros((H + 1, nx, H * nu))
        D_prev = np.zeros((nx + nu, H * nu))
        for k in range(H):
            D = np.zeros_like(D_prev)
            D[:nx] = S[k]
            D[nx:, k * nu:(k + 1) * nu] = np.eye(nu)
            S[k + 1] = Jc[k] @ D + Jp[k] @ D_prev
            D_prev = D
        W = np.vstack([np.tile(cfg.q_diag, (H, 1)), cfg.p_diag])
        V = _excess(X, cfg)
        r = W * (X - cfg.x_ref) + cfg.state_weight * V
        S2 = S.reshape((H + 1) * nx, H * nu)
        r_diag = np.tile(cfg.r_diag, H)
        G = 2.0 * (S2.T @ r.reshape(-1) + r_diag * U.reshape(-1))
        curv = (W + cfg.state_weight * (V != 0.0)).reshape(-1, 1)
        B = 2.0 * (S2.T @ (curv * S2) + np.diag(r_diag))
    if not (np.isfinite(G).all() and np.isfinite(B).all()):
        return None, None
    return G.reshape(U.shape), B


def _projected_newton_direction(u: Array, g: Array, B: Array, lo: Array, hi: Array):
    """Bertsekas's projected Newton direction d (the step is u - alpha d).

    An input within eps of a bound whose gradient points out of the box is
    active; eps = min(ACTIVE_EPS (hi - lo), w), where w is the size of the
    diagonally scaled projected gradient, so the rule tightens as the solve
    converges. Active inputs take a gradient step scaled by the inverse
    diagonal of B; the free ones a Newton step on B restricted to them.
    """
    diag = np.diag(B)
    # a rank-deficient B (no input weight, more inputs than states) stays solvable
    ridge = max(1e-12 * float(diag.max()), np.finfo(float).tiny)
    scale = 1.0 / (diag + ridge)
    w = float(np.linalg.norm(u - np.clip(u - scale * g, lo, hi)))
    eps = np.minimum(ACTIVE_EPS * (hi - lo), w)
    active = ((u <= lo + eps) & (g > 0.0)) | ((u >= hi - eps) & (g < 0.0))
    d = scale * g
    free = ~active
    if free.any():
        Bf = B[np.ix_(free, free)] + ridge * np.eye(int(free.sum()))
        d[free] = np.linalg.solve(Bf, g[free])
    return d


@dataclass
class SolveResult:
    """Best input sequence found, its cost, and how the solve ended.

    `exit` is "tolerance" (the last step moved less than tol), "decrease"
    (a full step lowered the cost by at most DECREASE_RTOL times its
    controllable part), "stationary" (the line search found no decrease),
    "budget" (the iterations ran out) or "nonfinite" (the cost or its
    derivatives left the finite range). The first three count as converged.
    `backtracks` counts rejected line-search trials and `full_steps` the
    iterations that accepted the full (alpha = 1) step.
    """

    u_seq: Array
    cost: float
    iterations: int
    exit: str
    backtracks: int
    full_steps: int

    @property
    def converged(self) -> bool:
        return self.exit in ("tolerance", "decrease", "stationary")


def solve_horizon(model, x0, z_prev, cfg: MpcConfig, u_init=None) -> SolveResult:
    """Minimize the horizon cost over box-feasible input sequences.

    Projected Gauss-Newton (Bertsekas's projected Newton method for simple
    bounds): each iteration takes the gradient and Gauss-Newton matrix from
    one `_cost_and_grad` call, builds the projected Newton direction, and
    backtracks along the projection arc U(alpha) = clip(U - alpha d) from
    alpha = 1 until the Armijo test
    cost(U(alpha)) <= cost + ARMIJO_SIGMA * min(g . (U(alpha) - U), 0)
    holds, pricing each trial with `horizon_cost`. One rollout per trial;
    the gradient reuses the accepted one: the start and every trial are
    priced into one of two (X, Z) buffer pairs, and an accepted trial's pair
    becomes the current one that the next `_cost_and_grad` differentiates.
    The solve owns one step-Jacobian graph (`_step_jacobians`): the first
    `_cost_and_grad` builds it, and each later one sets the current pairs
    on its input leaves and replays it.

    Two rules end a converging solve, tested in this order: "tolerance",
    when the accepted step moved every input by less than `tol`, and
    "decrease", when the iteration accepted the full step (alpha = 1) and
    that lowered the cost by at most DECREASE_RTOL (c_new - c_0). c_0 is the
    k = 0 state term (q e_0^2 plus the soft-box term of x0), which no input
    can change, so the rule is equally strict however far x0 starts from
    x_ref. Near the optimum the Gauss-Newton matrix, which leaves out the
    curvature of the path through z_prev, converges only linearly: without
    the second rule the last iterations still move the inputs by more than
    `tol` while the cost no longer changes. A backtracked step never ends a
    solve this way, since a small alpha alone makes a small decrease.

    Every iterate is clipped into [u_min, u_max], so the returned sequence
    is feasible by construction. Returns the best iterate seen and how the
    solve ended (see `SolveResult`).
    """
    _check_dims(model, cfg)
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    z_prev = np.asarray(z_prev, dtype=np.float64).reshape(-1)
    if u_init is None:
        U = np.tile(0.5 * (cfg.u_min + cfg.u_max), (cfg.horizon, 1))
    else:
        U = _u_matrix(u_init, cfg).copy()
    U = np.clip(U, cfg.u_min, cfg.u_max)
    lo, hi = np.tile(cfg.u_min, cfg.horizon), np.tile(cfg.u_max, cfg.horizon)
    current, trial = _buffers(cfg), _buffers(cfg)
    cost = horizon_cost(model, U, x0, z_prev, cfg, out=current)
    e0 = x0 - cfg.x_ref
    c0 = float(e0 @ (cfg.q_diag * e0) + cfg.state_weight * np.sum(_excess(x0, cfg) ** 2))
    best_U, best_cost = U.copy(), cost
    jacobians = _step_jacobians(model, cfg)
    exit, it, backtracks, full_steps = "budget", 0, 0, 0
    for it in range(1, cfg.iterations + 1):
        G, B = _cost_and_grad(U, (cost, *current), cfg, jacobians)
        if G is None:
            exit = "nonfinite"
            break  # nothing to descend along; keep the best iterate
        with np.errstate(all="ignore"):
            d = _projected_newton_direction(U.reshape(-1), G.reshape(-1), B, lo, hi)
        d = d.reshape(U.shape)
        alpha, moved = 1.0, None
        for _ in range(MAX_BACKTRACKS):
            U_new = np.clip(U - alpha * d, cfg.u_min, cfg.u_max)
            delta = U_new - U
            c_new = horizon_cost(model, U_new, x0, z_prev, cfg, out=trial)
            if c_new <= cost + ARMIJO_SIGMA * min(float(np.sum(G * delta)), 0.0):
                moved = (U_new, c_new)
                break
            backtracks += 1
            alpha *= 0.5
        if moved is None:
            exit = "stationary"  # line search can no longer improve
            break
        full_steps += alpha == 1.0
        decrease = cost - moved[1]
        U, cost = moved
        current, trial = trial, current
        if cost < best_cost:
            best_cost, best_U = cost, U.copy()
        if np.max(np.abs(delta)) < cfg.tol:
            exit = "tolerance"
            break
        if alpha == 1.0 and decrease <= DECREASE_RTOL * (cost - c0):
            exit = "decrease"
            break
    return SolveResult(best_U, best_cost, it, exit, backtracks, full_steps)


@dataclass
class ClosedLoopTrace:
    """Per control step: measured state, applied input, solver outcome.

    `iterations` and `exit` come from the step's `SolveResult` ("tolerance",
    "decrease", "stationary", "budget" or "nonfinite"); a solve that
    raised FloatingPointError records exit "floating_point_error" and 0
    iterations. `solve_time` is wall clock, so it stays out of the CSV.
    """

    t: Array
    x: Array  # (steps, nx) measured
    u: Array  # (steps, nu) applied
    cost: Array
    converged: Array  # bool per step
    iterations: Array  # solver iterations per step
    exit: Array  # solver exit reason per step
    solve_time: Array  # seconds per solve

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.u = np.atleast_2d(np.asarray(self.u, dtype=np.float64))
        self.cost = np.asarray(self.cost, dtype=np.float64)
        self.converged = np.asarray(self.converged, dtype=bool)
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        self.exit = np.asarray(self.exit, dtype=str)
        self.solve_time = np.asarray(self.solve_time, dtype=np.float64)
        columns = (self.x, self.u, self.cost, self.converged, self.iterations, self.exit,
                   self.solve_time)
        if any(len(c) != len(self.t) for c in columns):
            raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.t)

    def save_csv(self, path) -> None:
        nx, nu = self.x.shape[1], self.u.shape[1]
        header = ["t", *(f"T{i + 1}" for i in range(nx)),
                  *(f"Q{j + 1}" for j in range(nu)), "cost", "converged", "iterations", "exit"]
        lines = [",".join(header)]
        for k in range(len(self)):
            nums = [self.t[k], *self.x[k], *self.u[k], self.cost[k]]
            tail = [str(int(self.converged[k])), str(int(self.iterations[k])), str(self.exit[k])]
            lines.append(",".join([repr(float(v)) for v in nums] + tail))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def run_closed_loop(plant, model, cfg: MpcConfig, steps: int) -> ClosedLoopTrace:
    """Drive the plant with receding-horizon solves of the model.

    Each step solves the horizon problem from the measured state, applies
    only the first input to the plant, and shifts the expansion history.
    The model needs a previous sample before the first solve, so the loop
    is seeded with one zero-input plant step from cfg.x0. Before that, the
    plant is stepped from cfg.x0 at u_min and at u_max, so an input box the
    plant rejects fails up front with a ValueError. A solver fault
    (non-finite cost or a FloatingPointError) falls back to holding the
    last applied input, flagged non-converged in the trace with its reason
    as the exit ("nonfinite" or "floating_point_error"). Any other
    exception is a bug, not a fault, and propagates.
    """
    _check_dims(model, cfg)
    if cfg.x0 is None:
        raise ValueError("closed loop needs cfg.x0 (initial plant state)")
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    for corner in (cfg.u_min, cfg.u_max):
        try:
            plant.step(cfg.x0, corner)
        except ValueError as e:
            raise ValueError(
                f"input box u_min={cfg.u_min.tolist()}, u_max={cfg.u_max.tolist()} "
                f"is outside what the plant accepts: {e}"
            ) from None
    u_quiet = np.zeros(cfg.nu)
    z_prev = np.concatenate([cfg.x0, u_quiet])
    x_meas = np.asarray(plant.step(cfg.x0, u_quiet), dtype=np.float64)
    u_held = np.clip(u_quiet, cfg.u_min, cfg.u_max)
    warm = None
    t = np.arange(steps, dtype=np.float64) * plant.dt
    xs, us = np.empty((steps, cfg.nx)), np.empty((steps, cfg.nu))
    costs, flags, times = np.empty(steps), np.empty(steps, dtype=bool), np.empty(steps)
    iters, exits = np.zeros(steps, dtype=np.int64), []
    for k in range(steps):
        t0 = time.perf_counter()
        try:
            res = solve_horizon(model, x_meas, z_prev, cfg, u_init=warm)
            fault = not np.isfinite(res.cost)
            iters[k] = res.iterations
            exits.append(res.exit)
        except FloatingPointError:
            res, fault = None, True
            exits.append("floating_point_error")
        times[k] = time.perf_counter() - t0
        if fault:
            u_apply, costs[k], flags[k] = u_held, float("inf"), False
        else:
            u_apply, costs[k], flags[k] = res.u_seq[0], res.cost, res.converged
            warm = np.vstack([res.u_seq[1:], res.u_seq[-1:]])
        xs[k], us[k] = x_meas, u_apply
        z_prev = np.concatenate([x_meas, u_apply])
        x_meas = np.asarray(plant.step(x_meas, u_apply), dtype=np.float64)
        u_held = u_apply
    return ClosedLoopTrace(t, xs, us, costs, flags, iters, exits, times)
