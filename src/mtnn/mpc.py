"""Receding-horizon control by projected Gauss-Newton through the predictor.

The learned model plays the role of the plant constraint: a candidate input
sequence U is rolled through the numpy predictor feeding predicted states
back, and the quadratic tracking cost is read off the predicted trajectory.
Input boxes are handled by projection (so feasibility is exact), state boxes
by a soft quadratic penalty, since hard state constraints under a learned
model are easily infeasible. The stage cost keeps the k = 0 state term even
though the current state is not controllable; it is a constant offset that
leaves the argmin alone.

Step Jacobians. One batched reverse-mode graph on two leaves, z_curr and
z_prev, yields d x_hat_k / d z_curr_k and d x_hat_k / d z_prev_k of every
pair of a rollout at once: each pair is repeated nx times and batch row
(k, i) picks output i, so one backward leaves row i of step k's Jacobians
on the leaves. Of a Taylor model's x_hat = x + increment it differentiates
only the increment (the root sums the picked increments of
`model.taylor_increments`), and the identity is added to the state columns
after the backward; a baseline's root sums its picked net outputs, and its
z_prev Jacobian is zero. The graph is recorded on a frozen `NetTape`, so a
backward computes no parameter gradient. A closed loop builds it once, with
the constants its solves share, and replays it on each rollout's pairs,
which gives bit for bit what a fresh build gives.

Sensitivities. A forward recursion over the step Jacobians gives
S_k = d x_k / dU, including the path through the expansion point z_prev.
With D_k = d Z_k / dU (D_0 = 0, since Z_0 = z_prev is fixed, and
D_{k+1} = [S_k; E_k], E_k picking u_k out of U):

    S_{k+1} = dx_hat_k/dz_curr D_{k+1} + dx_hat_k/dz_prev D_k

With W_k = Q (P at the terminal), e the tracking error, v the signed
soft-box excess and w the state weight, the exact gradient and the
Gauss-Newton matrix are

    grad = sum_k 2 S_k' (W_k e_k + w v_k) + 2 R U
    B    = sum_k 2 S_k' (W_k + w [v_k != 0]) S_k + 2 R

Solver. A projected Newton method for box constraints (Bertsekas, SIAM J.
Control Optim. 1982): Newton steps on B restricted to the free inputs,
scaled gradient steps on the active ones, and Armijo backtracking along the
projection arc U(alpha) = clip(U - alpha d) from alpha = 1 until
cost(U(alpha)) <= cost + ARMIJO_SIGMA * min(grad . (U(alpha) - U), 0).
Each trial is rolled out once, into one of two (X, Z) buffer pairs; an
accepted trial's pair becomes the current one, which the next gradient
differentiates, so no rollout is repeated.

Two rules end a converging solve, tested in this order: "tolerance", when
the accepted step moved every input by less than `tol`, and "decrease",
when the iteration accepted the full step (alpha = 1) and that lowered the
cost by at most DECREASE_RTOL (c_new - c_0). c_0 is the k = 0 state term
(q e_0^2 plus the soft-box term of x0), which no input can change, so the
rule is equally strict however far x0 starts from x_ref. Near the optimum
the Gauss-Newton matrix, which leaves out the curvature of the path
through z_prev, converges only linearly: without the second rule the last
iterations still move the inputs by more than `tol` while the cost no
longer changes. A backtracked step never ends a solve this way, since a
small alpha alone makes a small decrease.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import graph
from . import model as md
from . import net as nn
from .model import BaselineModel
from .plants import integer, reals, write_csv

Array = np.ndarray

ARMIJO_SIGMA = 1e-4
MAX_BACKTRACKS = 40
ACTIVE_EPS = 1e-3  # widest active-set margin, as a fraction of the input box
DECREASE_RTOL = 1e-9  # a full step that lowers the cost by less ends the solve
CONVERGED_EXITS = ("tolerance", "decrease", "stationary")


def _weights(w, size: int, name: str) -> Array:
    """Nonnegative weights under `plants.reals`; a scalar is broadcast to the size."""
    w = reals(w, name, size) if np.iterable(w) else np.full(size, reals(w, name))
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
    `solve_horizon`). `horizon` and `iterations` are integers >= 1 under
    `plants.integer`; every other field is a number or a vector of numbers
    under `plants.reals`, finite but for the state bounds' infinities.
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
        self._check(lambda name: name)

    def _check(self, key):
        """Check and convert every field in place; an error names field f as
        key(f)."""
        self.x_ref = reals(self.x_ref, key("x_ref")).reshape(-1)
        self.u_min = reals(self.u_min, key("u_min")).reshape(-1)
        self.u_max = reals(self.u_max, key("u_max"), self.nu)
        if np.any(self.u_min > self.u_max):
            raise ValueError(f"need {key('u_min')} <= {key('u_max')} elementwise")
        self.horizon = integer(self.horizon, key("horizon"), 1)
        self.iterations = integer(self.iterations, key("iterations"), 1)
        self.q_diag = _weights(self.q_diag, self.nx, key("q_diag"))
        self.r_diag = _weights(self.r_diag, self.nu, key("r_diag"))
        self.p_diag = _weights(self.p_diag, self.nx, key("p_diag"))
        for name in ("x_min", "x_max", "x0"):
            if getattr(self, name) is not None:
                v = reals(getattr(self, name), key(name), self.nx, allow_inf=name != "x0")
                setattr(self, name, v)
        if self.x_min is not None and self.x_max is not None and np.any(self.x_min > self.x_max):
            raise ValueError(f"need {key('x_min')} <= {key('x_max')} elementwise")
        self.state_weight = float(_weights(self.state_weight, 1, key("state_weight"))[0])
        self.tol = float(reals(self.tol, key("tol"), 1)[0])
        if self.tol <= 0:
            raise ValueError(f"{key('tol')} must be positive")

    @property
    def nx(self) -> int:
        return len(self.x_ref)

    @property
    def nu(self) -> int:
        return len(self.u_min)

    @classmethod
    def from_dict(cls, d: dict) -> "MpcConfig":
        """The config of an `mpc` config section: each field from d, or its
        default. An error names a field by its config key, `mpc.<field>`."""
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown mpc config keys: {sorted(unknown)}")
        cfg = cls.__new__(cls)  # __init__ would check the fields under their bare names
        for f in fields(cls):
            if f.name not in d and f.default is MISSING:
                raise ValueError(f"mpc.{f.name} is required")
            setattr(cfg, f.name, d.get(f.name, f.default))
        cfg._check(lambda name: f"mpc.{name}")
        return cfg


def _check_dims(model, cfg: MpcConfig):
    if model.nx != cfg.nx or model.nu != cfg.nu:
        raise ValueError(
            f"model is {model.nx} states / {model.nu} inputs, "
            f"config says {cfg.nx} / {cfg.nu}"
        )


def _u_matrix(u_seq, cfg: MpcConfig, name: str) -> Array:
    """An (H, nu) float64 input sequence; another shape, NaN or inf is a
    ValueError naming the argument."""
    U = np.asarray(u_seq, dtype=np.float64)
    if U.shape != (cfg.horizon, cfg.nu):
        raise ValueError(f"{name} must be ({cfg.horizon}, {cfg.nu}), got {U.shape}")
    if not np.isfinite(U).all():
        raise ValueError(f"{name} must be finite")
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
    U = _u_matrix(u_seq, cfg, "u_seq")
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


class _StepJacobians:
    """The step-Jacobian graph of one (model, cfg) and the constants a solve
    derives from cfg, built once per closed loop (or per standalone solve).

    Called on the pairs Z (H+1, N) of a rollout, it returns
    (d x_hat_k / d z_curr_k, d x_hat_k / d z_prev_k) of every step
    x_hat_k = predict(Z[k+1], Z[k]), with z_curr_k = [x_k; u_k]: two
    (H, nx, N) arrays. The first call builds the graph the module docstring
    describes; later calls replay it on their pairs.

    The constants: the stage weights W (H+1, nx), the tiled input weights
    r_diag (H nu,) and their diagonal matrix R, the tiled input box lo / hi
    with its active-set margin box_eps = ACTIVE_EPS (hi - lo), and the
    sensitivity buffers of `_cost_and_grad`. D (H+2, N, H nu) holds
    D[k] = d Z_k / dU for k <= H, whose input rows are the constant
    selectors E_{k-1}, and S = D[1:, :nx] (H+1, nx, H nu) is a view with
    S[k] = d x_k / dU, which the recursion writes in place; S[0] stays 0.
    """

    def __init__(self, model, cfg: MpcConfig):
        H, nx, nu = cfg.horizon, cfg.nx, cfg.nu
        self.model, self.cfg, self.built = model, cfg, None
        self.W = np.vstack([np.tile(cfg.q_diag, (H, 1)), cfg.p_diag])
        self.r_diag = np.tile(cfg.r_diag, H)
        self.R = np.diag(self.r_diag)
        self.lo, self.hi = np.tile(cfg.u_min, H), np.tile(cfg.u_max, H)
        self.box_eps = ACTIVE_EPS * (self.hi - self.lo)
        self.D = np.zeros((H + 2, nx + nu, H * nu))
        for k in range(H):
            self.D[k + 1, nx:, k * nu:(k + 1) * nu] = np.eye(nu)
        self.S = self.D[1:, :nx]
        self.no_prev_path = np.zeros((H, nx, nx + nu))

    def __call__(self, Z: Array):
        H, nx, N = self.cfg.horizon, self.cfg.nx, self.cfg.nx + self.cfg.nu
        pairs = np.repeat(Z, nx, axis=0)
        taylor = not isinstance(self.model, BaselineModel)
        if self.built is None:
            zc, zp = graph.Var(pairs[nx:]), graph.Var(pairs[:-nx])
            # (nx, H nx): batch column (k, i) picks output i
            tape, pick = nn.NetTape(self.model.net, frozen=True), np.tile(np.eye(nx), (1, H))
            if taylor:
                incr, _, _ = md.taylor_increments(tape, self.model, zc, zp)
                root = graph.sum_all(graph.mul(incr, pick))
            else:
                root = graph.sum_all(graph.mul(tape.forward(zc), pick))
            self.built = (zc, zp), root, graph.topological_order(root)
        else:
            (zc, zp), _, order = self.built
            zc.value, zp.value = pairs[nx:], pairs[:-nx]
            graph.replay(order)
        (zc, zp), root, order = self.built
        graph.backward(root, order)
        Jc = zc.grad.reshape(H, nx, N)
        if taylor:
            Jc[..., :nx] += np.eye(nx)
        Jp = self.no_prev_path if zp.grad is None else zp.grad.reshape(H, nx, N)
        return Jc, Jp


def _cost_and_grad(U: Array, priced: tuple, cfg: MpcConfig, jacobians: _StepJacobians):
    """(d cost / dU, Gauss-Newton matrix) of U; (None, None) on blowup.
    The gradient has U's shape; the matrix is (H nu, H nu) over the inputs
    flattened stage by stage.

    `priced` is the (cost, X, Z) of U's rollout, as `horizon_cost` priced it
    with `out=(X, Z)`; nothing is rolled out here. A non-finite cost has no
    derivatives. `jacobians` is the `_StepJacobians` of the solve's model
    and cfg: its graph gives the step Jacobians, and its constants and
    buffers serve the rest, so a call allocates no constant.
    """
    cost, X, Z = priced
    if not np.isfinite(cost):
        return None, None
    H, nx, nu = cfg.horizon, cfg.nx, cfg.nu
    S, D, W = jacobians.S, jacobians.D, jacobians.W
    with np.errstate(all="ignore"):
        Jc, Jp = jacobians(Z)
        for k in range(H):
            S[k + 1] = Jc[k] @ D[k + 1] + Jp[k] @ D[k]  # S[k + 1] is D[k + 2, :nx]
        V = _excess(X, cfg)
        r = W * (X - cfg.x_ref) + cfg.state_weight * V
        S2 = S.reshape((H + 1) * nx, H * nu)
        G = 2.0 * (S2.T @ r.reshape(-1) + jacobians.r_diag * U.reshape(-1))
        curv = (W + cfg.state_weight * (V != 0.0)).reshape(-1, 1)
        B = 2.0 * (S2.T @ (curv * S2) + jacobians.R)
    if not (np.isfinite(G).all() and np.isfinite(B).all()):
        return None, None
    return G.reshape(U.shape), B


_TINY = np.finfo(float).tiny


def _projected_newton_direction(u: Array, g: Array, B: Array, lo: Array, hi: Array,
                                box_eps: Array):
    """Bertsekas's projected Newton direction d (the step is u - alpha d).

    An input within eps of a bound whose gradient points out of the box is
    active; eps = min(box_eps, w), with box_eps = ACTIVE_EPS (hi - lo) and w
    the size of the diagonally scaled projected gradient, so the rule
    tightens as the solve converges. Active inputs take a gradient step
    scaled by the inverse diagonal of B; the free ones a Newton step on B
    restricted to them.
    """
    diag = B.diagonal()
    # a rank-deficient B (no input weight, more inputs than states) stays solvable
    ridge = max(1e-12 * float(diag.max()), _TINY)
    scale = 1.0 / (diag + ridge)
    w = float(np.linalg.norm(u - np.clip(u - scale * g, lo, hi)))
    eps = np.minimum(box_eps, w)
    active = ((u <= lo + eps) & (g > 0.0)) | ((u >= hi - eps) & (g < 0.0))
    d = scale * g
    free = ~active
    if free.any():
        Bf = B[free][:, free]
        Bf.flat[:: len(Bf) + 1] += ridge  # B + ridge I on the free block
        d[free] = np.linalg.solve(Bf, g[free])
    return d


@dataclass
class SolveResult:
    """Best input sequence found, its cost, and how the solve ended.

    `exit` is "tolerance" (the last step moved less than tol), "decrease"
    (a full step lowered the cost by at most DECREASE_RTOL times its
    controllable part), "stationary" (the line search found no decrease),
    "budget" (the iterations ran out) or "nonfinite" (the cost or its
    derivatives left the finite range). The first three, CONVERGED_EXITS,
    count as converged.
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
        return self.exit in CONVERGED_EXITS


def solve_horizon(model, x0, z_prev, cfg: MpcConfig, u_init=None, *,
                  jacobians: _StepJacobians | None = None) -> SolveResult:
    """Minimize the horizon cost over box-feasible input sequences by the
    projected Gauss-Newton method of the module docstring, starting from
    u_init (default: the middle of the input box) clipped into the box.

    `jacobians` hands in a `_StepJacobians`, so that the solves of a closed
    loop share one graph and its constants; it must have been made for this
    model and cfg, else it is a ValueError. Without it the solve makes its
    own.

    Every iterate is clipped into [u_min, u_max], so the returned sequence
    is feasible by construction. Returns the best iterate seen and how the
    solve ended (see `SolveResult`).
    """
    _check_dims(model, cfg)
    if jacobians is None:
        jacobians = _StepJacobians(model, cfg)
    elif jacobians.model is not model or jacobians.cfg is not cfg:
        raise ValueError("jacobians were made for another model or config")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    z_prev = np.asarray(z_prev, dtype=np.float64).reshape(-1)
    if u_init is None:
        U = np.tile(0.5 * (cfg.u_min + cfg.u_max), (cfg.horizon, 1))
    else:
        U = _u_matrix(u_init, cfg, "u_init").copy()
    U = np.clip(U, cfg.u_min, cfg.u_max)
    current, trial = _buffers(cfg), _buffers(cfg)
    cost = horizon_cost(model, U, x0, z_prev, cfg, out=current)
    e0 = x0 - cfg.x_ref
    c0 = float(e0 @ (cfg.q_diag * e0) + cfg.state_weight * np.sum(_excess(x0, cfg) ** 2))
    best_U, best_cost = U.copy(), cost
    exit, it, backtracks, full_steps = "budget", 0, 0, 0
    for it in range(1, cfg.iterations + 1):
        G, B = _cost_and_grad(U, (cost, *current), cfg, jacobians)
        if G is None:
            exit = "nonfinite"
            break  # nothing to descend along; keep the best iterate
        with np.errstate(all="ignore"):
            d = _projected_newton_direction(U.reshape(-1), G.reshape(-1), B, jacobians.lo,
                                            jacobians.hi, jacobians.box_eps)
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
    iterations. A step converged when its exit is one of CONVERGED_EXITS.
    `solve_time` is wall clock, so it stays out of the CSV.
    """

    t: Array
    x: Array  # (steps, nx) measured
    u: Array  # (steps, nu) applied
    cost: Array
    iterations: Array  # solver iterations per step
    exit: Array  # solver exit reason per step
    solve_time: Array  # seconds per solve

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.u = np.atleast_2d(np.asarray(self.u, dtype=np.float64))
        self.cost = np.asarray(self.cost, dtype=np.float64)
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        self.exit = np.asarray(self.exit, dtype=str)
        self.solve_time = np.asarray(self.solve_time, dtype=np.float64)
        columns = (self.x, self.u, self.cost, self.iterations, self.exit, self.solve_time)
        if any(len(c) != len(self.t) for c in columns):
            raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def converged(self) -> Array:
        """Whether each step's solve converged, a bool per step."""
        return np.isin(self.exit, CONVERGED_EXITS)

    def save_csv(self, path) -> None:
        nx, nu = self.x.shape[1], self.u.shape[1]
        header = ["t", *(f"T{i + 1}" for i in range(nx)),
                  *(f"Q{j + 1}" for j in range(nu)), "cost", "converged", "iterations", "exit"]
        rows = zip(self.t, self.x, self.u, self.cost, self.converged, self.iterations, self.exit)
        write_csv(path, header, ([t, *x, *u, cost, str(int(c)), str(int(n)), e]
                                 for t, x, u, cost, c, n, e in rows))


def run_closed_loop(plant, model, cfg: MpcConfig, steps: int) -> ClosedLoopTrace:
    """Drive the plant with receding-horizon solves of the model.

    Each step solves the horizon problem from the measured state, applies
    only the first input to the plant, and shifts the expansion history.
    The model needs a previous sample before the first solve, so the loop
    is seeded with one zero-input plant step from cfg.x0. Before that, the
    plant is stepped from cfg.x0 at u_min and at u_max, so an input box the
    plant rejects fails up front with a ValueError. Every solve shares one
    step-Jacobian graph and its constants (`_StepJacobians`). A solver fault
    (non-finite cost or a FloatingPointError) falls back to holding the
    last applied input, flagged non-converged in the trace with its reason
    as the exit ("nonfinite" or "floating_point_error"). Any other
    exception is a bug, not a fault, and propagates.
    """
    _check_dims(model, cfg)
    if cfg.x0 is None:
        raise ValueError("closed loop needs cfg.x0 (initial plant state)")
    steps = integer(steps, "steps", 1)
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
    costs, times = np.empty(steps), np.empty(steps)
    iters, exits = np.zeros(steps, dtype=np.int64), []
    jacobians = _StepJacobians(model, cfg)
    for k in range(steps):
        t0 = time.perf_counter()
        try:
            res = solve_horizon(model, x_meas, z_prev, cfg, u_init=warm, jacobians=jacobians)
            fault = not np.isfinite(res.cost)
            iters[k] = res.iterations
            exits.append(res.exit)
        except FloatingPointError:
            res, fault = None, True
            exits.append("floating_point_error")
        times[k] = time.perf_counter() - t0
        if fault:
            u_apply, costs[k] = u_held, float("inf")
        else:
            u_apply, costs[k] = res.u_seq[0], res.cost
            warm = np.vstack([res.u_seq[1:], res.u_seq[-1:]])
        xs[k], us[k] = x_meas, u_apply
        z_prev = np.concatenate([x_meas, u_apply])
        x_meas = np.asarray(plant.step(x_meas, u_apply), dtype=np.float64)
        u_held = u_apply
    return ClosedLoopTrace(t, xs, us, costs, iters, exits, times)
