"""Multi-step rollout over a `Transitions` set, R2/RMSE metrics, comparison tables.

Rollout semantics: the step-1 prediction at origin k uses the measured pair
(z^{k-1}, z^k); from step 2 on, the state slice of the current sample is
replaced by the previous prediction while the exogenous inputs stay measured.
Metrics for horizon i aggregate over every origin that has i future samples
(sliding origin), one number per step.
"""

from dataclasses import dataclass

import numpy as np

from . import model as md
from .plants import Transitions, integer, write_csv

Array = np.ndarray


@dataclass
class RolloutResult:
    """Per-step predictions and ground truth; metrics averaged over outputs."""

    predicted: list  # step i-1 -> (n_origins_i, nx)
    actual: list
    r2: Array  # (steps,)
    rmse: Array

    def __post_init__(self):
        if len(self.predicted) != len(self.actual):
            raise ValueError("predicted/actual step counts differ")
        for p, a in zip(self.predicted, self.actual):
            if p.shape != a.shape:
                raise ValueError("predicted/actual shapes differ within a step")

    @property
    def steps(self) -> int:
        return len(self.predicted)


def rollout(model, data: Transitions, steps: int) -> RolloutResult:
    I = integer(steps, "steps", 1)
    n = len(data)
    if n < I + 1:  # the last step needs two origins for its r2
        raise ValueError(
            f"data has {n} transitions ({n + 2} samples); "
            f"{I}-step rollout needs at least {I + 3} samples"
        )
    Zp, Zc, XN = data.z_prev, data.z_curr, data.x_next
    U = Zc[:, model.nx :]  # measured inputs, kept as Zc rolls forward
    predicted, actual = [], []
    for i in range(1, I + 1):
        m = n - i + 1  # origins with i future samples
        x_hat = md.predict_batch(model, Zc, Zp)
        predicted.append(x_hat)
        actual.append(XN[i - 1 : i - 1 + m])
        if i == I:
            break
        # surviving origins roll forward: predicted state, measured inputs
        z_next = np.concatenate([x_hat[: m - 1], U[i : i + m - 1]], axis=1)
        Zp, Zc = Zc[: m - 1], z_next
    scores = [_scores(p, a) for p, a in zip(predicted, actual)]
    r2s, rmses = (np.array(column) for column in zip(*scores))
    return RolloutResult(predicted, actual, r2s, rmses)


def _scores(pred: Array, act: Array) -> tuple:
    """(r2, rmse) of one step, each averaged over the state columns: per
    column, R2 = 1 - SS_res / SS_tot and RMSE = sqrt(SS_res / n).

    A column's squared residual is formed once and feeds both; only one
    column's temporaries exist at a time.
    """
    r2s, rmses = [], []
    for j in range(act.shape[1]):
        a = act[:, j]
        sq = a - pred[:, j]
        sq **= 2
        ss_res = float(np.sum(sq))
        dev = a - a.mean()
        dev **= 2
        ss_tot = float(np.sum(dev))
        if ss_tot == 0.0:
            raise ValueError("r2 undefined for a constant actual series")
        r2s.append(1.0 - ss_res / ss_tot)
        rmses.append(float(np.sqrt(ss_res / len(a))))
    return float(np.mean(r2s)), float(np.mean(rmses))


@dataclass
class ComparisonTable:
    """steps x variants grid of (r2, rmse) pairs, in insertion order."""

    names: list
    r2: Array  # (steps, n_models)
    rmse: Array

    @property
    def steps(self) -> int:
        return self.r2.shape[0]

    def __str__(self) -> str:
        cols = [f"{n} (r2, rmse)" for n in self.names]
        widths = [max(len(c), 16) for c in cols]
        lines = ["step  " + "  ".join(c.rjust(w) for c, w in zip(cols, widths))]
        for i in range(self.steps):
            cells = [f"{self.r2[i, v]:+.4f}, {self.rmse[i, v]:.4f}"
                     for v in range(len(self.names))]
            lines.append(f"{i + 1:<4d}  "
                         + "  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)

    def save_csv(self, path) -> None:
        header = ["step"] + [f"{n}_{m}" for n in self.names for m in ("r2", "rmse")]
        write_csv(path, header, (
            [str(i + 1)] + [f"{a:.4f}" for pair in zip(self.r2[i], self.rmse[i]) for a in pair]
            for i in range(self.steps)))


def comparison_table(models: dict, data: Transitions, steps: int = 5) -> ComparisonTable:
    """Rollout metrics for each named model over shared test transitions."""
    steps = integer(steps, "steps", 1)
    if not models:
        raise ValueError("need at least one model")
    names = list(models)
    r2s = np.zeros((steps, len(names)))
    rmses = np.zeros((steps, len(names)))
    for v, name in enumerate(names):
        res = rollout(models[name], data, steps)
        r2s[:, v] = res.r2
        rmses[:, v] = res.rmse
    return ComparisonTable(names, r2s, rmses)
