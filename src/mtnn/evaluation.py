"""Multi-step open-loop rollout, R2/RMSE metrics, per-step comparison tables.

Rollout semantics: the step-1 prediction at origin k uses the measured pair
(z^{k-1}, z^k); from step 2 on, the state slice of the current sample is
replaced by the previous prediction while the exogenous inputs stay measured.
Metrics for horizon i aggregate over every origin that has i future samples
(sliding origin), one number per step.
"""

from dataclasses import dataclass

import numpy as np

from . import model as md
from .plants import transitions_to_arrays

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


def rollout(model, series, steps: int) -> RolloutResult:
    series = list(series)
    I = int(steps)
    if I < 1:
        raise ValueError("steps must be >= 1")
    n = len(series)
    if n < I + 1:  # the last step needs two origins for its r2
        raise ValueError(
            f"series has {n} transitions ({n + 2} samples); "
            f"{I}-step rollout needs at least {I + 3} samples"
        )
    Zp, Zc, XN = transitions_to_arrays(series)
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
    r2s = np.array([_mean_over_outputs(r2, p, a) for p, a in zip(predicted, actual)])
    rmses = np.array([_mean_over_outputs(rmse, p, a) for p, a in zip(predicted, actual)])
    return RolloutResult(predicted, actual, r2s, rmses)


def _mean_over_outputs(metric, pred: Array, act: Array) -> float:
    return float(np.mean([metric(pred[:, j], act[:, j]) for j in range(pred.shape[1])]))


def r2(pred, actual) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if pred.shape != actual.shape:
        raise ValueError(f"length mismatch {pred.shape} vs {actual.shape}")
    if len(actual) < 2:
        raise ValueError("r2 needs at least 2 points")
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2 undefined for a constant actual series")
    ss_res = float(np.sum((actual - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def rmse(pred, actual) -> float:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if pred.shape != actual.shape:
        raise ValueError(f"length mismatch {pred.shape} vs {actual.shape}")
    if len(actual) == 0:
        raise ValueError("rmse needs at least 1 point")
    return float(np.sqrt(np.mean((actual - pred) ** 2)))


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
        header = ["step"]
        for name in self.names:
            header += [f"{name}_r2", f"{name}_rmse"]
        lines = [",".join(header)]
        for i in range(self.steps):
            cells = [str(i + 1)]
            for v in range(len(self.names)):
                cells += [f"{self.r2[i, v]:.4f}", f"{self.rmse[i, v]:.4f}"]
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def comparison_table(models: dict, series, steps: int = 5) -> ComparisonTable:
    """Rollout metrics for each named model over a shared test series."""
    if not models:
        raise ValueError("need at least one model")
    names = list(models)
    r2s = np.zeros((steps, len(names)))
    rmses = np.zeros((steps, len(names)))
    for v, name in enumerate(names):
        res = rollout(models[name], series, steps)
        r2s[:, v] = res.r2
        rmses[:, v] = res.rmse
    return ComparisonTable(names, r2s, rmses)
