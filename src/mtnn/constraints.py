"""Partial-monotonicity priors: sign gates and penalty terms.

A MonoSpec tags each learned Jacobian entry as Increasing (the partial must
stay >= 0), Decreasing (<= 0), or Free. Two enforcement routes:

  * gate the network outputs through ReLU / -ReLU so tagged entries cannot
    leave their half-line (architecture route), computed as the raw output
    times its derivative mask (`gate_derivative_mask`),
  * leave the outputs raw and add a hinge penalty on violations to the
    training loss (soft route).

A determinant-based penalty on the Hessian blocks discourages negative
curvature; det >= 0 is weaker than positive semidefiniteness, so a stricter
leading-principal-minor variant is also available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .graph import Var

Array = np.ndarray

INCREASING = 1
DECREASING = -1
FREE = 0

_SYMBOLS = {INCREASING: "+", DECREASING: "-", FREE: "."}
_CODES = {v: k for k, v in _SYMBOLS.items()}


@dataclass
class MonoSpec:
    """Nx x N sign tags for the learned Jacobian entries."""

    tags: Array

    def __post_init__(self):
        self.tags = np.asarray(self.tags, dtype=np.int8)
        if self.tags.ndim != 2:
            raise ValueError("tags must be a 2-d matrix (states x augmented inputs)")
        bad = ~np.isin(self.tags, (INCREASING, DECREASING, FREE))
        if bad.any():
            raise ValueError(f"invalid tag codes at {np.argwhere(bad).tolist()}")

    @property
    def n_states(self) -> int:
        return self.tags.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.tags.shape[1]

    @classmethod
    def free(cls, n_states: int, n_inputs: int) -> "MonoSpec":
        return cls(np.zeros((n_states, n_inputs), dtype=np.int8))

    @classmethod
    def from_symbols(cls, rows) -> "MonoSpec":
        """Parse rows of '+', '-', '.' (one string per state output)."""
        if isinstance(rows, str):
            rows = [r for r in rows.splitlines() if r.strip()]
        parsed = []
        for r, row in enumerate(rows):
            row = row.replace(" ", "")
            try:
                parsed.append([_CODES[c] for c in row])
            except KeyError as e:
                raise ValueError(f"row {r}: unknown symbol {e.args[0]!r}") from None
        widths = {len(p) for p in parsed}
        if len(widths) != 1:
            raise ValueError(f"rows have unequal widths {sorted(widths)}")
        return cls(np.array(parsed, dtype=np.int8))

    def to_symbols(self) -> list:
        return ["".join(_SYMBOLS[int(t)] for t in row) for row in self.tags]

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write("\n".join(self.to_symbols()) + "\n")

    @classmethod
    def load(cls, path) -> "MonoSpec":
        with open(path) as f:
            return cls.from_symbols(f.read())


@dataclass
class PenaltyWeights:
    """Hinge weights: one scalar per tag class by default, entrywise override."""

    lam_inc: float = 1.0
    lam_dec: float = 1.0
    gamma: float = 0.1
    lam_matrix: Array | None = None  # per-entry lambda, wins over the scalars

    def __post_init__(self):
        for name in ("lam_inc", "lam_dec", "gamma"):
            w = getattr(self, name)
            if not (np.isfinite(w) and w >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {w!r}")
        if self.lam_matrix is not None:
            self.lam_matrix = np.asarray(self.lam_matrix, dtype=np.float64)
            if not (np.isfinite(self.lam_matrix).all() and (self.lam_matrix >= 0).all()):
                raise ValueError("lam_matrix entries must be finite and nonnegative")

    def lambdas_for(self, spec: MonoSpec) -> Array:
        """Per-entry lambda matrix (zero on Free entries)."""
        lam = np.where(
            spec.tags == INCREASING,
            self.lam_inc,
            np.where(spec.tags == DECREASING, self.lam_dec, 0.0),
        ).astype(np.float64)
        if self.lam_matrix is not None:
            if self.lam_matrix.shape != spec.tags.shape:
                raise ValueError("lam_matrix shape does not match spec")
            lam = np.where(spec.tags != FREE, self.lam_matrix, 0.0)
        return lam


def gate_derivative_mask(raw, tags) -> Array:
    """d(gated)/d(raw) entrywise, in {-1, 0, 1} (subgradient 0 at the kink).

    The gate is piecewise linear, so the gated output is raw times this mask.
    """
    tags = np.asarray(tags, dtype=np.int8)
    return np.where(tags == FREE, 1.0, tags * (np.asarray(raw) > 0.0))


def apply_sign_gate(raw, tags) -> Array:
    """Increasing -> ReLU(raw), Decreasing -> -ReLU(raw), Free -> raw.

    Computed as raw * gate_derivative_mask(raw, tags), which equals the
    ReLU / -ReLU form (a rectified entry may read -0.0). Elementwise; `raw`
    may carry leading batch axes as long as the trailing axes match `tags`.
    """
    raw = np.asarray(raw, dtype=np.float64)
    return raw * gate_derivative_mask(raw, tags)


def apply_sign_gate_graph(raw: Var, tags) -> Var:
    """Graph twin of apply_sign_gate: one product node with the detached mask."""
    return graph.mul(raw, gate_derivative_mask(raw.value, tags))


def mono_penalty(jac, spec: MonoSpec, weights: PenaltyWeights) -> float:
    """Hinge on sign violations: sum lam * ReLU(-J[inc]) + lam * ReLU(J[dec])."""
    jac = np.asarray(jac, dtype=np.float64)
    if jac.shape != spec.tags.shape:
        raise ValueError(f"jacobian {jac.shape} vs spec {spec.tags.shape}")
    lam = weights.lambdas_for(spec)
    inc = spec.tags == INCREASING
    dec = spec.tags == DECREASING
    pen = (lam * np.maximum(-jac, 0.0))[inc].sum() + (lam * np.maximum(jac, 0.0))[dec].sum()
    return float(pen)


def mono_penalty_rows_graph(rows: Var, spec: MonoSpec, weights: PenaltyWeights) -> Var:
    """Graph twin over the ungated Jacobian rows (Nx, B, N): sum lam * ReLU(-tag * J)."""
    lam = weights.lambdas_for(spec)[:, None, :]
    neg_tags = -spec.tags[:, None, :].astype(np.float64)
    return graph.sum_all(graph.mul(graph.relu(graph.mul(rows, neg_tags)), lam))


def convex_penalty(hessian_blocks, gamma: float) -> float:
    """sum_j gamma * ReLU(-det(block_j)); penalizes negative determinants."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    blocks = np.asarray(hessian_blocks, dtype=np.float64)
    if blocks.ndim == 2:
        blocks = blocks[None]
    if blocks.shape[-1] != blocks.shape[-2]:
        raise ValueError("Hessian blocks must be square")
    dets = np.linalg.det(blocks)
    return float(gamma * np.maximum(-dets, 0.0).sum())


def convex_penalty_blocks_graph(blocks: Var, gamma: float) -> Var:
    """Graph twin over the Hessian blocks (Nx, B, N, N), summed over all blocks."""
    return graph.scale(graph.sum_all(graph.relu(-graph.det(blocks))), float(gamma))


def principal_minor_penalty(hessian_blocks, gamma: float) -> float:
    """Stricter variant: hinge every leading principal minor, not just det.

    det >= 0 alone does not give positive semidefiniteness; nonnegative
    leading principal minors give positive *semi*definiteness only in the
    limit (they certify PD when strict), which is still a much tighter
    surrogate than the bare determinant.
    """
    blocks = np.asarray(hessian_blocks, dtype=np.float64)
    if blocks.ndim == 2:
        blocks = blocks[None]
    n = blocks.shape[-1]
    pen = 0.0
    for m in range(1, n + 1):
        dets = np.linalg.det(blocks[:, :m, :m]) if m > 1 else blocks[:, 0, 0]
        pen += np.maximum(-dets, 0.0).sum()
    return float(gamma * pen)


def principal_minor_penalty_blocks_graph(blocks: Var, gamma: float) -> Var:
    """Graph twin of principal_minor_penalty over the blocks (Nx, B, N, N)."""
    total = None
    for m in range(1, blocks.value.shape[-1] + 1):
        term = graph.sum_all(graph.relu(-graph.det(_leading_block(blocks, m))))
        total = term if total is None else total + term
    return graph.scale(total, float(gamma))


def _leading_block(blk: Var, m: int) -> Var:
    """Slice the leading m x m block out of a (..., N, N) Var."""
    if m == blk.value.shape[-1]:
        return blk

    def vjp(g):
        gx = np.zeros_like(blk.value)
        gx[..., :m, :m] = g
        return (gx,)

    return Var(blk.value[..., :m, :m], (blk,), vjp)
