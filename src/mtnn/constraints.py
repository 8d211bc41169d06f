"""Partial-monotonicity priors: sign gates and penalty terms.

A MonoSpec tags each learned Jacobian entry as Increasing (the partial must
stay >= 0), Decreasing (<= 0), or Free. Two enforcement routes:

  * gate the network outputs through ReLU / -ReLU so tagged entries cannot
    leave their half-line (architecture route), computed as the raw output
    times its derivative mask (`gate_mask_of(tags)(raw)`),
  * leave the outputs raw and add a hinge penalty on violations to the
    training loss (soft route).

A determinant hinge on the Hessian blocks discourages negative curvature
(det >= 0 is weaker than positive semidefiniteness).

The penalties exist only as graph ops, weighted by SIGN_WEIGHT and
CURVATURE_WEIGHT; their numpy reference versions are in `tests/oracles.py`.
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

# hinge weights of the soft route: every sign violation, and gamma on every
# negative determinant of a Hessian block
SIGN_WEIGHT = 1.0
CURVATURE_WEIGHT = 0.1

_SYMBOLS = {INCREASING: "+", DECREASING: "-", FREE: "."}
_CODES = {v: k for k, v in _SYMBOLS.items()}


@dataclass(frozen=True, eq=False)
class MonoSpec:
    """Nx x N sign tags for the learned Jacobian entries.

    The spec owns a read-only copy of its tags and derives their gate mask
    once: `gate_mask(raw)` is `gate_mask_of(tags)(raw)` for raw (..., Nx, N).
    """

    tags: Array

    def __post_init__(self):
        tags = np.array(self.tags, dtype=np.int8)
        if tags.ndim != 2:
            raise ValueError("tags must be a 2-d matrix (states x augmented inputs)")
        bad = ~np.isin(tags, (INCREASING, DECREASING, FREE))
        if bad.any():
            raise ValueError(f"invalid tag codes at {np.argwhere(bad).tolist()}")
        tags.flags.writeable = False
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "gate_mask", gate_mask_of(tags))

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
        if not parsed:
            raise ValueError("a sign spec needs at least one row of symbols")
        widths = {len(p) for p in parsed}
        if len(widths) != 1:
            raise ValueError(f"rows have unequal widths {sorted(widths)}")
        return cls(np.array(parsed, dtype=np.int8))

    def to_symbols(self) -> list:
        return ["".join(_SYMBOLS[int(t)] for t in row) for row in self.tags]


def gate_mask_of(tags):
    """raw -> d(gated)/d(raw) entrywise, in {-1, 0, 1} (subgradient 0 at the
    kink), with the tag arrays derived once: a tagged entry reads its tag
    where raw > 0 and 0 elsewhere (NaN included), a free one 1.

    The mask is (raw > 0) * (on - off) + off, not a broadcast np.where,
    which is slower; on {-1, 0, 1} that arithmetic is exact, and the sum
    turns the -0.0 of a False times -1 into 0.0. The gate is piecewise
    linear, so the gated output is raw times this mask.
    """
    tags = np.asarray(tags, dtype=np.int8)
    free = tags == FREE
    off = free.astype(np.float64)
    step = np.where(free, 0.0, tags)  # on - off

    def mask(raw):
        m = (np.asarray(raw) > 0.0) * step
        m += off
        return m

    return mask


def apply_sign_gate_graph(raw: Var, tags) -> Var:
    """Increasing -> ReLU(raw), Decreasing -> -ReLU(raw), Free -> raw, as one
    node: raw times its detached mask, which every forward recomputes from
    raw (a rectified entry may read -0.0)."""
    return graph.masked(raw, gate_mask_of(tags))


def mono_penalty_rows_graph(rows: Var, spec: MonoSpec) -> Var:
    """Sign hinge over the ungated, batch-last Jacobian rows (Nx, N, B):
    SIGN_WEIGHT * sum ReLU(-tag * J), zero on Free entries."""
    neg_tags = -spec.tags[:, :, None].astype(np.float64)
    return graph.sum_all(graph.relu(rows * neg_tags)) * SIGN_WEIGHT


def convex_penalty_blocks_graph(blocks: Var) -> Var:
    """CURVATURE_WEIGHT * sum ReLU(-det(block)) over the batch-last Hessian
    blocks (Nx, N, N, B), whose block axes move last for `det`; penalizes
    negative determinants."""
    dets = graph.det(graph.moveaxis(blocks, -1, -3))
    return graph.sum_all(graph.relu(-dets)) * CURVATURE_WEIGHT


# no caller in this package; kept only because the benchmark's traced run wraps it
def principal_minor_penalty_blocks_graph(blocks: Var) -> Var:
    """Stricter variant over the batch-last blocks (Nx, N, N, B): hinge every
    leading principal minor, not just det.

    det >= 0 alone does not give positive semidefiniteness; nonnegative
    leading principal minors give positive *semi*definiteness only in the
    limit (they certify PD when strict), which is still a much tighter
    surrogate than the bare determinant.
    """
    total = None
    blocks = graph.moveaxis(blocks, -1, -3)
    for m in range(1, blocks.value.shape[-1] + 1):
        term = graph.sum_all(graph.relu(-graph.det(_leading_block(blocks, m))))
        total = term if total is None else total + term
    return total * CURVATURE_WEIGHT


def _leading_block(blk: Var, m: int) -> Var:
    """Slice the leading m x m block out of a (..., N, N) Var."""
    if m == blk.value.shape[-1]:
        return blk

    def vjp(g):
        gx = np.zeros_like(blk.value)
        gx[..., :m, :m] = g
        return (gx,)

    return graph.op(lambda: blk.value[..., :m, :m], (blk,), vjp)
