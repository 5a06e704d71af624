"""Expert universe: activation subroutines, replacement, and activity bookkeeping.

The pool holds one row per nominal interval length, in ascending order of
length — activation replaces at most one predecessor per length, which keeps
the census at the closed-form counts for every scheme.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalConsistencyError
from .intervals import AGC, DI, IntervalScheme
from .model_core import TaskBatch


@dataclass(frozen=True)
class GradientBoundConsts:
    s_radius: float
    g_bound: float


def stepsize(length, bounds: GradientBoundConsts):
    """η for one nominal length or an array of them."""
    return bounds.s_radius / (bounds.g_bound * np.sqrt(length))


def update_g_bound(bounds: GradientBoundConsts, batch: TaskBatch) -> GradientBoundConsts:
    """Running max over the dimension term and observed feature norms."""
    max_norm = float((batch.features ** 2).sum(axis=1).max() ** 0.5)
    floor = math.sqrt(batch.dim) + bounds.s_radius
    return GradientBoundConsts(bounds.s_radius,
                               max(bounds.g_bound, floor, max_norm))


class ExpertPool:
    """Every expert's interval, step size, confidence statistics (R, C), awake
    flag and parameter pair, one row per expert."""

    def __init__(self, scheme: Optional[IntervalScheme], dim: int, n_constraints: int):
        self.scheme = scheme
        self.lengths = np.zeros(0, dtype=int)
        self.starts = np.zeros(0, dtype=int)
        self.ends = np.zeros(0, dtype=int)
        self.eta = np.zeros(0)
        self.r = np.zeros(0)
        self.c = np.zeros(0)
        self.active = np.zeros(0, dtype=bool)
        self.theta = np.zeros((0, dim))
        self.lam = np.zeros((0, n_constraints))

    def activate(self, t: int, target, bounds: GradientBoundConsts) -> np.ndarray:
        """Run the scheme's activation subroutine for every interval of the
        target set (lengths, starts, ends), given in ascending order of length.

        Restarted rows inherit (R, C) from their predecessor — DI's from the
        row one shorter, AGC/DGC's from the row of the same length — and start
        from zero without one. Step sizes use the nominal length, so AGC
        truncation leaves η unchanged. A restarted row's parameters are left
        for the caller to set. Returns one (length, inherited_rc) row per
        activated expert.
        """
        lengths, starts, ends = target
        kind = self.scheme.kind if self.scheme is not None else None
        pred = lengths - 1 if kind == DI else lengths
        at = np.searchsorted(self.lengths, pred)
        inherited = at < len(self.lengths)
        inherited[inherited] = self.lengths[at[inherited]] == pred[inherited]
        if kind == AGC and len(self.lengths) and not inherited.all():
            raise InternalConsistencyError(
                f"AGC expected a length-{lengths[~inherited][0]} predecessor at t={t}")
        r, c = np.zeros(len(lengths)), np.zeros(len(lengths))
        r[inherited], c[inherited] = self.r[at[inherited]], self.c[at[inherited]]

        grown = np.union1d(self.lengths, lengths)
        if len(grown) > len(self.lengths):
            old = np.searchsorted(grown, self.lengths)
            for name in ("starts", "ends", "eta", "r", "c", "active", "theta", "lam"):
                before = getattr(self, name)
                after = np.zeros((len(grown),) + before.shape[1:], dtype=before.dtype)
                after[old] = before
                setattr(self, name, after)
            self.lengths = grown
        rows = np.searchsorted(grown, lengths)
        self.starts[rows], self.ends[rows] = starts, ends
        self.eta[rows] = stepsize(lengths, bounds)
        self.r[rows], self.c[rows] = r, c
        self.active[:] = False
        self.active[rows] = True
        return np.stack([lengths, inherited], axis=1)
