"""Expert universe: activation subroutines, replacement, and activity bookkeeping.

The pool is keyed by interval length — activation replaces at most one
predecessor per length, which keeps the census at the closed-form counts
for every scheme.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import InternalConsistencyError
from .intervals import AGC, DI, Interval, IntervalScheme, TargetSet
from .model_core import ParamPair, TaskBatch


@dataclass(frozen=True)
class GradientBoundConsts:
    s_radius: float
    g_bound: float


def stepsize(length: int, bounds: GradientBoundConsts) -> float:
    return bounds.s_radius / (bounds.g_bound * math.sqrt(length))


def update_g_bound(bounds: GradientBoundConsts, batch: TaskBatch) -> GradientBoundConsts:
    """Running max over the dimension term and observed feature norms."""
    max_norm = float(max((batch.features ** 2).sum(axis=1)) ** 0.5)
    floor = math.sqrt(batch.dim) + bounds.s_radius
    return GradientBoundConsts(bounds.s_radius,
                               max(bounds.g_bound, floor, max_norm))


@dataclass
class ExpertState:
    interval: Interval
    params: ParamPair
    eta: float
    r_stat: float = 0.0
    c_stat: float = 0.0
    active: bool = False


@dataclass
class ExpertPool:
    scheme: IntervalScheme
    experts: Dict[int, ExpertState] = field(default_factory=dict)  # keyed by length

    def activate(self, t: int, target: TargetSet, meta: ParamPair,
                 bounds: GradientBoundConsts) -> List[Tuple[Interval, bool]]:
        """Run the scheme's activation subroutine for every target interval.

        Step sizes use the nominal length, so AGC truncation leaves η unchanged.
        Returns (interval, inherited_rc) per activated expert.
        """
        if target.round != t:
            raise InternalConsistencyError("target set round does not match t")
        snapshot = dict(self.experts)
        report = []
        for length, iv in sorted(target.members, reverse=True):
            if self.scheme.kind == DI:
                pred = snapshot.get(length - 1)
            else:
                pred = snapshot.get(length)
                if self.scheme.kind == AGC and pred is None and snapshot:
                    raise InternalConsistencyError(
                        f"AGC expected a length-{length} predecessor at t={t}")
            r, c = (pred.r_stat, pred.c_stat) if pred is not None else (0.0, 0.0)
            self.experts[length] = ExpertState(
                interval=iv,
                params=meta.copy(),
                eta=stepsize(length, bounds),
                r_stat=r,
                c_stat=c,
                active=True,
            )
            report.append((iv, pred is not None))
        restarted = {length for length, _ in target.members}
        for length, exp in self.experts.items():
            exp.active = length in restarted
        return report

    def rc_stats(self) -> Dict[int, Tuple[float, float]]:
        return {length: (e.r_stat, e.c_stat) for length, e in self.experts.items()}
