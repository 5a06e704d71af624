"""Reference implementations that tests compare the package against.

Nothing in `fairsaoml` calls these: the interval family is enumerated as
(start, end) tuples with inclusive ends and filtered by brute force, census counts come from closed forms, the expert
pool is a dict of per-expert records keyed by length, expert weights come
from the closed-form potential, the meta objective is evaluated
directly for finite differences, the meta gradients are summed expert by
expert, the batch split takes set differences and builds each part through
the validating `TaskBatch` constructor, and the drift stream of the
acceptance criteria is built from its specification.
"""
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from fairsaoml.errors import (ConfigurationError, DegenerateInputError,
                              InternalConsistencyError)
from fairsaoml.experts import GradientBoundConsts
from fairsaoml.intervals import AGC, DI, IntervalScheme, ilog
from fairsaoml.model_core import (BatchSplit, FairnessSpec, LossSpec, ParamPair,
                                  TaskBatch, loss)
from fairsaoml.optimizer import (LagrangianConfig, constraint_values,
                                 interval_lagrangian_theta_grad)
from fairsaoml.stream import EnvSpec, StreamSpec


Interval = Tuple[int, int]  # (start, end), end inclusive


def contains(iv: Interval, t: int) -> bool:
    return iv[0] <= t <= iv[1]


def intervals(target) -> tuple:
    """The unique (start, end) intervals of a target set (lengths, starts, ends), sorted."""
    _, starts, ends = target
    return tuple(sorted(set(zip(starts.tolist(), ends.tolist()))))


def enumerate_full_set(scheme: IntervalScheme, up_to: int) -> List[Interval]:
    """All intervals of the family that intersect [1, up_to].

    For DI and AGC the family is horizon-dependent; it is enumerated with
    the horizon taken as up_to.
    """
    if up_to < 1:
        raise ConfigurationError("up_to must be >= 1")
    b = scheme.base
    out: List[Interval] = []
    if scheme.kind == DI:
        for k in range(1, up_to + 1):
            for q in range(k, up_to + 1):
                out.append((k, q))
    elif scheme.kind == AGC:
        T = up_to
        for k in range(ilog(b, T)):
            i = 1
            while (i - 1) * b ** k + 1 <= T:
                out.append(((i - 1) * b ** k + 1, min(T, i * b ** k)))
                i += 1
    else:  # DGC
        k = 0
        while b ** k <= up_to:
            i = 1
            while i * b ** k <= up_to:
                out.append((i * b ** k, (i + 1) * b ** k - 1))
                i += 1
            k += 1
    return out


def brute_force_target_set(scheme: IntervalScheme, t: int, up_to: int) -> tuple:
    """Oracle: filter the enumerated family by the membership predicate.

    AGC/DGC select intervals containing t but not t-1; DI selects the
    intervals ending at t. Returns the sorted unique intervals, comparable
    with `intervals(target_set(scheme, t, up_to))`.
    """
    if t > up_to:
        raise ConfigurationError("t must be <= up_to")
    full = enumerate_full_set(scheme, up_to)
    if scheme.kind == DI:
        picked = [iv for iv in full if iv[1] == t]
    else:
        picked = [iv for iv in full if contains(iv, t) and not contains(iv, t - 1)]
    return tuple(sorted(set(picked)))


def expected_census(scheme: IntervalScheme, t: int, rounds: int) -> dict:
    """Total and maximum-active expert counts at round t of a `rounds`-round run."""
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    if scheme.kind == DI:
        total = t
    elif scheme.kind == AGC:
        total = ilog(scheme.base, rounds)
    else:
        total = ilog(scheme.base, t) + 1
    return {"total": total, "active_max": total}


@dataclass
class ExpertState:
    interval: Interval
    eta: float
    r_stat: float = 0.0
    c_stat: float = 0.0
    active: bool = False


@dataclass
class DictExpertPool:
    """`experts.ExpertPool` as one record per expert, keyed by nominal length."""

    scheme: IntervalScheme
    experts: Dict[int, ExpertState] = field(default_factory=dict)

    def activate(self, t: int, target,
                 bounds: GradientBoundConsts) -> List[Tuple[int, bool]]:
        """Returns (length, inherited_rc) per activated expert, longest first."""
        snapshot = dict(self.experts)
        members = sorted(zip(*(a.tolist() for a in target)), reverse=True)
        report = []
        for length, start, end in members:
            if self.scheme.kind == DI:
                pred = snapshot.get(length - 1)
            else:
                pred = snapshot.get(length)
                if self.scheme.kind == AGC and pred is None and snapshot:
                    raise InternalConsistencyError(
                        f"AGC expected a length-{length} predecessor at t={t}")
            r, c = (pred.r_stat, pred.c_stat) if pred is not None else (0.0, 0.0)
            self.experts[length] = ExpertState(
                interval=(start, end),
                eta=bounds.s_radius / (bounds.g_bound * math.sqrt(length)),
                r_stat=r,
                c_stat=c,
                active=True,
            )
            report.append((length, pred is not None))
        restarted = {length for length, _, _ in members}
        for length, exp in self.experts.items():
            exp.active = length in restarted
        return report


def phi(r: float, c: float) -> float:
    """exp([r]_+^2 / 3c), with the convention phi = 1 whenever [r]_+ = 0."""
    rp = max(r, 0.0)
    if rp == 0.0:
        return 1.0
    if c <= 0.0:
        raise ConfigurationError("phi undefined for positive r with c <= 0")
    return math.exp(rp * rp / (3.0 * c))


def raw_weight(r: float, c: float) -> float:
    """The raw weight ½(φ(r+1, c+1) − φ(r−1, c−1)) that `hedge.normalize` scales."""
    return 0.5 * (phi(r + 1.0, c + 1.0) - phi(r - 1.0, c - 1.0))


def meta_lagrangian(weights: Sequence[float], pairs: ParamPair, query: TaskBatch,
                    loss_spec: LossSpec, fairness_specs: Sequence[FairnessSpec],
                    config: LagrangianConfig) -> float:
    """The augmented meta objective whose gradients `meta_gradients` returns,
    over one row of `pairs` per weight."""
    c = 0.5 * config.dual_damping
    total = 0.0
    for w, theta, lam in zip(weights, pairs.theta, pairs.lam):
        g = constraint_values(theta, query, fairness_specs)
        total += w * (loss(theta, query, loss_spec) + float(lam @ g) - c * float(lam @ lam))
    return total


def meta_gradients_by_expert(weights: Sequence[float], active: Sequence[bool],
                             adapted: ParamPair, meta: ParamPair, query: TaskBatch,
                             loss_spec: LossSpec, fairness_specs: Sequence[FairnessSpec],
                             config: LagrangianConfig):
    """`optimizer.meta_gradients` as a loop over the pool: each active expert
    takes the next row of `adapted`; a sleeping one adds only its damping term
    at the meta dual."""
    g_theta = np.zeros(query.dim)
    g_lambda = np.zeros(len(fairness_specs))
    damping = config.dual_damping
    rows = iter(zip(adapted.theta, adapted.lam))
    for w, is_active in zip(weights, active):
        if is_active:
            theta, lam = next(rows)
            g_theta += w * interval_lagrangian_theta_grad(theta, lam, query, loss_spec,
                                                          fairness_specs)
            g_lambda += w * (constraint_values(theta, query, fairness_specs) - damping * lam)
        else:
            g_lambda += w * (-damping * meta.lam)
    return g_theta, g_lambda


def split_batch_by_setdiff(batch: TaskBatch, support_per_class: int, query_size: int,
                           rng_seed: int) -> BatchSplit:
    """`model_core.split_batch` with the same `rng.choice` draws, as set
    differences, sorted indices and validating constructors."""
    rng = np.random.default_rng(rng_seed)
    n = batch.size
    support_idx = []
    for cls in (-1, 1):
        cls_idx = np.flatnonzero(batch.labels == cls)
        if cls_idx.size < support_per_class:
            raise DegenerateInputError(
                f"class {cls} has {cls_idx.size} samples, need {support_per_class}")
        support_idx.append(rng.choice(cls_idx, size=support_per_class, replace=False))
    support_idx = np.concatenate(support_idx)
    rest = np.setdiff1d(np.arange(n), support_idx)
    if rest.size < query_size + 1:
        raise DegenerateInputError("batch too small for requested support and query sizes")
    query_idx = rng.choice(rest, size=query_size, replace=False)
    val_idx = np.setdiff1d(rest, query_idx)

    def part(idx):
        return TaskBatch(batch.features[idx], batch.labels[idx], batch.protected[idx],
                         batch.round)

    return BatchSplit(support=part(np.sort(support_idx)), validation=part(np.sort(val_idx)),
                      query=part(np.sort(query_idx)))


def default_drift_spec(tasks_per_env: int, seed: int = 0,
                       batch_size: int = 200) -> StreamSpec:
    """Three-environment drift: the boundary flips sign mid-run and flips back,
    while the group bias grows, so the equal-opportunity disparity of the label
    process shrinks over the run."""
    b = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    nb = tuple(-v for v in b)
    return StreamSpec(
        environments=(
            EnvSpec(tasks_per_env, 10, b, group_bias=0.2, noise=0.05),
            EnvSpec(tasks_per_env, 10, nb, group_bias=0.5, noise=0.05),
            EnvSpec(tasks_per_env, 10, b, group_bias=0.8, noise=0.05),
        ),
        batch_size=batch_size,
        seed=seed,
    )
