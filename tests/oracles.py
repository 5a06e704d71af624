"""Reference implementations that tests compare the package against.

Nothing in `fairsaoml` calls these: the interval family is enumerated and
filtered by brute force, census counts come from closed forms, expert
weights come from the closed-form potential, the meta objective is evaluated
directly for finite differences, the meta gradients are summed expert by
expert, and the drift stream of the acceptance criteria is built from its
specification.
"""
import math
from typing import List, Sequence

import numpy as np

from fairsaoml.errors import ConfigurationError
from fairsaoml.intervals import AGC, DI, Interval, IntervalScheme, TargetSet, ilog
from fairsaoml.model_core import FairnessSpec, LossSpec, ParamPair, TaskBatch, loss
from fairsaoml.optimizer import (LagrangianConfig, constraint_values,
                                 interval_lagrangian_theta_grad)
from fairsaoml.stream import EnvSpec, StreamSpec


def contains(iv: Interval, t: int) -> bool:
    return iv.start <= t <= iv.end


def intervals(target: TargetSet) -> tuple:
    """The unique intervals of a target set, sorted."""
    return tuple(sorted(set(iv for _, iv in target.members)))


def enumerate_full_set(scheme: IntervalScheme, up_to: int) -> List[Interval]:
    """All intervals of the family that intersect [1, up_to].

    For DI the family is horizon-dependent; it is enumerated with the
    horizon taken as up_to.
    """
    if up_to < 1:
        raise ConfigurationError("up_to must be >= 1")
    b = scheme.base
    out: List[Interval] = []
    if scheme.kind == DI:
        for k in range(1, up_to + 1):
            for q in range(k, up_to + 1):
                out.append(Interval(k, q))
    elif scheme.kind == AGC:
        T = scheme.horizon
        for k in range(ilog(b, T)):
            i = 1
            while (i - 1) * b ** k + 1 <= min(T, up_to):
                out.append(Interval((i - 1) * b ** k + 1, min(T, i * b ** k)))
                i += 1
    else:  # DGC
        k = 0
        while b ** k <= up_to:
            i = 1
            while i * b ** k <= up_to:
                out.append(Interval(i * b ** k, (i + 1) * b ** k - 1))
                i += 1
            k += 1
    return out


def brute_force_target_set(scheme: IntervalScheme, t: int, up_to: int) -> tuple:
    """Oracle: filter the enumerated family by the membership predicate.

    AGC/DGC select intervals containing t but not t-1; DI selects the
    intervals ending at t. Returns the sorted unique intervals, comparable
    with `intervals(target_set(scheme, t))`.
    """
    if t > up_to:
        raise ConfigurationError("t must be <= up_to")
    full = enumerate_full_set(scheme, up_to)
    if scheme.kind == DI:
        picked = [iv for iv in full if iv.end == t]
    else:
        picked = [iv for iv in full if contains(iv, t) and not contains(iv, t - 1)]
    return tuple(sorted(set(picked)))


def expected_census(scheme: IntervalScheme, t: int) -> dict:
    """Total and maximum-active expert counts at round t."""
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    if scheme.kind == DI:
        total = t
    elif scheme.kind == AGC:
        total = ilog(scheme.base, scheme.horizon)
    else:
        total = ilog(scheme.base, t) + 1
    return {"total": total, "active_max": total}


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
