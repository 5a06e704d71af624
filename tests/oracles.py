"""Reference implementations that tests compare the package against.

Nothing in `fairsaoml` calls these: the interval family is enumerated and
filtered by brute force, census counts come from closed forms, the meta
objective is evaluated directly for finite differences, and the drift
stream of the acceptance criteria is built from its specification.
"""
from typing import List, Sequence

from fairsaoml.errors import ConfigurationError
from fairsaoml.intervals import AGC, DI, Interval, IntervalScheme, TargetSet, ilog
from fairsaoml.model_core import FairnessSpec, LossSpec, TaskBatch, loss
from fairsaoml.optimizer import ExpertTerm, LagrangianConfig, constraint_values
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


def meta_lagrangian(terms: Sequence[ExpertTerm], query: TaskBatch, loss_spec: LossSpec,
                    fairness_specs: Sequence[FairnessSpec],
                    config: LagrangianConfig) -> float:
    """The augmented meta objective whose gradients `meta_gradients` returns."""
    c = 0.5 * config.dual_damping
    total = 0.0
    for term in terms:
        g = constraint_values(term.pair.theta, query, fairness_specs)
        total += term.weight * (
            loss(term.pair.theta, query, loss_spec)
            + float(term.pair.lam @ g)
            - c * float(term.pair.lam @ term.pair.lam)
        )
    return total


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
