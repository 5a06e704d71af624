"""Primal-dual base learner, augmented meta objective, and projected meta update.

The experts of a pool are adapted and combined as (K, d) array steps. A
batch's fairness constraints come as `cons`, the rows A (m, d) and bounds
ε (m,) that `model_core.fairness_constraints` builds for it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .model_core import LossSpec, ParamPair, TaskBatch, loss, loss_grad


@dataclass(frozen=True)
class LagrangianConfig:
    delta: float = 50.0
    eta1: float = 0.01
    eta2: float = 0.01
    inner_steps: int = 1

    def __post_init__(self):
        if self.delta <= 0 or self.eta1 <= 0 or self.eta2 <= 0 or self.inner_steps < 1:
            raise ValueError("LagrangianConfig entries must be positive")

    @property
    def dual_damping(self) -> float:
        return self.delta * (self.eta1 + self.eta2)


@dataclass(frozen=True)
class Ball:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")


def project_ball(theta: np.ndarray, ball: Ball) -> np.ndarray:
    norm = float(np.linalg.norm(theta))
    if norm <= ball.radius:
        return np.asarray(theta, dtype=float)
    return theta * (ball.radius / norm)


def constraint_values(theta: np.ndarray, cons: tuple) -> np.ndarray:
    """|θ @ Aᵀ| − ε: one value per constraint, for each row of θ."""
    rows, eps = cons
    return np.abs(theta @ rows.T) - eps


def interval_lagrangian(pair: ParamPair, batch: TaskBatch, loss_spec: LossSpec, cons: tuple):
    g = constraint_values(pair.theta, cons)
    return loss(pair.theta, batch, loss_spec) + (pair.lam * g).sum(axis=-1)


def interval_lagrangian_theta_grad(theta: np.ndarray, lam: np.ndarray, batch: TaskBatch,
                                   loss_spec: LossSpec, cons: tuple) -> np.ndarray:
    """Subgradient in θ, with sign(0) := 0 at each constraint's kink."""
    rows, _ = cons
    return loss_grad(theta, batch, loss_spec) + (lam * np.sign(theta @ rows.T)) @ rows


def inner_adapt(meta: ParamPair, support: TaskBatch, loss_spec: LossSpec, cons: tuple,
                etas: np.ndarray, steps: int) -> ParamPair:
    """Alternating primal-dual gradient steps of the interval Lagrangian, one
    row per step size, every row starting from the meta pair.

    The dual step uses the constraint values at the fresh primal iterate and
    is floored at zero.
    """
    etas = np.asarray(etas, dtype=float)[:, None]
    theta = np.repeat(meta.theta[None], len(etas), axis=0)
    lam = np.repeat(meta.lam[None], len(etas), axis=0)
    for _ in range(steps):
        theta = theta - etas * interval_lagrangian_theta_grad(theta, lam, support, loss_spec, cons)
        lam = np.maximum(lam + etas * constraint_values(theta, cons), 0.0)
        if not (np.isfinite(theta).all() and np.isfinite(lam).all()):
            raise NumericalFailureError("non-finite iterate in inner adaptation")
    return ParamPair(theta, lam)


def meta_gradients(weights: np.ndarray, active: np.ndarray, adapted: ParamPair,
                   meta: ParamPair, query: TaskBatch, loss_spec: LossSpec, cons: tuple,
                   config: LagrangianConfig):
    """Meta-level (grad_theta, grad_lambda) of the augmented objective.

    `weights` and the boolean `active` mask cover the whole pool; `adapted`
    holds one row per active expert, in pool order. Active experts are
    evaluated at their adapted parameters; sleeping experts hold frozen
    primal terms and contribute to the dual gradient only through the
    damping term at the meta dual.
    """
    damping = config.dual_damping
    w = weights[active]
    g_theta = w @ interval_lagrangian_theta_grad(adapted.theta, adapted.lam, query,
                                                 loss_spec, cons)
    g = constraint_values(adapted.theta, cons)
    g_lambda = w @ (g - damping * adapted.lam) - weights[~active].sum() * damping * meta.lam
    return g_theta, g_lambda


def meta_update(meta: ParamPair, weights: np.ndarray, active: np.ndarray,
                adapted: ParamPair, query: TaskBatch, loss_spec: LossSpec, cons: tuple,
                config: LagrangianConfig, ball: Ball) -> ParamPair:
    g_theta, g_lambda = meta_gradients(weights, active, adapted, meta, query, loss_spec,
                                       cons, config)
    theta = project_ball(meta.theta - config.eta1 * g_theta, ball)
    lam = np.maximum(meta.lam + config.eta2 * g_lambda, 0.0)
    if not (np.isfinite(theta).all() and np.isfinite(lam).all()):
        raise NumericalFailureError("non-finite meta update")
    return ParamPair(theta, lam)
