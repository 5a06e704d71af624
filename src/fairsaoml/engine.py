"""Round loop: telemetry, activation, weighting, bi-level updates, R/C accounting."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import hedge
from .errors import ConfigurationError, NumericalFailureError
from .experts import ExpertPool, GradientBoundConsts, update_g_bound
from .intervals import AGC, IntervalScheme, target_set
from .model_core import (FairnessSpec, LossSpec, ParamPair, TaskBatch, fairness_constraints,
                         loss, scores, split_batch)
from .metrics import demographic_parity, equalized_odds
from .optimizer import (Ball, LagrangianConfig, constraint_values, inner_adapt,
                        interval_lagrangian, meta_update)

MODE_FAIRSAOML = "fairsaoml"
MODE_SINGLE_EXPERT = "single_expert"


@dataclass(frozen=True)
class AblationFlags:
    disable_weights: bool = False
    disable_base_learner: bool = False


@dataclass(frozen=True)
class SplitSizes:
    support_per_class: int = 20
    query_size: int = 40


@dataclass
class RunConfig:
    scheme: IntervalScheme
    n_meta: int = 20
    lagrangian: LagrangianConfig = field(default_factory=LagrangianConfig)
    loss: LossSpec = field(default_factory=LossSpec)
    fairness: Tuple[FairnessSpec, ...] = (FairnessSpec(),)
    split: SplitSizes = field(default_factory=SplitSizes)
    seed: int = 0
    ablation: AblationFlags = field(default_factory=AblationFlags)
    mode: str = MODE_FAIRSAOML
    s_radius: Optional[float] = None  # default sqrt(1 + 2*epsilon) - 1

    def __post_init__(self):
        if self.mode not in (MODE_FAIRSAOML, MODE_SINGLE_EXPERT):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if not self.fairness:
            raise ConfigurationError("at least one fairness constraint required")
        if self.n_meta < 1:
            raise ConfigurationError("n_meta must be >= 1")
        if self.mode == MODE_FAIRSAOML and self.scheme is None:
            raise ConfigurationError("an interval scheme is required")
        if self.s_radius is None and self.radius() <= 0.0:
            raise ConfigurationError(
                f"fairness[0].epsilon = {self.fairness[0].epsilon} makes the default ball "
                "radius sqrt(1 + 2*epsilon) - 1 zero; set s_radius")

    def radius(self) -> float:
        if self.s_radius is not None:
            return self.s_radius
        return float(np.sqrt(1.0 + 2.0 * self.fairness[0].epsilon) - 1.0)


@dataclass
class RoundRecord:
    t: int
    val_loss: float
    val_acc: float
    dp: Optional[float]
    eo: Optional[float]
    g_prev: List[float]        # constraint values of theta_{t-1}
    g_current: List[float]     # constraint values of theta_t
    weights: np.ndarray        # (K,) expert weights, in the pool's order of length
    intervals: np.ndarray      # (K, 2) each expert's [start, end]
    theta_norm: float
    lambda_values: List[float]
    n_experts: int
    n_active: int
    max_weight: float
    inner_adapt_calls: int     # expert adaptations: n_meta per active expert
    wall_ms: float
    theta_prev: np.ndarray
    theta_current: np.ndarray
    validation: TaskBatch


def _split_seed(seed: int, t: int, n: int) -> int:
    return int(np.random.SeedSequence([seed, t, n]).generate_state(1)[0])


def _telemetry(theta: np.ndarray, validation: TaskBatch, loss_spec: LossSpec, cons: tuple):
    z = scores(theta, validation.features)
    preds = np.where(z >= 0.0, 1, -1)
    return (
        loss(theta, validation, loss_spec),
        float(np.mean(preds == validation.labels)),
        demographic_parity(preds, validation.protected),
        equalized_odds(preds, validation.labels, validation.protected),
        [float(v) for v in constraint_values(theta, cons)],
    )


class Engine:
    """Executes the learning protocol over a stream of task batches."""

    def __init__(self, config: RunConfig, total_rounds: int, dim: int):
        scheme = config.scheme
        if config.mode == MODE_FAIRSAOML and scheme.kind == AGC and total_rounds < scheme.base:
            raise ConfigurationError(
                f"AGC with base {scheme.base} needs at least {scheme.base} batches, "
                f"got {total_rounds}")
        self.config = config
        self.total_rounds = total_rounds
        self.ball = Ball(config.radius())
        self.bounds = GradientBoundConsts(config.radius(),
                                          float(np.sqrt(dim)) + config.radius())
        rng = np.random.default_rng(config.seed)
        lam0 = rng.uniform(0.0, 0.01, size=len(config.fairness))
        self.meta = ParamPair(np.zeros(dim), lam0)
        self.pool = ExpertPool(config.scheme, dim, len(config.fairness))

    def _activate(self, t: int):
        cfg = self.config
        if cfg.mode == MODE_SINGLE_EXPERT:
            # one expert over [1, T], awake throughout, with round 1's step size
            if t > 1:
                return
            T = self.total_rounds
            target = (np.array([T]), np.array([1]), np.array([T]))
        else:
            target = target_set(cfg.scheme, t, self.total_rounds)
        self.pool.activate(t, target, self.bounds)

    def _weights(self) -> np.ndarray:
        cfg = self.config
        if cfg.ablation.disable_weights or cfg.ablation.disable_base_learner:
            return np.full(len(self.pool.lengths), 1.0 / len(self.pool.lengths))
        return hedge.normalize(self.pool.r, self.pool.c)

    def round(self, t: int, batch: TaskBatch) -> RoundRecord:
        cfg = self.config
        start = time.perf_counter()
        self.bounds = update_g_bound(self.bounds, batch)
        base_split = split_batch(batch, cfg.split.support_per_class,
                                 cfg.split.query_size, _split_seed(cfg.seed, t, 0))
        validation = base_split.validation
        val_cons = fairness_constraints(validation, cfg.fairness)
        theta_prev = self.meta.theta.copy()
        val_loss, val_acc, dp, eo, g_prev = _telemetry(theta_prev, validation, cfg.loss,
                                                       val_cons)

        self._activate(t)
        weights = self._weights()
        pool = self.pool
        active = pool.active
        etas = pool.eta[active]
        steps = 0 if cfg.ablation.disable_base_learner else cfg.lagrangian.inner_steps

        for n in range(1, cfg.n_meta + 1):
            split_n = split_batch(batch, cfg.split.support_per_class,
                                  cfg.split.query_size, _split_seed(cfg.seed, t, n))
            # without inner steps the support's constraints are never evaluated
            support_cons = fairness_constraints(split_n.support, cfg.fairness) if steps else None
            adapted = inner_adapt(self.meta, split_n.support, cfg.loss, support_cons,
                                  etas, steps)
            self.meta = meta_update(self.meta, weights, active, adapted, split_n.query,
                                    cfg.loss, fairness_constraints(split_n.query, cfg.fairness),
                                    cfg.lagrangian, self.ball)
        pool.theta[active] = adapted.theta
        pool.lam[active] = adapted.lam

        # row 0 is the meta pair, then the pool in order
        stacked = ParamPair(np.vstack([self.meta.theta, pool.theta]),
                            np.vstack([self.meta.lam, pool.lam]))
        values = interval_lagrangian(stacked, validation, cfg.loss, val_cons)
        pool.r, pool.c = hedge.update_rc(pool.r, pool.c, values[0], values[1:])

        g_current = [float(v) for v in constraint_values(self.meta.theta, val_cons)]
        n_active = int(active.sum())
        return RoundRecord(
            t=t,
            val_loss=val_loss,
            val_acc=val_acc,
            dp=dp,
            eo=eo,
            g_prev=g_prev,
            g_current=g_current,
            weights=weights,
            intervals=np.stack([pool.starts, pool.ends], axis=1),
            theta_norm=float(np.linalg.norm(self.meta.theta)),
            lambda_values=[float(v) for v in self.meta.lam],
            n_experts=len(pool.lengths),
            n_active=n_active,
            max_weight=float(weights.max()),
            inner_adapt_calls=cfg.n_meta * n_active if steps else 0,
            wall_ms=(time.perf_counter() - start) * 1e3,
            theta_prev=theta_prev,
            theta_current=self.meta.theta.copy(),
            validation=validation,
        )


def run(config: RunConfig, stream: Sequence[TaskBatch]) -> List[RoundRecord]:
    """Execute the full protocol; one record per round."""
    if not stream:
        raise ConfigurationError("stream must yield at least one batch")
    engine = Engine(config, total_rounds=len(stream), dim=stream[0].dim)
    records: List[RoundRecord] = []
    for t, batch in enumerate(stream, start=1):
        try:
            records.append(engine.round(t, batch))
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"round {t}: {exc}") from exc
    return records
