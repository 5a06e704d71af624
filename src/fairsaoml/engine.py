"""Round loop: telemetry, activation, weighting, bi-level updates, R/C accounting."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import hedge
from .errors import ConfigurationError, NumericalFailureError
from .experts import (ExpertPool, ExpertState, GradientBoundConsts, stepsize,
                      update_g_bound)
from .intervals import AGC, Interval, IntervalScheme, target_set
from .model_core import (FairnessSpec, LossSpec, ParamPair, TaskBatch, scores,
                         split_batch)
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

    def radius(self) -> float:
        if self.s_radius is not None:
            return self.s_radius
        return float(np.sqrt(1.0 + 2.0 * self.fairness[0].epsilon) - 1.0)


@dataclass
class ExpertRecord:
    interval: Interval
    weight: float


@dataclass
class RoundRecord:
    t: int
    val_loss: float
    val_acc: float
    dp: Optional[float]
    eo: Optional[float]
    g_prev: List[float]        # constraint values of theta_{t-1}
    g_current: List[float]     # constraint values of theta_t
    experts: List[ExpertRecord]
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


def _telemetry(theta: np.ndarray, validation: TaskBatch, loss_spec: LossSpec,
               fairness: Sequence[FairnessSpec]):
    from .model_core import loss as loss_fn
    z = scores(theta, validation)
    preds = np.where(z >= 0.0, 1, -1)
    return (
        loss_fn(theta, validation, loss_spec),
        float(np.mean(preds == validation.labels)),
        demographic_parity(preds, validation.protected),
        equalized_odds(preds, validation.labels, validation.protected),
        [float(v) for v in constraint_values(theta, validation, fairness)],
    )


class Engine:
    """Executes the learning protocol over a stream of task batches."""

    def __init__(self, config: RunConfig, total_rounds: int, dim: int):
        self.config = config
        self.total_rounds = total_rounds
        self.ball = Ball(config.radius())
        self.bounds = GradientBoundConsts(config.radius(),
                                          float(np.sqrt(dim)) + config.radius())
        rng = np.random.default_rng(config.seed)
        lam0 = rng.uniform(0.0, 0.01, size=len(config.fairness))
        self.meta = ParamPair(np.zeros(dim), lam0)
        self.pool = ExpertPool(scheme=config.scheme)

    def _activate(self, t: int):
        cfg = self.config
        if cfg.mode == MODE_SINGLE_EXPERT:
            # one expert over [1, T], awake throughout, with round 1's step size
            if not self.pool.experts:
                iv = Interval(1, self.total_rounds)
                self.pool.experts[iv.length] = ExpertState(
                    interval=iv, params=self.meta.copy(),
                    eta=stepsize(iv.length, self.bounds), active=True)
        else:
            self.pool.activate(t, target_set(cfg.scheme, t), self.meta, self.bounds)

    def _weights(self) -> Dict[int, float]:
        cfg = self.config
        if cfg.ablation.disable_weights or cfg.ablation.disable_base_learner:
            u = 1.0 / len(self.pool.experts)
            return {key: u for key in self.pool.experts}
        return hedge.normalize(self.pool.rc_stats())

    def round(self, t: int, batch: TaskBatch) -> RoundRecord:
        cfg = self.config
        start = time.perf_counter()
        self.bounds = update_g_bound(self.bounds, batch)
        base_split = split_batch(batch, cfg.split.support_per_class,
                                 cfg.split.query_size, _split_seed(cfg.seed, t, 0))
        validation = base_split.validation
        theta_prev = self.meta.theta.copy()
        val_loss, val_acc, dp, eo, g_prev = _telemetry(
            theta_prev, validation, cfg.loss, cfg.fairness)

        self._activate(t)
        weights = self._weights()
        experts = self.pool.experts
        pool = list(experts.values())
        awake = [exp for exp in pool if exp.active]
        active = np.array([exp.active for exp in pool])
        weight_vec = np.array([weights[key] for key in experts])
        etas = np.array([exp.eta for exp in awake])
        steps = 0 if cfg.ablation.disable_base_learner else cfg.lagrangian.inner_steps

        for n in range(1, cfg.n_meta + 1):
            split_n = split_batch(batch, cfg.split.support_per_class,
                                  cfg.split.query_size, _split_seed(cfg.seed, t, n))
            adapted = inner_adapt(self.meta, split_n.support, cfg.loss, cfg.fairness,
                                  etas, steps)
            self.meta = meta_update(self.meta, weight_vec, active, adapted, split_n.query,
                                    cfg.loss, cfg.fairness, cfg.lagrangian, self.ball)
        for exp, theta, lam in zip(awake, adapted.theta, adapted.lam):
            exp.params = ParamPair(theta, lam)

        # row 0 is the meta pair, then the pool in order
        stacked = ParamPair(np.vstack([self.meta.theta] + [e.params.theta for e in pool]),
                            np.vstack([self.meta.lam] + [e.params.lam for e in pool]))
        values = interval_lagrangian(stacked, validation, cfg.loss, cfg.fairness).tolist()
        for exp, expert_value in zip(pool, values[1:]):
            exp.r_stat, exp.c_stat = hedge.update_rc(
                exp.r_stat, exp.c_stat, values[0], expert_value)

        g_current = [float(v) for v in constraint_values(self.meta.theta, validation,
                                                         cfg.fairness)]
        expert_records = [ExpertRecord(interval=exp.interval, weight=weights[key])
                          for key, exp in sorted(experts.items())]
        return RoundRecord(
            t=t,
            val_loss=val_loss,
            val_acc=val_acc,
            dp=dp,
            eo=eo,
            g_prev=g_prev,
            g_current=g_current,
            experts=expert_records,
            theta_norm=float(np.linalg.norm(self.meta.theta)),
            lambda_values=[float(v) for v in self.meta.lam],
            n_experts=len(experts),
            n_active=len(awake),
            max_weight=max(weights.values()),
            inner_adapt_calls=cfg.n_meta * len(awake) if steps else 0,
            wall_ms=(time.perf_counter() - start) * 1e3,
            theta_prev=theta_prev,
            theta_current=self.meta.theta.copy(),
            validation=validation,
        )


def run(config: RunConfig, stream: Sequence[TaskBatch]) -> List[RoundRecord]:
    """Execute the full protocol; one record per round."""
    if not stream:
        raise ConfigurationError("stream must yield at least one batch")
    if config.mode == MODE_FAIRSAOML and config.scheme.kind == AGC:
        if len(stream) != config.scheme.horizon:
            raise ConfigurationError(
                f"AGC horizon T={config.scheme.horizon} but stream has {len(stream)} batches")
    engine = Engine(config, total_rounds=len(stream), dim=stream[0].dim)
    records: List[RoundRecord] = []
    for t, batch in enumerate(stream, start=1):
        try:
            records.append(engine.round(t, batch))
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"round {t}: {exc}") from exc
    return records
