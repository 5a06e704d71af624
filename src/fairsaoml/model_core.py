"""Data model, linear predictor, logistic loss, and group-fairness surrogates.

All functions here are pure; batches and parameter pairs are treated as
immutable once constructed. The model functions take one parameter row θ of
shape (d,) or K rows of shape (K, d), and reduce over the last axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateGroupError, DegenerateInputError

DDP = "ddp"
DEO = "deo"


@dataclass(frozen=True)
class TaskBatch:
    """One round's labeled batch with a binary protected attribute."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,) in {-1, +1}
    protected: np.ndarray  # (n,) in {-1, +1}
    round: int = 0

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        s = np.asarray(self.protected, dtype=int)
        if x.ndim != 2:
            raise ConfigurationError("features must be a 2-d array")
        n = x.shape[0]
        if n < 1:
            raise DegenerateInputError("empty batch")
        if y.shape != (n,) or s.shape != (n,):
            raise ConfigurationError("features, labels, protected must have equal length")
        if not np.isfinite(x).all():
            raise ConfigurationError("non-finite feature values")
        if not np.isin(y, (-1, 1)).all() or not np.isin(s, (-1, 1)).all():
            raise ConfigurationError("labels and protected must be in {-1, +1}")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "protected", s)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "TaskBatch":
        """The rows `idx` (an integer index array) as copies; they are valid because self is."""
        sub = object.__new__(TaskBatch)
        sub.__dict__.update(features=self.features[idx], labels=self.labels[idx],
                            protected=self.protected[idx], round=self.round)
        if sub.size < 1:
            raise DegenerateInputError("empty batch")
        return sub


@dataclass(frozen=True)
class BatchSplit:
    support: TaskBatch
    validation: TaskBatch
    query: TaskBatch


@dataclass
class ParamPair:
    """Primal weight vector and nonnegative dual vector."""

    theta: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).copy()
        self.lam = np.asarray(self.lam, dtype=float).copy()
        if (self.lam < 0).any():
            raise ConfigurationError("dual vector must be entrywise nonnegative")


@dataclass(frozen=True)
class FairnessSpec:
    kind: str = DDP
    epsilon: float = 0.05

    def __post_init__(self):
        if self.kind not in (DDP, DEO):
            raise ConfigurationError(f"unknown fairness kind {self.kind!r}")
        if self.epsilon < 0:
            raise ConfigurationError("epsilon must be >= 0")


@dataclass(frozen=True)
class LossSpec:
    kind: str = "logistic"
    l2_coefficient: float = 1e-3

    def __post_init__(self):
        if self.kind != "logistic":
            raise ConfigurationError(f"unknown loss kind {self.kind!r}")
        if self.l2_coefficient < 0:
            raise ConfigurationError("l2_coefficient must be >= 0")


def scores(theta: np.ndarray, batch: TaskBatch) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (batch.dim,):
        raise ConfigurationError("dimension mismatch between theta and batch")
    return theta @ batch.features.T


def _log1pexp(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow
    return np.logaddexp(0.0, z)


def loss(theta: np.ndarray, batch: TaskBatch, spec: LossSpec):
    """Mean logistic loss with an l2 ridge term, per row of theta."""
    z = scores(theta, batch)
    data = np.mean(_log1pexp(-batch.labels * z), axis=-1)
    return data + 0.5 * spec.l2_coefficient * (theta * theta).sum(axis=-1)


def loss_grad(theta: np.ndarray, batch: TaskBatch, spec: LossSpec) -> np.ndarray:
    z = scores(theta, batch)
    # d/dz log(1+exp(-yz)) = -y * sigmoid(-yz)
    sig = 1.0 / (1.0 + np.exp(batch.labels * z))
    g = -(batch.labels * sig) @ batch.features / batch.size
    return g + spec.l2_coefficient * np.asarray(theta, dtype=float)


def estimate_p1(batch: TaskBatch, kind: str) -> float:
    """Empirical group proportion used by the fairness surrogate."""
    if kind == DDP:
        p1 = float(np.mean(batch.protected == 1))
    elif kind == DEO:
        if not (batch.labels == 1).any():
            raise DegenerateGroupError("DEO requires at least one sample with y=+1")
        p1 = float(np.mean((batch.labels == 1) & (batch.protected == 1)))
    else:
        raise ConfigurationError(f"unknown fairness kind {kind!r}")
    if p1 <= 0.0 or p1 >= 1.0:
        raise DegenerateGroupError("fairness surrogate undefined: p1 in {0, 1}")
    return p1


def fairness_direction(batch: TaskBatch, kind: str) -> np.ndarray:
    """The vector a with weighted mean score θ @ a: the mean feature under
    per-sample group weights, which are zero outside the y=+1 subset for DEO."""
    p1 = estimate_p1(batch, kind)
    w = ((batch.protected + 1) / 2.0 - p1) / (p1 * (1.0 - p1))
    if kind == DEO:
        w = np.where(batch.labels == 1, w, 0.0)
    return (w @ batch.features) / batch.size


def fairness_inner_mean(theta: np.ndarray, batch: TaskBatch, spec: FairnessSpec):
    return np.asarray(theta, dtype=float) @ fairness_direction(batch, spec.kind)


def fairness_value(theta: np.ndarray, batch: TaskBatch, spec: FairnessSpec):
    """Linear disparity surrogate: |weighted mean score| - epsilon."""
    return np.abs(fairness_inner_mean(theta, batch, spec)) - spec.epsilon


def fairness_grad(theta: np.ndarray, batch: TaskBatch, spec: FairnessSpec) -> np.ndarray:
    """Subgradient of the surrogate, with sign(0) := 0 at the kink."""
    a = fairness_direction(batch, spec.kind)
    return np.multiply.outer(np.sign(np.asarray(theta, dtype=float) @ a), a)


VALIDATION, SUPPORT, QUERY = 0, 1, 2  # row roles in split_batch


def split_batch(batch: TaskBatch, support_per_class: int, query_size: int,
                rng_seed: int) -> BatchSplit:
    """Disjoint support/query/validation index split, support stratified by label."""
    rng = np.random.default_rng(rng_seed)
    support_idx = []
    for cls in (-1, 1):
        cls_idx = np.flatnonzero(batch.labels == cls)
        if cls_idx.size < support_per_class:
            raise DegenerateInputError(
                f"class {cls} has {cls_idx.size} samples, need {support_per_class}")
        support_idx.append(rng.choice(cls_idx, size=support_per_class, replace=False))
    role = np.full(batch.size, VALIDATION, dtype=np.int8)
    role[np.concatenate(support_idx)] = SUPPORT
    rest = np.flatnonzero(role == VALIDATION)
    if rest.size < query_size + 1:
        raise DegenerateInputError("batch too small for requested support and query sizes")
    role[rng.choice(rest, size=query_size, replace=False)] = QUERY
    return BatchSplit(
        support=batch.subset(np.flatnonzero(role == SUPPORT)),
        validation=batch.subset(np.flatnonzero(role == VALIDATION)),
        query=batch.subset(np.flatnonzero(role == QUERY)),
    )
