"""Data model, linear predictor, logistic loss, and group-fairness constraint rows.

All functions here are pure; batches and parameter pairs are treated as
immutable once constructed. The model functions take one parameter row θ of
shape (d,) or K rows of shape (K, d), and reduce over the last axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateGroupError, DegenerateInputError

DDP = "ddp"
DEO = "deo"


def _checked_rows(features, labels, protected):
    """The rows as float features and int labels and protected values, after
    checking that they are nonempty, finite, of equal length and in {-1, +1}."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    s = np.asarray(protected, dtype=int)
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
    return x, y, s


@dataclass(frozen=True)
class TaskBatch:
    """One round's labeled batch with a binary protected attribute."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,) in {-1, +1}
    protected: np.ndarray  # (n,) in {-1, +1}
    round: int = 0

    def __post_init__(self):
        x, y, s = _checked_rows(self.features, self.labels, self.protected)
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
class Rounds:
    """The rows of T rounds stacked: round t (from 0) is rows offsets[t]:offsets[t + 1].

    Construction applies TaskBatch's checks to all rows at once and rejects an
    empty round. `weights` gives each row 1/n_t, the share of its round, so a
    weighted sum over rows is a sum of per-round means; `signed_weights` is
    `weights * labels`.
    """

    features: np.ndarray   # (N, d)
    labels: np.ndarray     # (N,) in {-1, +1}
    protected: np.ndarray  # (N,) in {-1, +1}
    offsets: np.ndarray    # (T + 1,) integers from 0 to N
    weights: np.ndarray = field(init=False, repr=False)
    signed_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x, y, s = _checked_rows(self.features, self.labels, self.protected)
        offsets = np.asarray(self.offsets)
        if (offsets.ndim != 1 or offsets.size < 2 or offsets.dtype.kind not in "iu"
                or offsets[0] != 0 or offsets[-1] != x.shape[0]):
            raise ConfigurationError("round offsets must be integers from 0 to the number of rows")
        sizes = np.diff(offsets)
        if (sizes < 1).any():
            raise DegenerateInputError(f"empty batch at round {int(np.argmax(sizes < 1)) + 1}")
        weights = np.repeat(1.0 / sizes, sizes)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "protected", s)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "signed_weights", weights * y)

    @classmethod
    def from_batches(cls, batches) -> "Rounds":
        return cls(np.vstack([b.features for b in batches]),
                   np.concatenate([b.labels for b in batches]),
                   np.concatenate([b.protected for b in batches]),
                   np.cumsum([0] + [b.size for b in batches]))

    @property
    def n_rounds(self) -> int:
        return self.offsets.size - 1

    def window(self, start: int, stop: int) -> "Rounds":
        """Rounds start..stop-1 as views of these rows; they are valid because self is."""
        a, b = self.offsets[start], self.offsets[stop]
        win = object.__new__(Rounds)
        win.__dict__.update(
            features=self.features[a:b], labels=self.labels[a:b],
            protected=self.protected[a:b], offsets=self.offsets[start:stop + 1] - a,
            weights=self.weights[a:b], signed_weights=self.signed_weights[a:b])
        return win


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


def scores(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != features.shape[1:]:
        raise ConfigurationError("dimension mismatch between theta and batch")
    return theta @ features.T


def _log1pexp(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow
    return np.logaddexp(0.0, z)


def loss(theta: np.ndarray, batch: TaskBatch, spec: LossSpec):
    """Mean logistic loss with an l2 ridge term, per row of theta."""
    return rows_loss(theta, batch.features, batch.labels, spec)


def rows_loss(theta: np.ndarray, features: np.ndarray, labels: np.ndarray, spec: LossSpec):
    """`loss` on the rows `features` with `labels`, which need not form a TaskBatch."""
    z = scores(theta, features)
    data = np.mean(_log1pexp(-labels * z), axis=-1)
    return data + 0.5 * spec.l2_coefficient * (theta * theta).sum(axis=-1)


def loss_grad(theta: np.ndarray, batch: TaskBatch, spec: LossSpec) -> np.ndarray:
    z = scores(theta, batch.features)
    # d/dz log(1+exp(-yz)) = -y * sigmoid(-yz); exp overflows to inf where
    # sigmoid(-yz) is 0, and 1 / (1 + inf) gives that 0
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(batch.labels * z))
    g = -(batch.labels * sig) @ batch.features / batch.size
    return g + spec.l2_coefficient * np.asarray(theta, dtype=float)


def fairness_constraints(batch: TaskBatch, specs: Sequence[FairnessSpec]) -> tuple:
    """The constraints of `specs` on `batch` as rows A (m, d) and bounds eps (m,),
    so that g_i(θ) = |θ @ a_i| − eps_i is the i-th linear disparity surrogate.

    Row a_i is the mean feature under per-sample group weights
    (1[s=+1] − p1) / (p1 (1 − p1)), with p1 the share of rows with s=+1; for
    DEO, p1 counts only rows with y=+1 and s=+1, and rows with y=−1 weigh 0.
    """
    positive = batch.labels == 1
    group = batch.protected == 1
    weights = []
    for spec in specs:
        deo = spec.kind == DEO
        if deo and not positive.any():
            raise DegenerateGroupError("DEO requires at least one sample with y=+1")
        p1 = float(np.mean(group & positive if deo else group))
        if p1 <= 0.0 or p1 >= 1.0:
            raise DegenerateGroupError("fairness surrogate undefined: p1 in {0, 1}")
        w = (group - p1) / (p1 * (1.0 - p1))
        weights.append(np.where(positive, w, 0.0) if deo else w)
    rows = (np.stack(weights) @ batch.features) / batch.size
    return rows, np.array([spec.epsilon for spec in specs])


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
