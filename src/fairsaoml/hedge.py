"""Confidence-potential expert weighting.

The potential maps an expert's signed regret-like statistic R and its
absolute-increment total C to a raw weight; normalized weights over the
whole pool drive the meta combination. They are normalized in log space,
so they stay finite for any R and C.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NumericalFailureError

ZERO_TOTAL_THRESHOLD = 1e-12


def _log_phi(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """log φ(r, c) = [r]_+^2 / 3c, with the convention log φ = 0 wherever [r]_+ = 0."""
    rp = np.maximum(r, 0.0)
    positive = rp > 0.0
    if (positive & (c <= 0.0)).any():
        # unreachable while |R| <= C holds
        raise ConfigurationError("phi undefined for positive r with c <= 0")
    return np.where(positive, rp * rp / (3.0 * np.where(positive, c, 1.0)), 0.0)


def _log_raw_weight(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """log ½(φ(r+1, c+1) − φ(r−1, c−1)), or -inf for a zero weight; the first
    potential is never below the second while |R| <= C."""
    a, b = _log_phi(r + 1.0, c + 1.0), _log_phi(r - 1.0, c - 1.0)
    gap = np.minimum(b - a, 0.0)
    with np.errstate(divide="ignore"):
        return np.where(b < a, math.log(0.5) + a + np.log(-np.expm1(gap)), -np.inf)


def normalize(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Normalized weights over all experts; uniform fallback when the total raw
    weight is below ZERO_TOTAL_THRESHOLD."""
    r, c = np.asarray(r, dtype=float), np.asarray(c, dtype=float)
    if r.size == 0:
        raise ConfigurationError("cannot normalize an empty pool")
    logs = _log_raw_weight(r, c)
    top = logs.max()
    if top > -math.inf:
        shifted = np.exp(logs - top)
        total = shifted.sum()
        if top + math.log(total) >= math.log(ZERO_TOTAL_THRESHOLD):
            return shifted / total
    return np.full(r.size, 1.0 / r.size)


def update_rc(r: np.ndarray, c: np.ndarray, meta_value: float,
              expert_values: np.ndarray):
    """Accumulate each expert's meta-minus-expert objective gap into (R, C)."""
    if not (math.isfinite(meta_value) and np.isfinite(expert_values).all()):
        raise NumericalFailureError("non-finite objective value in R/C update")
    delta = meta_value - expert_values
    return r + delta, c + np.abs(delta)
