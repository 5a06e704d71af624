"""Confidence-potential expert weighting.

The potential maps an expert's signed regret-like statistic R and its
absolute-increment total C to a raw weight; normalized weights over the
whole pool drive the meta combination. They are normalized in log space,
so they stay finite for any R and C.
"""
from __future__ import annotations

import math
from typing import Dict, Tuple

from .errors import ConfigurationError, NumericalFailureError

ZERO_TOTAL_THRESHOLD = 1e-12


def _log_phi(r: float, c: float) -> float:
    """log φ(r, c) = [r]_+^2 / 3c, with the convention log φ = 0 whenever [r]_+ = 0."""
    rp = max(r, 0.0)
    if rp == 0.0:
        return 0.0
    if c <= 0.0:
        # unreachable while |R| <= C holds
        raise ConfigurationError("phi undefined for positive r with c <= 0")
    return rp * rp / (3.0 * c)


def _log_raw_weight(r: float, c: float) -> float:
    """log ½(φ(r+1, c+1) − φ(r−1, c−1)), or -inf for a zero weight; the first
    potential is never below the second while |R| <= C."""
    a, b = _log_phi(r + 1.0, c + 1.0), _log_phi(r - 1.0, c - 1.0)
    if b >= a:
        return -math.inf
    return math.log(0.5) + a + math.log(-math.expm1(b - a))


def normalize(stats: Dict[object, Tuple[float, float]]) -> Dict[object, float]:
    """Normalized weights over all experts; uniform fallback when the total raw
    weight is below ZERO_TOTAL_THRESHOLD."""
    if not stats:
        raise ConfigurationError("cannot normalize an empty pool")
    logs = {key: _log_raw_weight(r, c) for key, (r, c) in stats.items()}
    top = max(logs.values())
    if top > -math.inf:
        shifted = {key: math.exp(v - top) for key, v in logs.items()}
        total = sum(shifted.values())
        if top + math.log(total) >= math.log(ZERO_TOTAL_THRESHOLD):
            return {key: w / total for key, w in shifted.items()}
    u = 1.0 / len(logs)
    return {key: u for key in logs}


def update_rc(r: float, c: float, meta_value: float, expert_value: float) -> Tuple[float, float]:
    """Accumulate the meta-minus-expert objective gap into (R, C)."""
    if not (math.isfinite(meta_value) and math.isfinite(expert_value)):
        raise NumericalFailureError("non-finite objective value in R/C update")
    delta = meta_value - expert_value
    return r + delta, c + abs(delta)
