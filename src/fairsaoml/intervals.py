"""The three interval families (DI, AGC, DGC) and their target-set queries.

DI keeps every suffix interval alive; AGC/DGC are geometric covers with a
configurable base. AGC's horizon is the stream length. All queries are pure
and stateless.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

DI = "di"
AGC = "agc"
DGC = "dgc"


@dataclass(frozen=True)
class IntervalScheme:
    kind: str
    base: int = 2

    def __post_init__(self):
        if self.kind not in (DI, AGC, DGC):
            raise ConfigurationError(f"unknown interval scheme {self.kind!r}")
        if self.base < 2:
            raise ConfigurationError("base must be >= 2")


def ilog(base: int, n: int) -> int:
    """floor(log_base(n)) by exact integer arithmetic."""
    if n < 1:
        raise ConfigurationError("ilog needs n >= 1")
    k, p = 0, base
    while p <= n:
        k += 1
        p *= base
    return k


def target_set(scheme: IntervalScheme, t: int, rounds: int):
    """Intervals whose expert restarts at round t, as integer arrays
    (lengths, starts, ends) in ascending order of nominal length; ends are
    inclusive. Every interval starts at t (DI: ends at t). `rounds` is the
    stream length, AGC's horizon T, whose truncation can make an interval
    shorter than its nominal length; DI and DGC ignore it."""
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    b = scheme.base
    if scheme.kind == DI:
        lengths = np.arange(1, t + 1)
        return lengths, t + 1 - lengths, np.full(t, t)
    # b ** k as Python ints: a base beyond int64 still gives DGC its length b ** 0 = 1
    if scheme.kind == AGC:
        if t > rounds:
            raise ConfigurationError(f"t={t} beyond the horizon T={rounds}")
        lengths = np.array([b ** k for k in range(ilog(b, rounds)) if (t - 1) % b ** k == 0],
                           dtype=int)
        return lengths, np.full(len(lengths), t), np.minimum(rounds, t + lengths - 1)
    lengths = np.array([b ** k for k in range(ilog(b, t) + 1) if t % b ** k == 0], dtype=int)
    return lengths, np.full(len(lengths), t), t + lengths - 1
