"""The three interval families (DI, AGC, DGC) and their target-set queries.

DI keeps every suffix interval alive; AGC/DGC are geometric covers with a
configurable base. All queries are pure and stateless.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError

DI = "di"
AGC = "agc"
DGC = "dgc"


@dataclass(frozen=True, order=True)
class Interval:
    start: int
    end: int  # inclusive

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise ConfigurationError(f"bad interval [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class IntervalScheme:
    kind: str
    horizon: Optional[int] = None  # required iff kind == AGC
    base: int = 2

    def __post_init__(self):
        if self.kind not in (DI, AGC, DGC):
            raise ConfigurationError(f"unknown interval scheme {self.kind!r}")
        if self.base < 2:
            raise ConfigurationError("base must be >= 2")
        if self.kind == AGC and (self.horizon is None or self.horizon < 1):
            raise ConfigurationError("AGC requires the horizon in advance")
        if self.kind in (DI, DGC) and self.horizon is not None:
            raise ConfigurationError(f"{self.kind} must not fix a horizon")


@dataclass(frozen=True)
class TargetSet:
    round: int
    # (nominal_length, interval) per family member, each interval starting at
    # `round` (DI: ending at it); AGC truncation can give an interval a shorter
    # actual length than its subset's nominal one
    members: tuple


def ilog(base: int, n: int) -> int:
    """floor(log_base(n)) by exact integer arithmetic."""
    if n < 1:
        raise ConfigurationError("ilog needs n >= 1")
    k, p = 0, base
    while p <= n:
        k += 1
        p *= base
    return k


def target_set(scheme: IntervalScheme, t: int) -> TargetSet:
    """Intervals whose expert restarts at round t."""
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    b = scheme.base
    members = []
    if scheme.kind == DI:
        members = [(t - i + 1, Interval(i, t)) for i in range(1, t + 1)]
    elif scheme.kind == AGC:
        T = scheme.horizon
        if t > T:
            raise ConfigurationError(f"t={t} beyond the fixed horizon T={T}")
        for k in range(ilog(b, T)):
            if (t - 1) % b ** k == 0:
                members.append((b ** k, Interval(t, min(T, t + b ** k - 1))))
    else:  # DGC
        k = 0
        while b ** k <= t:
            if t % b ** k == 0:
                members.append((b ** k, Interval(t, t + b ** k - 1)))
            k += 1
    return TargetSet(round=t, members=tuple(members))
