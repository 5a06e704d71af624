"""Fairness metrics, regret estimates, and the offline comparator solver."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .model_core import LossSpec, Rounds, rows_loss
from .optimizer import Ball, project_ball

SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 20000
EXHAUSTIVE_WINDOW_LIMIT = 256


def _folded_ratio(rate_minus: float, rate_plus: float) -> Optional[float]:
    if rate_minus == 0.0 or rate_plus == 0.0:
        return None
    k = rate_minus / rate_plus
    return k if k <= 1.0 else 1.0 / k


def demographic_parity(predictions: np.ndarray, protected: np.ndarray) -> Optional[float]:
    """Folded positive-rate ratio between groups; None when undefined."""
    predictions = np.asarray(predictions)
    protected = np.asarray(protected)
    minus = protected == -1
    plus = protected == 1
    if not minus.any() or not plus.any():
        return None
    return _folded_ratio(float(np.mean(predictions[minus] == 1)),
                         float(np.mean(predictions[plus] == 1)))


def equalized_odds(predictions: np.ndarray, labels: np.ndarray,
                   protected: np.ndarray) -> Optional[float]:
    """Worst-case folded rate ratio over both label values; None if a cell is empty."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    protected = np.asarray(protected)
    folded = []
    for y in (-1, 1):
        minus = (protected == -1) & (labels == y)
        plus = (protected == 1) & (labels == y)
        if not minus.any() or not plus.any():
            return None
        f = _folded_ratio(float(np.mean(predictions[minus] == 1)),
                          float(np.mean(predictions[plus] == 1)))
        if f is None:
            return None
        folded.append(f)
    return min(folded)


def cumulative_violation(g_series: Sequence[float]) -> dict:
    g = np.asarray(list(g_series), dtype=float)
    return {"raw": float(g.sum()), "clipped": float(np.clip(g, 0.0, None).sum())}


@dataclass
class SolverResult:
    theta: np.ndarray
    residual: float
    converged: bool
    iterations: int


def offline_minimizer(rounds: Rounds, loss_spec: LossSpec, ball: Ball) -> SolverResult:
    """Projected gradient descent on the summed per-round loss over the ball.

    Uses spectral (Barzilai-Borwein) steps with a monotone fallback; the
    residual is the norm of the projected-gradient map.
    """
    x, y, wy = rounds.features, rounds.labels, rounds.signed_weights
    l2 = rounds.n_rounds * loss_spec.l2_coefficient
    buf = np.empty(y.shape)

    def grad(theta: np.ndarray) -> np.ndarray:
        # w * y * sigmoid(-yz), in place; exp overflows to inf where the sigmoid is 0
        np.multiply(y, x @ theta, out=buf)
        with np.errstate(over="ignore"):
            np.exp(buf, out=buf)
        np.add(buf, 1.0, out=buf)
        np.reciprocal(buf, out=buf)
        np.multiply(buf, wy, out=buf)
        return -(buf @ x) + l2 * theta

    # Lipschitz bound for the summed objective
    hess_bound = 0.25 * np.linalg.eigvalsh((x * rounds.weights[:, None]).T @ x)[-1] + l2
    step0 = 1.0 / max(hess_bound, 1e-12)
    theta = np.zeros(x.shape[1])
    g = grad(theta)
    step = step0
    residual = np.inf
    for it in range(1, SOLVER_MAX_ITER + 1):
        theta_new = project_ball(theta - step * g, ball)
        g_new = grad(theta_new)
        residual = float(np.linalg.norm(theta - project_ball(theta - step0 * g, ball)) / step0)
        if residual <= SOLVER_TOL:
            break
        dx = theta_new - theta
        dg = g_new - g
        denom = float(dx @ dg)
        step = float(dx @ dx) / denom if denom > 1e-18 else step0
        step = min(max(step, 1e-3 * step0), 1e6 * step0)
        theta, g = theta_new, g_new
    residual = float(np.linalg.norm(theta - project_ball(theta - step0 * grad(theta), ball)) / step0)
    return SolverResult(theta=theta, residual=residual, converged=residual <= SOLVER_TOL,
                        iterations=it)


def round_losses(thetas: Sequence[np.ndarray], rounds: Rounds, loss_spec: LossSpec) -> List[float]:
    """The loss of thetas[t] on round t, for each round."""
    if len(thetas) != rounds.n_rounds:
        raise ConfigurationError("one parameter per round required")
    o = rounds.offsets.tolist()
    return [rows_loss(theta, rounds.features[a:b], rounds.labels[a:b], loss_spec)
            for theta, a, b in zip(thetas, o[:-1], o[1:])]


def static_regret(losses: Sequence[float], rounds: Rounds, loss_spec: LossSpec,
                  ball: Ball) -> Tuple[float, SolverResult]:
    """Cumulative gap between the per-round losses `losses` (see `round_losses`)
    and those of the best fixed parameter in hindsight."""
    if len(losses) != rounds.n_rounds:
        raise ConfigurationError("one loss per round required")
    sol = offline_minimizer(rounds, loss_spec, ball)
    best = sum(round_losses([sol.theta] * rounds.n_rounds, rounds, loss_spec))
    return sum(losses) - best, sol


@dataclass
class WindowResult:
    start: int  # 1-based round index
    loss_regret: float
    constraint_sums: List[float]
    solver_residual: float


@dataclass
class RegretReport:
    tau: int
    stride: int
    windows: List[WindowResult]
    max_loss_regret: float
    max_constraint_sums: List[float]
    approximate: bool  # any window solver stopped above tolerance


def fair_sar_estimate(losses: Sequence[float], rounds: Rounds,
                      g_values: Sequence[Sequence[float]], loss_spec: LossSpec, ball: Ball,
                      tau: int, stride: Optional[int] = None) -> RegretReport:
    """Max windowed loss regret and constraint sums over length-tau windows;
    `losses` are the per-round losses of the played parameters."""
    T = rounds.n_rounds
    if tau > T:
        raise ConfigurationError("tau must be <= number of rounds")
    if stride is None:
        stride = 1 if T <= EXHAUSTIVE_WINDOW_LIMIT else max(1, tau // 4)
    g_arr = np.asarray(g_values, dtype=float)
    if g_arr.ndim == 1:
        g_arr = g_arr[:, None]
    m = g_arr.shape[1]
    windows: List[WindowResult] = []
    starts = list(range(0, T - tau + 1, stride))
    if starts[-1] != T - tau:
        starts.append(T - tau)
    for s in starts:
        sl = slice(s, s + tau)
        regret, sol = static_regret(losses[sl], rounds.window(s, s + tau), loss_spec, ball)
        windows.append(WindowResult(
            start=s + 1,
            loss_regret=regret,
            constraint_sums=[float(g_arr[sl, i].sum()) for i in range(m)],
            solver_residual=sol.residual,
        ))
    return RegretReport(
        tau=tau,
        stride=stride,
        windows=windows,
        max_loss_regret=max(wd.loss_regret for wd in windows),
        max_constraint_sums=[max(wd.constraint_sums[i] for wd in windows) for i in range(m)],
        approximate=any(wd.solver_residual > SOLVER_TOL for wd in windows),
    )


def eighty_percent_check(dp_series: Sequence[Optional[float]],
                         eo_series: Sequence[Optional[float]],
                         tail_fraction: float) -> Optional[bool]:
    """True iff tail-mean DP and EO both exceed 0.8; None when undefined."""
    if not dp_series or not (0.0 < tail_fraction <= 1.0):
        raise ConfigurationError("nonempty series and tail fraction in (0, 1] required")
    n = len(dp_series)
    start = n - max(1, int(round(tail_fraction * n)))
    dp_tail = [v for v in dp_series[start:] if v is not None]
    eo_tail = [v for v in eo_series[start:] if v is not None]
    if not dp_tail or not eo_tail:
        return None
    return bool(np.mean(dp_tail) > 0.8 and np.mean(eo_tail) > 0.8)
