"""Reference implementations that tests compare the package against.

Nothing in `fairsaoml` calls these: the interval family is enumerated as
(start, end) tuples with inclusive ends and filtered by brute force, census counts come from closed forms, the expert
pool is a dict of per-expert records keyed by length, expert weights come
from the closed-form potential, the meta objective is evaluated
directly for finite differences, the meta gradients are summed expert by
expert, the fairness constraints are evaluated one spec at a time from the
closed-form group proportion p1 and direction a, the batch split takes set
differences and builds each part through
the validating `TaskBatch` constructor, the drift stream of the
acceptance criteria is built from its specification, a generated stream is
drawn whole into a list, and the regret solver
takes one `TaskBatch` per round and stacks each window's rows again. The CSV
writer formats value by value through `csv.writer`, and `metrics.csv` is
reduced one round and one column at a time. A config is validated by
jsonschema, and its defaults come from a dict of top-level defaults merged one
level deep, then from a fill of its own for each `fairness` entry, each
environment and the stream's `batch_size` and `seed`.
"""
import csv
import functools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from fairsaoml.cli import CONFIG_SCHEMA
from fairsaoml.engine import AblationFlags, RunConfig, SplitSizes
from fairsaoml.errors import (ConfigurationError, DegenerateGroupError,
                              DegenerateInputError, InternalConsistencyError)
from fairsaoml.experts import GradientBoundConsts
from fairsaoml.intervals import AGC, DI, IntervalScheme, ilog
from fairsaoml.metrics import (EXHAUSTIVE_WINDOW_LIMIT, SOLVER_MAX_ITER, SOLVER_TOL,
                               RegretReport, SolverResult, WindowResult)
from fairsaoml.model_core import (DDP, DEO, BatchSplit, FairnessSpec, LossSpec,
                                  ParamPair, TaskBatch, loss, loss_grad)
from fairsaoml.optimizer import Ball, LagrangianConfig, project_ball
from fairsaoml.stream import EnvSpec, StreamSpec, _draw_batch


Interval = Tuple[int, int]  # (start, end), end inclusive


def contains(iv: Interval, t: int) -> bool:
    return iv[0] <= t <= iv[1]


def intervals(target) -> tuple:
    """The unique (start, end) intervals of a target set (lengths, starts, ends), sorted."""
    _, starts, ends = target
    return tuple(sorted(set(zip(starts.tolist(), ends.tolist()))))


def enumerate_full_set(scheme: IntervalScheme, up_to: int) -> List[Interval]:
    """All intervals of the family that intersect [1, up_to].

    For DI and AGC the family is horizon-dependent; it is enumerated with
    the horizon taken as up_to.
    """
    if up_to < 1:
        raise ConfigurationError("up_to must be >= 1")
    b = scheme.base
    out: List[Interval] = []
    if scheme.kind == DI:
        for k in range(1, up_to + 1):
            for q in range(k, up_to + 1):
                out.append((k, q))
    elif scheme.kind == AGC:
        T = up_to
        for k in range(ilog(b, T)):
            i = 1
            while (i - 1) * b ** k + 1 <= T:
                out.append(((i - 1) * b ** k + 1, min(T, i * b ** k)))
                i += 1
    else:  # DGC
        k = 0
        while b ** k <= up_to:
            i = 1
            while i * b ** k <= up_to:
                out.append((i * b ** k, (i + 1) * b ** k - 1))
                i += 1
            k += 1
    return out


def brute_force_target_set(scheme: IntervalScheme, t: int, up_to: int) -> tuple:
    """Oracle: filter the enumerated family by the membership predicate.

    AGC/DGC select intervals containing t but not t-1; DI selects the
    intervals ending at t. Returns the sorted unique intervals, comparable
    with `intervals(target_set(scheme, t, up_to))`.
    """
    if t > up_to:
        raise ConfigurationError("t must be <= up_to")
    full = enumerate_full_set(scheme, up_to)
    if scheme.kind == DI:
        picked = [iv for iv in full if iv[1] == t]
    else:
        picked = [iv for iv in full if contains(iv, t) and not contains(iv, t - 1)]
    return tuple(sorted(set(picked)))


def expected_census(scheme: IntervalScheme, t: int, rounds: int) -> dict:
    """Total and maximum-active expert counts at round t of a `rounds`-round run."""
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    if scheme.kind == DI:
        total = t
    elif scheme.kind == AGC:
        total = ilog(scheme.base, rounds)
    else:
        total = ilog(scheme.base, t) + 1
    return {"total": total, "active_max": total}


@dataclass
class ExpertState:
    interval: Interval
    eta: float
    r_stat: float = 0.0
    c_stat: float = 0.0
    active: bool = False


@dataclass
class DictExpertPool:
    """`experts.ExpertPool` as one record per expert, keyed by nominal length."""

    scheme: IntervalScheme
    experts: Dict[int, ExpertState] = field(default_factory=dict)

    def activate(self, t: int, target,
                 bounds: GradientBoundConsts) -> List[Tuple[int, bool]]:
        """Returns (length, inherited_rc) per activated expert, longest first."""
        snapshot = dict(self.experts)
        members = sorted(zip(*(a.tolist() for a in target)), reverse=True)
        report = []
        for length, start, end in members:
            if self.scheme.kind == DI:
                pred = snapshot.get(length - 1)
            else:
                pred = snapshot.get(length)
                if self.scheme.kind == AGC and pred is None and snapshot:
                    raise InternalConsistencyError(
                        f"AGC expected a length-{length} predecessor at t={t}")
            r, c = (pred.r_stat, pred.c_stat) if pred is not None else (0.0, 0.0)
            self.experts[length] = ExpertState(
                interval=(start, end),
                eta=bounds.s_radius / (bounds.g_bound * math.sqrt(length)),
                r_stat=r,
                c_stat=c,
                active=True,
            )
            report.append((length, pred is not None))
        restarted = {length for length, _, _ in members}
        for length, exp in self.experts.items():
            exp.active = length in restarted
        return report


def phi(r: float, c: float) -> float:
    """exp([r]_+^2 / 3c), with the convention phi = 1 whenever [r]_+ = 0."""
    rp = max(r, 0.0)
    if rp == 0.0:
        return 1.0
    if c <= 0.0:
        raise ConfigurationError("phi undefined for positive r with c <= 0")
    return math.exp(rp * rp / (3.0 * c))


def raw_weight(r: float, c: float) -> float:
    """The raw weight ½(φ(r+1, c+1) − φ(r−1, c−1)) that `hedge.normalize` scales."""
    return 0.5 * (phi(r + 1.0, c + 1.0) - phi(r - 1.0, c - 1.0))


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


def constraint_values_by_spec(theta: np.ndarray, batch: TaskBatch,
                              fairness_specs: Sequence[FairnessSpec]) -> np.ndarray:
    """`optimizer.constraint_values`, one spec at a time."""
    return np.stack([fairness_value(theta, batch, fs) for fs in fairness_specs], axis=-1)


def theta_grad_by_spec(theta: np.ndarray, lam: np.ndarray, batch: TaskBatch,
                       loss_spec: LossSpec, fairness_specs: Sequence[FairnessSpec]) -> np.ndarray:
    """`optimizer.interval_lagrangian_theta_grad`, one spec at a time."""
    grad = loss_grad(theta, batch, loss_spec)
    for i, fs in enumerate(fairness_specs):
        grad = grad + lam[..., i, None] * fairness_grad(theta, batch, fs)
    return grad


def inner_adapt_by_spec(meta: ParamPair, support: TaskBatch, loss_spec: LossSpec,
                        fairness_specs: Sequence[FairnessSpec], eta: float, steps: int):
    """`optimizer.inner_adapt` for one step size, one spec at a time: (θ, λ)."""
    theta, lam = meta.theta, meta.lam
    for _ in range(steps):
        theta = theta - eta * theta_grad_by_spec(theta, lam, support, loss_spec, fairness_specs)
        lam = np.maximum(lam + eta * constraint_values_by_spec(theta, support, fairness_specs),
                         0.0)
    return theta, lam


def meta_lagrangian(weights: Sequence[float], pairs: ParamPair, query: TaskBatch,
                    loss_spec: LossSpec, fairness_specs: Sequence[FairnessSpec],
                    config: LagrangianConfig) -> float:
    """The augmented meta objective whose gradients `meta_gradients` returns,
    over one row of `pairs` per weight."""
    c = 0.5 * config.dual_damping
    total = 0.0
    for w, theta, lam in zip(weights, pairs.theta, pairs.lam):
        g = constraint_values_by_spec(theta, query, fairness_specs)
        total += w * (loss(theta, query, loss_spec) + float(lam @ g) - c * float(lam @ lam))
    return total


def meta_gradients_by_expert(weights: Sequence[float], active: Sequence[bool],
                             adapted: ParamPair, meta: ParamPair, query: TaskBatch,
                             loss_spec: LossSpec, fairness_specs: Sequence[FairnessSpec],
                             config: LagrangianConfig):
    """`optimizer.meta_gradients` as a loop over the pool: each active expert
    takes the next row of `adapted`; a sleeping one adds only its damping term
    at the meta dual."""
    g_theta = np.zeros(query.dim)
    g_lambda = np.zeros(len(fairness_specs))
    damping = config.dual_damping
    rows = iter(zip(adapted.theta, adapted.lam))
    for w, is_active in zip(weights, active):
        if is_active:
            theta, lam = next(rows)
            g_theta += w * theta_grad_by_spec(theta, lam, query, loss_spec, fairness_specs)
            g_lambda += w * (constraint_values_by_spec(theta, query, fairness_specs)
                             - damping * lam)
        else:
            g_lambda += w * (-damping * meta.lam)
    return g_theta, g_lambda


def split_batch_by_setdiff(batch: TaskBatch, support_per_class: int, query_size: int,
                           rng_seed: int) -> BatchSplit:
    """`model_core.split_batch` with the same `rng.choice` draws, as set
    differences, sorted indices and validating constructors."""
    rng = np.random.default_rng(rng_seed)
    n = batch.size
    support_idx = []
    for cls in (-1, 1):
        cls_idx = np.flatnonzero(batch.labels == cls)
        if cls_idx.size < support_per_class:
            raise DegenerateInputError(
                f"class {cls} has {cls_idx.size} samples, need {support_per_class}")
        support_idx.append(rng.choice(cls_idx, size=support_per_class, replace=False))
    support_idx = np.concatenate(support_idx)
    rest = np.setdiff1d(np.arange(n), support_idx)
    if rest.size < query_size + 1:
        raise DegenerateInputError("batch too small for requested support and query sizes")
    query_idx = rng.choice(rest, size=query_size, replace=False)
    val_idx = np.setdiff1d(rest, query_idx)

    def part(idx):
        return TaskBatch(batch.features[idx], batch.labels[idx], batch.protected[idx],
                         batch.round)

    return BatchSplit(support=part(np.sort(support_idx)), validation=part(np.sort(val_idx)),
                      query=part(np.sort(query_idx)))


def default_drift_spec(tasks_per_env: int, seed: int = 0,
                       batch_size: int = 200) -> StreamSpec:
    """Three-environment drift: the boundary flips sign mid-run and flips back,
    while the group bias grows, so the equal-opportunity disparity of the label
    process shrinks over the run."""
    b = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    nb = tuple(-v for v in b)
    return StreamSpec(
        environments=(
            EnvSpec(tasks_per_env, 10, b, group_bias=0.2, noise=0.05),
            EnvSpec(tasks_per_env, 10, nb, group_bias=0.5, noise=0.05),
            EnvSpec(tasks_per_env, 10, b, group_bias=0.8, noise=0.05),
        ),
        batch_size=batch_size,
        seed=seed,
    )


def generate_stream_as_list(spec: StreamSpec) -> List[TaskBatch]:
    """`stream.generate_stream` with every batch drawn up front into a list."""
    rng = np.random.default_rng(spec.seed)
    out: List[TaskBatch] = []
    t = 0
    for env in spec.environments:
        for _ in range(env.n_tasks):
            t += 1
            out.append(_draw_batch(rng, env, spec.batch_size, t))
    return out


def offline_minimizer_by_batches(batches: Sequence[TaskBatch], loss_spec: LossSpec,
                                 ball: Ball) -> SolverResult:
    """`metrics.offline_minimizer` over one TaskBatch per round, on a stacked copy."""
    d = batches[0].dim
    x = np.vstack([b.features for b in batches])
    y = np.concatenate([b.labels for b in batches])
    n_batches = len(batches)
    w = np.concatenate([np.full(b.size, 1.0 / b.size) for b in batches])

    def grad(theta: np.ndarray) -> np.ndarray:
        z = x @ theta
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(y * z))
        g = -((w * y * sig) @ x)
        return g + n_batches * loss_spec.l2_coefficient * theta

    hess_bound = 0.25 * np.linalg.eigvalsh((x * w[:, None]).T @ x)[-1] \
        + n_batches * loss_spec.l2_coefficient
    step0 = 1.0 / max(hess_bound, 1e-12)
    theta = np.zeros(d)
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


def static_regret_by_batches(thetas: Sequence[np.ndarray], batches: Sequence[TaskBatch],
                             loss_spec: LossSpec, ball: Ball):
    """`metrics.static_regret`, evaluating the played losses on every call."""
    if len(thetas) != len(batches):
        raise ConfigurationError("one parameter per batch required")
    sol = offline_minimizer_by_batches(batches, loss_spec, ball)
    algo = sum(loss(th, b, loss_spec) for th, b in zip(thetas, batches))
    best = sum(loss(sol.theta, b, loss_spec) for b in batches)
    return algo - best, sol


def fair_sar_estimate_by_batches(thetas: Sequence[np.ndarray], batches: Sequence[TaskBatch],
                                 g_values, loss_spec: LossSpec, ball: Ball, tau: int,
                                 stride: Optional[int] = None) -> RegretReport:
    """`metrics.fair_sar_estimate` with a list slice of batches per window."""
    T = len(batches)
    if tau > T:
        raise ConfigurationError("tau must be <= number of rounds")
    if stride is None:
        stride = 1 if T <= EXHAUSTIVE_WINDOW_LIMIT else max(1, tau // 4)
    g_arr = np.asarray(list(g_values), dtype=float)
    if g_arr.ndim == 1:
        g_arr = g_arr[:, None]
    m = g_arr.shape[1]
    windows: List[WindowResult] = []
    starts = list(range(0, T - tau + 1, stride))
    if starts[-1] != T - tau:
        starts.append(T - tau)
    for s in starts:
        sl = slice(s, s + tau)
        regret, sol = static_regret_by_batches(thetas[sl], batches[sl], loss_spec, ball)
        windows.append(WindowResult(start=s + 1, loss_regret=regret,
                                    constraint_sums=[float(g_arr[sl, i].sum()) for i in range(m)],
                                    solver_residual=sol.residual))
    return RegretReport(
        tau=tau, stride=stride, windows=windows,
        max_loss_regret=max(wd.loss_regret for wd in windows),
        max_constraint_sums=[max(wd.constraint_sums[i] for wd in windows) for i in range(m)],
        approximate=any(wd.solver_residual > SOLVER_TOL for wd in windows),
    )


def read_trace_as_batches(path) -> tuple:
    """The trace as a list of parameters, one validating TaskBatch per round, and
    a list of constraint-value rows."""
    with np.load(path) as data:
        x, y, s = data["val_features"], data["val_labels"], data["val_protected"]
        offsets, rounds = data["offsets"], data["rounds"]
        thetas, g_prev = list(data["theta_prev"]), data["g_prev"].tolist()
    batches = [TaskBatch(x[a:b], y[a:b], s[a:b], round=int(t))
               for a, b, t in zip(offsets[:-1], offsets[1:], rounds)]
    return thetas, batches, g_prev


def save_csv_by_value(stream: Sequence[TaskBatch], path: str) -> None:
    """`stream.save_csv`, formatting each value on its own and writing rows with csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(stream[0].dim)] + ["s", "y", "t"])
        for batch in stream:
            for i in range(batch.size):
                row = ["%.17g" % v for v in batch.features[i]]
                row += [str(int(batch.protected[i])), str(int(batch.labels[i])),
                        str(int(batch.round))]
                writer.writerow(row)


def aggregate_metrics_csv_by_round(rep_dirs, out_path) -> None:
    """`cli.aggregate_metrics_csv` with one np.mean and np.std per round and column."""
    per_rep = []
    for d in rep_dirs:
        with open(d / "rounds.csv", newline="", encoding="utf-8") as fh:
            per_rep.append(list(csv.DictReader(fh)))
    cols = ["val_loss", "val_acc", "dp", "eo"]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for c in cols:
            header += [f"mean_{c}", f"std_{c}"]
        writer.writerow(header)
        for i in range(len(per_rep[0])):
            row = [per_rep[0][i]["t"]]
            for c in cols:
                vals = [float(rep[i][c]) for rep in per_rep if rep[i][c] != ""]
                if vals:
                    row += ["%.17g" % float(np.mean(vals)), "%.17g" % float(np.std(vals))]
                else:
                    row += ["", ""]
            writer.writerow(row)


CONFIG_DEFAULTS = {
    "base": IntervalScheme.base,
    "mode": RunConfig.mode,
    "n_meta": RunConfig.n_meta,
    "inner_steps": LagrangianConfig.inner_steps,
    "delta": LagrangianConfig.delta,
    "eta1": LagrangianConfig.eta1,
    "eta2": LagrangianConfig.eta2,
    "s_radius": RunConfig.s_radius,
    "loss": {"kind": LossSpec.kind, "l2": LossSpec.l2_coefficient},
    "fairness": [asdict(FairnessSpec())],
    "split": asdict(SplitSizes()),
    "seed": RunConfig.seed,
    "reps": 10,
    "ablation": asdict(AblationFlags()),
    "metrics": {"tau": [16], "tail_fraction": 0.25},
    "out": "out",
}


@functools.lru_cache(maxsize=None)
def strict_validator():
    """jsonschema's validator class for CONFIG_SCHEMA's draft, with `integer`
    meaning a JSON integer, an int that is not a bool; its own checker also
    counts 2.0."""
    from jsonschema.validators import extend, validator_for
    base = validator_for(CONFIG_SCHEMA)
    checker = base.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool))
    return extend(base, type_checker=checker)


def schema_error(schema: dict, instance) -> Optional[str]:
    """`strict_validator`'s best-matching message for `instance` under `schema`, or None."""
    from jsonschema.exceptions import best_match
    error = best_match(strict_validator()(schema).iter_errors(instance))
    return None if error is None else error.message


def load_config_by_blocks(path: str, overrides: Optional[dict] = None) -> dict:
    """`cli.load_config` validated by jsonschema, with defaults from CONFIG_DEFAULTS
    and one fill block per part."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and overrides:
        raw.update(overrides)
    error = schema_error(CONFIG_SCHEMA, raw)
    if error is not None:
        raise ConfigurationError(f"invalid config: {error}")
    cfg = dict(CONFIG_DEFAULTS)
    for key, value in raw.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            merged = dict(cfg[key])
            merged.update(value)
            cfg[key] = merged
        else:
            cfg[key] = value
    if "stream" not in cfg and "csv" not in cfg:
        raise ConfigurationError("config must provide either 'stream' or 'csv'")
    cfg["fairness"] = [{**asdict(FairnessSpec()), **f} for f in cfg["fairness"]]
    if "stream" in cfg:
        stream = dict(cfg["stream"])
        stream.setdefault("batch_size", 200)
        stream.setdefault("seed", cfg["seed"])
        envs = []
        for env in stream["environments"]:
            e = {"group_bias": EnvSpec.group_bias, "group_balance": EnvSpec.group_balance,
                 "noise": EnvSpec.noise}
            e.update(env)
            envs.append(e)
        stream["environments"] = envs
        cfg["stream"] = stream
    return cfg
