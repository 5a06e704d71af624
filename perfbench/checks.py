"""Independent checks of the artifacts that `fairsaoml run` and `report` write.

Nothing here calls the package's solver or metric code. Losses, fairness
surrogates, DP/EO ratios, the ball-constrained comparator and the expert
census are recomputed from their definitions, on the data the trace holds.
Each check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from workloads import Workload

TOL = 1e-9          # recomputed closed-form quantities
SOLVER_TOL = 1e-6   # optimal values from two different solvers, relative
EXHAUSTIVE_WINDOW_LIMIT = 256  # documented window grid: stride 1 up to this T, tau // 4 above
WINDOW_SAMPLE = 8  # tau-windows per repetition whose regret is re-solved


# --------------------------------------------------------------------------
# Definitions, recomputed
# --------------------------------------------------------------------------

def logistic_loss(theta: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    return float(np.mean(np.logaddexp(0.0, -y * (x @ theta))) + 0.5 * l2 * theta @ theta)


def surrogate(theta, x, y, s, kind: str, epsilon: float) -> float:
    """|mean(w * score)| - epsilon with the centred group weights w of the kind."""
    if kind == "ddp":
        p1 = np.mean(s == 1)
        w = ((s + 1) / 2.0 - p1) / (p1 * (1.0 - p1))
    else:  # deo: only the y = +1 rows count
        p1 = np.mean((y == 1) & (s == 1))
        w = np.where(y == 1, ((s + 1) / 2.0 - p1) / (p1 * (1.0 - p1)), 0.0)
    return float(abs(np.mean(w * (x @ theta))) - epsilon)


def _folded(a: float, b: float) -> Optional[float]:
    if a == 0.0 or b == 0.0:
        return None
    return min(a / b, b / a)


def dp_ratio(pred, s) -> Optional[float]:
    if not (s == 1).any() or not (s == -1).any():
        return None
    return _folded(np.mean(pred[s == -1] == 1), np.mean(pred[s == 1] == 1))


def eo_ratio(pred, y, s) -> Optional[float]:
    out = []
    for label in (-1, 1):
        lo, hi = (s == -1) & (y == label), (s == 1) & (y == label)
        if not lo.any() or not hi.any():
            return None
        f = _folded(np.mean(pred[lo] == 1), np.mean(pred[hi] == 1))
        if f is None:
            return None
        out.append(f)
    return min(out)


def best_fixed_loss(xs, ys, l2: float, radius: float) -> float:
    """min over ||theta|| <= radius of sum_t mean-loss_t(theta), by SLSQP."""
    x, y = np.vstack(xs), np.concatenate(ys)
    w = np.concatenate([np.full(len(b), 1.0 / len(b)) for b in ys])
    n = len(xs)

    def f(theta):
        z = y * (x @ theta)
        val = w @ np.logaddexp(0.0, -z) + 0.5 * n * l2 * theta @ theta
        grad = -(w * y * expit(-z)) @ x + n * l2 * theta
        return float(val), grad

    ball = {"type": "ineq", "fun": lambda th: radius ** 2 - th @ th,
            "jac": lambda th: -2.0 * th}
    res = minimize(f, np.zeros(x.shape[1]), jac=True, method="SLSQP",
                   constraints=[ball], options={"ftol": 1e-15, "maxiter": 500})
    theta = res.x
    norm = np.linalg.norm(theta)
    if norm > radius:
        theta = theta * (radius / norm)
    return f(theta)[0]


def census(scheme: str, base: int, t: int):
    """(n_experts, n_active) at round t by integer arithmetic."""
    if scheme == "di":
        return t, t
    total = active = 0
    p = 1
    while p <= t:
        total += 1
        active += t % p == 0
        p *= base
    return total, active


def window_starts(T: int, tau: int, stride: int) -> List[int]:
    starts = list(range(0, T - tau + 1, stride))
    if starts[-1] != T - tau:
        starts.append(T - tau)
    return starts


# --------------------------------------------------------------------------
# Artifact loading
# --------------------------------------------------------------------------

def _num(v: str) -> Optional[float]:
    return float(v) if v != "" else None


def load_rep(rep_dir: Path) -> dict:
    with np.load(rep_dir / "trace.npz") as data:
        tr = {k: data[k] for k in data.files}
    off = tr["offsets"]
    with open(rep_dir / "rounds.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "theta": tr["theta_prev"], "g_prev": tr["g_prev"].reshape(len(off) - 1, -1),
        "rounds": tr["rounds"], "offsets": off,
        "val": [(tr["val_features"][a:b], tr["val_labels"][a:b], tr["val_protected"][a:b])
                for a, b in zip(off[:-1], off[1:])],
        "rows": rows,
    }


# --------------------------------------------------------------------------
# Checks, one rep at a time
# --------------------------------------------------------------------------

def check_ingestion(rep: dict, wl: Workload) -> List[str]:
    T = wl.rounds
    if len(rep["rounds"]) != T or list(rep["rounds"]) != list(range(1, T + 1)):
        return [f"trace holds rounds {rep['rounds'][:3]}..., expected 1..{T}"]
    sizes = np.diff(rep["offsets"])
    if not (sizes == wl.validation_size).all():
        return [f"validation rows per round {sorted(set(sizes.tolist()))}, expected "
                f"{wl.validation_size} = batch {wl.batch_size} - support - query"]
    if [int(r["t"]) for r in rep["rows"]] != list(range(1, T + 1)):
        return ["rounds.csv t column is not 1..T"]
    return []


def check_census(rep: dict, wl: Workload) -> List[str]:
    for r in rep["rows"]:
        t = int(r["t"])
        got = (int(r["n_experts"]), int(r["n_active"]))
        want = census(wl.scheme, wl.base, t)
        if got != want:
            return [f"round {t}: (n_experts, n_active) = {got}, expected {want}"]
    return []


def check_properties(rep: dict, wl: Workload) -> List[str]:
    out = []
    r_max = wl.radius * (1.0 + 1e-12)
    norms = np.linalg.norm(rep["theta"], axis=1)
    if norms.max() > r_max:
        out.append(f"traced theta norm {norms.max():.6g} > radius {wl.radius:.6g}")
    m = len(wl.fairness)
    for r in rep["rows"]:
        t = int(r["t"])
        if float(r["theta_norm"]) > r_max:
            out.append(f"round {t}: theta_norm {r['theta_norm']} > radius {wl.radius:.6g}")
        if t < len(norms) and abs(float(r["theta_norm"]) - norms[t]) > TOL:
            out.append(f"round {t}: theta_norm disagrees with the traced theta_{t}")
        if any(float(r[f"lambda_{i + 1}"]) < 0.0 for i in range(m)):
            out.append(f"round {t}: negative lambda")
        n, w = int(r["n_experts"]), float(r["max_weight"])
        if not (1.0 / n - 1e-12 <= w <= 1.0 + 1e-12):
            out.append(f"round {t}: max_weight {w} outside [1/{n}, 1]")
        for key in ("dp", "eo"):
            v = _num(r[key])
            if v is not None and not 0.0 <= v <= 1.0:
                out.append(f"round {t}: {key} {v} outside [0, 1]")
        if out:
            break
    return out


def check_telemetry(rep: dict, wl: Workload) -> List[str]:
    """val_loss, val_acc, DP, EO of theta_{t-1} and g_i of theta_t on the validation rows."""
    theta, rows, g_prev = rep["theta"], rep["rows"], rep["g_prev"]
    T = len(rows)
    for i, ((x, y, s), r) in enumerate(zip(rep["val"], rows)):
        pred = np.where(x @ theta[i] >= 0.0, 1, -1)
        acc = float(np.mean(pred == y))
        if abs(acc - float(r["val_acc"])) > 1e-12:
            return [f"round {i + 1}: val_acc {r['val_acc']} but theta_{i} scores {acc!r}"]
        loss = logistic_loss(theta[i], x, y, wl.l2)
        if abs(loss - float(r["val_loss"])) > TOL * max(1.0, abs(loss)):
            return [f"round {i + 1}: val_loss {r['val_loss']} but recomputed {loss!r}"]
        for key, want in (("dp", dp_ratio(pred, s)), ("eo", eo_ratio(pred, y, s))):
            got = _num(r[key])
            if (got is None) != (want is None) or (got is not None and abs(got - want) > TOL):
                return [f"round {i + 1}: {key} {r[key]!r} but recomputed {want!r}"]
        for j, (kind, eps) in enumerate(wl.fairness):
            g = surrogate(theta[i], x, y, s, kind, eps)
            if abs(g - g_prev[i, j]) > TOL:
                return [f"round {i + 1}: traced g_prev[{j}] {g_prev[i, j]!r}, recomputed {g!r}"]
            if i + 1 < T:
                g_cur = surrogate(theta[i + 1], x, y, s, kind, eps)
                if abs(g_cur - float(r[f"g_{j + 1}"])) > TOL:
                    return [f"round {i + 1}: g_{j + 1} {r[f'g_{j + 1}']} but recomputed {g_cur!r}"]
    return []


def check_regret(rep: dict, wl: Workload, rep_report: dict,
                 rng: np.random.Generator) -> List[str]:
    """Static regret and a sample of tau-window regrets with our own solver;
    every window's constraint sums from the traced g_prev."""
    out = []
    theta, val, g = rep["theta"], rep["val"], rep["g_prev"]
    T = len(val)
    xs, ys, l2 = [v[0] for v in val], [v[1] for v in val], wl.l2
    losses = np.array([logistic_loss(theta[i], xs[i], ys[i], l2) for i in range(T)])

    def regret(a: int, b: int) -> float:
        return float(losses[a:b].sum()) - best_fixed_loss(xs[a:b], ys[a:b], l2, wl.radius)

    static = regret(0, T)
    got = rep_report["static_regret"]
    if abs(static - got) > SOLVER_TOL * max(1.0, abs(losses.sum())):
        out.append(f"static_regret {got!r}, recomputed {static!r}")

    cv = rep_report["cumulative_violation"]
    want = {"raw": float(g[:, 0].sum()), "clipped": float(np.clip(g[:, 0], 0.0, None).sum())}
    for key in want:
        if abs(cv[key] - want[key]) > TOL * max(1.0, abs(want[key])):
            out.append(f"cumulative_violation.{key} {cv[key]!r}, recomputed {want[key]!r}")

    for tau in wl.taus:
        entry = rep_report["fair_sar"].get(str(tau))
        if (entry is None) != (tau > T):
            out.append(f"tau {tau}: {'missing from' if entry is None else 'unexpected in'} "
                       f"fair_sar at T = {T}")
        if entry is None or tau > T:
            continue
        stride = 1 if T <= EXHAUSTIVE_WINDOW_LIMIT else max(1, tau // 4)
        if entry["stride"] != stride:
            out.append(f"tau {tau}: stride {entry['stride']}, expected {stride}")
            continue
        starts = window_starts(T, tau, stride)
        sums = [g[a:a + tau].sum(axis=0) for a in starts]
        for j in range(g.shape[1]):
            want_j = max(s[j] for s in sums)
            if abs(entry["max_constraint_sums"][j] - want_j) > TOL * max(1.0, abs(want_j)):
                out.append(f"tau {tau}: max_constraint_sums[{j}] "
                           f"{entry['max_constraint_sums'][j]!r}, recomputed {want_j!r}")
        sample = rng.choice(starts, size=min(WINDOW_SAMPLE, len(starts)), replace=False)
        for a in sorted(sample):
            w_regret = regret(a, a + tau)
            if w_regret > entry["max_loss_regret"] + SOLVER_TOL * max(1.0, abs(losses.sum())):
                out.append(f"tau {tau}: window at round {a + 1} has regret {w_regret!r} "
                           f"above max_loss_regret {entry['max_loss_regret']!r}")
                break
    return out


def eighty_percent(rows: List[dict], tail_fraction: float) -> Optional[bool]:
    """Tail means of DP and EO both above 0.8; None when either tail is empty."""
    n = len(rows)
    tail = rows[n - max(1, int(round(tail_fraction * n))):]
    dp = [float(r["dp"]) for r in tail if r["dp"] != ""]
    eo = [float(r["eo"]) for r in tail if r["eo"] != ""]
    if not dp or not eo:
        return None
    return bool(np.mean(dp) > 0.8 and np.mean(eo) > 0.8)


# --------------------------------------------------------------------------
# Whole artifact directory
# --------------------------------------------------------------------------

def count_csv_rows(path: Path) -> Dict[int, int]:
    """Data rows per value of the CSV's round column `t`."""
    counts: Dict[int, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        t_col = next(reader).index("t")
        for row in reader:
            counts[int(row[t_col])] = counts.get(int(row[t_col]), 0) + 1
    return counts


def check_csv_rows(csv_path: Path, wl: Workload) -> List[str]:
    counts = count_csv_rows(csv_path)
    total = sum(counts.values())
    if total != wl.rounds * wl.batch_size or set(counts.values()) != {wl.batch_size}:
        return [f"csv holds {total} rows in {len(counts)} rounds, expected "
                f"T x batch = {wl.rounds} x {wl.batch_size}"]
    return []


def check_artifacts(art: Path, wl: Workload, seed: int) -> List[str]:
    """Every check on one `run` output directory; returns 'check: message' lines.

    `seed` is the workload seed: it fixes the repetition seeds and the window sample.
    """
    seeds = wl.rep_seeds(seed)
    rng = np.random.default_rng([seed, 7919])
    with open(art / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(art / "regret.json", encoding="utf-8") as fh:
        regret = json.load(fh)
    failures = []
    if manifest["seeds"] != seeds or manifest["rounds"] != wl.rounds:
        failures.append(f"manifest: seeds {manifest['seeds']} rounds {manifest['rounds']}, "
                        f"expected {seeds} and {wl.rounds}")
    if sorted(regret) != sorted(str(s) for s in seeds):
        failures.append(f"regret: repetitions {sorted(regret)}, expected {seeds}")
        return failures
    reps = {s: load_rep(art / f"rep{s}") for s in seeds}
    for s, rep in reps.items():
        ingestion = check_ingestion(rep, wl)
        failures += [f"ingestion: rep {s}: {m}" for m in ingestion]
        failures += [f"census: rep {s}: {m}" for m in check_census(rep, wl)]
        failures += [f"properties: rep {s}: {m}" for m in check_properties(rep, wl)]
        if ingestion:
            continue
        failures += [f"telemetry: rep {s}: {m}" for m in check_telemetry(rep, wl)]
        failures += [f"regret: rep {s}: {m}" for m in check_regret(rep, wl, regret[str(s)], rng)]
        verdict = eighty_percent(rep["rows"], wl.tail_fraction)
        if regret[str(s)]["eighty_percent_rule"] != verdict:
            failures.append(f"eighty_percent: rep {s}: "
                            f"{regret[str(s)]['eighty_percent_rule']} but recomputed {verdict}")
    failures += [f"metrics_csv: {m}" for m in check_metrics_csv(art / "metrics.csv", reps)]
    return failures


def check_metrics_csv(path: Path, reps: dict) -> List[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(next(iter(reps.values()))["rows"]):
        return [f"{len(rows)} rows, one per round expected"]
    for i, row in enumerate(rows):
        for col in ("val_loss", "val_acc"):
            vals = [float(rep["rows"][i][col]) for rep in reps.values()]
            if abs(float(row[f"mean_{col}"]) - np.mean(vals)) > 1e-12:
                return [f"round {i + 1}: mean_{col} {row[f'mean_{col}']} "
                        f"but the repetitions average {np.mean(vals)!r}"]
    return []


def same_outputs(a: Path, b: Path, seeds: List[int]) -> List[str]:
    """Two runs of one config must agree on every artifact except wall_ms."""
    out = []
    for name in ("regret.json", "metrics.csv"):
        if (a / name).read_bytes() != (b / name).read_bytes():
            out.append(f"repeat: {name} differs between {a} and {b}")
    for s in seeds:
        ra, rb = load_rep(a / f"rep{s}"), load_rep(b / f"rep{s}")
        strip = [{k: v for k, v in r.items() if k != "wall_ms"} for r in ra["rows"]]
        if strip != [{k: v for k, v in r.items() if k != "wall_ms"} for r in rb["rows"]]:
            out.append(f"repeat: rep{s}/rounds.csv differs between {a} and {b}")
        if not (np.array_equal(ra["theta"], rb["theta"])
                and np.array_equal(ra["g_prev"], rb["g_prev"])):
            out.append(f"repeat: rep{s}/trace.npz differs between {a} and {b}")
    return out
