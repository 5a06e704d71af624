"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see them live).
Multi-seed experiments use seeds 0..9 and report seed-averaged statistics.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fairsaoml import hedge
from fairsaoml.engine import (MODE_SINGLE_EXPERT, AblationFlags, RunConfig,
                              SplitSizes, run)
from fairsaoml.intervals import IntervalScheme, ilog, target_set
from fairsaoml.metrics import (cumulative_violation, fair_sar_estimate,
                               offline_minimizer, round_losses)
from fairsaoml.model_core import (FairnessSpec, LossSpec, ParamPair, Rounds, TaskBatch,
                                  fairness_constraints, loss, loss_grad)
from fairsaoml.optimizer import (Ball, LagrangianConfig, constraint_values,
                                 interval_lagrangian, interval_lagrangian_theta_grad,
                                 meta_gradients)
from fairsaoml.stream import EnvSpec, StreamSpec, generate_stream
from oracles import (default_drift_spec, enumerate_full_set, expected_census,
                     intervals, meta_lagrangian, phi, raw_weight)

SEEDS = range(10)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def assert_feasible(records, radius: float) -> None:
    """Ball/dual invariants after every round (criterion 5, applied suite-wide)."""
    for rec in records:
        assert rec.theta_norm <= radius + 1e-12
        assert all(v >= 0.0 for v in rec.lambda_values)


def checked_run(config, stream):
    records = run(config, stream)
    assert_feasible(records, config.radius() if config.s_radius is None
                    else config.s_radius)
    return records


# ---------------------------------------------------------------------------
# 1. Interval oracle equivalence + census formulas, t <= 1024, bases 2-5
# ---------------------------------------------------------------------------

def _independent_floor_log(base: int, n: int) -> int:
    k, p = 0, base
    while p <= n:
        k, p = k + 1, p * base
    return k


def _check_arrays(target, t: int, exact: bool) -> None:
    """Lengths ascend, and every member has 1 <= start <= end with
    end - start + 1 <= length (== length where no truncation applies)."""
    lengths, starts, ends = target
    assert len(lengths) == len(starts) == len(ends) > 0, t
    assert (np.diff(lengths) > 0).all(), t
    assert ((1 <= starts) & (starts <= ends)).all(), t
    spans = ends - starts + 1
    assert ((spans == lengths) if exact else (spans <= lengths)).all(), t


def _scan_geometric(kind: str, base: int, limit: int) -> None:
    # the stream is `limit` rounds long, which is AGC's horizon
    scheme = IntervalScheme(kind, base=base)
    full = enumerate_full_set(scheme, limit)
    starts = np.array([s for s, _ in full])
    ends = np.array([e for _, e in full])
    for t in range(1, limit + 1):
        inside_t = (starts <= t) & (t <= ends)
        inside_prev = (starts <= t - 1) & (t - 1 <= ends)
        picked = sorted({(int(s), int(e)) for s, e in
                         zip(starts[inside_t & ~inside_prev],
                             ends[inside_t & ~inside_prev])})
        target = target_set(scheme, t, limit)
        _check_arrays(target, t, exact=kind == "dgc")
        assert list(intervals(target)) == picked, (kind, base, t)
        total = expected_census(scheme, t, limit)["total"]
        if kind == "agc":
            assert total == _independent_floor_log(base, limit)
        else:
            assert total == _independent_floor_log(base, t) + 1


def test_criterion_1_interval_oracle_equivalence():
    t0 = time.perf_counter()
    limit = 1024
    # DI is base-free: one pass against the enumerated suffix family
    di = IntervalScheme("di")
    full = enumerate_full_set(di, limit)
    ends = np.array([e for _, e in full])
    starts = np.array([s for s, _ in full])
    order = np.argsort(ends, kind="stable")
    sorted_ends = ends[order]
    for t in range(1, limit + 1):
        lo, hi = np.searchsorted(sorted_ends, (t, t + 1))
        picked = sorted({(int(starts[i]), t) for i in order[lo:hi]})
        target = target_set(di, t, limit)
        _check_arrays(target, t, exact=True)
        assert list(intervals(target)) == picked, ("di", t)
        assert expected_census(di, t, limit)["total"] == t
    for base in (2, 3, 4, 5):
        for kind in ("agc", "dgc"):
            _scan_geometric(kind, base, limit)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0,
           f"interval oracle equivalence for all schemes/bases, t<=1024, "
           f"{elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 2. Worked-example fidelity
# ---------------------------------------------------------------------------

def test_criterion_2_worked_examples():
    agc = IntervalScheme("agc")  # over an 18-round stream
    ok = intervals(target_set(agc, 5, 18)) == ((5, 5), (5, 6), (5, 8))
    lengths = {length for t in range(1, 19)
               for length in target_set(agc, t, 18)[0].tolist()}
    ok = ok and lengths == {1, 2, 4, 8}
    dgc = IntervalScheme("dgc")
    ok = ok and intervals(target_set(dgc, 5, 18)) == ((5, 5),)
    ok = ok and (16, 31) in intervals(target_set(dgc, 16, 18))
    report(2, ok, "AGC/DGC worked examples reproduced exactly")


# ---------------------------------------------------------------------------
# 3. Weight-system invariants
# ---------------------------------------------------------------------------

def test_criterion_3_weight_invariants():
    ok = phi(0.0, 0.0) == 1.0
    ok = ok and abs(raw_weight(0.0, 0.0)
                    - 0.5 * (math.exp(1.0 / 3.0) - 1.0)) <= 1e-12

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10 ** 5):
        n = int(rng.integers(1, 9))
        c = rng.uniform(0.0, 50.0, size=n)
        r = rng.uniform(-1.0, 1.0, size=n) * c
        weights = hedge.normalize(r, c)
        worst = max(worst, abs(weights.sum() - 1.0))
    ok = ok and worst <= 1e-9

    r, c = 0.0, 0.0
    invariant = True
    meta_vals = rng.uniform(-3.0, 3.0, size=10 ** 5)
    expert_vals = rng.uniform(-3.0, 3.0, size=10 ** 5)
    for mv, ev in zip(meta_vals, expert_vals):
        r, c = hedge.update_rc(r, c, mv, ev)
        invariant = invariant and abs(r) <= c + 1e-12
    ok = ok and invariant
    report(3, ok,
           f"potential/weight closed forms exact; max |sum-1| = {worst:.2e} "
           f"over 1e5 pools; |R|<=C held over 1e5 updates")


# ---------------------------------------------------------------------------
# 4. Gradient correctness against central finite differences
# ---------------------------------------------------------------------------

def _random_batch(rng, n=40, d=6):
    x = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    s = np.where(rng.random(n) < 0.5, 1, -1)
    y[:2] = [1, -1]
    s[:2] = [1, -1]
    return TaskBatch(x, y, s)


def _central_fd(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return g


def _non_kink_point(rng, rows, d):
    for _ in range(200):
        theta = rng.standard_normal(d) * 0.5
        if (np.abs(theta @ rows.T) > 1e-3).all():
            return theta
    raise AssertionError("could not sample a non-kink point")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(4)
    d = 6
    loss_spec = LossSpec()
    specs = (FairnessSpec("ddp", epsilon=0.05), FairnessSpec("deo", epsilon=0.05))
    lconf = LagrangianConfig(delta=2.0, eta1=0.05, eta2=0.05)
    worst = 0.0
    for _ in range(100):
        batch = _random_batch(rng, d=d)
        cons = fairness_constraints(batch, specs)
        theta = _non_kink_point(rng, cons[0], d)
        lam = rng.uniform(0.1, 1.0, size=len(specs))
        pair = ParamPair(theta, lam)
        grad = interval_lagrangian_theta_grad(theta, lam, batch, loss_spec, cons)

        checks = [
            (loss_grad(theta, batch, loss_spec),
             _central_fd(lambda th: loss(th, batch, loss_spec), theta)),
            # the constraint term λ·g(θ) on its own
            (grad - loss_grad(theta, batch, loss_spec),
             _central_fd(lambda th: lam @ constraint_values(th, cons), theta)),
            (grad,
             _central_fd(lambda th: interval_lagrangian(ParamPair(th, lam),
                                                        batch, loss_spec, cons),
                         theta)),
        ]
        # meta objective with every term pinned at the meta pair
        weights = rng.dirichlet(np.ones(3))

        def meta_obj(th, lm):
            rows = ParamPair(np.tile(th, (3, 1)), np.tile(lm, (3, 1)))
            return meta_lagrangian(weights, rows, batch, loss_spec, specs, lconf)

        rows = ParamPair(np.tile(theta, (3, 1)), np.tile(lam, (3, 1)))
        g_theta, g_lambda = meta_gradients(weights, np.ones(3, dtype=bool), rows, pair,
                                           batch, loss_spec, cons, lconf)
        checks.append((g_theta, _central_fd(lambda th: meta_obj(th, lam), theta)))
        checks.append((g_lambda, _central_fd(lambda lm: meta_obj(theta, lm), lam)))

        for analytic, numeric in checks:
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric),
                                                           1e-12)
            worst = max(worst, err)
    report(4, worst <= 1e-5,
           f"loss/fairness/interval/meta gradients vs central differences at "
           f"100 non-kink points, worst rel err {worst:.2e} <= 1e-5")


# ---------------------------------------------------------------------------
# 5. Feasibility invariants + dual clipping exercised
# ---------------------------------------------------------------------------

def _unfair_stream(seed=0, n=12):
    env = EnvSpec(n, 4, (1.0, 1.0, 0.0, 0.0), group_bias=1.0, noise=0.05)
    return generate_stream(StreamSpec((env,), batch_size=150, seed=seed))


def _fair_stream(seed=2, n=12):
    env = EnvSpec(n, 4, (1.0, 1.0, 0.0, 0.0), group_bias=0.0, noise=0.05)
    return generate_stream(StreamSpec((env,), batch_size=150, seed=seed))


def test_criterion_5_feasibility_invariants():
    checked = 0
    for kind in ("di", "agc", "dgc"):
        cfg = RunConfig(scheme=IntervalScheme(kind), n_meta=3,
                        seed=1, split=SplitSizes(15, 30))
        records = checked_run(cfg, _unfair_stream())
        checked += len(records)
    # a satisfied constraint plus dual damping drives lambda negative
    # without the clip; the clipped value 0.0 must be observed exactly
    cfg = RunConfig(scheme=IntervalScheme("dgc"), n_meta=3, seed=2,
                    split=SplitSizes(15, 30))
    records = checked_run(cfg, _fair_stream())
    checked += len(records)
    clipped = any(v == 0.0 for rec in records for v in rec.lambda_values)
    report(5, clipped,
           f"ball/dual invariants held after all {checked} rounds; "
           f"dual clip at zero exercised")


# ---------------------------------------------------------------------------
# 6. Stationary convergence against the offline solver
# ---------------------------------------------------------------------------

def test_criterion_6_stationary_convergence():
    t0 = time.perf_counter()
    env = EnvSpec(2000, 10, (1.0, 1.0) + (0.0,) * 8, group_bias=0.0, noise=0.0)
    stream = generate_stream(StreamSpec((env,), batch_size=120, seed=0))
    cfg = RunConfig(scheme=None, mode=MODE_SINGLE_EXPERT, n_meta=20,
                    split=SplitSizes(20, 40),
                    lagrangian=LagrangianConfig(eta1=0.002, eta2=0.002))
    records = checked_run(cfg, stream)
    sol = offline_minimizer(Rounds.from_batches([r.validation for r in records]), cfg.loss,
                            Ball(cfg.radius()))
    dist = float(np.linalg.norm(records[-1].theta_current - sol.theta))
    elapsed = time.perf_counter() - t0
    ok = sol.residual <= 1e-8 and dist <= 1e-2 and elapsed < 60.0
    report(6, ok,
           f"single-expert T=2000: ||theta_T - theta*|| = {dist:.4f} <= 1e-2, "
           f"solver residual {sol.residual:.1e}, {elapsed:.0f}s < 60s")


# ---------------------------------------------------------------------------
# 7. Sublinear trends on the default drift stream, T=96 vs T=192
# ---------------------------------------------------------------------------

DRIFT_FAIRNESS = (FairnessSpec("deo", epsilon=0.13),)
DRIFT_LAGRANGIAN = LagrangianConfig(delta=0.003, eta1=0.2, eta2=0.3)
DRIFT_RADIUS = 0.5


def _drift_run(kind, T, seed):
    stream = generate_stream(default_drift_spec(T // 3, seed=seed,
                                                batch_size=400))
    cfg = RunConfig(scheme=IntervalScheme(kind),
                    n_meta=5, seed=seed, split=SplitSizes(20, 200),
                    fairness=DRIFT_FAIRNESS, s_radius=DRIFT_RADIUS,
                    lagrangian=DRIFT_LAGRANGIAN)
    return checked_run(cfg, stream)


def _drift_stats(kind, T, seed, tau=16):
    records = _drift_run(kind, T, seed)
    val = Rounds.from_batches([r.validation for r in records])
    rr = fair_sar_estimate(round_losses([r.theta_prev for r in records], val, LossSpec()),
                           val, [r.g_prev for r in records],
                           LossSpec(), Ball(DRIFT_RADIUS),
                           tau=tau, stride=max(1, T // 12))
    cv = cumulative_violation([r.g_prev[0] for r in records])["raw"]
    return rr.max_loss_regret / math.sqrt(tau * math.log(T)), cv / T


def test_criterion_7_sublinear_trends():
    t0 = time.perf_counter()
    details = []
    ok = True
    for kind in ("di", "agc", "dgc"):
        stats = {T: np.mean([_drift_stats(kind, T, s) for s in SEEDS], axis=0)
                 for T in (96, 192)}
        norm_ok = stats[192][0] <= stats[96][0]
        cv_ok = stats[192][1] < stats[96][1]
        ok = ok and norm_ok and cv_ok
        details.append(f"{kind} sar/sqrt(tau logT) {stats[96][0]:.4f}->"
                       f"{stats[192][0]:.4f}, cv/T {stats[96][1]:.4f}->"
                       f"{stats[192][1]:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(7, ok, "; ".join(details) + f"; {elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 8. Adaptation ordering on the two-environment boundary-flip stream
# ---------------------------------------------------------------------------

def _flip_stream(seed, T=128):
    k = T // 2
    b = (1.0, 1.0) + (0.0,) * 8
    nb = tuple(-v for v in b)
    return generate_stream(StreamSpec((EnvSpec(k, 10, b, noise=0.05),
                                       EnvSpec(k, 10, nb, noise=0.05)),
                                      batch_size=160, seed=seed))


def test_criterion_8_adaptation_ordering():
    T, half = 128, 64
    gaps, masses = [], []
    for seed in SEEDS:
        stream = _flip_stream(seed, T)
        cfg = RunConfig(scheme=IntervalScheme("agc"), n_meta=5,
                        seed=seed, split=SplitSizes(20, 40),
                        lagrangian=LagrangianConfig(eta1=0.05, eta2=0.05))
        agc = checked_run(cfg, stream)
        single = checked_run(replace(cfg, mode=MODE_SINGLE_EXPERT), stream)
        gaps.append(np.mean([r.val_acc for r in agc[half:]])
                    - np.mean([r.val_acc for r in single[half:]]))
        masses.append(min(rec.weights[rec.intervals[:, 0] > half].sum()
                          for rec in agc[half:half + 50]))
    gap = float(np.mean(gaps)) * 100.0
    mass = float(np.mean(masses))
    ok = gap >= 2.0 and mass > 0.5
    report(8, ok,
           f"AGC second-half accuracy gap {gap:+.1f}pp >= 2pp; post-switch "
           f"weight mass {mass:.2f} > 0.5 within 50 rounds")


# ---------------------------------------------------------------------------
# 9. Ablation direction on the default drift stream
# ---------------------------------------------------------------------------

def _tail_stats(records, tail_rounds=24):
    tail = records[-tail_rounds:]
    acc = float(np.mean([r.val_acc for r in tail]))
    dp = float(np.mean([r.dp for r in tail if r.dp is not None]))
    return acc, dp


def test_criterion_9_ablation_direction():
    full_stats, abl_stats = [], []
    for seed in SEEDS:
        stream = generate_stream(default_drift_spec(32, seed=seed,
                                                    batch_size=500))
        cfg = RunConfig(scheme=IntervalScheme("dgc"), n_meta=5, seed=seed,
                        split=SplitSizes(20, 200), fairness=DRIFT_FAIRNESS,
                        s_radius=DRIFT_RADIUS,
                        lagrangian=LagrangianConfig(delta=0.003, eta1=0.05,
                                                    eta2=0.05))
        full = checked_run(cfg, stream)
        flags = AblationFlags(disable_weights=True, disable_base_learner=True)
        ablated = checked_run(replace(cfg, ablation=flags), stream)
        # structural per-round verification of the two flags
        for rec in ablated:
            u = 1.0 / rec.n_experts
            assert (abs(rec.weights - u) < 1e-15).all()
            assert rec.inner_adapt_calls == 0
        full_stats.append(_tail_stats(full))
        abl_stats.append(_tail_stats(ablated))
    (facc, fdp), (aacc, adp) = (np.mean(full_stats, axis=0),
                                np.mean(abl_stats, axis=0))
    ok = aacc <= facc and adp <= fdp
    report(9, ok,
           f"both-ablations tail acc {aacc:.4f} <= {facc:.4f} and tail DP "
           f"{adp:.4f} <= {fdp:.4f}; flag behavior verified per round")


# ---------------------------------------------------------------------------
# 10. 80%-rule reproduction with vanishing final-environment bias
# ---------------------------------------------------------------------------

def _vanishing_bias_spec(seed):
    b = (1.0, 1.0) + (0.0,) * 8
    return StreamSpec((EnvSpec(32, 10, b, group_bias=0.5, noise=0.3),
                       EnvSpec(32, 10, b, group_bias=0.25, noise=0.3),
                       EnvSpec(32, 10, b, group_bias=0.0, noise=0.3)),
                      batch_size=800, seed=seed)


def test_criterion_10_eighty_percent_rule():
    wins = 0
    for seed in SEEDS:
        cfg = RunConfig(scheme=IntervalScheme("dgc"), n_meta=5, seed=seed,
                        split=SplitSizes(20, 200), fairness=DRIFT_FAIRNESS,
                        s_radius=DRIFT_RADIUS,
                        lagrangian=LagrangianConfig(delta=0.003, eta1=0.05,
                                                    eta2=0.05))
        records = checked_run(cfg, generate_stream(_vanishing_bias_spec(seed)))
        tail = records[-24:]
        dp = np.mean([r.dp for r in tail if r.dp is not None])
        eo = np.mean([r.eo for r in tail if r.eo is not None])
        wins += bool(dp > 0.8 and eo > 0.8)
    report(10, wins >= 8,
           f"tail-mean DP and EO both > 0.8 in {wins}/10 seeds (need >= 8)")


# ---------------------------------------------------------------------------
# 11. Complexity accounting
# ---------------------------------------------------------------------------

def test_criterion_11_complexity_accounting():
    T = 40
    env = EnvSpec(T, 4, (1.0, 1.0, 0.0, 0.0), group_bias=0.4, noise=0.05)
    stream = generate_stream(StreamSpec((env,), batch_size=150, seed=0))
    ok = True
    for kind in ("di", "agc", "dgc"):
        scheme = IntervalScheme(kind)
        cfg = RunConfig(scheme=scheme, n_meta=4, seed=1, split=SplitSizes(15, 30))
        for rec in checked_run(cfg, stream):
            ok = ok and rec.inner_adapt_calls == cfg.n_meta * rec.n_active
            bound = expected_census(scheme, rec.t, T)["total"]
            if kind == "di":
                ok = ok and rec.n_experts == rec.t
            else:
                ok = ok and rec.n_experts <= bound
    report(11, ok,
           "inner-adapt calls equal n_meta * |A_t| every round; expert "
           "counts within closed-form census bounds for all schemes")
