from dataclasses import replace

import numpy as np
import pytest

from fairsaoml import engine
from fairsaoml.engine import (AblationFlags, MODE_SINGLE_EXPERT, Engine, RunConfig,
                              SplitSizes, run)
from fairsaoml.errors import ConfigurationError
from fairsaoml.intervals import IntervalScheme, target_set
from fairsaoml.model_core import FairnessSpec, LossSpec
from fairsaoml.stream import EnvSpec, StreamSpec, generate_stream
from oracles import expected_census


def make_stream(n_tasks=8, bias=0.4, seed=0, dim=4, batch=140):
    env = EnvSpec(n_tasks=n_tasks, dim=dim,
                  boundary=(1.0, 1.0) + (0.0,) * (dim - 2),
                  group_bias=bias, noise=0.05)
    return generate_stream(StreamSpec((env,), batch_size=batch, seed=seed))


def make_config(kind="dgc", **kw):
    scheme = None if kind is None else IntervalScheme(kind)
    defaults = dict(scheme=scheme, n_meta=3, seed=1,
                    split=SplitSizes(15, 30))
    defaults.update(kw)
    return RunConfig(**defaults)


class TestValidation:
    def test_scheme_required(self):
        with pytest.raises(ConfigurationError):
            RunConfig(scheme=None)

    def test_empty_stream(self):
        with pytest.raises(ConfigurationError):
            run(make_config(), [])

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            make_config(mode="bogus")


class TestCensusTraces:
    # AGC's horizon is the stream length; DI and DGC ignore it
    @pytest.mark.parametrize("kind,horizon", [("di", None), ("agc", 8), ("dgc", None)])
    def test_counts_per_round(self, kind, horizon):
        stream = make_stream(8)
        records = run(make_config(kind), stream)
        scheme = IntervalScheme(kind)
        for rec in records:
            assert rec.n_experts == expected_census(scheme, rec.t, horizon)["total"]
            assert rec.n_active == len(target_set(scheme, rec.t, horizon)[0])

    def test_dgc_trace_values(self):
        records = run(make_config("dgc"), make_stream(8))
        assert [r.n_experts for r in records] == [1, 2, 2, 3, 3, 3, 3, 4]


class TestDeterminism:
    def test_same_seed_bitwise(self):
        stream = make_stream(6)
        a = run(make_config("dgc", seed=4), stream)
        b = run(make_config("dgc", seed=4), stream)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.theta_current, rb.theta_current)
            assert ra.lambda_values == rb.lambda_values
            assert ra.val_loss == rb.val_loss

    def test_seed_matters(self):
        stream = make_stream(6)
        a = run(make_config("dgc", seed=4), stream)
        b = run(make_config("dgc", seed=5), stream)
        assert not np.array_equal(a[-1].theta_current, b[-1].theta_current)


class TestFeasibility:
    @pytest.mark.parametrize("kind,horizon", [("di", None), ("agc", 8), ("dgc", None)])
    def test_ball_and_dual_invariants(self, kind, horizon):
        cfg = make_config(kind)
        records = run(cfg, make_stream(horizon or 8, bias=1.0))
        radius = cfg.radius()
        for rec in records:
            assert rec.theta_norm <= radius + 1e-12
            assert all(v >= 0.0 for v in rec.lambda_values)

    def test_dual_clipped_to_zero_on_fair_stream(self):
        # lambda starts positive, the constraint stays satisfied, and the
        # damped dual update would go negative without the clip
        records = run(make_config("dgc", seed=2), make_stream(8, bias=0.0))
        assert any(v == 0.0 for rec in records for v in rec.lambda_values)


class TestAccounting:
    def test_inner_calls(self):
        cfg = make_config("dgc", n_meta=4)
        records = run(cfg, make_stream(8))
        for rec in records:
            assert rec.inner_adapt_calls == 4 * rec.n_active

    def test_weights_sum_to_one(self):
        records = run(make_config("di"), make_stream(8))
        for rec in records:
            assert rec.weights.sum() == pytest.approx(1.0)
            assert rec.max_weight == pytest.approx(rec.weights.max())


class TestModesAndAblations:
    def test_single_expert_structure(self):
        cfg = make_config("dgc")
        records = run(replace(cfg, mode=MODE_SINGLE_EXPERT), make_stream(8))
        for rec in records:
            assert rec.n_experts == 1
            assert rec.n_active == 1
            assert rec.max_weight == 1.0
            assert rec.intervals.tolist() == [[1, 8]]

    def test_single_expert_mode_without_scheme(self):
        cfg = make_config(None, mode=MODE_SINGLE_EXPERT)
        records = run(cfg, make_stream(4))
        assert len(records) == 4

    def test_disable_weights_uniform(self):
        cfg = make_config("dgc")
        records = run(replace(cfg, ablation=AblationFlags(disable_weights=True)),
                      make_stream(8))
        for rec in records:
            u = 1.0 / rec.n_experts
            assert rec.weights == pytest.approx(np.full(rec.n_experts, u))

    def test_disable_base_learner_freezes_adaptation(self):
        cfg = make_config("dgc")
        records = run(replace(cfg, ablation=AblationFlags(disable_base_learner=True)),
                      make_stream(8))
        for rec in records:
            assert rec.inner_adapt_calls == 0


class TestLearning:
    def test_accuracy_improves_on_separable_stream(self):
        records = run(make_config("dgc", n_meta=10, seed=3), make_stream(8, bias=0.0))
        first, last = records[0].val_acc, records[-1].val_acc
        assert last > first
        assert last > 0.8

    def test_records_carry_validation_batches(self):
        records = run(make_config("dgc"), make_stream(4))
        for rec in records:
            assert rec.validation.size > 0
            assert rec.theta_prev.shape == rec.theta_current.shape


class TestPoolState:
    def test_sleeping_rows_frozen_and_awake_rows_adapted(self, monkeypatch):
        inner_adapt, last = engine.inner_adapt, {}

        def recording_inner_adapt(*args):
            last["adapted"] = inner_adapt(*args)
            return last["adapted"]

        monkeypatch.setattr(engine, "inner_adapt", recording_inner_adapt)
        cfg = make_config("agc", n_meta=2)
        stream = make_stream(8)
        eng = Engine(cfg, total_rounds=8, dim=stream[0].dim)
        slept = 0
        for t, batch in enumerate(stream, start=1):
            before = {int(n): (th.copy(), lm.copy()) for n, th, lm in
                      zip(eng.pool.lengths, eng.pool.theta, eng.pool.lam)}
            eng.round(t, batch)
            pool = eng.pool
            assert np.array_equal(pool.theta[pool.active], last["adapted"].theta)
            assert np.array_equal(pool.lam[pool.active], last["adapted"].lam)
            for n, th, lm in zip(pool.lengths[~pool.active], pool.theta[~pool.active],
                                 pool.lam[~pool.active]):
                assert np.array_equal(th, before[int(n)][0])
                assert np.array_equal(lm, before[int(n)][1])
                slept += 1
        assert slept > 0

    @pytest.mark.parametrize("kind,horizon", [("di", None), ("agc", 8), ("dgc", None)])
    def test_records_do_not_alias_pool_state(self, kind, horizon):
        # DI grows the pool every round; AGC and DGC mostly update it in place
        stream = make_stream(horizon or 8)
        eng = Engine(make_config(kind), total_rounds=len(stream), dim=stream[0].dim)
        kept = []
        for t, batch in enumerate(stream, start=1):
            rec = eng.round(t, batch)
            # every earlier record is unchanged by the rounds after it
            for old, (weights, intervals, theta_prev, theta) in kept:
                assert np.array_equal(old.weights, weights)
                assert np.array_equal(old.intervals, intervals)
                assert np.array_equal(old.theta_prev, theta_prev)
                assert np.array_equal(old.theta_current, theta)
            kept.append((rec, (rec.weights.copy(), rec.intervals.copy(),
                               rec.theta_prev.copy(), rec.theta_current.copy())))
