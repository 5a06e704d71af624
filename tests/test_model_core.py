import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsaoml.errors import (ConfigurationError, DegenerateGroupError,
                              DegenerateInputError)
from oracles import split_batch_by_setdiff

from fairsaoml.model_core import (BatchSplit, FairnessSpec, LossSpec, ParamPair,
                                  TaskBatch, fairness_constraints, loss, loss_grad,
                                  split_batch)
from fairsaoml.optimizer import constraint_values, interval_lagrangian_theta_grad

RNG = np.random.default_rng(7)


def random_batch(n=30, d=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.choice([-1, 1], size=n)
    s = rng.choice([-1, 1], size=n)
    # ensure both groups and classes appear
    y[:2] = [-1, 1]
    s[:2] = [-1, 1]
    return TaskBatch(x, y, s)


def central_diff(fn, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return g


class TestBatchValidation:
    def test_rejects_bad_labels(self):
        with pytest.raises(ConfigurationError):
            TaskBatch(np.zeros((2, 2)), [0, 1], [1, -1])

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInputError):
            TaskBatch(np.zeros((0, 2)), [], [])

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            TaskBatch([[np.nan, 0.0]], [1], [1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            TaskBatch(np.zeros((3, 2)), [1, -1], [1, -1, 1])

    def make_int8(self):
        # int8 labels and float32 features, which the constructor converts
        rng = np.random.default_rng(3)
        return TaskBatch(rng.standard_normal((12, 3)).astype(np.float32),
                         rng.choice([-1, 1], size=12).astype(np.int8),
                         rng.choice([-1, 1], size=12).astype(np.int8), round=7)

    def test_subset_equals_validated_batch(self):
        b = self.make_int8()
        for idx in (np.array([0]), np.arange(12), np.array([11, 2, 5, 2]),
                    np.flatnonzero(b.labels == 1)):
            sub = b.subset(idx)
            fresh = TaskBatch(b.features[idx], b.labels[idx], b.protected[idx], round=b.round)
            assert sub.round == fresh.round == 7
            for name in ("features", "labels", "protected"):
                got, want = getattr(sub, name), getattr(fresh, name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_subset_does_not_alias_parent(self):
        b = self.make_int8()
        before = (b.features.copy(), b.labels.copy(), b.protected.copy())
        sub = b.subset(np.arange(5))
        sub.features[:] = 0.0
        sub.labels[:] = 9
        sub.protected[:] = 9
        for now, then in zip((b.features, b.labels, b.protected), before):
            assert np.array_equal(now, then)

    def test_subset_rejects_empty_index(self):
        with pytest.raises(DegenerateInputError, match="empty batch"):
            self.make_int8().subset(np.array([], dtype=int))


class TestParamPair:
    def test_copies_inputs(self):
        th = np.ones(3)
        p = ParamPair(th, np.zeros(1))
        th[0] = 5.0
        assert p.theta[0] == 1.0

    def test_rejects_negative_dual(self):
        with pytest.raises(ConfigurationError):
            ParamPair(np.zeros(2), [-0.1])


class TestLoss:
    def test_at_zero_is_log2(self):
        b = random_batch()
        assert loss(np.zeros(b.dim), b, LossSpec(l2_coefficient=0.0)) == pytest.approx(np.log(2.0))

    def test_l2_term(self):
        b = random_batch()
        th = RNG.standard_normal(b.dim)
        base = loss(th, b, LossSpec(l2_coefficient=0.0))
        ridged = loss(th, b, LossSpec(l2_coefficient=0.2))
        assert ridged == pytest.approx(base + 0.1 * float(th @ th))

    def test_large_scores_no_overflow(self):
        b = random_batch()
        v = loss(1e4 * np.ones(b.dim), b, LossSpec())
        assert np.isfinite(v)

    def test_grad_matches_fd(self):
        spec = LossSpec(l2_coefficient=1e-3)
        for seed in range(20):
            b = random_batch(seed=seed)
            th = np.random.default_rng(seed).standard_normal(b.dim) * 0.3
            fd = central_diff(lambda t: loss(t, b, spec), th)
            g = loss_grad(th, b, spec)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))



def constraint(batch, spec):
    """The one-spec constraint pair (A, eps) of `spec` on `batch`."""
    return fairness_constraints(batch, (spec,))


def inner_mean(theta, batch, spec):
    """θ @ a for the spec's row a: the weighted mean score."""
    return theta @ constraint(batch, spec)[0][0]


def surrogate_grad(theta, batch, spec):
    """The θ-gradient of the surrogate: the Lagrangian's at λ = 1 less the loss's."""
    loss_spec, lam = LossSpec(), np.ones(np.shape(theta)[:-1] + (1,))
    return (interval_lagrangian_theta_grad(theta, lam, batch, loss_spec, constraint(batch, spec))
            - loss_grad(theta, batch, loss_spec))


class TestFairnessSurrogate:
    def test_ddp_hand_example(self):
        # p1 = 1/2, weights are +2 for s=+1 and -2 for s=-1
        b = TaskBatch(np.array([[1.0], [2.0], [3.0], [4.0]]),
                      [1, 1, -1, -1], [1, 1, -1, -1])
        spec = FairnessSpec("ddp", epsilon=0.05)
        th = np.array([0.1])
        # weighted scores: .2, .4, -.6, -.8 -> mean -0.2
        assert inner_mean(th, b, spec) == pytest.approx(-0.2)
        assert constraint_values(th, constraint(b, spec))[0] == pytest.approx(0.2 - 0.05)

    def test_deo_ignores_negative_label_rows(self):
        x = np.array([[1.0], [5.0], [-3.0], [2.0]])
        b = TaskBatch(x, [1, -1, -1, 1], [1, -1, 1, -1])
        spec = FairnessSpec("deo", epsilon=0.0)
        th = np.array([1.0])
        # p1 = P(y=1, s=1) = 1/4; weights on y=+1 rows only
        p1 = 0.25
        w1 = (1 - p1) / (p1 * (1 - p1))
        w4 = (0 - p1) / (p1 * (1 - p1))
        expect = (w1 * 1.0 + w4 * 2.0) / 4.0
        assert inner_mean(th, b, spec) == pytest.approx(expect)

    def test_degenerate_groups_raise(self):
        b = TaskBatch(np.zeros((3, 1)), [1, -1, 1], [1, 1, 1])
        with pytest.raises(DegenerateGroupError,
                           match=re.escape("fairness surrogate undefined: p1 in {0, 1}")):
            constraint(b, FairnessSpec("ddp"))
        b2 = TaskBatch(np.zeros((3, 1)), [-1, -1, -1], [1, -1, 1])
        with pytest.raises(DegenerateGroupError,
                           match=re.escape("DEO requires at least one sample with y=+1")):
            constraint(b2, FairnessSpec("deo"))

    def test_first_degenerate_spec_names_the_error(self):
        # no y=+1 row and one group only: each spec has its own message
        b = TaskBatch(np.zeros((3, 1)), [-1, -1, -1], [1, 1, 1])
        ddp, deo = FairnessSpec("ddp"), FairnessSpec("deo")
        with pytest.raises(DegenerateGroupError, match="p1 in"):
            fairness_constraints(b, (ddp, deo))
        with pytest.raises(DegenerateGroupError, match="DEO requires"):
            fairness_constraints(b, (deo, ddp))

    def test_value_scales_linearly_before_abs(self):
        b = random_batch(seed=11)
        spec = FairnessSpec("ddp", epsilon=0.0)
        th = RNG.standard_normal(b.dim)
        v1 = inner_mean(th, b, spec)
        v3 = inner_mean(3.0 * th, b, spec)
        assert v3 == pytest.approx(3.0 * v1)

    def test_grad_matches_fd_off_kink(self):
        for seed in range(20):
            b = random_batch(seed=seed + 50)
            for kind in ("ddp", "deo"):
                spec = FairnessSpec(kind, epsilon=0.05)
                th = np.random.default_rng(seed).standard_normal(b.dim)
                if abs(inner_mean(th, b, spec)) < 1e-3:
                    continue
                fd = central_diff(lambda t: constraint_values(t, constraint(b, spec))[0], th)
                g = surrogate_grad(th, b, spec)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_grad_zero_at_kink(self):
        b = random_batch(seed=2)
        spec = FairnessSpec("ddp")
        assert np.all(surrogate_grad(np.zeros(b.dim), b, spec) == 0.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_value_at_least_minus_epsilon(self, seed):
        b = random_batch(seed=seed)
        spec = FairnessSpec("ddp", epsilon=0.05)
        th = np.random.default_rng(seed).standard_normal(b.dim)
        assert constraint_values(th, constraint(b, spec))[0] >= -spec.epsilon

    def test_weights_kept_per_kind_and_batch(self):
        # the group weights, and so the rows, belong to one batch and one kind; a
        # second kind on the same batch, or a subset batch, must not reuse them
        b = random_batch(seed=5)
        ddp, deo = FairnessSpec("ddp", 0.0), FairnessSpec("deo", 0.0)
        rows, eps = fairness_constraints(b, (ddp, deo, ddp))
        assert rows.shape == (3, b.dim) and eps.shape == (3,)
        assert not np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], rows[2])
        sub = b.subset(np.arange(10))
        fresh = TaskBatch(sub.features, sub.labels, sub.protected)
        for got, want in zip(fairness_constraints(sub, (ddp, deo)),
                             fairness_constraints(fresh, (ddp, deo))):
            assert np.array_equal(got, want)

    def test_rows_match_single_row_calls(self):
        b = random_batch(seed=9)
        thetas = np.random.default_rng(9).standard_normal((5, b.dim))
        spec, fair = LossSpec(l2_coefficient=0.1), FairnessSpec("deo", 0.05)
        for fn, args in ((loss, (b, spec)), (loss_grad, (b, spec)),
                         (inner_mean, (b, fair)),
                         (constraint_values, (constraint(b, fair),)),
                         (surrogate_grad, (b, fair))):
            out = fn(thetas, *args)
            assert len(out) == 5
            for row, theta in zip(out, thetas):
                np.testing.assert_allclose(row, fn(theta, *args), rtol=1e-13, atol=1e-15)

    def test_degenerate_batch_raises_on_every_call(self):
        b = TaskBatch(np.ones((3, 1)), [1, -1, 1], [1, 1, 1])
        for _ in range(2):
            with pytest.raises(DegenerateGroupError):
                constraint(b, FairnessSpec("ddp"))


class TestSplit:
    def make(self, n=140, seed=5):
        return random_batch(n=n, d=3, seed=seed)

    def test_partition_disjoint_and_complete(self):
        b = self.make()
        sp = split_batch(b, 20, 40, rng_seed=9)
        assert isinstance(sp, BatchSplit)
        assert sp.support.size == 40
        assert sp.query.size == 40
        assert sp.support.size + sp.query.size + sp.validation.size == b.size
        rows = np.vstack([sp.support.features, sp.query.features, sp.validation.features])
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]

    def test_support_stratified(self):
        b = self.make()
        sp = split_batch(b, 20, 40, rng_seed=1)
        assert (sp.support.labels == 1).sum() == 20
        assert (sp.support.labels == -1).sum() == 20

    def test_deterministic_in_seed(self):
        b = self.make()
        a = split_batch(b, 20, 40, rng_seed=77)
        c = split_batch(b, 20, 40, rng_seed=77)
        assert np.array_equal(a.support.features, c.support.features)
        assert np.array_equal(a.query.features, c.query.features)
        d = split_batch(b, 20, 40, rng_seed=78)
        assert not np.array_equal(a.support.features, d.support.features)

    def test_too_small_raises(self):
        b = self.make(n=50)
        with pytest.raises(DegenerateInputError):
            split_batch(b, 20, 40, rng_seed=0)

    def test_matches_setdiff_oracle(self):
        # exact sizes, roomy batches and too-small batches, with random class balance
        parts = ("support", "query", "validation")
        outcomes = {"raised": 0, "one_validation_row": 0, "split": 0}
        for draw in range(360):
            rng = np.random.default_rng(draw)
            spc, q = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            need = 2 * spc + q + 1
            n = (need, need + int(rng.integers(1, 150)),
                 int(rng.integers(2, need)))[draw % 3]
            n_pos = int(rng.integers(spc, n - spc + 1)) if draw % 3 == 0 else \
                int(rng.integers(1, n))
            labels = rng.permutation(np.repeat([1, -1], [n_pos, n - n_pos]))
            b = TaskBatch(rng.standard_normal((n, 3)), labels,
                          rng.choice([-1, 1], size=n), round=draw)
            seed = int(rng.integers(2**31))
            try:
                want = split_batch_by_setdiff(b, spc, q, seed)
            except DegenerateInputError as exc:
                with pytest.raises(DegenerateInputError, match=re.escape(str(exc))):
                    split_batch(b, spc, q, seed)
                outcomes["raised"] += 1
                continue
            got = split_batch(b, spc, q, seed)
            for part in parts:
                g, w = getattr(got, part), getattr(want, part)
                assert g.round == w.round == draw
                for name in ("features", "labels", "protected"):
                    assert getattr(g, name).dtype == getattr(w, name).dtype
                    assert np.array_equal(getattr(g, name), getattr(w, name))
            outcomes["split"] += 1
            outcomes["one_validation_row"] += got.validation.size == 1
        assert min(outcomes.values()) >= 50, outcomes
