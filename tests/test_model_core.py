import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsaoml.errors import (ConfigurationError, DegenerateGroupError,
                              DegenerateInputError)
from fairsaoml.model_core import (BatchSplit, FairnessSpec, LossSpec, ParamPair,
                                  TaskBatch, estimate_p1, fairness_grad,
                                  fairness_inner_mean, fairness_value, loss,
                                  loss_grad, split_batch)

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



class TestFairnessSurrogate:
    def test_ddp_hand_example(self):
        # p1 = 1/2, weights are +2 for s=+1 and -2 for s=-1
        b = TaskBatch(np.array([[1.0], [2.0], [3.0], [4.0]]),
                      [1, 1, -1, -1], [1, 1, -1, -1])
        spec = FairnessSpec("ddp", epsilon=0.05)
        th = np.array([0.1])
        # weighted scores: .2, .4, -.6, -.8 -> mean -0.2
        assert fairness_inner_mean(th, b, spec) == pytest.approx(-0.2)
        assert fairness_value(th, b, spec) == pytest.approx(0.2 - 0.05)

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
        assert fairness_inner_mean(th, b, spec) == pytest.approx(expect)

    def test_estimate_p1_degenerate(self):
        b = TaskBatch(np.zeros((3, 1)), [1, -1, 1], [1, 1, 1])
        with pytest.raises(DegenerateGroupError):
            estimate_p1(b, "ddp")
        b2 = TaskBatch(np.zeros((3, 1)), [-1, -1, -1], [1, -1, 1])
        with pytest.raises(DegenerateGroupError):
            estimate_p1(b2, "deo")

    def test_value_scales_linearly_before_abs(self):
        b = random_batch(seed=11)
        spec = FairnessSpec("ddp", epsilon=0.0)
        th = RNG.standard_normal(b.dim)
        v1 = fairness_inner_mean(th, b, spec)
        v3 = fairness_inner_mean(3.0 * th, b, spec)
        assert v3 == pytest.approx(3.0 * v1)

    def test_grad_matches_fd_off_kink(self):
        for seed in range(20):
            b = random_batch(seed=seed + 50)
            for kind in ("ddp", "deo"):
                spec = FairnessSpec(kind, epsilon=0.05)
                th = np.random.default_rng(seed).standard_normal(b.dim)
                if abs(fairness_inner_mean(th, b, spec)) < 1e-3:
                    continue
                fd = central_diff(lambda t: fairness_value(t, b, spec), th)
                g = fairness_grad(th, b, spec)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_grad_zero_at_kink(self):
        b = random_batch(seed=2)
        spec = FairnessSpec("ddp")
        assert np.all(fairness_grad(np.zeros(b.dim), b, spec) == 0.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_value_at_least_minus_epsilon(self, seed):
        b = random_batch(seed=seed)
        spec = FairnessSpec("ddp", epsilon=0.05)
        th = np.random.default_rng(seed).standard_normal(b.dim)
        assert fairness_value(th, b, spec) >= -spec.epsilon

    def test_weights_kept_per_kind_and_batch(self):
        # the weights belong to one batch and one kind; a second kind on the
        # same batch, or a subset batch, must not reuse them
        b = random_batch(seed=5)
        th = RNG.standard_normal(b.dim)
        ddp, deo = FairnessSpec("ddp", 0.0), FairnessSpec("deo", 0.0)
        first = fairness_inner_mean(th, b, ddp)
        assert fairness_inner_mean(th, b, deo) != first
        assert fairness_inner_mean(th, b, ddp) == first
        sub = b.subset(np.arange(10))
        fresh = TaskBatch(sub.features, sub.labels, sub.protected)
        assert fairness_inner_mean(th, sub, ddp) == fairness_inner_mean(th, fresh, ddp)
        assert np.array_equal(fairness_grad(th, sub, deo), fairness_grad(th, fresh, deo))

    def test_rows_match_single_row_calls(self):
        b = random_batch(seed=9)
        thetas = np.random.default_rng(9).standard_normal((5, b.dim))
        spec, fair = LossSpec(l2_coefficient=0.1), FairnessSpec("deo", 0.05)
        for fn, s in ((loss, spec), (loss_grad, spec), (fairness_inner_mean, fair),
                      (fairness_value, fair), (fairness_grad, fair)):
            out = fn(thetas, b, s)
            assert len(out) == 5
            for row, theta in zip(out, thetas):
                np.testing.assert_allclose(row, fn(theta, b, s), rtol=1e-13, atol=1e-15)

    def test_degenerate_batch_raises_on_every_call(self):
        b = TaskBatch(np.ones((3, 1)), [1, -1, 1], [1, 1, 1])
        for _ in range(2):
            with pytest.raises(DegenerateGroupError):
                fairness_value(np.ones(1), b, FairnessSpec("ddp"))


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
