import numpy as np
import pytest

from fairsaoml.model_core import (FairnessSpec, LossSpec, ParamPair, TaskBatch,
                                  fairness_constraints, loss, loss_grad)
from fairsaoml.optimizer import (Ball, LagrangianConfig, constraint_values,
                                 inner_adapt, interval_lagrangian,
                                 interval_lagrangian_theta_grad, meta_gradients,
                                 meta_update, project_ball)
from oracles import (constraint_values_by_spec, fairness_direction, fairness_value,
                     inner_adapt_by_spec, meta_gradients_by_expert, meta_lagrangian,
                     theta_grad_by_spec)

LOSS = LossSpec(l2_coefficient=1e-3)
FAIR = (FairnessSpec("ddp", epsilon=0.05),)
TWO = (FairnessSpec("deo", epsilon=0.05), FairnessSpec("ddp", epsilon=0.02))


def random_batch(n=40, d=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.choice([-1, 1], size=n)
    s = rng.choice([-1, 1], size=n)
    y[:2] = [-1, 1]
    s[:2] = [-1, 1]
    return TaskBatch(x, y, s)


def cons(batch, specs=FAIR):
    """The constraint rows and bounds of `specs` on `batch`."""
    return fairness_constraints(batch, specs)


def rows(pair, k=1):
    """`pair` repeated as k expert rows."""
    return ParamPair(np.tile(pair.theta, (k, 1)), np.tile(pair.lam, (k, 1)))


def central_diff(fn, v, h=1e-6):
    g = np.zeros_like(v)
    for i in range(v.size):
        e = np.zeros_like(v)
        e[i] = h
        g[i] = (fn(v + e) - fn(v - e)) / (2 * h)
    return g


class TestConfig:
    def test_damping_product(self):
        cfg = LagrangianConfig(delta=50.0, eta1=0.01, eta2=0.03)
        assert cfg.dual_damping == pytest.approx(50.0 * 0.04)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LagrangianConfig(delta=0.0)
        with pytest.raises(ValueError):
            LagrangianConfig(inner_steps=0)


class TestProjection:
    def test_inside_untouched(self):
        v = np.array([0.01, 0.02])
        assert np.array_equal(project_ball(v, Ball(0.1)), v)

    def test_outside_rescaled(self):
        v = np.array([3.0, 4.0])
        out = project_ball(v, Ball(1.0))
        assert np.linalg.norm(out) == pytest.approx(1.0)
        assert np.allclose(out, v / 5.0)


class TestIntervalLagrangian:
    def test_recomposition(self):
        b = random_batch(seed=1)
        pair = ParamPair(np.full(b.dim, 0.1), np.array([0.7]))
        expect = loss(pair.theta, b, LOSS) + 0.7 * fairness_value(pair.theta, b, FAIR[0])
        assert interval_lagrangian(pair, b, LOSS, cons(b)) == pytest.approx(expect)

    def test_theta_grad_matches_fd(self):
        for seed in range(10):
            b = random_batch(seed=seed)
            rng = np.random.default_rng(seed)
            pair = ParamPair(rng.standard_normal(b.dim), np.abs(rng.standard_normal(1)))
            fd = central_diff(lambda th: interval_lagrangian(ParamPair(th, pair.lam), b, LOSS,
                                                             cons(b)), pair.theta)
            g = interval_lagrangian_theta_grad(pair.theta, pair.lam, b, LOSS, cons(b))
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def kink_batch(n=40, seed=18):
    """A batch whose feature 3 is zero and whose feature 4 is nonzero only on
    y=-1 rows: a θ along feature 3 sits on the kink θ·a = 0 of every
    constraint, and one along feature 4 on the kink of every DEO constraint."""
    b = random_batch(n=n, d=5, seed=seed)
    x = b.features.copy()
    x[:, 3] = 0.0
    x[b.labels == 1, 4] = 0.0
    return TaskBatch(x, b.labels, b.protected)


SPEC_SETS = {
    "ddp": FAIR,
    "deo+ddp": TWO,
    "ddp+ddp": (FairnessSpec("ddp", epsilon=0.02), FairnessSpec("ddp", epsilon=0.1)),
    "deo+deo+ddp": (FairnessSpec("deo", epsilon=0.0), FairnessSpec("deo", epsilon=0.3),
                    FairnessSpec("ddp", epsilon=0.05)),
}


class TestConstraintRows:
    """The matrix form against the per-spec closed forms of `oracles`."""

    def thetas(self, b):
        rng = np.random.default_rng(19)
        e3, e4 = np.eye(b.dim)[3], np.eye(b.dim)[4]
        return np.vstack([rng.standard_normal((3, b.dim)), np.zeros(b.dim), 0.7 * e3,
                          -2.0 * e4, rng.standard_normal(b.dim)])

    @pytest.mark.parametrize("name", sorted(SPEC_SETS))
    def test_rows_and_bounds(self, name):
        specs, b = SPEC_SETS[name], kink_batch()
        rows, eps = fairness_constraints(b, specs)
        assert rows.shape == (len(specs), b.dim)
        for row, e, spec in zip(rows, eps, specs):
            np.testing.assert_allclose(row, fairness_direction(b, spec.kind), rtol=1e-14,
                                       atol=1e-16)
            assert e == spec.epsilon

    @pytest.mark.parametrize("name", sorted(SPEC_SETS))
    def test_values_and_theta_grad_of_k_rows(self, name):
        specs, b = SPEC_SETS[name], kink_batch()
        thetas = self.thetas(b)
        lam = np.random.default_rng(20).uniform(0.1, 2.0, size=(len(thetas), len(specs)))
        got = constraint_values(thetas, cons(b, specs))
        want = constraint_values_by_spec(thetas, b, specs)
        assert got.shape == (len(thetas), len(specs))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        grad = interval_lagrangian_theta_grad(thetas, lam, b, LOSS, cons(b, specs))
        np.testing.assert_allclose(grad, theta_grad_by_spec(thetas, lam, b, LOSS, specs),
                                   rtol=0, atol=1e-14)
        if len(specs) == 1:  # one constraint: the same floating-point operations
            assert np.array_equal(got, want)
            assert np.array_equal(grad, theta_grad_by_spec(thetas, lam, b, LOSS, specs))

    @pytest.mark.parametrize("name", sorted(SPEC_SETS))
    def test_sign_of_zero_is_zero_at_the_kink(self, name):
        specs, b = SPEC_SETS[name], kink_batch()
        rows, eps = fairness_constraints(b, specs)
        thetas = self.thetas(b)
        scores = thetas @ rows.T
        deo = np.array([spec.kind == "deo" for spec in specs])
        kink = np.zeros_like(scores, dtype=bool)
        kink[3:5] = True    # θ = 0 and θ along feature 3
        kink[5] = deo       # θ along feature 4
        assert np.array_equal(scores == 0.0, kink)
        values = constraint_values(thetas, (rows, eps))
        assert np.array_equal(values[kink], -np.broadcast_to(eps, kink.shape)[kink])
        lam = np.ones((len(thetas), len(specs)))
        grad = interval_lagrangian_theta_grad(thetas, lam, b, LOSS, (rows, eps))
        # a constraint at its kink adds nothing to the gradient
        expect = loss_grad(thetas, b, LOSS) + np.where(kink, 0.0, np.sign(scores)) @ rows
        np.testing.assert_allclose(grad, expect, rtol=0, atol=1e-15)
        assert np.array_equal(grad[3:5], loss_grad(thetas, b, LOSS)[3:5])

    @pytest.mark.parametrize("name", sorted(SPEC_SETS))
    def test_inner_adapt_three_steps(self, name):
        # distinct support and query rows, four step sizes, three steps
        specs, b = SPEC_SETS[name], kink_batch()
        meta = ParamPair(np.array([0.1, -0.3, 0.2, 0.0, 0.4]),
                         np.linspace(0.05, 0.3, len(specs)))
        etas = np.array([0.4, 0.05, 1.3, 0.2])
        out = inner_adapt(meta, b, LOSS, cons(b, specs), etas, steps=3)
        for k, eta in enumerate(etas):
            theta, lam = inner_adapt_by_spec(meta, b, LOSS, specs, eta, steps=3)
            np.testing.assert_allclose(out.theta[k], theta, rtol=0, atol=1e-13)
            np.testing.assert_allclose(out.lam[k], lam, rtol=0, atol=1e-13)


class TestInnerAdapt:
    def test_one_step_hand_check(self):
        b = random_batch(seed=3)
        meta = ParamPair(np.full(b.dim, 0.05), np.array([0.2]))
        out = inner_adapt(meta, b, LOSS, cons(b), etas=[0.1], steps=1)
        g = interval_lagrangian_theta_grad(meta.theta, meta.lam, b, LOSS, cons(b))
        theta_expect = meta.theta - 0.1 * g
        assert np.allclose(out.theta[0], theta_expect)
        lam_expect = max(0.2 + 0.1 * fairness_value(theta_expect, b, FAIR[0]), 0.0)
        assert out.lam[0, 0] == pytest.approx(lam_expect)

    def test_dual_floored_at_zero(self):
        b = random_batch(seed=4)
        meta = ParamPair(np.zeros(b.dim), np.array([0.001]))
        # g(0) = -epsilon < 0, so a large eta drives lambda below zero pre-clip
        out = inner_adapt(meta, b, LOSS, cons(b), etas=[1.0], steps=1)
        assert out.lam[0, 0] == 0.0

    def test_does_not_mutate_meta(self):
        b = random_batch(seed=5)
        meta = ParamPair(np.full(b.dim, 0.05), np.array([0.3]))
        inner_adapt(meta, b, LOSS, cons(b), etas=[0.2, 0.4], steps=3)
        assert np.all(meta.theta == 0.05)
        assert meta.lam[0] == 0.3

    def test_more_steps_reduce_lagrangian(self):
        b = random_batch(seed=6)
        meta = ParamPair(np.full(b.dim, 0.3), np.array([0.0]))
        one = inner_adapt(meta, b, LOSS, cons(b), etas=[0.05], steps=1)
        five = inner_adapt(meta, b, LOSS, cons(b), etas=[0.05], steps=5)
        before, after = (interval_lagrangian(p, b, LOSS, cons(b))[0] for p in (one, five))
        assert after < before

    def test_rows_match_one_row_calls(self):
        b = random_batch(seed=15)
        meta = ParamPair(np.full(b.dim, 0.05), np.array([0.2, 0.01]))
        etas = np.array([0.4, 0.05, 1.3, 0.2])
        out = inner_adapt(meta, b, LOSS, cons(b, TWO), etas, steps=3)
        assert out.theta.shape == (4, b.dim) and out.lam.shape == (4, 2)
        for k, eta in enumerate(etas):
            one = inner_adapt(meta, b, LOSS, cons(b, TWO), [eta], steps=3)
            np.testing.assert_allclose(out.theta[k], one.theta[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.lam[k], one.lam[0], rtol=0, atol=1e-12)


class TestMetaObjective:
    def cfg(self):
        return LagrangianConfig(delta=50.0, eta1=0.01, eta2=0.01)

    def test_recomposition(self):
        b = random_batch(seed=7)
        cfg = self.cfg()
        pairs = [ParamPair(np.full(b.dim, 0.1), np.array([0.2])),
                 ParamPair(np.full(b.dim, -0.1), np.array([0.4]))]
        stacked = ParamPair(np.vstack([p.theta for p in pairs]),
                            np.vstack([p.lam for p in pairs]))
        expect = 0.0
        for w, p in zip((0.3, 0.7), pairs):
            g = fairness_value(p.theta, b, FAIR[0])
            expect += w * (loss(p.theta, b, LOSS) + p.lam[0] * g
                           - 0.5 * cfg.dual_damping * p.lam[0] ** 2)
        assert meta_lagrangian([0.3, 0.7], stacked, b, LOSS, FAIR, cfg) == pytest.approx(expect)

    def test_concave_in_lambda(self):
        b = random_batch(seed=8)
        cfg = self.cfg()

        def val(lam):
            pair = ParamPair(np.full((1, b.dim), 0.1), np.array([[lam]]))
            return meta_lagrangian([1.0], pair, b, LOSS, FAIR, cfg)

        # second difference negative with the damping term switched on
        h = 0.1
        assert val(1.0 + h) + val(1.0 - h) - 2 * val(1.0) < 0.0

    def test_gradients_match_fd_at_meta_point(self):
        # evaluating every expert at the meta pair makes the detached
        # first-order gradient an exact gradient of the meta objective
        b = random_batch(seed=9)
        cfg = self.cfg()
        rng = np.random.default_rng(9)
        meta = ParamPair(rng.standard_normal(b.dim) * 0.2, np.array([0.3]))
        weights = np.array([0.4, 0.6])

        def obj(theta, lam):
            return meta_lagrangian(weights, rows(ParamPair(theta, lam), 2), b, LOSS, FAIR, cfg)

        g_theta, g_lambda = meta_gradients(weights, np.array([True, True]), rows(meta, 2),
                                           meta, b, LOSS, cons(b), cfg)
        fd_theta = central_diff(lambda th: obj(th, meta.lam), meta.theta)
        fd_lambda = central_diff(lambda lm: obj(meta.theta, lm), meta.lam)
        assert np.linalg.norm(g_theta - fd_theta) <= 1e-5 * max(1.0, np.linalg.norm(fd_theta))
        assert np.linalg.norm(g_lambda - fd_lambda) <= 1e-5 * max(1.0, np.linalg.norm(fd_lambda))

    def test_sleeping_expert_contributes_only_damping(self):
        b = random_batch(seed=10)
        cfg = self.cfg()
        meta = ParamPair(np.full(b.dim, 0.1), np.array([0.5]))
        no_rows = ParamPair(np.zeros((0, b.dim)), np.zeros((0, 1)))
        g_theta, g_lambda = meta_gradients(np.array([1.0]), np.array([False]), no_rows,
                                           meta, b, LOSS, cons(b), cfg)
        assert np.all(g_theta == 0.0)
        assert g_lambda[0] == pytest.approx(-cfg.dual_damping * 0.5)

    def test_matches_per_expert_loop(self):
        # distinct support and query batches, two constraints and three inner
        # steps, with sleeping experts between the active ones
        support, query = random_batch(seed=16), random_batch(seed=17)
        cfg = LagrangianConfig(delta=5.0, eta1=0.02, eta2=0.03, inner_steps=3)
        meta = ParamPair(np.array([0.1, -0.2, 0.05, 0.3]), np.array([0.4, 0.1]))
        weights = np.array([0.1, 0.25, 0.05, 0.3, 0.2, 0.1])
        active = np.array([True, False, True, True, False, True])
        adapted = inner_adapt(meta, support, LOSS, cons(support, TWO), [0.5, 0.2, 0.9, 0.05],
                              cfg.inner_steps)
        got = meta_gradients(weights, active, adapted, meta, query, LOSS, cons(query, TWO), cfg)
        want = meta_gradients_by_expert(weights, active, adapted, meta, query, LOSS, TWO, cfg)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


class TestMetaUpdate:
    def test_projects_and_clips(self):
        b = random_batch(seed=12)
        cfg = LagrangianConfig(delta=50.0, eta1=5.0, eta2=5.0)
        ball = Ball(0.05)
        meta = ParamPair(np.full(b.dim, 0.02), np.array([0.001]))
        adapted = inner_adapt(meta, b, LOSS, cons(b), [0.01], 1)
        out = meta_update(meta, np.array([1.0]), np.array([True]), adapted, b, LOSS, cons(b),
                          cfg, ball)
        assert np.linalg.norm(out.theta) <= ball.radius + 1e-12
        assert np.all(out.lam >= 0.0)

    def test_dual_clip_exercised(self):
        # constraint well satisfied -> lambda gradient negative -> clip to 0
        b = random_batch(seed=13)
        cfg = LagrangianConfig(delta=50.0, eta1=0.01, eta2=1.0)
        meta = ParamPair(np.zeros(b.dim), np.array([0.01]))
        weights, active = np.array([1.0]), np.array([True])
        g_theta, g_lambda = meta_gradients(weights, active, rows(meta), meta, b, LOSS, cons(b),
                                           cfg)
        assert meta.lam[0] + cfg.eta2 * g_lambda[0] < 0.0
        out = meta_update(meta, weights, active, rows(meta), b, LOSS, cons(b), cfg, Ball(0.05))
        assert out.lam[0] == 0.0

    def test_primal_descends_weighted_objective(self):
        b = random_batch(seed=14)
        cfg = LagrangianConfig(delta=50.0, eta1=0.005, eta2=0.005)
        rng = np.random.default_rng(14)
        meta = ParamPair(rng.standard_normal(b.dim) * 0.02, np.array([0.0]))
        out = meta_update(meta, np.array([1.0]), np.array([True]), rows(meta), b, LOSS, cons(b),
                          cfg, Ball(1.0))
        before = loss(meta.theta, b, LOSS)
        after = loss(out.theta, b, LOSS)
        assert after < before
