import math

import numpy as np
import pytest

from fairsaoml.errors import InternalConsistencyError
from fairsaoml.experts import (ExpertPool, GradientBoundConsts, stepsize,
                               update_g_bound)
from fairsaoml.intervals import Interval, IntervalScheme, target_set
from fairsaoml.model_core import ParamPair, TaskBatch
from oracles import expected_census


def meta(d=3):
    return ParamPair(np.zeros(d), np.array([0.0]))


# the engine's starting bounds at epsilon = 0.05, d = 3: radius sqrt(1 + 2 eps) - 1
S_RADIUS = math.sqrt(1.1) - 1.0
BOUNDS = GradientBoundConsts(S_RADIUS, math.sqrt(3) + S_RADIUS)


def make_pool(kind, horizon=None, base=2):
    return ExpertPool(scheme=IntervalScheme(kind, horizon=horizon, base=base))


def drive(pool, up_to):
    for t in range(1, up_to + 1):
        pool.activate(t, target_set(pool.scheme, t), meta(), BOUNDS)


class TestBounds:
    def test_stepsize_formula(self):
        b = GradientBoundConsts(0.05, 2.0)
        assert stepsize(Interval(3, 6).length, b) == pytest.approx(0.05 / (2.0 * 2.0))

    def test_g_bound_running_max(self):
        b = GradientBoundConsts(0.05, 2.0)
        big = TaskBatch(np.array([[3.0, 4.0, 0.0]]), [1], [1])
        b2 = update_g_bound(b, big)
        assert b2.g_bound == pytest.approx(5.0)
        small = TaskBatch(np.array([[0.1, 0.0, 0.0]]), [1], [1])
        b3 = update_g_bound(b2, small)
        assert b3.g_bound == pytest.approx(5.0)  # never shrinks


class TestCensus:
    @pytest.mark.parametrize("kind,horizon", [("di", None), ("agc", 18), ("dgc", None)])
    def test_matches_closed_form(self, kind, horizon):
        pool = make_pool(kind, horizon)
        for t in range(1, 19):
            pool.activate(t, target_set(pool.scheme, t), meta(), BOUNDS)
            census = expected_census(pool.scheme, t)
            assert len(pool.experts) == census["total"]
            active = [e for e in pool.experts.values() if e.active]
            # one restart per subset; truncation can merge their intervals
            restarted = {length for length, _ in target_set(pool.scheme, t).members}
            assert len(active) == len(restarted)

    def test_agc_reference_counts_at_t5(self):
        pool = make_pool("agc", horizon=18)
        drive(pool, 5)
        active = [e for e in pool.experts.values() if e.active]
        sleeping = [e for e in pool.experts.values() if not e.active]
        assert len(active) == 3
        assert len(sleeping) == 1
        assert sleeping[0].interval == Interval(1, 8)


class TestInheritance:
    def test_di_inherits_from_shorter(self):
        pool = make_pool("di")
        drive(pool, 3)
        pool.experts[2].r_stat, pool.experts[2].c_stat = 0.7, 0.9
        pool.activate(4, target_set(pool.scheme, 4), meta(), BOUNDS)
        # the length-3 expert at t=4 ([2,4]) takes over the old length-2 stats
        assert pool.experts[3].r_stat == 0.7
        assert pool.experts[3].c_stat == 0.9
        # the fresh suffix [4,4] starts clean at length 1 from length 0
        assert pool.experts[1].r_stat == 0.0

    def test_agc_inherits_same_length(self):
        pool = make_pool("agc", horizon=18)
        drive(pool, 4)
        pool.experts[4].r_stat, pool.experts[4].c_stat = 0.3, 0.4
        pool.activate(5, target_set(pool.scheme, 5), meta(), BOUNDS)
        assert pool.experts[4].interval == Interval(5, 8)
        assert (pool.experts[4].r_stat, pool.experts[4].c_stat) == (0.3, 0.4)

    def test_agc_missing_predecessor_raises(self):
        pool = make_pool("agc", horizon=18)
        drive(pool, 2)
        del pool.experts[2]
        with pytest.raises(InternalConsistencyError):
            pool.activate(3, target_set(pool.scheme, 3), meta(), BOUNDS)

    def test_dgc_starts_clean_without_predecessor(self):
        pool = make_pool("dgc")
        drive(pool, 1)
        pool.experts[1].r_stat = 0.5
        pool.activate(2, target_set(pool.scheme, 2), meta(), BOUNDS)
        assert pool.experts[1].r_stat == 0.5   # length-1 chain continues
        assert pool.experts[2].r_stat == 0.0   # first length-2 expert is fresh

    def test_wrong_round_rejected(self):
        pool = make_pool("dgc")
        with pytest.raises(InternalConsistencyError):
            pool.activate(2, target_set(pool.scheme, 1), meta(), BOUNDS)


class TestActivation:
    def test_restart_copies_meta(self):
        pool = make_pool("dgc")
        m = ParamPair(np.array([0.01, 0.02, 0.0]), np.array([0.5]))
        pool.activate(1, target_set(pool.scheme, 1), m, BOUNDS)
        exp = pool.experts[1]
        assert np.array_equal(exp.params.theta, m.theta)
        m.theta[0] = 9.0
        assert exp.params.theta[0] == 0.01  # independent copy

    def test_eta_uses_nominal_length(self):
        pool = make_pool("agc", horizon=18)
        drive(pool, 17)
        # [17,18] is the truncated tail of the length-8 subset
        exp = pool.experts[8]
        assert exp.interval == Interval(17, 18)
        b = BOUNDS
        assert exp.eta == pytest.approx(b.s_radius / (b.g_bound * math.sqrt(8)))

    def test_sleeping_params_frozen(self):
        pool = make_pool("agc", horizon=18)
        m1 = ParamPair(np.array([0.01, 0.0, 0.0]), np.array([0.0]))
        pool.activate(1, target_set(pool.scheme, 1), m1, BOUNDS)
        stored = pool.experts[8].params.theta.copy()
        m2 = ParamPair(np.array([0.02, 0.0, 0.0]), np.array([0.0]))
        pool.activate(2, target_set(pool.scheme, 2), m2, BOUNDS)  # length 8 not in C_2
        assert not pool.experts[8].active
        assert np.array_equal(pool.experts[8].params.theta, stored)
