import math

import numpy as np
import pytest

from fairsaoml.errors import InternalConsistencyError
from fairsaoml.experts import (ExpertPool, GradientBoundConsts, stepsize,
                               update_g_bound)
from fairsaoml.intervals import IntervalScheme, target_set
from fairsaoml.model_core import TaskBatch
from oracles import DictExpertPool, expected_census


# the engine's starting bounds at epsilon = 0.05, d = 3: radius sqrt(1 + 2 eps) - 1
S_RADIUS = math.sqrt(1.1) - 1.0
BOUNDS = GradientBoundConsts(S_RADIUS, math.sqrt(3) + S_RADIUS)
ROUNDS = 18  # the stream length, which is AGC's horizon


def make_pool(kind, base=2):
    return ExpertPool(IntervalScheme(kind, base=base), dim=3, n_constraints=1)


def targets(pool, t):
    return target_set(pool.scheme, t, ROUNDS)


def drive(pool, up_to):
    for t in range(1, up_to + 1):
        pool.activate(t, targets(pool, t), BOUNDS)


def row(pool, length):
    return int(np.searchsorted(pool.lengths, length))


def interval(pool, length):
    i = row(pool, length)
    return int(pool.starts[i]), int(pool.ends[i])


class TestBounds:
    def test_stepsize_formula(self):
        b = GradientBoundConsts(0.05, 2.0)
        assert stepsize(4, b) == pytest.approx(0.05 / (2.0 * 2.0))

    def test_g_bound_running_max(self):
        b = GradientBoundConsts(0.05, 2.0)
        big = TaskBatch(np.array([[3.0, 4.0, 0.0]]), [1], [1])
        b2 = update_g_bound(b, big)
        assert b2.g_bound == pytest.approx(5.0)
        small = TaskBatch(np.array([[0.1, 0.0, 0.0]]), [1], [1])
        b3 = update_g_bound(b2, small)
        assert b3.g_bound == pytest.approx(5.0)  # never shrinks


class TestCensus:
    # AGC's horizon is the stream length; DI and DGC ignore it
    @pytest.mark.parametrize("kind,horizon", [("di", None), ("agc", ROUNDS), ("dgc", None)])
    def test_matches_closed_form(self, kind, horizon):
        pool = make_pool(kind)
        for t in range(1, ROUNDS + 1):
            target = target_set(pool.scheme, t, horizon)
            pool.activate(t, target, BOUNDS)
            census = expected_census(pool.scheme, t, horizon)
            assert len(pool.lengths) == census["total"]
            # one restart per subset; truncation can merge their intervals
            restarted = target[0]
            assert pool.lengths[pool.active].tolist() == restarted.tolist()

    def test_agc_reference_counts_at_t5(self):
        pool = make_pool("agc")
        drive(pool, 5)
        assert pool.active.sum() == 3
        assert (~pool.active).sum() == 1
        assert interval(pool, 8) == (1, 8)
        assert not pool.active[row(pool, 8)]

    def test_rows_ascend_by_length(self):
        pool = make_pool("agc")
        drive(pool, 1)
        assert pool.lengths.tolist() == [1, 2, 4, 8]


class TestInheritance:
    def test_di_inherits_from_shorter(self):
        pool = make_pool("di")
        drive(pool, 3)
        pool.r[row(pool, 2)], pool.c[row(pool, 2)] = 0.7, 0.9
        pool.activate(4, targets(pool, 4), BOUNDS)
        # the length-3 expert at t=4 ([2,4]) takes over the old length-2 stats
        assert pool.r[row(pool, 3)] == 0.7
        assert pool.c[row(pool, 3)] == 0.9
        # the fresh suffix [4,4] starts clean at length 1 from length 0
        assert pool.r[row(pool, 1)] == 0.0

    def test_agc_inherits_same_length(self):
        pool = make_pool("agc")
        drive(pool, 4)
        pool.r[row(pool, 4)], pool.c[row(pool, 4)] = 0.3, 0.4
        pool.activate(5, targets(pool, 5), BOUNDS)
        assert interval(pool, 4) == (5, 8)
        assert (pool.r[row(pool, 4)], pool.c[row(pool, 4)]) == (0.3, 0.4)

    def test_agc_missing_predecessor_raises(self):
        pool = make_pool("agc")
        drive(pool, 2)
        keep = pool.lengths != 2
        pool.lengths, pool.r, pool.c = pool.lengths[keep], pool.r[keep], pool.c[keep]
        with pytest.raises(InternalConsistencyError, match="length-2"):
            pool.activate(3, targets(pool, 3), BOUNDS)

    def test_dgc_starts_clean_without_predecessor(self):
        pool = make_pool("dgc")
        drive(pool, 1)
        pool.r[row(pool, 1)] = 0.5
        report = pool.activate(2, targets(pool, 2), BOUNDS)
        assert pool.r[row(pool, 1)] == 0.5   # length-1 chain continues
        assert pool.r[row(pool, 2)] == 0.0   # first length-2 expert is fresh
        assert report.tolist() == [[1, True], [2, False]]
        assert (interval(pool, 1), interval(pool, 2)) == ((2, 2), (2, 3))


class TestActivation:
    def test_eta_uses_nominal_length(self):
        pool = make_pool("agc")
        drive(pool, 17)
        # [17,18] is the truncated tail of the length-8 subset
        assert interval(pool, 8) == (17, 18)
        b = BOUNDS
        assert pool.eta[row(pool, 8)] == pytest.approx(b.s_radius / (b.g_bound * math.sqrt(8)))

    def test_sleeping_params_frozen(self):
        pool = make_pool("agc")
        drive(pool, 1)
        pool.theta[:] = np.arange(4)[:, None]
        pool.activate(2, targets(pool, 2), BOUNDS)  # length 8 not in C_2
        assert not pool.active[row(pool, 8)]
        assert np.array_equal(pool.theta[row(pool, 8)], [3.0, 3.0, 3.0])


@pytest.mark.parametrize("kind,horizon,base", [
    ("di", None, 2),
    ("agc", 40, 2), ("agc", 40, 3),
    ("dgc", None, 2), ("dgc", None, 3),
])
def test_matches_dict_pool_oracle(kind, horizon, base):
    """Both pools under the same activations, bounds and random R/C
    increments agree row by row for 40 rounds."""
    scheme = IntervalScheme(kind, base=base)
    pool = ExpertPool(scheme, dim=3, n_constraints=1)
    oracle = DictExpertPool(scheme)
    rng = np.random.default_rng(7)
    for t in range(1, 41):
        # a growing gradient bound gives each round's restarts a new η
        bounds = GradientBoundConsts(S_RADIUS, BOUNDS.g_bound + 0.1 * t)
        target = target_set(scheme, t, horizon)
        report = pool.activate(t, target, bounds)
        # the oracle reports in descending order of length
        assert [tuple(r) for r in report.tolist()] == oracle.activate(t, target, bounds)[::-1]
        experts = [oracle.experts[length] for length in sorted(oracle.experts)]
        assert pool.lengths.tolist() == sorted(oracle.experts)
        assert list(zip(pool.starts.tolist(), pool.ends.tolist())) == \
            [e.interval for e in experts]
        assert pool.active.tolist() == [e.active for e in experts]
        assert pool.eta.tolist() == [e.eta for e in experts]
        assert pool.r.tolist() == [e.r_stat for e in experts]
        assert pool.c.tolist() == [e.c_stat for e in experts]
        delta = rng.uniform(-1.0, 1.0, size=len(experts))
        pool.r, pool.c = pool.r + delta, pool.c + np.abs(delta)
        for e, d in zip(experts, delta):
            e.r_stat, e.c_stat = e.r_stat + d, e.c_stat + abs(d)
