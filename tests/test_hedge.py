import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairsaoml import hedge
from fairsaoml.errors import ConfigurationError, NumericalFailureError
from oracles import phi, raw_weight


class TestPhi:
    def test_zero_point(self):
        assert phi(0.0, 0.0) == 1.0

    def test_nonpositive_r_is_one_for_any_c(self):
        assert phi(-3.0, 0.0) == 1.0
        assert phi(-0.5, 2.0) == 1.0

    def test_formula(self):
        assert phi(2.0, 4.0) == pytest.approx(math.exp(4.0 / 12.0), rel=1e-12)

    def test_positive_r_with_zero_c_rejected(self):
        with pytest.raises(ConfigurationError):
            phi(0.5, 0.0)


class TestRawWeight:
    def test_fresh_expert(self):
        # 1/2 (phi(1,1) - phi(-1,-1)) = 1/2 (e^{1/3} - 1)
        expect = 0.5 * (math.exp(1.0 / 3.0) - 1.0)
        assert raw_weight(0.0, 0.0) == pytest.approx(expect, abs=1e-12)

    def test_hand_value_r2_c2(self):
        expect = 0.5 * (math.e - math.exp(1.0 / 3.0))
        assert raw_weight(2.0, 2.0) == pytest.approx(expect, abs=1e-12)

    def test_monotone_in_r(self):
        assert raw_weight(3.0, 5.0) > raw_weight(1.0, 5.0)


def weights(pairs):
    """`hedge.normalize` over a list of (R, C) pairs."""
    r, c = zip(*pairs)
    return hedge.normalize(np.array(r), np.array(c))


class TestNormalize:
    def test_hand_example(self):
        w = weights([(0.0, 0.0), (2.0, 2.0), (-2.0, 2.0)])
        total = 0.5 * (math.exp(1.0 / 3.0) - 1.0) + 0.5 * (math.e - math.exp(1.0 / 3.0))
        assert w[0] == pytest.approx(0.5 * (math.exp(1.0 / 3.0) - 1.0) / total)
        assert w[1] == pytest.approx(0.5 * (math.e - math.exp(1.0 / 3.0)) / total)
        assert w[2] == pytest.approx(0.0, abs=1e-15)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_fallback(self):
        w = weights([(-5.0, 5.0)] * 4)
        assert all(v == 0.25 for v in w)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            hedge.normalize(np.zeros(0), np.zeros(0))

    def test_positive_r_with_nonpositive_c_rejected(self):
        # unreachable while |R| <= C holds
        with pytest.raises(ConfigurationError):
            weights([(0.0, 0.0), (1.5, 0.5)])

    @given(st.lists(st.tuples(st.floats(-20, 20), st.floats(0, 40)),
                    min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_sums_to_one(self, pairs):
        w = weights([(min(r, c), c) for r, c in pairs])
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert (w >= 0.0).all()

    def test_large_statistics_do_not_overflow(self):
        # exp(2201^2 / 6603) overflows a float; its share of the pool does not
        w = weights([(2200.0, 2200.0), (0.0, 0.0)])
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= w[1] < 1e-300

    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1e6)),
                    min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_finite_for_any_statistics(self, pairs):
        w = weights([(f * c, c) for f, c in pairs])
        assert np.isfinite(w).all() and (w >= 0.0).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 50.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_closed_form(self, pairs):
        # the closed form subtracts two potentials and loses up to ~1e-12 to
        # cancellation near r = -1; the log form does not
        stats = [(f * c, c) for f, c in pairs]
        raw = [raw_weight(r, c) for r, c in stats]
        total = sum(raw)
        # the two forms may round to opposite sides of the fallback threshold
        assume(abs(total / hedge.ZERO_TOTAL_THRESHOLD - 1.0) > 1e-6)
        w = weights(stats)
        for i in range(len(stats)):
            expect = raw[i] / total if total >= hedge.ZERO_TOTAL_THRESHOLD else 1 / len(raw)
            assert w[i] == pytest.approx(expect, abs=1e-11)


class TestUpdateRc:
    def test_accumulates_gap(self):
        r, c = hedge.update_rc(np.array([1.0, 0.0]), np.array([2.0, 1.0]),
                               meta_value=0.7, expert_values=np.array([0.4, 0.9]))
        assert r == pytest.approx([1.3, -0.2])
        assert c == pytest.approx([2.3, 1.2])

    def test_nonfinite_raises(self):
        zeros = np.zeros(2)
        with pytest.raises(NumericalFailureError):
            hedge.update_rc(zeros, zeros, float("nan"), np.ones(2))
        with pytest.raises(NumericalFailureError):
            hedge.update_rc(zeros, zeros, 1.0, np.array([1.0, float("inf")]))

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_invariant_abs_r_le_c(self, seq):
        r, c = np.zeros(1), np.zeros(1)
        for meta_v, exp_v in seq:
            r, c = hedge.update_rc(r, c, meta_v, np.array([exp_v]))
            assert abs(r[0]) <= c[0] + 1e-9
        # weights stay computable along the way
        hedge.normalize(r, c)
