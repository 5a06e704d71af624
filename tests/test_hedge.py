import math

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


class TestNormalize:
    def test_hand_example(self):
        w = hedge.normalize({"a": (0.0, 0.0), "b": (2.0, 2.0), "c": (-2.0, 2.0)})
        total = 0.5 * (math.exp(1.0 / 3.0) - 1.0) + 0.5 * (math.e - math.exp(1.0 / 3.0))
        assert w["a"] == pytest.approx(0.5 * (math.exp(1.0 / 3.0) - 1.0) / total)
        assert w["b"] == pytest.approx(0.5 * (math.e - math.exp(1.0 / 3.0)) / total)
        assert w["c"] == pytest.approx(0.0, abs=1e-15)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_fallback(self):
        w = hedge.normalize({i: (-5.0, 5.0) for i in range(4)})
        assert all(v == 0.25 for v in w.values())

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            hedge.normalize({})

    @given(st.lists(st.tuples(st.floats(-20, 20), st.floats(0, 40)),
                    min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_sums_to_one(self, pairs):
        stats = {i: (min(r, c), c) for i, (r, c) in enumerate(pairs)}
        w = hedge.normalize(stats)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0.0 for v in w.values())

    def test_large_statistics_do_not_overflow(self):
        # exp(2201^2 / 6603) overflows a float; its share of the pool does not
        w = hedge.normalize({1: (2200.0, 2200.0), 2: (0.0, 0.0)})
        assert w[1] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= w[2] < 1e-300

    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1e6)),
                    min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_finite_for_any_statistics(self, pairs):
        w = hedge.normalize({i: (f * c, c) for i, (f, c) in enumerate(pairs)})
        assert all(math.isfinite(v) and v >= 0.0 for v in w.values())
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 50.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_closed_form(self, pairs):
        # the closed form subtracts two potentials and loses up to ~1e-12 to
        # cancellation near r = -1; the log form does not
        stats = {i: (f * c, c) for i, (f, c) in enumerate(pairs)}
        raw = {i: raw_weight(r, c) for i, (r, c) in stats.items()}
        total = sum(raw.values())
        # the two forms may round to opposite sides of the fallback threshold
        assume(abs(total / hedge.ZERO_TOTAL_THRESHOLD - 1.0) > 1e-6)
        w = hedge.normalize(stats)
        for i in stats:
            expect = raw[i] / total if total >= hedge.ZERO_TOTAL_THRESHOLD else 1 / len(raw)
            assert w[i] == pytest.approx(expect, abs=1e-11)


class TestUpdateRc:
    def test_accumulates_gap(self):
        r, c = hedge.update_rc(1.0, 2.0, meta_value=0.7, expert_value=0.4)
        assert r == pytest.approx(1.3)
        assert c == pytest.approx(2.3)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericalFailureError):
            hedge.update_rc(0.0, 0.0, float("nan"), 1.0)
        with pytest.raises(NumericalFailureError):
            hedge.update_rc(0.0, 0.0, 1.0, float("inf"))

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_invariant_abs_r_le_c(self, seq):
        r, c = 0.0, 0.0
        for meta_v, exp_v in seq:
            r, c = hedge.update_rc(r, c, meta_v, exp_v)
            assert abs(r) <= c + 1e-9
        # weights stay computable along the way
        hedge.normalize({0: (r, c)})
