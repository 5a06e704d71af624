import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsaoml.errors import ConfigurationError
from fairsaoml.intervals import Interval, IntervalScheme, ilog, target_set
from oracles import (brute_force_target_set, contains, enumerate_full_set,
                     expected_census, intervals)


class TestInterval:
    def test_length_and_contains(self):
        iv = Interval(3, 7)
        assert iv.length == 5
        assert contains(iv, 3) and contains(iv, 7)
        assert not contains(iv, 2) and not contains(iv, 8)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Interval(5, 4)
        with pytest.raises(ConfigurationError):
            Interval(0, 3)


class TestSchemeValidation:
    def test_agc_needs_horizon(self):
        with pytest.raises(ConfigurationError):
            IntervalScheme("agc")

    def test_di_rejects_horizon(self):
        with pytest.raises(ConfigurationError):
            IntervalScheme("di", horizon=10)

    def test_base_lower_bound(self):
        with pytest.raises(ConfigurationError):
            IntervalScheme("dgc", base=1)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            IntervalScheme("foo")


class TestIlog:
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_matches_definition(self, base, n):
        k = ilog(base, n)
        assert base ** k <= n < base ** (k + 1)

    def test_boundaries(self):
        assert ilog(2, 1) == 0
        assert ilog(2, 2) == 1
        assert ilog(2, 1023) == 9
        assert ilog(2, 1024) == 10


class TestWorkedExamples:
    def test_agc_t5(self):
        scheme = IntervalScheme("agc", horizon=18)
        ts = target_set(scheme, 5)
        assert intervals(ts) == (Interval(5, 5), Interval(5, 6), Interval(5, 8))

    def test_agc_subsets_for_t18(self):
        scheme = IntervalScheme("agc", horizon=18)
        lengths = {length for t in range(1, 19)
                   for length, _ in target_set(scheme, t).members}
        assert lengths == {1, 2, 4, 8}

    def test_agc_truncation(self):
        scheme = IntervalScheme("agc", horizon=18)
        last_len8 = max(iv for iv in enumerate_full_set(scheme, 18) if iv.start == 17)
        assert last_len8 == Interval(17, 18)

    def test_dgc_t5(self):
        ts = target_set(IntervalScheme("dgc"), 5)
        assert intervals(ts) == (Interval(5, 5),)

    def test_dgc_t16_has_length16(self):
        ts = target_set(IntervalScheme("dgc"), 16)
        assert Interval(16, 31) in intervals(ts)
        assert {iv.length for iv in intervals(ts)} == {1, 2, 4, 8, 16}

    def test_di_is_all_suffixes(self):
        ts = target_set(IntervalScheme("di"), 4)
        assert intervals(ts) == (Interval(1, 4), Interval(2, 4), Interval(3, 4), Interval(4, 4))


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("base", [2, 3])
    def test_agc(self, base):
        scheme = IntervalScheme("agc", horizon=100, base=base)
        for t in range(1, 101):
            assert intervals(target_set(scheme, t)) == \
                brute_force_target_set(scheme, t, 100)

    @pytest.mark.parametrize("base", [2, 3])
    def test_dgc(self, base):
        scheme = IntervalScheme("dgc", base=base)
        for t in range(1, 101):
            # enumeration bound generous enough to include all starters at t
            assert intervals(target_set(scheme, t)) == \
                brute_force_target_set(scheme, t, 101)

    def test_di(self):
        scheme = IntervalScheme("di")
        for t in range(1, 60):
            assert intervals(target_set(scheme, t)) == \
                brute_force_target_set(scheme, t, 60)


class TestStructure:
    def test_members_start_at_t(self):
        for scheme in (IntervalScheme("di"), IntervalScheme("agc", horizon=64),
                       IntervalScheme("dgc")):
            for t in range(1, 65):
                ts = target_set(scheme, t)
                for length, iv in ts.members:
                    if scheme.kind == "di":
                        assert iv.end == t and iv.length == length
                    else:
                        assert iv.start == t
                        assert iv.length <= length  # truncation only shrinks

    def test_dgc_levels_tile_the_line(self):
        scheme = IntervalScheme("dgc", base=2)
        full = enumerate_full_set(scheme, 64)
        for k in (0, 1, 2):
            level = sorted(iv for iv in full if iv.length == 2 ** k and iv.end <= 64)
            covered = sorted(t for iv in level for t in range(iv.start, iv.end + 1))
            lo, hi = level[0].start, level[-1].end
            assert covered == list(range(lo, hi + 1))  # contiguous, no overlap

    def test_census_formulas(self):
        assert expected_census(IntervalScheme("di"), 7)["total"] == 7
        assert expected_census(IntervalScheme("agc", horizon=18), 5)["total"] == 4
        assert expected_census(IntervalScheme("dgc"), 5)["total"] == 3
        assert expected_census(IntervalScheme("dgc"), 16)["total"] == 5
