import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsaoml.errors import ConfigurationError
from fairsaoml.intervals import IntervalScheme, ilog, target_set
from oracles import (brute_force_target_set, enumerate_full_set, expected_census,
                     intervals)


class TestSchemeValidation:
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
        ts = target_set(IntervalScheme("agc"), 5, 18)
        assert intervals(ts) == ((5, 5), (5, 6), (5, 8))

    def test_agc_subsets_for_t18(self):
        scheme = IntervalScheme("agc")
        lengths = {length for t in range(1, 19)
                   for length in target_set(scheme, t, 18)[0].tolist()}
        assert lengths == {1, 2, 4, 8}

    def test_agc_truncation(self):
        scheme = IntervalScheme("agc")
        last_len8 = max(iv for iv in enumerate_full_set(scheme, 18) if iv[0] == 17)
        assert last_len8 == (17, 18)
        lengths, starts, ends = target_set(scheme, 17, 18)
        assert (lengths[-1], starts[-1], ends[-1]) == (8, 17, 18)

    def test_dgc_t5(self):
        ts = target_set(IntervalScheme("dgc"), 5, 5)
        assert intervals(ts) == ((5, 5),)

    def test_dgc_t16_has_length16(self):
        ts = target_set(IntervalScheme("dgc"), 16, 16)
        assert (16, 31) in intervals(ts)
        assert ts[0].tolist() == [1, 2, 4, 8, 16]

    def test_di_is_all_suffixes(self):
        ts = target_set(IntervalScheme("di"), 4, 4)
        assert intervals(ts) == ((1, 4), (2, 4), (3, 4), (4, 4))


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("base", [2, 3, 4, 5])
    def test_agc(self, base):
        scheme = IntervalScheme("agc", base=base)
        for t in range(1, 101):
            assert intervals(target_set(scheme, t, 100)) == \
                brute_force_target_set(scheme, t, 100)

    @pytest.mark.parametrize("base", [2, 3, 4, 5])
    def test_dgc(self, base):
        scheme = IntervalScheme("dgc", base=base)
        for t in range(1, 101):
            # enumeration bound generous enough to include all starters at t
            assert intervals(target_set(scheme, t, 100)) == \
                brute_force_target_set(scheme, t, 101)

    def test_di(self):
        scheme = IntervalScheme("di")
        for t in range(1, 60):
            assert intervals(target_set(scheme, t, 60)) == \
                brute_force_target_set(scheme, t, 60)


class TestStructure:
    def test_members_start_at_t(self):
        for scheme in (IntervalScheme("di"), IntervalScheme("agc"), IntervalScheme("dgc")):
            for t in range(1, 65):
                lengths, starts, ends = target_set(scheme, t, 64)
                assert all(a.dtype.kind == "i" for a in (lengths, starts, ends))
                assert len(lengths) == len(starts) == len(ends) > 0
                assert (np.diff(lengths) > 0).all()
                assert ((1 <= starts) & (starts <= ends)).all()
                if scheme.kind == "di":
                    assert (ends == t).all() and (ends - starts + 1 == lengths).all()
                else:
                    assert (starts == t).all()
                    assert (ends - starts + 1 <= lengths).all()  # truncation only shrinks

    def test_dgc_levels_tile_the_line(self):
        scheme = IntervalScheme("dgc", base=2)
        full = enumerate_full_set(scheme, 64)
        for k in (0, 1, 2):
            level = sorted(iv for iv in full if iv[1] - iv[0] + 1 == 2 ** k and iv[1] <= 64)
            covered = sorted(t for s, e in level for t in range(s, e + 1))
            lo, hi = level[0][0], level[-1][1]
            assert covered == list(range(lo, hi + 1))  # contiguous, no overlap

    def test_census_formulas(self):
        assert expected_census(IntervalScheme("di"), 7, 7)["total"] == 7
        assert expected_census(IntervalScheme("agc"), 5, 18)["total"] == 4
        assert expected_census(IntervalScheme("dgc"), 5, 5)["total"] == 3
        assert expected_census(IntervalScheme("dgc"), 16, 16)["total"] == 5
