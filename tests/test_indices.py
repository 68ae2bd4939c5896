"""Exact rational index calculus: regression values and identities."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brlab.indices import (
    ExponentRecord,
    admissible_pair,
    admissible_vv,
    alpha_exponent,
    as_fraction,
    conjugate,
    delta_bar,
    delta_bar_2,
    delta_critical,
    nu_2,
    p1_of,
    rho_n,
    theta_of,
)

rational_p0 = st.fractions(min_value=F(101, 100), max_value=F(199, 100))


class TestRegressionTable:
    """The exact values every other module leans on; zero tolerance."""

    def test_delta_critical(self):
        assert delta_critical(F(6, 5), 2) == F(1, 6)
        assert delta_critical(2, 2) == 0
        assert delta_critical(2, 5) == 0
        assert delta_critical(6, 2) == F(1, 6)  # duality with 6/5

    def test_p1(self):
        assert p1_of(F(6, 5)) == F(4, 3)
        assert p1_of(F(3, 2)) == F(5, 3)
        assert p1_of(F(199, 100)) == 2 * (F(3, 2) - F(100, 199))

    def test_rho(self):
        assert rho_n(F(6, 5), 2) == F(1, 6)
        assert rho_n(2, 2) == 0
        assert rho_n(1, 2) == F(1, 2)

    def test_theta(self):
        assert theta_of(F(4, 3)) == F(1, 3)
        assert theta_of(2) == 0

    def test_delta_bar(self):
        assert delta_bar(F(6, 5), 2, "dim2_solved") == F(1, 6)
        assert nu_2(F(6, 5)) == F(1, 6)

    def test_delta_bar_2(self):
        assert delta_bar_2(F(6, 5)) == F(1, 6)
        assert delta_bar_2(2) == 0
        assert delta_bar_2(1) == F(3, 4)

    def test_alpha(self):
        assert alpha_exponent(F(8, 5), F(6, 5), "below2") == F(5, 2)

    def test_admissible(self):
        assert admissible_pair(F(6, 5), 2) is True       # 5/6 - 1/2 = 1/3 boundary
        assert admissible_pair(F(6, 5), F(5, 2)) is False  # 13/30 > 1/3
        assert admissible_pair(1, 2) is False            # p0 below range
        assert admissible_vv(2, 2) is True
        assert admissible_vv(F(8, 5), F(5, 2)) is True   # |5/8 - 2/5| = 9/40
        assert admissible_vv(F(6, 5), 6) is False        # 5/6 - 1/6 = 2/3


class TestIdentities:
    @given(rational_p0)
    @settings(max_examples=200, deadline=None)
    def test_delta_bar_dominates_rho(self, p0):
        assert delta_bar(p0, 2, "dim2_solved") >= rho_n(p0, 2)

    @given(rational_p0)
    @settings(max_examples=200, deadline=None)
    def test_two_dim_formulas_agree(self, p0):
        # the chained definition equals the piecewise two-dimensional form
        if p0 >= F(6, 5):
            assert delta_bar(p0, 2, "dim2_solved") == delta_bar_2(p0)

    def test_delta_bar_2_continuous_at_breakpoint(self):
        left = delta_bar_2(F(6, 5) - F(1, 10 ** 9))
        right = delta_bar_2(F(6, 5))
        assert abs(left - right) < F(1, 10 ** 7)

    def test_delta_critical_nonincreasing_below_two(self):
        grid = [F(1, 1) + F(k, 40) for k in range(1, 40)]
        vals = [delta_critical(p, 2) for p in grid]
        for a, b in zip(vals, vals[1:]):
            assert a >= b

    def test_alpha_blows_up_at_endpoints(self):
        p0 = F(6, 5)
        near_left = [alpha_exponent(p0 + F(1, k), p0, "below2") for k in (10, 100, 1000)]
        assert near_left[0] < near_left[1] < near_left[2]
        near_right = [alpha_exponent(2 - F(1, k), p0, "below2") for k in (10, 100, 1000)]
        assert near_right[0] < near_right[1] < near_right[2]

    def test_p1_stays_in_range(self):
        for k in range(1, 100):
            p0 = 1 + F(k, 100)
            assert 1 < p1_of(p0) < 2


class TestGuards:
    def test_floats_rejected(self):
        with pytest.raises(TypeError, match="exact rational"):
            delta_critical(1.2, 2)

    def test_strings_accepted(self):
        assert as_fraction("6/5") == F(6, 5)
        assert delta_critical("6/5", 2) == F(1, 6)

    def test_provider_guard(self):
        with pytest.raises(ValueError, match="dimension 2"):
            delta_bar(F(6, 5), 3, "dim2_solved")
        # conjectural provider works in higher dimension
        assert delta_bar(F(6, 5), 3, "assume_conjecture") > 0

    def test_alpha_range_errors(self):
        with pytest.raises(ValueError, match="below2"):
            alpha_exponent(F(21, 10), F(6, 5), "below2")
        with pytest.raises(ValueError, match="above2"):
            alpha_exponent(F(3, 2), F(6, 5), "above2")

    def test_conjugate(self):
        assert conjugate(F(6, 5)) == 6
        assert conjugate(2) == 2


class TestExponentRecord:
    def test_compute_reference_point(self):
        rec = ExponentRecord.compute(2, F(6, 5), 2, F(8, 5), F(5, 2), F(1, 5))
        assert rec.delta_p == delta_critical(F(8, 5), 2)
        assert rec.p1 == F(4, 3)
        assert rec.theta == F(1, 3)
        assert rec.rho == F(1, 6)
        assert rec.delta_bar == F(1, 6)
        assert rec.delta_bar2 == F(1, 6)
        assert rec.alpha_below == F(5, 2)
        assert rec.alpha_above is None  # 8/5 < 2
        assert rec.pair_admissible is True
        assert rec.vv_admissible is True
        assert rec.conjectural is False

    def test_rows_render(self):
        rec = ExponentRecord.compute(2, F(6, 5), 2, F(8, 5))
        keys = [k for k, _ in rec.rows()]
        assert "delta_bar_n(p0)" in keys and "alpha(below2)" in keys
