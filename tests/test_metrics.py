import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behaviorfit import (
    NEG_INFINITY,
    FitVariant,
    SupplyKind,
    SupplyReport,
    comparable,
    cost_adjusted_fit,
    distance,
    fit,
    parse_behavior as b,
    precedes,
    supply,
)
from conftest import behaviors

LN3 = math.log(3)


def _frozen_supply(system, environment) -> SupplyReport:
    """``supply`` as it stood when it built a new report on every call."""
    if system == environment:
        return SupplyReport(0.0, SupplyKind.PERFECT)
    d = distance(system, environment)
    if precedes(environment, system):
        return SupplyReport(d, SupplyKind.OVERSUPPLY)
    if precedes(system, environment):
        return SupplyReport(-d, SupplyKind.UNDERSUPPLY)
    return SupplyReport(-d, SupplyKind.INCOMPARABLE)


class TestSupply:
    def test_perfect(self):
        report = supply(b("pur{1,2,3,4}"), b("pur{1,2,3,4}"))
        assert report == SupplyReport(0.0, SupplyKind.PERFECT)

    def test_oversupply(self):
        report = supply(b("pur{1,2,3,4}"), b("pur{1,4}"))
        assert report.kind is SupplyKind.OVERSUPPLY
        assert report.value == pytest.approx(2 * LN3, abs=1e-12)

    def test_undersupply(self):
        report = supply(b("pur{1,2,3,4}"), b("pur{1,2,3,4,5}"))
        assert report.kind is SupplyKind.UNDERSUPPLY
        assert report.value == pytest.approx(-LN3, abs=1e-12)

    def test_incomparable_counts_as_shortfall(self):
        report = supply(b("pur{1,5}"), b("pur{1,2,3,4}"))
        assert report.kind is SupplyKind.INCOMPARABLE
        assert report.value < 0

    @given(behaviors(), behaviors())
    def test_antisymmetry_on_comparable_pairs(self, x, y):
        if comparable(x, y):
            assert supply(x, y).value == -supply(y, x).value

    @given(behaviors(), behaviors())
    def test_sign_matches_kind(self, x, y):
        report = supply(x, y)
        if report.kind is SupplyKind.PERFECT:
            assert report.value == 0
        elif report.kind is SupplyKind.OVERSUPPLY:
            assert report.value > 0
        else:
            assert report.value < 0

    @settings(max_examples=500)
    @given(behaviors(), behaviors())
    def test_shared_reports_match_a_report_per_call(self, x, y):
        # reports are shared per difference and kind; the repr also tells -0.0 from 0.0
        report, expected = supply(x, y), _frozen_supply(x, y)
        assert report.kind is expected.kind
        assert repr(report.value) == repr(expected.value)

    def test_inconsistent_reports_are_rejected(self):
        with pytest.raises(ValueError):
            SupplyReport(1.0, SupplyKind.UNDERSUPPLY)
        with pytest.raises(ValueError):
            SupplyReport(0.5, SupplyKind.PERFECT)
        with pytest.raises(ValueError):
            SupplyReport(-1.0, SupplyKind.OVERSUPPLY)


class TestFit:
    def test_best_fit(self):
        assert fit(SupplyReport(0.0, SupplyKind.PERFECT)) == 1.0
        assert fit(SupplyReport(0.0, SupplyKind.PERFECT), FitVariant.QUADRATIC) == 1.0

    def test_linear_oversupply(self):
        value = 2 * LN3
        assert fit(SupplyReport(value, SupplyKind.OVERSUPPLY)) == pytest.approx(
            1 / (1 + value), abs=1e-12
        )
        assert fit(SupplyReport(value, SupplyKind.OVERSUPPLY)) == pytest.approx(0.3128, abs=5e-5)

    def test_quadratic_oversupply(self):
        value = 2 * LN3
        got = fit(SupplyReport(value, SupplyKind.OVERSUPPLY), FitVariant.QUADRATIC)
        assert got == pytest.approx(1 / (1 + value * value), abs=1e-12)
        assert got == pytest.approx(0.1716, abs=5e-5)

    def test_undersupply_is_neg_infinity(self):
        assert fit(SupplyReport(-1.0986, SupplyKind.UNDERSUPPLY)) == NEG_INFINITY
        assert fit(SupplyReport(-0.1, SupplyKind.INCOMPARABLE), FitVariant.QUADRATIC) == NEG_INFINITY

    # gaps below ~1e-8 vanish inside 1 + s**2 in float arithmetic
    _supplies = st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=1e6))

    @given(_supplies, _supplies)
    def test_strictly_decreasing_on_nonnegative_supply(self, s1, s2):
        if abs(s1 - s2) < 1e-4:
            return
        lo, hi = sorted((s1, s2))

        def report(value):
            kind = SupplyKind.PERFECT if value == 0 else SupplyKind.OVERSUPPLY
            return SupplyReport(value, kind)

        for variant in FitVariant:
            f_lo = fit(report(lo), variant)
            f_hi = fit(report(hi), variant)
            assert 0 < f_hi < f_lo <= 1


class TestCostAdjustedFit:
    def test_zero_cost(self):
        assert cost_adjusted_fit(1.0, 0.0, 0.1) == 1.0

    def test_penalty(self):
        assert cost_adjusted_fit(1.0, 2.0, 0.1) == pytest.approx(0.8, abs=1e-12)

    def test_neg_infinity_propagates(self):
        assert cost_adjusted_fit(NEG_INFINITY, 0.0, 0.1) == NEG_INFINITY
