import math

import pytest

from behaviorfit import (
    Behavior,
    BehaviorClass,
    BehaviorSyntaxError,
    class_rank,
    comparable,
    distance,
    format_behavior,
    godel_number,
    parse_behavior,
    parse_figures,
    precedes,
)

LN2, LN3, LN5 = math.log(2), math.log(3), math.log(5)

b = parse_behavior


def test_class_ranks():
    assert class_rank(b("ran")) == 1
    assert class_rank(b("pur")) == 2
    assert class_rank(b("rea")) == 3
    assert class_rank(b("pro")) == 4
    assert class_rank(b("soc")) == 5
    assert class_rank(b("pro^2")) == 4  # rank depends only on the class
    assert sorted(class_rank(c) for c in BehaviorClass) == [1, 2, 3, 4, 5]
    # a class is its rank: members order and subtract as integers
    ran, pur, rea, pro, soc = BehaviorClass
    assert ran < pur < rea < pro < soc
    assert BehaviorClass.SOCIAL - BehaviorClass.PURPOSEFUL == 3


def test_effective_order():
    assert b("pro^3").effective_order == 3
    assert b("pro{1,2}").effective_order == 2
    assert b("pro").effective_order is None


class TestPrecedes:
    def test_lower_class_precedes(self):
        assert precedes(b("pur"), b("pro^1"))
        assert precedes(b("ran"), b("soc"))
        assert not precedes(b("pro^1"), b("pur"))

    def test_proper_subset_precedes(self):
        assert precedes(b("pur{1,4}"), b("pur{1,2,3,4}"))
        assert not precedes(b("pur{1,2,3,4}"), b("pur{1,4}"))
        assert not precedes(b("pur{1,4}"), b("pur{1,4}"))

    def test_proactive_order_precedes(self):
        assert precedes(b("pro^1"), b("pro^2"))
        assert precedes(b("pro^1"), b("pro{1,2}"))
        assert precedes(b("pro{1}"), b("pro^2"))
        assert not precedes(b("pro^2"), b("pro^2"))
        # only proactive behaviors compare by bare arity
        assert not precedes(b("pur^1"), b("pur^2"))

    def test_incomparable_sets(self):
        assert not precedes(b("pur{1,5}"), b("pur{1,2,3,4}"))
        assert not precedes(b("pur{1,2,3,4}"), b("pur{1,5}"))

    def test_empty_set_below_any_set(self):
        assert precedes(b("pur{}"), b("pur{1}"))

    def test_irreflexive(self):
        for term in ("ran", "pur{1,4}", "pro^2", "pro{1,2}", "soc"):
            assert not precedes(b(term), b(term))


class TestComparable:
    def test_equal(self):
        assert comparable(b("pur{1,4}"), b("pur{1,4}"))

    def test_incomparable(self):
        assert not comparable(b("pur{1,5}"), b("pur{1,2,3,4}"))

    def test_cross_class(self):
        assert comparable(b("ran"), b("soc"))


class TestDistance:
    def test_identity(self):
        for term in ("ran", "pur{1,4}", "pro^2", "pro{}", "soc"):
            assert distance(b(term), b(term)) == 0.0

    def test_figure_difference(self):
        assert distance(b("pur{1,4}"), b("pur{1,2,3,4}")) == pytest.approx(2 * LN3, abs=1e-12)

    def test_class_difference(self):
        assert distance(b("pur"), b("pro")) == pytest.approx(2 * LN2, abs=1e-12)

    def test_arity_difference(self):
        assert distance(b("pro^1"), b("pro^2")) == pytest.approx(LN5, abs=1e-12)
        assert distance(b("pur^1"), b("pur^3")) == pytest.approx(2 * LN5, abs=1e-12)

    def test_mixed_scopes_never_collapse(self):
        assert distance(b("pur{}"), b("pur")) > 0
        assert distance(b("pro^2"), b("pro{1,2}")) > 0
        assert distance(b("pro"), b("pro^2")) > 0

    def test_named_sets_do_not_hit_the_arity_axis(self):
        # four figures of symmetric difference, nothing else
        assert distance(b("pur{1,2}"), b("pur{3,4}")) == pytest.approx(4 * LN3, abs=1e-12)

    def test_godel_number(self):
        assert godel_number(b("pur{1,4}"), b("pur{1,2,3,4}")) == 9
        assert godel_number(b("pur"), b("pro^1")) == 4 * 5
        n = godel_number(b("rea{1}"), b("pro^2"))
        assert math.isclose(distance(b("rea{1}"), b("pro^2")), math.log(n), rel_tol=1e-12)


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ran", Behavior(BehaviorClass.RANDOM)),
            ("pur{1,4}", Behavior(BehaviorClass.PURPOSEFUL, figures=frozenset({"1", "4"}))),
            ("pro^2", Behavior(BehaviorClass.PROACTIVE, arity=2)),
            ("pur{ 1 , 4 }", Behavior(BehaviorClass.PURPOSEFUL, figures=frozenset({"1", "4"}))),
            ("pro{speed,luminosity}", Behavior(BehaviorClass.PROACTIVE, figures=frozenset({"speed", "luminosity"}))),
            ("soc{}", Behavior(BehaviorClass.SOCIAL, figures=frozenset())),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_behavior(text) == expected

    @pytest.mark.parametrize(
        "text",
        # "²" and "١" are digits to str.isdigit but not ASCII digits
        ["xyz", "pur{1", "pro^0", "pro^-1", "pro^²", "pro^١", "pur{a b}", "pur{1,}", "pur{,1}", "random", "pur 4", ""],
    )
    def test_parse_errors(self, text):
        with pytest.raises(BehaviorSyntaxError):
            parse_behavior(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,4", {"1", "4"}),
            ("{ 1 , 4 }", {"1", "4"}),
            ("", set()),
            ("{}", set()),
            (" { } ", set()),
            ("a.b_c-1", {"a.b_c-1"}),
        ],
    )
    def test_parse_figures(self, text, expected):
        assert parse_figures(text) == frozenset(expected)

    @pytest.mark.parametrize(
        "text", ["1,,2", "1,2,", ",", "{1,}", "a b", "x;y", "p:q", "z}", "{1", "1}", "{{1}}"]
    )
    def test_parse_figures_rejects_bad_and_blank_items(self, text):
        with pytest.raises(BehaviorSyntaxError, match="bad figure token"):
            parse_figures(text)

    @pytest.mark.parametrize("text", ["ran", "pur{1,2,3,4}", "pro^2", "soc{}", "rea{x,y}"])
    def test_round_trip(self, text):
        behavior = parse_behavior(text)
        assert format_behavior(behavior) == text
        assert str(behavior) == text

    def test_format_sorts_figures(self):
        assert format_behavior(Behavior(BehaviorClass.PURPOSEFUL, figures=frozenset("41"))) == "pur{1,4}"


class TestConstruction:
    def test_rejects_both_scopes(self):
        with pytest.raises(ValueError):
            Behavior(BehaviorClass.PURPOSEFUL, figures=frozenset("1"), arity=1)

    def test_rejects_a_bare_int_class(self):
        with pytest.raises(TypeError, match="klass must be a BehaviorClass"):
            Behavior(2, figures=frozenset("1"))

    def test_rejects_zero_arity(self):
        with pytest.raises(ValueError):
            Behavior(BehaviorClass.PROACTIVE, arity=0)

    def test_figures_coerced_to_frozenset(self):
        assert Behavior(BehaviorClass.PURPOSEFUL, figures={"1"}).figures == frozenset({"1"})
