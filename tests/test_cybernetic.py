import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behaviorfit import (
    BehaviorSyntaxError,
    CyberneticClass,
    Dominance,
    compare_organs,
    dominates,
    format_behavior,
    format_class,
    parse_class,
    parse_behavior as b,
)
from conftest import behaviors

C1_TEXT = "(pur, pro^1, pur, pur, none)"
C2_TEXT = "(pur, pro^2, pur, pur, pur)"


class TestParseFormat:
    def test_parse_c1(self):
        c1 = parse_class(C1_TEXT)
        assert c1 == CyberneticClass(b("pur"), b("pro^1"), b("pur"), b("pur"), None)

    def test_parse_c2(self):
        c2 = parse_class(C2_TEXT)
        assert c2.knowledge == b("pur")
        assert c2.analyze == b("pro^2")

    def test_wrong_arity(self):
        with pytest.raises(BehaviorSyntaxError, match="5 organs"):
            parse_class("(pur, pur)")

    def test_bad_organ_names_slot(self):
        with pytest.raises(BehaviorSyntaxError, match="organ analyze"):
            parse_class("(pur, xyz, pur, pur, none)")

    def test_non_ascii_arity_names_slot(self):
        with pytest.raises(BehaviorSyntaxError, match=r"^organ analyze: bad arity in 'pro\^²'$"):
            parse_class("(pur, pro^², pur, pur, none)")

    @pytest.mark.parametrize("text", ["pur, pur, pur, pur, pur", "(pur, pur, pur, pur, pur", "pur, pur, pur, pur, pur)"])
    def test_tuple_must_be_parenthesized(self, text):
        with pytest.raises(BehaviorSyntaxError, match="^class tuple must be parenthesized: "):
            parse_class(text)

    def test_figure_sets_inside_tuple(self):
        c = parse_class("(pur{1,2}, none, none, none, none)")
        assert c.monitor == b("pur{1,2}")

    @pytest.mark.parametrize("text", [C1_TEXT, C2_TEXT, "(none, none, none, none, none)"])
    def test_round_trip(self, text):
        c = parse_class(text)
        assert format_class(c) == text
        assert str(c) == text

    def test_format_empty(self):
        assert format_class(CyberneticClass()) == "(none, none, none, none, none)"

    def test_non_purposeful_monitor_warns(self):
        with pytest.warns(UserWarning, match="monitor"):
            parse_class("(pro^1, none, none, none, none)")
        with pytest.warns(UserWarning, match="execute"):
            parse_class("(none, none, none, rea, none)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_class(C1_TEXT)  # purposeful monitor/execute stay silent


class TestDominates:
    def test_second_dominates(self):
        assert dominates(parse_class(C1_TEXT), parse_class(C2_TEXT)) is Dominance.SECOND

    def test_first_dominates(self):
        assert dominates(parse_class(C2_TEXT), parse_class(C1_TEXT)) is Dominance.FIRST

    def test_equal(self):
        assert dominates(parse_class(C1_TEXT), parse_class(C1_TEXT)) is Dominance.EQUAL

    def test_strict_advantages_in_opposite_slots(self):
        left = parse_class("(pur, none, none, none, none)")
        right = parse_class("(none, pur, none, none, none)")
        assert dominates(left, right) is Dominance.INCOMPARABLE

    def test_absent_below_present(self):
        empty = CyberneticClass()
        anything = parse_class("(pur, none, none, none, none)")
        assert dominates(empty, anything) is Dominance.SECOND
        assert dominates(anything, empty) is Dominance.FIRST

    def test_strict_slots_of_the_worked_pair(self):
        relations = compare_organs(parse_class(C1_TEXT), parse_class(C2_TEXT))
        assert {name for name, rel in relations.items() if rel == "lt"} == {"analyze", "knowledge"}
        assert {name for name, rel in relations.items() if rel == "eq"} == {"monitor", "plan", "execute"}


_organ = st.one_of(
    st.none(),
    st.sampled_from([b("pur"), b("pro^1"), b("pro^2"), b("pur{1}"), b("pur{1,2}"), b("soc")]),
)
_classes = st.builds(CyberneticClass, _organ, _organ, _organ, _organ, _organ)


@given(_classes)
def test_format_parse_round_trip(c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # generated monitor/execute organs may be non-purposeful
        assert parse_class(format_class(c)) == c


@given(_classes, _classes)
def test_dominance_antisymmetry(c1, c2):
    forward, backward = dominates(c1, c2), dominates(c2, c1)
    assert (forward is Dominance.FIRST) == (backward is Dominance.SECOND)
    assert (forward is Dominance.EQUAL) == (backward is Dominance.EQUAL)
    assert (forward is Dominance.INCOMPARABLE) == (backward is Dominance.INCOMPARABLE)


@given(_classes, _classes, _classes)
def test_dominance_transitivity(c1, c2, c3):
    if dominates(c1, c2) is Dominance.SECOND and dominates(c2, c3) is Dominance.SECOND:
        assert dominates(c1, c3) is Dominance.SECOND


def _split_at_depth_zero(inner):
    """``parse_class``'s organ split as it was first written: a scan that
    splits at commas outside braces."""
    parts, depth, current = [], 0, []
    for ch in inner:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_by_depth_scan(text):
    parts = _split_at_depth_zero(text.strip()[1:-1])
    assert len(parts) == 5
    return CyberneticClass(*(None if p.strip() == "none" else b(p.strip()) for p in parts))


# An organ's text: ``none`` or a behavior term, which often names a figure
# set, with or without a space before it and after its inner commas.
_organ_terms = st.tuples(
    st.sampled_from(["", " "]),
    st.one_of(st.just("none"), behaviors(figures=("1", "2", "a", "b_c")).map(format_behavior)),
    st.sampled_from([",", ", "]),
).map(lambda parts: parts[0] + parts[1].replace(",", parts[2]))
_separators = st.sampled_from([",", ", ", " , "])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_class_splits_like_the_depth_scan(data):
    terms = data.draw(st.lists(_organ_terms, min_size=5, max_size=5))
    text = "(" + data.draw(_separators).join(terms) + ")"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # generated monitor/execute organs may be non-purposeful
        assert parse_class(text) == _parse_by_depth_scan(text)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_tuples_still_raise(data):
    terms = data.draw(st.lists(_organ_terms, min_size=4, max_size=6))
    text = "(" + data.draw(_separators).join(terms) + ")"
    if len(terms) == 5:  # unbalance the braces: drop one, or open one before the first organ
        braces = [i for i, ch in enumerate(text) if ch in "{}"]
        if braces:
            i = data.draw(st.sampled_from(braces))
            text = text[:i] + text[i + 1:]
        else:
            text = "({" + text[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(BehaviorSyntaxError):
            parse_class(text)
