"""Tests for wildcard tuples, multi-wildcard tuples, orders, balls and cones."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wildcards import (
    WILDCARD,
    Wildcard,
    ball,
    collapse_nulls,
    collapse_nulls_multi,
    cone,
    is_normalized_multi,
    is_wildcard,
    leq_multi,
    leq_partial,
    lt_multi,
    lt_partial,
    minimal_multi_tuples,
    minimal_partial_tuples,
    multi_to_single,
    normalize_multi,
    set_partitions,
    strictly_less_informative_multi,
    wildcard_positions,
)
from repro.data.terms import Null


class TestSingleWildcard:
    def test_wildcard_is_singleton(self):
        assert WILDCARD is type(WILDCARD)()
        assert is_wildcard(WILDCARD)
        assert not is_wildcard("a")

    def test_collapse_nulls(self):
        assert collapse_nulls(("a", Null(1), "b")) == ("a", WILDCARD, "b")

    def test_leq_examples_from_paper(self):
        # (a, b) ≺ (a, *) and (a, *) ≺ (*, *)
        assert lt_partial(("a", "b"), ("a", WILDCARD))
        assert lt_partial(("a", WILDCARD), (WILDCARD, WILDCARD))
        assert not leq_partial(("a", WILDCARD), ("a", "b"))
        assert leq_partial(("a", "b"), ("a", "b"))

    def test_leq_requires_same_length(self):
        assert not leq_partial(("a",), ("a", WILDCARD))

    def test_minimal_partial_tuples(self):
        tuples = {("a", "b"), ("a", WILDCARD), (WILDCARD, WILDCARD), ("c", WILDCARD)}
        assert minimal_partial_tuples(tuples) == {("a", "b"), ("c", WILDCARD)}

    def test_wildcard_positions(self):
        assert wildcard_positions(("a", WILDCARD, Wildcard(1))) == (1, 2)


class TestMultiWildcard:
    def test_collapse_nulls_multi_numbering(self):
        n1, n2 = Null(11), Null(12)
        assert collapse_nulls_multi(("a", n1, "b", "a", n2, n1, n2)) == (
            "a",
            Wildcard(1),
            "b",
            "a",
            Wildcard(2),
            Wildcard(1),
            Wildcard(2),
        )

    def test_normalization(self):
        assert is_normalized_multi((Wildcard(1), "a", Wildcard(2)))
        assert not is_normalized_multi((Wildcard(2), Wildcard(1)))
        assert normalize_multi((Wildcard(5), "a", Wildcard(5), Wildcard(2))) == (
            Wildcard(1),
            "a",
            Wildcard(1),
            Wildcard(2),
        )

    def test_leq_examples_from_paper(self):
        # (*1, a) ≺ (*1, *2)  and  (a, *1, *2, *1) ≺ (a, *1, *2, *3)
        assert lt_multi((Wildcard(1), "a"), (Wildcard(1), Wildcard(2)))
        assert lt_multi(
            ("a", Wildcard(1), Wildcard(2), Wildcard(1)),
            ("a", Wildcard(1), Wildcard(2), Wildcard(3)),
        )
        assert not leq_multi((Wildcard(1), Wildcard(2)), (Wildcard(1), "a"))

    def test_merging_loses_information(self):
        # (a, a) ≺ (*1, *1) ≺ (*1, *2)
        assert lt_multi(("a", "a"), (Wildcard(1), Wildcard(1)))
        assert lt_multi((Wildcard(1), Wildcard(1)), (Wildcard(1), Wildcard(2)))
        # but (a, b) with a != b is NOT ⪯ (*1, *1)
        assert not leq_multi(("a", "b"), (Wildcard(1), Wildcard(1)))

    def test_minimal_multi_tuples(self):
        tuples = {
            ("a", Wildcard(1)),
            (Wildcard(1), Wildcard(2)),
            (Wildcard(1), Wildcard(1)),
        }
        assert minimal_multi_tuples(tuples) == {
            ("a", Wildcard(1)),
            (Wildcard(1), Wildcard(1)),
        }

    def test_multi_to_single(self):
        assert multi_to_single(("a", Wildcard(2), Wildcard(1))) == (
            "a",
            WILDCARD,
            WILDCARD,
        )


class TestBallsAndCones:
    def test_set_partitions_count(self):
        # Bell numbers: 1, 1, 2, 5, 15
        assert len(list(set_partitions([]))) == 1
        assert len(list(set_partitions([1]))) == 1
        assert len(list(set_partitions([1, 2]))) == 2
        assert len(list(set_partitions([1, 2, 3]))) == 5
        assert len(list(set_partitions([1, 2, 3, 4]))) == 15

    def test_ball_of_two_wildcards(self):
        candidates = ball(("a", WILDCARD, WILDCARD))
        assert candidates == {
            ("a", Wildcard(1), Wildcard(2)),
            ("a", Wildcard(1), Wildcard(1)),
        }

    def test_ball_without_wildcards(self):
        assert ball(("a", "b")) == {("a", "b")}

    def test_cone_contains_ball(self):
        candidate = ("a", WILDCARD)
        assert ball(candidate) <= cone(candidate)

    def test_cone_example_from_paper(self):
        # Example 6.2: (c, *1, *2, *1) is in the cone of (c, c', *, *) but
        # not in its ball.
        single = ("c", "cprime", WILDCARD, WILDCARD)
        target = ("c", Wildcard(1), Wildcard(2), Wildcard(1))
        assert target not in ball(single)
        assert target in cone(single)

    def test_cone_members_are_normalized(self):
        for member in cone(("a", WILDCARD, "b")):
            assert is_normalized_multi(member)

    def test_strictly_less_informative(self):
        weaker = strictly_less_informative_multi(("a", Wildcard(1)))
        assert (Wildcard(1), Wildcard(2)) in weaker
        # (*1, *1) asserts an equality that ("a", *1) does not imply.
        assert (Wildcard(1), Wildcard(1)) not in weaker
        assert ("a", Wildcard(1)) not in weaker
        for candidate in weaker:
            assert lt_multi(("a", Wildcard(1)), candidate)


# -- order-theoretic properties ----------------------------------------------

_values = st.sampled_from(["a", "b", WILDCARD])
_single_tuples = st.tuples(_values, _values, _values)


@settings(max_examples=60, deadline=None)
@given(_single_tuples, _single_tuples, _single_tuples)
def test_single_order_is_a_partial_order(t1, t2, t3):
    """Property: ⪯ on wildcard tuples is reflexive, antisymmetric, transitive."""
    assert leq_partial(t1, t1)
    if leq_partial(t1, t2) and leq_partial(t2, t1):
        assert t1 == t2
    if leq_partial(t1, t2) and leq_partial(t2, t3):
        assert leq_partial(t1, t3)


_multi_values = st.sampled_from(["a", "b", Wildcard(1), Wildcard(2)])
_multi_tuples = st.tuples(_multi_values, _multi_values, _multi_values).map(normalize_multi)


@settings(max_examples=60, deadline=None)
@given(_multi_tuples, _multi_tuples, _multi_tuples)
def test_multi_order_is_a_partial_order(t1, t2, t3):
    """Property: ⪯ on multi-wildcard tuples is a partial order."""
    assert leq_multi(t1, t1)
    if leq_multi(t1, t2) and leq_multi(t2, t1):
        assert t1 == t2
    if leq_multi(t1, t2) and leq_multi(t2, t3):
        assert leq_multi(t1, t3)


@settings(max_examples=40, deadline=None)
@given(_multi_tuples)
def test_multi_collapse_is_monotone(candidate):
    """Property: collapsing multi-wildcards to '*' respects the orders."""
    single = multi_to_single(candidate)
    assert leq_partial(single, single)
    for weaker in strictly_less_informative_multi(candidate):
        assert leq_partial(single, multi_to_single(weaker))


@settings(max_examples=40, deadline=None)
@given(st.lists(_single_tuples, min_size=1, max_size=8))
def test_minimal_partial_tuples_are_minimal_and_cover(tuples):
    """Property: minimisation returns exactly the non-dominated tuples, and
    every tuple is dominated by some minimal one."""
    pool = set(tuples)
    minimal = minimal_partial_tuples(pool)
    for candidate in minimal:
        assert not any(lt_partial(other, candidate) for other in pool)
    for candidate in pool:
        assert any(leq_partial(m, candidate) for m in minimal)


# -- per-shape templates == the set-partition definitions ----------------------


def _ball_by_definition(candidate):
    positions = [i for i, value in enumerate(candidate) if value is WILDCARD]
    result = set()
    for partition in set_partitions(positions):
        draft = list(candidate)
        for number, group in enumerate(partition, start=1):
            for position in group:
                draft[position] = Wildcard(number)
        result.add(normalize_multi(draft))
    return result


def _cone_by_definition(candidate):
    result = set()
    for mask in product((False, True), repeat=len(candidate)):
        if all(value is not WILDCARD or not promote for value, promote in zip(candidate, mask)):
            weakened = [WILDCARD if promote else v for v, promote in zip(candidate, mask)]
            result |= _ball_by_definition(weakened)
    return result


def _weaker_by_definition(candidate):
    return {
        weaker
        for weaker in _cone_by_definition(multi_to_single(candidate))
        if lt_multi(candidate, weaker)
    }


def _tuples_up_to_arity(values, arity=4):
    for length in range(arity + 1):
        yield from product(values, repeat=length)


class TestShapeTemplates:
    """``ball``, ``cone`` and ``strictly_less_informative_multi`` are computed
    once per shape (constants renamed to placeholders) and instantiated; they
    must equal the definitions on every shape up to arity 4."""

    SINGLE_ALPHABETS = (
        ("a", "b", "c", "d", WILDCARD),  # every shape, repeated constants included
        tuple(10**9 + i for i in range(4)) + (WILDCARD,),  # integer constants
        ("a", "b", WILDCARD, Wildcard(1), Wildcard(2)),  # numbered wildcards as input
        (0, 1, WILDCARD, Wildcard(1)),  # constants that look like placeholders
    )
    MULTI_ALPHABETS = (
        ("a", "b", Wildcard(1), Wildcard(2), Wildcard(3)),
        (10**9, 10**9 + 1, Wildcard(1), Wildcard(2), Wildcard(4)),
    )

    def test_ball_and_cone_equal_the_definitions(self):
        for alphabet in self.SINGLE_ALPHABETS:
            for candidate in _tuples_up_to_arity(alphabet):
                assert ball(candidate) == _ball_by_definition(candidate), candidate
                assert cone(candidate) == _cone_by_definition(candidate), candidate

    def test_strictly_less_informative_equals_the_definition(self):
        for alphabet in self.MULTI_ALPHABETS:
            for candidate in _tuples_up_to_arity(alphabet):
                assert strictly_less_informative_multi(
                    candidate
                ) == _weaker_by_definition(candidate), candidate

    def test_repeated_constants_keep_their_identity(self):
        assert ball(("a", "a", WILDCARD)) == {("a", "a", Wildcard(1))}
        assert ("a", Wildcard(1), Wildcard(1)) in cone(("a", "a", WILDCARD))
        merged = (Wildcard(1), Wildcard(1), Wildcard(2))
        assert merged in strictly_less_informative_multi(("a", "a", Wildcard(1)))
        assert merged not in strictly_less_informative_multi(("a", "b", Wildcard(1)))
        big = 10**9
        assert cone((big, big + 1)) == {
            (big, big + 1),
            (Wildcard(1), big + 1),
            (big, Wildcard(1)),
            (Wildcard(1), Wildcard(1)),
            (Wildcard(1), Wildcard(2)),
        }
