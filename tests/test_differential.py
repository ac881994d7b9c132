"""Property-based differential tests: every engine path vs. the naive baseline.

Hypothesis generates random ELI ontologies (drawn from a pool of validated
ELI TGD templates), small random databases and acyclic, free-connex CQs,
then asserts that every optimised evaluation path returns an answer set
identical to ``repro.baselines.naive`` — the materialise-everything
reference implementation:

* CD∘Lin enumeration (:class:`CompleteAnswerEnumerator`),
* minimal partial answers with one wildcard and with multi-wildcards
  (:class:`MinimalPartialAnswerEnumerator`, :class:`MultiWildcardEnumerator`),
* single-testing and all-testing on every candidate over the active domain,
  and the single tester's minimality checks on every candidate over the
  active domain plus wildcards,
* the prepared-query engine, cold, cached and batched, and after database
  mutations both maintained in place (``incremental=True``) and rebuilt
  from scratch (``incremental=False``),
* order metamorphics: shuffling the TGDs, the facts or the query's atoms,
  or renaming the query's variables, changes no answer of the engine or of
  the three enumerators,
* a CD∘Lin walk deep enough that its generated code chains to a second
  function (a fixed 17-block query; every generated query is shallower).

Every path stores rows as dense term ids and decodes at answer emission, so
the constant pool mixes strings with integers far above any dense id: an id
that escaped undecoded is an oracle mismatch, an id decoded twice an
``IndexError``.

The tier-1 ``fast`` profile runs 60 examples per property; the
``slow``-marked sweep runs a larger budget and rides the nightly ``-m slow``
job.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import (
    naive_certain_answers,
    naive_minimal_partial_answers,
    naive_minimal_partial_answers_multi,
    naive_partial_answers_multi,
    naive_single_test,
)
from repro.config import ExecutionOptions
from repro.core import (
    OMQ,
    WILDCARD,
    MinimalPartialAnswerEnumerator,
    MultiWildcardEnumerator,
    OMQAllTester,
    OMQSingleTester,
    Wildcard,
)
from repro.core.enumeration import CompleteAnswerEnumerator
from repro.core.wildcards import is_normalized_multi
from repro.cq.atoms import Variable
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.data import Database, Fact
from repro.engine import QueryEngine
from repro.engine.codegen import MAX_WALK_DEPTH, walk_source
from repro.tgds.eli import is_eli_tgd
from repro.tgds.ontology import Ontology
from repro.tgds.parser import parse_ontology

settings.register_profile(
    "differential-fast",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile(
    "differential-slow",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("differential-fast")


# -- generators -----------------------------------------------------------

#: ELI TGD templates (unary/binary symbols, single frontier variable,
#: loop-free tree heads).  Validated against ``is_eli_tgd`` below.
TGD_TEMPLATES = (
    "A(x) -> R(x, y)",
    "B(x) -> S(x, y)",
    "R(x, y) -> B(y)",
    "S(x, y) -> C(y)",
    "A(x) -> B(x)",
    "C(x) -> A(x)",
    "R(x, y) -> A(x)",
    "B(x) -> R(x, y)",
    "C(x) -> S(x, y)",
    "S(x, y) -> B(x)",
)

#: Acyclic, free-connex query templates over the same vocabulary.
QUERY_TEMPLATES = (
    "q(x) :- A(x)",
    "q(x) :- B(x)",
    "q(x, y) :- R(x, y)",
    "q(x, y) :- S(x, y)",
    "q(x) :- R(x, y)",
    "q(y) :- R(x, y)",
    "q(x, y) :- R(x, y), B(y)",
    "q(x, y) :- R(x, y), A(x)",
    "q(x, y, z) :- R(x, y), S(y, z)",
    "q(x) :- A(x), B(x)",
    "q() :- R(x, y)",
    # Two blocks whose wildcards may land on one null: (c, *1, *1) vs (c, *1, *2).
    "q(x, y, z) :- R(x, y), R(x, z)",
    # No shared variable: distinct nulls across blocks, all-wildcard candidates.
    "q(x, y) :- A(x), B(y)",
    # A repeated head variable.
    "q(x, x) :- R(x, y)",
    # A 4-ary head: cones of Bell(5) members, blocks binding null positions
    # in different orders.
    "q(x, y, z, w) :- R(x, y), R(x, z), S(z, w)",
)

#: Integers far above any dense term id the process will ever mint: as a
#: leaked id they cannot be mistaken for a constant, and decoding one as if
#: it were an id raises ``IndexError``.
INTEGER_CONSTANTS = tuple(10**9 + i for i in range(5))
CONSTANTS = ("c0", "c1", "c2", "c3", "c4") + INTEGER_CONSTANTS[:3]
UNARY = ("A", "B", "C")
BINARY = ("R", "S")


def test_tgd_templates_are_eli():
    """The generator pool really draws from the paper's ELI fragment."""
    for template in TGD_TEMPLATES:
        (tgd,) = parse_ontology(template, name="t")
        assert is_eli_tgd(tgd), template


def test_query_templates_are_acyclic_free_connex():
    for template in QUERY_TEMPLATES:
        query = parse_query(template)
        omq = OMQ.from_parts(Ontology([], name="empty"), query)
        assert omq.is_acyclic() and omq.is_free_connex_acyclic(), template


fact_strategy = st.one_of(
    st.tuples(st.sampled_from(UNARY), st.sampled_from(CONSTANTS)).map(
        lambda pair: Fact(pair[0], (pair[1],))
    ),
    st.tuples(
        st.sampled_from(BINARY),
        st.sampled_from(CONSTANTS),
        st.sampled_from(CONSTANTS),
    ).map(lambda triple: Fact(triple[0], (triple[1], triple[2]))),
)

facts_strategy = st.lists(fact_strategy, min_size=0, max_size=10)

ontology_strategy = st.lists(
    st.sampled_from(TGD_TEMPLATES), unique=True, min_size=0, max_size=4
)

query_strategy = st.sampled_from(QUERY_TEMPLATES)


def _build_omq(templates: list[str], query_text: str) -> OMQ:
    if templates:
        ontology = parse_ontology("\n".join(templates), name="fuzz")
    else:
        ontology = Ontology([], name="fuzz")
    return OMQ.from_parts(ontology, parse_query(query_text), name="Q_fuzz")


# -- properties -----------------------------------------------------------


@given(templates=ontology_strategy, query_text=query_strategy, facts=facts_strategy)
def test_cdlin_enumeration_matches_naive(templates, query_text, facts):
    """CD∘Lin (chase + reduction + constant-delay walk) == naive baseline."""
    omq = _build_omq(templates, query_text)
    database = Database(facts)
    expected = naive_certain_answers(omq, database)
    enumerated = set(CompleteAnswerEnumerator(omq, database))
    assert enumerated == expected


@given(templates=ontology_strategy, query_text=query_strategy, facts=facts_strategy)
def test_engine_cold_and_cached_match_naive(templates, query_text, facts):
    """QueryEngine first (cold) and second (plan/state cached) executions."""
    omq = _build_omq(templates, query_text)
    database = Database(facts)
    expected = naive_certain_answers(omq, database)
    engine = QueryEngine(omq.ontology, database)
    cold = engine.execute(omq.query)
    cached = engine.execute(omq.query)
    assert cold == expected
    assert cached == expected
    assert engine.stats.plan_hits >= 1


@given(
    templates=ontology_strategy,
    query_text=query_strategy,
    facts=facts_strategy,
    extra=st.lists(fact_strategy, min_size=1, max_size=3),
    drop_one=st.booleans(),
)
def test_engine_incremental_after_mutation_matches_naive(
    templates, query_text, facts, extra, drop_one
):
    """A warm engine served across mutations == naive on the mutated data,
    whether it maintains its state in place or rebuilds it; the rebuilding
    engine also answers through ``execute_batch``."""
    omq = _build_omq(templates, query_text)
    database = Database(facts)
    expected = naive_certain_answers(omq, database)
    engine = QueryEngine(omq.ontology, database)
    rebuilding = QueryEngine(
        omq.ontology, database, options=ExecutionOptions(incremental=False)
    )
    assert engine.execute(omq.query) == expected
    assert rebuilding.execute(omq.query) == expected
    assert rebuilding.execute_batch([omq.query, omq.query]) == [expected, expected]
    database.add_facts(extra)
    if drop_one and len(database):
        database.discard(sorted(database.facts(), key=repr)[0])
    expected = naive_certain_answers(omq, database)
    assert engine.execute(omq.query) == expected
    assert rebuilding.execute(omq.query) == expected
    assert rebuilding.stats.chase_increments == 0


@given(templates=ontology_strategy, query_text=query_strategy, facts=facts_strategy)
def test_minimal_partial_enumeration_matches_naive(templates, query_text, facts):
    """Algorithm 1 (progress trees over the reduced query) == naive ``Q(D)*``."""
    omq = _build_omq(templates, query_text)
    database = Database(facts)
    enumerated = list(MinimalPartialAnswerEnumerator(omq, database))
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == naive_minimal_partial_answers(omq, database)


@given(templates=ontology_strategy, query_text=query_strategy, facts=facts_strategy)
def test_multiwildcard_enumeration_matches_naive(templates, query_text, facts):
    """Algorithm 2 (balls and cones over Algorithm 1) == naive ``Q(D)^W``."""
    omq = _build_omq(templates, query_text)
    database = Database(facts)
    enumerated = list(MultiWildcardEnumerator(omq, database))
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == naive_minimal_partial_answers_multi(omq, database)


@given(templates=ontology_strategy, query_text=query_strategy, facts=facts_strategy)
def test_multiwildcard_tester_matches_naive_on_every_candidate(
    templates, query_text, facts
):
    """Theorem 6.1's all-tester ``A2`` == membership in the naive set of
    (not necessarily minimal) multi-wildcard answers, for every normalized
    tuple over ``adom ∪ {*1..*n}``."""
    omq = _build_omq(templates, query_text)
    database = Database(facts)
    expected = naive_partial_answers_multi(omq, database)
    tester = MultiWildcardEnumerator(omq, database).tester
    values = sorted(database.adom(), key=repr)
    values += [Wildcard(i) for i in range(1, omq.arity + 1)]
    for candidate in product(values, repeat=omq.arity):
        if is_normalized_multi(candidate):
            assert tester.test(candidate) == (candidate in expected), candidate


@pytest.mark.parametrize(
    "rules, query_text, facts, accepted, rejected",
    [
        # One null below c: both wildcards land on it, so they are equal.
        (
            ["A(x) -> R(x, y)"],
            "q(x, y, z) :- R(x, y), R(x, z)",
            [Fact("A", ("c0",))],
            ("c0", Wildcard(1), Wildcard(1)),
            ("c0", Wildcard(1), Wildcard(2)),
        ),
        # One null that is both A and B: no two distinct nulls across blocks.
        (
            ["C(x) -> R(x, y)", "R(x, y) -> A(y)", "R(x, y) -> B(y)"],
            "q(x, y) :- A(x), B(y)",
            [Fact("C", ("c0",))],
            (Wildcard(1), Wildcard(1)),
            (Wildcard(1), Wildcard(2)),
        ),
    ],
)
def test_multiwildcard_tester_tells_equal_from_distinct_nulls(
    rules, query_text, facts, accepted, rejected
):
    omq = _build_omq(rules, query_text)
    database = Database(facts)
    expected = naive_partial_answers_multi(omq, database)
    assert accepted in expected and rejected not in expected
    tester = MultiWildcardEnumerator(omq, database).tester
    assert tester.test(accepted) and not tester.test(rejected)


@given(templates=ontology_strategy, query_text=query_strategy, facts=facts_strategy)
def test_testers_match_naive_on_every_candidate(templates, query_text, facts):
    """Single-testing and all-testing == naive on all of ``adom^arity``."""
    omq = _build_omq(templates, query_text)
    database = Database(facts)
    single = OMQSingleTester(omq, database)
    tester = OMQAllTester(omq, database)
    for candidate in product(sorted(database.adom(), key=repr), repeat=omq.arity):
        expected = naive_single_test(omq, database, candidate)
        assert single.test_complete(candidate) == expected, candidate
        assert tester.test(candidate) == expected, candidate


#: Names a renaming draws from; ``v10`` sorts before ``v2``, so a renaming
#: also reorders the variables by name.
VARIABLE_NAMES = ("a", "m", "v10", "v2", "x", "y", "z", "zz")


def _all_answers(omq: OMQ, database: Database) -> tuple:
    """The engine's answers and those of the three ``repro.core`` enumerators."""
    return (
        QueryEngine(omq.ontology, database).execute(omq.query),
        set(CompleteAnswerEnumerator(omq, database)),
        set(MinimalPartialAnswerEnumerator(omq, database)),
        set(MultiWildcardEnumerator(omq, database)),
    )


@given(
    templates=ontology_strategy,
    query_text=query_strategy,
    facts=facts_strategy,
    rng=st.randoms(use_true_random=False),
)
def test_answers_ignore_order_and_variable_names(templates, query_text, facts, rng):
    """Order metamorphics: the TGD order, the fact order, the query's atom
    order and its variable names change no answer on any path."""
    query = parse_query(query_text)
    variables = sorted(query.variables())
    renaming = dict(zip(variables, map(Variable, rng.sample(VARIABLE_NAMES, len(variables)))))
    atoms = [atom.substitute(renaming) for atom in sorted(query.atoms, key=repr)]
    rng.shuffle(atoms)
    renamed = ConjunctiveQuery([renaming[v] for v in query.answer_variables], atoms)
    shuffled = OMQ.from_parts(
        _build_omq(rng.sample(templates, len(templates)), query_text).ontology, renamed
    )
    expected = _all_answers(_build_omq(templates, query_text), Database(facts))
    assert _all_answers(shuffled, Database(rng.sample(facts, len(facts)))) == expected


def _check_minimal_single_tests(omq: OMQ, database: Database) -> None:
    """The single tester's minimality checks == naive, on every candidate
    over ``adom ∪ {*}`` and every normalized one over ``adom ∪ {*1..*n}``."""
    single = OMQSingleTester(omq, database)
    adom = sorted(database.adom(), key=repr)
    expected = naive_minimal_partial_answers(omq, database)
    for candidate in product(adom + [WILDCARD], repeat=omq.arity):
        assert single.test_minimal_partial(candidate) == (candidate in expected), candidate
    expected = naive_minimal_partial_answers_multi(omq, database)
    wildcards = [Wildcard(i) for i in range(1, omq.arity + 1)]
    for candidate in product(adom + wildcards, repeat=omq.arity):
        if is_normalized_multi(candidate):
            verdict = single.test_minimal_partial_multi(candidate)
            assert verdict == (candidate in expected), candidate


@given(templates=ontology_strategy, query_text=query_strategy, facts=facts_strategy)
def test_minimal_single_tests_match_naive_on_every_candidate(templates, query_text, facts):
    """``test_minimal_partial`` and ``test_minimal_partial_multi`` == the
    naive minimal partial answers, on every candidate."""
    _check_minimal_single_tests(_build_omq(templates, query_text), Database(facts))


def test_integer_constants_come_back_as_themselves():
    """The id-leak guard: over an all-integer database every output value is
    an original constant or a wildcard, on every path that decodes."""
    c = INTEGER_CONSTANTS
    omq = _build_omq(
        ["R(x, y) -> B(y)", "B(x) -> S(x, y)"], "q(x, y, z) :- R(x, y), S(y, z)"
    )
    database = Database(
        [Fact("R", (c[0], c[1])), Fact("S", (c[1], c[2])), Fact("R", (c[3], c[4]))]
    )
    constants = set(c)

    complete = set(CompleteAnswerEnumerator(omq, database))
    assert complete == naive_certain_answers(omq, database) == {(c[0], c[1], c[2])}
    assert QueryEngine(omq.ontology, database).execute(omq.query) == complete

    partial = set(MinimalPartialAnswerEnumerator(omq, database))
    assert partial == naive_minimal_partial_answers(omq, database)
    assert partial == complete | {(c[3], c[4], WILDCARD)}

    multi = set(MultiWildcardEnumerator(omq, database))
    assert multi == naive_minimal_partial_answers_multi(omq, database)
    assert multi == complete | {(c[3], c[4], Wildcard(1))}

    for answer in complete | partial | multi:
        for value in answer:
            assert value in constants or value is WILDCARD or isinstance(value, Wildcard)

    tester = OMQAllTester(omq, database)
    accepted = {
        candidate for candidate in product(sorted(constants), repeat=3) if tester(candidate)
    }
    assert accepted == complete


def test_plan_deeper_than_one_function_compiles_chained():
    """17 answer blocks, one more than one generated function nests, so the
    walk chains to a second function: through the enumerator and the
    engine, cold and after ``add_facts``."""
    n = MAX_WALK_DEPTH + 1
    head = ", ".join(f"x{i}" for i in range(1, n + 1))
    body = ", ".join(f"A{i}(x{i})" for i in range(1, n + 1))
    omq = _build_omq([], f"q({head}) :- {body}")
    database = Database(
        [Fact(f"A{i}", ("c0",)) for i in range(1, n + 1)]
        + [Fact("A1", ("c1",)), Fact(f"A{n}", (INTEGER_CONSTANTS[0],))]
    )
    engine = QueryEngine(omq.ontology, database)
    for count in (2 * 2, 2 * 2 * 3):  # |A1| * |A2| * |A17|, the rest are 1
        expected = naive_certain_answers(omq, database)
        assert len(expected) == count
        enumerator = CompleteAnswerEnumerator(omq, database)
        assert f"yield from _walk{MAX_WALK_DEPTH}(" in walk_source(enumerator._enumerator._plan)
        assert set(enumerator) == expected
        assert engine.execute(omq.query) == expected
        state = engine._materialized_state(engine.prepare(omq.query), database)
        assert f"yield from _walk{MAX_WALK_DEPTH}(" in walk_source(state.enumerator._plan)
        database.add_facts([Fact("A2", ("c1",)), Fact(f"A{n}", ("c2",))])
    assert engine.stats.chase_increments == 1


def test_semijoin_key_nine_variables_wide():
    """A semi-join and index key of 9 variables, through the enumerator and
    the engine, cold and after ``add_facts``: the reducer's row kernels take
    every key width the same way."""
    xs = [f"x{i}" for i in range(1, 10)]
    omq = _build_omq([], f"q({', '.join(xs)}, y) :- R({', '.join(xs)}), S({', '.join(xs)}, y)")
    row = tuple(f"c{i}" for i in range(8)) + (INTEGER_CONSTANTS[0],)
    near = row[:8] + ("e",)  # differs from ``row`` in the last key position only
    far = ("e",) + row[1:]  # ... and in the first
    database = Database(
        [Fact("R", row), Fact("R", near)]
        + [Fact("S", row + (d,)) for d in ("d0", "d1")]
        + [Fact("S", far + ("d2",))]
    )
    # The 2-fact delta is 40 % of the database: maintain it in place anyway.
    engine = QueryEngine(
        omq.ontology, database, options=ExecutionOptions(incremental_fallback_ratio=1.0)
    )
    for count in (2, 4):
        expected = naive_certain_answers(omq, database)
        assert len(expected) == count
        assert set(CompleteAnswerEnumerator(omq, database)) == expected
        assert engine.execute(omq.query) == expected
        database.add_facts([Fact("S", near + ("d3",)), Fact("R", far)])
    assert engine.stats.chase_increments == 1


@pytest.mark.slow
@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    templates=ontology_strategy,
    query_text=query_strategy,
    facts=facts_strategy,
    extra=st.lists(fact_strategy, min_size=1, max_size=3),
)
def test_differential_sweep_slow(templates, query_text, facts, extra):
    """Nightly sweep: the enumerator, the minimal single tests and the
    engine, across a mutation."""
    omq = _build_omq(templates, query_text)
    database = Database(facts)
    _check_minimal_single_tests(omq, database)
    expected = naive_certain_answers(omq, database)
    assert set(CompleteAnswerEnumerator(omq, database)) == expected
    engine = QueryEngine(omq.ontology, database)
    assert engine.execute(omq.query) == expected
    database.add_facts(extra)
    mutated_expected = naive_certain_answers(omq, database)
    assert engine.execute(omq.query) == mutated_expected

