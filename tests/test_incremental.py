"""Tests for the incremental-maintenance subsystem (repro.incremental).

Covers the database mutation log (``changes_since`` / ``batch`` /
``add_facts``), the provenance-tracking delta chase (insertions, DRed-style
deletions, suppressed-trigger re-firing), the CD∘Lin reduction maintenance,
and — the heavy hammer — a randomized metamorphic suite interleaving
add/discard/batch sequences on the office, university and graph workloads,
asserting after every step that a warm incremental engine returns answers
byte-identical to a cold from-scratch evaluation, without ever rebuilding
the chase.
"""

import gc
import importlib
import random
from itertools import chain

import pytest

from repro import Database, Fact, parse_ontology, parse_query
from repro.core import OMQ, CompleteAnswerEnumerator
from repro.chase.query_directed import default_null_depth
from repro.chase.standard import ChaseRecorder, _trigger_key, chase
from repro.config import ExecutionOptions
from repro.engine import QueryEngine
from repro.enumeration.cdlin import CDLinEnumerator
from repro.incremental import ChaseMaintainer, Delta
from repro.obs import start_trace
from repro.workloads import (
    generate_office_database,
    generate_university_database,
    office_omq,
    university_omq,
)
from repro.workloads.graphs import random_graph
from repro.workloads.lubm import generate_lubm_database, lubm_ontology

#: Maintain every delta in place, however large relative to the database.
MAINTAIN_ALL = ExecutionOptions(incremental_fallback_ratio=1.0)


class TestMutationLog:
    def test_changes_since_nets_mutations(self):
        database = Database([Fact("R", ("a", "b"))])
        start = database.version
        database.add(Fact("R", ("c", "d")))
        database.discard(Fact("R", ("a", "b")))
        delta = database.changes_since(start)
        assert delta is not None
        assert delta.added == {Fact("R", ("c", "d"))}
        assert delta.removed == {Fact("R", ("a", "b"))}
        assert delta.relations() == {"R"}

    def test_add_then_discard_nets_to_nothing(self):
        database = Database()
        start = database.version
        fact = Fact("R", ("a",))
        database.add(fact)
        database.discard(fact)
        delta = database.changes_since(start)
        assert delta is not None and not delta
        assert database.version > start

    def test_discard_then_readd_nets_to_nothing(self):
        fact = Fact("R", ("a",))
        database = Database([fact])
        start = database.version
        database.discard(fact)
        database.add(fact)
        delta = database.changes_since(start)
        assert delta is not None and not delta

    def test_plain_instance_has_no_log(self):
        from repro.data.instance import Instance

        instance = Instance([Fact("R", ("a",))])
        assert instance.changes_since(0) is None

    def test_log_floor_forces_rebuild(self):
        database = Database()
        database.change_log_limit = 8
        for index in range(40):
            database.add(Fact("R", (f"c{index}",)))
        assert database.changes_since(0) is None  # trimmed past the floor
        recent = database.version - 2
        delta = database.changes_since(recent)
        assert delta is not None and len(delta.added) == 2

    def test_future_version_is_unreconstructable(self):
        database = Database()
        assert database.changes_since(database.version + 1) is None

    def test_empty_delta_at_current_version(self):
        database = Database([Fact("R", ("a",))])
        delta = database.changes_since(database.version)
        assert delta == Delta()


class TestBatch:
    def test_batch_bumps_version_once(self):
        database = Database()
        start = database.version
        with database.batch():
            for index in range(10):
                database.add(Fact("R", (f"c{index}",)))
        assert database.version == start + 1
        delta = database.changes_since(start)
        assert delta is not None and len(delta.added) == 10

    def test_batch_is_visible_inside(self):
        database = Database()
        with database.batch():
            database.add(Fact("R", ("a",)))
            assert Fact("R", ("a",)) in database
            assert database.relation_size("R") == 1

    def test_nested_batches_coalesce(self):
        database = Database()
        start = database.version
        with database.batch():
            database.add(Fact("R", ("a",)))
            with database.batch():
                database.add(Fact("R", ("b",)))
        assert database.version == start + 1

    def test_noop_batch_keeps_version(self):
        database = Database([Fact("R", ("a",))])
        start = database.version
        with database.batch():
            database.add(Fact("R", ("a",)))  # already present
        assert database.version == start

    def test_add_facts_bulk_insert(self):
        database = Database([Fact("R", ("a",))])
        start = database.version
        added = database.add_facts(
            [Fact("R", ("a",)), Fact("R", ("b",)), Fact("S", ("c",)), Fact("R", ("b",))]
        )
        assert added == 2
        assert database.version == start + 1
        assert database.relation_size("R") == 2
        assert database.relation_size("S") == 1

    def test_add_facts_maintains_registered_indexes(self):
        database = Database([Fact("R", ("a", "b"))])
        index = database.index("R", (0,))
        database.add_facts([Fact("R", ("a", "c")), Fact("R", ("d", "e"))])
        assert len(index[("a",)]) == 2
        assert len(database.probe("R", (0,), ("d",))) == 1


def _maintained_chase(database, ontology, depth=None):
    maintainer = ChaseMaintainer(database, ontology, max_null_depth=depth)
    result = chase(database, ontology, max_null_depth=depth, recorder=maintainer)
    maintainer.attach(result)
    return maintainer, result


def _certain_facts(result):
    return {fact for fact in result.instance if not fact.has_null()}


class TestChaseMaintainer:
    ONTOLOGY = "A(x) -> B(x)\nB(x) -> C(x)"

    def test_insertion_delta(self):
        ontology = parse_ontology(self.ONTOLOGY)
        database = Database([Fact("A", ("a",))])
        maintainer, result = _maintained_chase(database, ontology)
        database.add(Fact("A", ("b",)))
        delta = maintainer.apply([Fact("A", ("b",))], [])
        assert Fact("C", ("b",)) in result.instance
        assert Fact("B", ("b",)) in delta.added
        reference = chase(database, ontology)
        assert _certain_facts(result) == _certain_facts(reference)

    def test_deletion_cascades(self):
        ontology = parse_ontology(self.ONTOLOGY)
        database = Database([Fact("A", ("a",)), Fact("A", ("b",))])
        maintainer, result = _maintained_chase(database, ontology)
        database.discard(Fact("A", ("a",)))
        delta = maintainer.apply([], [Fact("A", ("a",))])
        assert Fact("B", ("a",)) not in result.instance
        assert Fact("C", ("a",)) not in result.instance
        assert Fact("C", ("b",)) in result.instance
        assert Fact("C", ("a",)) in delta.removed
        reference = chase(database, ontology)
        assert _certain_facts(result) == _certain_facts(reference)

    def test_deletion_keeps_alternative_justification(self):
        # B(a) is derivable from A(a) and from D(a): deleting one leaves it.
        ontology = parse_ontology("A(x) -> B(x)\nD(x) -> B(x)")
        database = Database([Fact("A", ("a",)), Fact("D", ("a",))])
        maintainer, result = _maintained_chase(database, ontology)
        database.discard(Fact("A", ("a",)))
        maintainer.apply([], [Fact("A", ("a",))])
        assert Fact("B", ("a",)) in result.instance
        reference = chase(database, ontology)
        assert _certain_facts(result) == _certain_facts(reference)

    def test_deleting_base_fact_with_derived_copy_keeps_it(self):
        ontology = parse_ontology("A(x) -> B(x)")
        database = Database([Fact("A", ("a",)), Fact("B", ("a",))])
        maintainer, result = _maintained_chase(database, ontology)
        # B(a) pre-existed, so the A(x) -> B(x) trigger was suppressed with
        # B(a) itself as witness; deleting the base copy must re-fire it.
        database.discard(Fact("B", ("a",)))
        maintainer.apply([], [Fact("B", ("a",))])
        assert Fact("B", ("a",)) in result.instance
        reference = chase(database, ontology)
        assert _certain_facts(result) == _certain_facts(reference)

    def test_suppressed_trigger_refires_with_existential(self):
        ontology = parse_ontology("Researcher(x) -> HasOffice(x, y)")
        database = Database(
            [Fact("Researcher", ("p",)), Fact("HasOffice", ("p", "o1"))]
        )
        depth = 3
        maintainer, result = _maintained_chase(database, ontology, depth=depth)
        assert not result.nulls()  # trigger suppressed by the explicit office
        database.discard(Fact("HasOffice", ("p", "o1")))
        maintainer.apply([], [Fact("HasOffice", ("p", "o1"))])
        offices = [f for f in result.instance if f.relation == "HasOffice"]
        assert len(offices) == 1 and offices[0].has_null()

    def test_insertion_suppresses_nothing_retroactively(self):
        # Adding an explicit office after the chase invented one keeps the
        # invented tree (homomorphically redundant, answers unchanged).
        ontology = parse_ontology("Researcher(x) -> HasOffice(x, y)")
        database = Database([Fact("Researcher", ("p",))])
        maintainer, result = _maintained_chase(database, ontology, depth=3)
        assert result.nulls()
        database.add(Fact("HasOffice", ("p", "o1")))
        maintainer.apply([Fact("HasOffice", ("p", "o1"))], [])
        assert Fact("HasOffice", ("p", "o1")) in result.instance
        reference = chase(database, ontology, max_null_depth=3)
        assert _certain_facts(result) >= _certain_facts(reference)

    def test_mixed_batch_delta(self):
        ontology = parse_ontology(self.ONTOLOGY)
        database = Database([Fact("A", ("a",)), Fact("A", ("b",))])
        maintainer, result = _maintained_chase(database, ontology)
        start = database.version
        with database.batch():
            database.discard(Fact("A", ("a",)))
            database.add(Fact("A", ("c",)))
        delta = database.changes_since(start)
        assert delta is not None
        maintainer.apply_delta(delta)
        reference = chase(database, ontology)
        assert _certain_facts(result) == _certain_facts(reference)

    def test_apply_requires_attached_result(self):
        ontology = parse_ontology(self.ONTOLOGY)
        database = Database([Fact("A", ("a",))])
        maintainer = ChaseMaintainer(database, ontology)
        with pytest.raises(RuntimeError):
            maintainer.apply([], [])
        # Recording a run is not enough: the result must be attached.
        chase(database, ontology, recorder=maintainer)
        with pytest.raises(RuntimeError):
            maintainer.apply([Fact("A", ("b",))], [])
        assert maintainer.pending_rows > 0  # and the log was left alone


def _first_delta(database, kind):
    """A deterministic first delta of the given kind, applied as one batch."""
    facts = sorted(database.facts(), key=repr)
    with database.batch():
        if kind in ("delete", "mixed"):
            for victim in facts[::7]:
                database.discard(victim)
        if kind in ("insert", "mixed"):
            for index, template in enumerate(facts[3::11]):
                database.add(
                    Fact(template.relation, (f"fresh{index}",) + template.args[1:])
                )


def _large_office(researchers, witnessed=False):
    """Example 2.2's shape: office plus a rule joining two body atoms
    (``witnessed``: every explicit office is also a base ``LargeOffice``
    fact, so that rule's triggers start out suppressed)."""
    ontology = parse_ontology(
        "Researcher(x) -> HasOffice(x, y)\n"
        "Prof(x), HasOffice(x, y) -> LargeOffice(y)\n"
        "LargeOffice(x) -> InBuilding(x, y)"
    )
    database = generate_office_database(researchers, seed=4)
    database.add_facts(
        Fact("Prof", fact.args) for fact in sorted(database.relation("Researcher"), key=repr)[::2]
    )
    if witnessed:
        database.add_facts(
            Fact("LargeOffice", (fact.args[1],)) for fact in list(database.relation("HasOffice"))
        )
    query = parse_query("q(x, y, z) :- HasOffice(x, y), LargeOffice(y), InBuilding(y, z)")
    return OMQ.from_parts(ontology, query), database


def _assert_own_objects(maintainer, result):
    """Every fact, firing key and null of the store is the run's object."""
    own = {fact: fact for fact in result.instance}
    for body_facts, created_facts, _ in maintainer.firings.values():
        assert all(own[fact] is fact for fact in chain(body_facts, created_facts))
    for witness_facts in maintainer.suppressed.values():
        assert all(own[fact] is fact for fact in witness_facts)
    fired = {key: key for key in maintainer._fired}
    assert maintainer.firings and all(fired[key] is key for key in maintainer.firings)
    depths = {null: null for null in result.null_depth}
    for _, _, nulls in maintainer.firings.values():
        assert all(depths[null] is null for null in nulls)


class TestProvenanceLog:
    """The log -> index-on-first-delta -> compact store lifecycle."""

    def test_reads_never_index_and_first_write_indexes_once(self):
        omq = university_omq()
        database = generate_university_database(30, seed=1)
        engine = QueryEngine(omq.ontology, database)
        engine.execute(omq.query)
        maintainer = engine._materialization(database)._maintainer
        rows = maintainer.pending_rows
        assert rows > 0
        for _ in range(3):
            engine.execute(omq.query)
        assert maintainer.pending_rows == rows
        assert not maintainer.firings and not maintainer.suppressed
        assert not maintainer._by_support and not maintainer._creators

        indexed = []
        store = maintainer.firings
        for step in range(3):
            database.add(Fact("HasAdvisor", (f"late{step}", "prof0")))
            with start_trace("write", store=None) as trace:
                engine.execute(omq.query)
            (span,) = [s for s in trace.spans if s.name == "revalidate"]
            assert span.attributes["incremental"] is True
            indexed.append(span.attributes["provenance_indexed"])
            assert maintainer.pending_rows == 0
            # One store: the first write fills it, later writes update it.
            assert maintainer.firings is store and store
        assert indexed == [rows, 0, 0]
        assert maintainer._by_support and maintainer._creators
        assert engine.stats.chase_builds == 1

    def test_suppressed_then_fired_replays_as_fired(self):
        # The log holds an early suppression and a later firing of one
        # trigger: replay must leave it fired, and losing the old witness
        # must not re-check (and double-book) it.  Only a hand-seeded row
        # has a witness outside the head relation, so the rule has a
        # two-atom body, whose rows carry relation ids.
        ontology = parse_ontology("A(x), D(x) -> B(x)")
        database = Database([Fact("A", ("a",)), Fact("D", ("a",)), Fact("C", ("a",))])
        maintainer = ChaseMaintainer(database, ontology)
        compiled = maintainer.compiled
        (variable,) = compiled.frontier_orders[0]
        key = _trigger_key(0, {variable: "a"}, compiled.frontier_orders[0])
        maintainer.log_suppress(key, (Fact("C", ("a",)),))
        result = chase(database, ontology, recorder=maintainer)
        maintainer.attach(result)
        assert result.fired_triggers == 1

        database.discard(Fact("C", ("a",)))
        delta = maintainer.apply([], [Fact("C", ("a",))])
        assert key in maintainer.firings and key not in maintainer.suppressed
        assert result.fired_triggers == 1
        assert Fact("B", ("a",)) in result.instance
        assert delta.removed == {Fact("C", ("a",))} and not delta.added

    @pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
    @pytest.mark.parametrize(
        "setup",
        [
            pytest.param(
                lambda: (university_omq(), generate_university_database(40, seed=3)),
                id="university",
            ),
            pytest.param(
                lambda: (office_omq(), generate_office_database(40, seed=4)),
                id="office",
            ),
            # A two-atom body: its delta rounds reach the shared examine
            # through the homomorphism search, not the positional plan.
            pytest.param(lambda: _large_office(40), id="multi-atom-body"),
            # The same rule suppressed by base facts of its head relation,
            # some of which the delete removes.
            pytest.param(lambda: _large_office(40, witnessed=True), id="multi-atom-witnessed"),
        ],
    )
    def test_first_delta_equals_cold_engine(self, setup, kind):
        omq, database = setup()
        engine = QueryEngine(omq.ontology, database, options=MAINTAIN_ALL)
        engine.execute(omq.query)
        _first_delta(database, kind)
        warm = engine.execute(omq.query)
        assert engine.stats.chase_builds == 1
        assert engine.stats.chase_increments == 1
        assert warm == QueryEngine(omq.ontology, database).execute(omq.query)
        assert sorted(warm) == sorted(set(CompleteAnswerEnumerator(omq, database)))

    def test_integer_constants_survive_delete_and_refire(self):
        # Frontiers are decoded from trigger keys (dense term ids): over an
        # all-integer database a leaked id would be taken for a constant.
        c = [10**9 + i for i in range(4)]
        ontology = parse_ontology("P(x) -> Q(x, y)\nR(x, y), S(y) -> T(x)")
        database = Database(
            [
                Fact("P", (c[0],)),
                Fact("Q", (c[0], c[1])),  # suppresses P(x) -> Q(x, y) at c0
                Fact("R", (c[0], c[1])),
                Fact("S", (c[1],)),
                Fact("R", (c[0], c[2])),
                Fact("S", (c[2],)),
            ]
        )
        maintainer, result = _maintained_chase(database, ontology, depth=3)
        assert not result.nulls() and result.fired_triggers == 1
        # Whichever R/S pair the T-firing matched, delete its S fact.
        maintainer._index_log()
        ((body_facts, _, _),) = maintainer.firings.values()
        (used,) = [fact.args[0] for fact in body_facts if fact.relation == "S"]
        removed = [Fact("Q", (c[0], c[1])), Fact("S", (used,))]
        for fact in removed:
            database.discard(fact)
        maintainer.apply([], removed)
        # The suppressed trigger re-fired with a null, the retracted one
        # re-fired on the surviving R/S pair.
        (office,) = [f for f in result.instance if f.relation == "Q"]
        assert office.args[0] == c[0] and office.has_null()
        assert Fact("T", (c[0],)) in result.instance
        assert result.fired_triggers == 3
        reference = chase(database, ontology, max_null_depth=3)
        assert _certain_facts(result) == _certain_facts(reference)

    @pytest.mark.parametrize("students", [150, 600])
    def test_recorded_chase_keeps_no_tracked_object_per_trigger(self, students):
        # The log is integer rows: a recorded run leaves the collector as
        # many objects to scan as a bare run does, within 0.05 per trigger
        # (a log of row tuples kept about 3.3), at N and at 4N.
        database = generate_lubm_database(students, seed=0)
        ontology = lubm_ontology()

        def tracked_growth(recorder):
            # Two passes: the first untracks tuples of ints, the second
            # the tuples holding those (the fired keys).
            gc.collect()
            gc.collect()
            before = len(gc.get_objects())
            result = chase(database, ontology, max_null_depth=3, recorder=recorder)
            gc.collect()
            gc.collect()
            return len(gc.get_objects()) - before, result

        bare, _ = tracked_growth(None)
        maintainer = ChaseMaintainer(database, ontology, max_null_depth=3)
        recorded, result = tracked_growth(maintainer)
        triggers = maintainer.pending_rows
        assert triggers > result.fired_triggers > 0  # some were suppressed
        assert recorded - bare <= 0.05 * triggers

    def test_first_delta_indexes_the_runs_own_objects(self):
        # Decoding the log copies nothing: every fact in the store is the
        # instance's own object, every firing key the run's own fired key
        # and every created null the one the run's depth map holds.
        database = generate_lubm_database(60, seed=2)
        maintainer, result = _maintained_chase(database, lubm_ontology(), depth=3)
        added = [Fact("GradStudent", ("late",)), Fact("Faculty", ("late-faculty",))]
        database.add_facts(added)
        maintainer.apply(added, [])
        assert maintainer.pending_rows == 0 and maintainer.suppressed
        _assert_own_objects(maintainer, result)

    def test_deletion_recheck_keeps_the_runs_own_objects(self):
        # A deletion re-checks the triggers it retracted: the one that
        # re-fires must store the instance's own body fact, not a copy.
        database = generate_lubm_database(60, seed=2)
        maintainer, result = _maintained_chase(database, lubm_ontology(), depth=3)
        victim = min(database.relation("HasAdvisor"), key=repr)
        database.discard(victim)
        fired = result.fired_triggers
        maintainer.apply([], [victim])
        assert result.fired_triggers > fired  # some trigger re-fired
        _assert_own_objects(maintainer, result)

    def test_generic_rows_index_the_runs_own_objects(self):
        # The same for the rows of a two-atom body, which log generically.
        omq, database = _large_office(20)
        maintainer, result = _maintained_chase(database, omq.ontology)
        assert any(plan.body_relation is None for plan in maintainer.compiled.plans)
        maintainer._index_log()
        assert maintainer.pending_rows == 0
        _assert_own_objects(maintainer, result)

    def test_run_reuses_the_recorders_compiled_ontology(self, monkeypatch):
        # ``repro.chase`` the attribute is the function, not the package.
        standard = importlib.import_module("repro.chase.standard")
        calls = []
        compile_ontology = standard.compile_ontology
        monkeypatch.setattr(
            standard,
            "compile_ontology",
            lambda ontology: calls.append(ontology) or compile_ontology(ontology),
        )
        ontology = parse_ontology("A(x) -> B(x)")
        database = Database([Fact("A", ("a",))])
        maintainer = ChaseMaintainer(database, ontology)  # compiles (own import)
        chase(database, ontology, recorder=maintainer)
        assert calls == []
        # A recorder without a compiled form (the no-op base) changes nothing.
        plain = chase(database, ontology, recorder=ChaseRecorder())
        assert calls == [ontology]
        assert Fact("B", ("a",)) in plain.instance


class TestReductionMaintenance:
    QUERY = "q(x, y) :- R(x, y), S(y)"

    def _instance(self, pairs, names):
        from repro.data.instance import Instance

        return Instance(
            [Fact("R", pair) for pair in pairs] + [Fact("S", (n,)) for n in names]
        )

    def test_untouched_relations_keep_state(self):
        instance = self._instance([("a", "b")], ["b"])
        enumerator = CDLinEnumerator(parse_query(self.QUERY), instance)
        before = set(enumerator.enumerate())
        assert enumerator.maintain(instance, {"Unrelated"}) is False
        assert set(enumerator.enumerate()) == before

    def test_insert_updates_answers(self):
        instance = self._instance([("a", "b")], ["b"])
        query = parse_query(self.QUERY)
        enumerator = CDLinEnumerator(query, instance)
        instance.add(Fact("R", ("c", "b")))
        assert enumerator.maintain(instance, {"R"}) is True
        expected = set(CDLinEnumerator(query, instance).enumerate())
        assert set(enumerator.enumerate()) == expected
        assert ("c", "b") in expected

    def test_delete_to_empty_and_back(self):
        instance = self._instance([("a", "b")], ["b"])
        query = parse_query(self.QUERY)
        enumerator = CDLinEnumerator(query, instance)
        instance.discard(Fact("S", ("b",)))
        assert enumerator.maintain(instance, {"S"}) is True
        assert enumerator.is_empty()
        assert set(enumerator.enumerate()) == set()
        instance.add(Fact("S", ("b",)))
        assert enumerator.maintain(instance, {"S"}) is True
        assert set(enumerator.enumerate()) == {("a", "b")}


def _graph_database(vertices=14, edges=30, seed=7):
    return Database(
        Fact("E", edge) for edge in random_graph(vertices, edges, seed=seed)
    )


def _graph_omq():
    return OMQ.from_parts(
        parse_ontology(""),
        parse_query("q(x, y, z) :- E(x, y), E(y, z)"),
        name="Q_path",
    )


def _random_mutation(database, rng, counter):
    """One random mutation: add a schema-shaped fact or discard an existing one."""
    facts = sorted(database.facts(), key=repr)
    if facts and rng.random() < 0.45:
        database.discard(facts[rng.randrange(len(facts))])
    else:
        template = facts[rng.randrange(len(facts))] if facts else Fact("E", ("a", "b"))
        if rng.random() < 0.5 and template.arity > 0:
            # Fresh first argument: a genuinely new entity.
            args = (f"new{counter}",) + template.args[1:]
        else:
            # Rewire existing constants into a new combination.
            pool = sorted({a for f in facts for a in f.args}) or ["a"]
            args = tuple(pool[rng.randrange(len(pool))] for _ in template.args)
        database.add(Fact(template.relation, args))


class TestMetamorphic:
    """Warm incremental engines must track cold evaluation exactly."""

    WORKLOADS = [
        pytest.param(
            lambda: (university_omq(), generate_university_database(30, seed=1)),
            id="university",
        ),
        pytest.param(
            lambda: (office_omq(), generate_office_database(30, seed=2)),
            id="office",
        ),
        pytest.param(lambda: (_graph_omq(), _graph_database()), id="graph"),
    ]

    @pytest.mark.parametrize("setup", WORKLOADS)
    def test_interleaved_mutations_match_cold_engine(self, setup):
        omq, database = setup()
        engine = QueryEngine(omq.ontology, database, options=MAINTAIN_ALL)
        engine.execute(omq.query)  # warm the materialization
        rng = random.Random(0xC0FFEE)
        for step in range(24):
            if step % 5 == 4:
                with database.batch():
                    for offset in range(rng.randrange(2, 6)):
                        _random_mutation(database, rng, f"{step}_{offset}")
            else:
                _random_mutation(database, rng, step)
            warm = sorted(engine.execute(omq.query))
            cold = sorted(set(CompleteAnswerEnumerator(omq, database)))
            assert warm == cold, f"divergence after step {step}"
        stats = engine.stats
        assert stats.chase_builds == 1, "incremental engine must never re-chase"
        assert stats.chase_increments > 0
        assert stats.invalidations == 0

    @pytest.mark.parametrize("setup", WORKLOADS)
    def test_cursor_and_batch_follow_mutations(self, setup):
        omq, database = setup()
        engine = QueryEngine(omq.ontology, database, options=MAINTAIN_ALL)
        cursor = engine.open(omq.query)
        rng = random.Random(31337)
        for step in range(8):
            _random_mutation(database, rng, f"c{step}")
            cursor.restart()
            cold = set(CompleteAnswerEnumerator(omq, database))
            assert set(cursor.fetchall()) == cold
            (batched,) = engine.execute_batch([omq.query])
            assert batched == cold
        assert engine.stats.chase_builds == 1


class TestSnapshotIsolation:
    def test_inflight_enumeration_survives_maintenance(self):
        # Maintenance swaps containers instead of mutating them, so an
        # enumeration started before a delta finishes over the consistent
        # pre-delta snapshot while new enumerations see the new state.
        omq = university_omq()
        database = generate_university_database(60, seed=21)
        engine = QueryEngine(omq.ontology, database)
        before = engine.execute(omq.query)
        cursor = engine.open(omq.query)
        first = cursor.fetchmany(3)
        database.add(Fact("HasAdvisor", ("snapshot_s", "prof0")))
        database.add(Fact("WorksFor", ("prof0", "dept0")))
        after = engine.execute(omq.query)  # triggers in-place maintenance
        assert engine.stats.chase_increments >= 1
        stale_rest = cursor.fetchall()  # continues over the old snapshot
        assert set(first) | set(stale_rest) == before
        cursor.restart()  # re-resolves state: now sees the new answers
        assert set(cursor.fetchall()) == after
        assert ("snapshot_s", "prof0", "dept0") in after


class TestAcceptance:
    """The ISSUE acceptance scenario: warm engine, ≤1% mutation, no rebuild."""

    def test_one_percent_delta_no_rebuild_and_identical_answers(self):
        omq = university_omq()
        database = generate_university_database(400, seed=11)
        engine = QueryEngine(omq.ontology, database)
        engine.execute(omq.query)
        materialization = engine._materialization(database)
        assert materialization.chase_rebuilds == 1

        budget = len(database) // 100
        with database.batch():
            for index in range(max(1, budget // 2)):
                database.add(Fact("HasAdvisor", (f"late{index}", "prof0")))
            victims = [f for f in sorted(database.relation("HasAdvisor"), key=repr)]
            for victim in victims[: max(1, budget // 2)]:
                database.discard(victim)

        warm = engine.execute(omq.query)
        assert materialization.chase_rebuilds == 1  # no full chase rebuild
        assert materialization.chase_increments == 1

        cold_engine = QueryEngine(omq.ontology, database)
        assert warm == cold_engine.execute(omq.query)
        assert sorted(warm) == sorted(set(CompleteAnswerEnumerator(omq, database)))

    def test_default_depth_consistency_after_updates(self):
        # The maintained chase must stay at the depth the plan compiled.
        omq = office_omq()
        database = generate_office_database(25, seed=5)
        engine = QueryEngine(omq.ontology, database)
        engine.execute(omq.query)
        materialization = engine._materialization(database)
        depth = materialization.chase.null_depth_bound
        assert depth == default_null_depth(omq.ontology, omq.query)
        database.add(Fact("Researcher", ("fresh",)))
        engine.execute(omq.query)
        assert materialization.chase.null_depth_bound == depth


class TestDeltaWire:
    """The JSON wire format the server's mutation endpoint speaks."""

    def test_roundtrip_is_identity(self):
        from repro.incremental import apply_delta

        delta = Delta(
            added=frozenset({Fact("R", ("a", "b")), Fact("S", ("c",))}),
            removed=frozenset({Fact("R", ("x", "y"))}),
        )
        wire = delta.to_wire()
        assert wire["add"] == sorted(wire["add"])  # deterministic order
        back = Delta.from_wire(wire)
        assert back.added == delta.added and back.removed == delta.removed

    @pytest.mark.parametrize(
        "payload",
        [
            {"add": "not-a-list"},
            {"add": [["R"]]},  # missing argument list
            {"add": [["R", "ab"]]},  # args must be a list
            {"add": [[42, ["a"]]]},  # relation must be a string
            {"remove": [["R", ["a", 7]]]},  # terms must be strings
            {"bogus": []},
        ],
    )
    def test_malformed_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            Delta.from_wire(payload)

    def test_apply_delta_is_one_batch_and_reports_effective_change(self):
        from repro.incremental import apply_delta

        database = Database([Fact("R", ("a", "b")), Fact("R", ("x", "y"))])
        version_before = database.version
        delta = Delta.from_wire(
            {
                "add": [["R", ["a", "b"]], ["S", ["new"]]],  # one is a no-op
                "remove": [["R", ["x", "y"]], ["R", ["gone", "gone"]]],
            }
        )
        added, removed = apply_delta(database, delta)
        assert (added, removed) == (1, 1)
        # One coalesced batch: exactly one version step for the whole delta.
        assert database.version == version_before + 1
