"""Tests for semi-joins, the full reducer and Yannakakis evaluation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq import Atom, Variable, parse_query
from repro.cq.homomorphism import evaluate
from repro.cq.jointree import build_join_tree
from repro.data import TERMS, Database, Fact, Instance, fresh_null
from repro.yannakakis import (
    AtomRelation,
    BooleanQueryPlan,
    atom_relation,
    boolean_eval,
    decompose_free_connex,
    full_reducer,
    semijoin,
    single_test,
)
from repro.yannakakis.decomposition import NotFreeConnexError
from repro.yannakakis.evaluation import NotAcyclicError

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def decoded(rows) -> set[tuple]:
    """Id rows (or id keys) back as term tuples."""
    return {TERMS.decode_tuple(row) for row in rows}


def chain_instance() -> Instance:
    return Instance(
        [
            Fact("R", ("a", "b")),
            Fact("R", ("a2", "b2")),
            Fact("S", ("b", "c")),
            Fact("T", ("c", "d")),
        ]
    )


class TestAtomRelation:
    def test_materialisation(self):
        relation = atom_relation(Atom("R", (X, Y)), chain_instance())
        assert len(relation) == 2
        assert relation.variables == (X, Y)

    def test_constants_act_as_selection(self):
        relation = atom_relation(Atom("R", ("a", Y)), chain_instance())
        assert decoded(relation.tuples) == {("b",)}

    def test_repeated_variables_filter(self):
        instance = Instance([Fact("R", ("a", "a")), Fact("R", ("a", "b"))])
        relation = atom_relation(Atom("R", (X, X)), instance)
        assert decoded(relation.tuples) == {("a",)}

    def test_projection_and_index(self):
        relation = atom_relation(Atom("R", (X, Y)), chain_instance())
        assert decoded(relation.project([Y])) == {("b",), ("b2",)}
        index = relation.index_on([X])
        assert decoded(index) == {("a",), ("a2",)}

    def test_assignment_roundtrip(self):
        relation = atom_relation(Atom("R", (X, Y)), chain_instance())
        row = next(iter(relation))
        assignment = relation.assignment(row)
        assert set(assignment) == {X, Y}


class TestAtomRelationRows:
    """The row set is the one representation: every lookup reads it directly."""

    @staticmethod
    def rel(rows=((1, 2), (1, 3), (4, 2))):
        return AtomRelation(Atom("R", (X, Y)), (X, Y), rows)

    def test_rows_round_trip(self):
        relation = self.rel()
        assert len(relation) == 3
        assert set(relation) == relation.tuples == {(1, 2), (1, 3), (4, 2)}
        assert relation.assignment((1, 2)) == {X: 1, Y: 2}

    def test_zero_arity_projection(self):
        nullary = AtomRelation(Atom("P", ()), (), [(), ()])
        assert len(nullary) == 1
        assert nullary.project(()) == {()}
        assert nullary.index_on(()) == {(): [()]}
        instance = Instance([Fact("P", ()), Fact("R", ("a", "b"))])
        assert atom_relation(Atom("P", ()), instance).tuples == {()}
        assert atom_relation(Atom("Missing", ()), instance).is_empty()
        # An all-constant atom projects onto no variables.
        assert atom_relation(Atom("R", ("a", "b")), instance).tuples == {()}
        assert atom_relation(Atom("R", ("b", "a")), instance).is_empty()

    def test_project(self):
        relation = self.rel()
        assert relation.project((X,)) == {(1,), (4,)}
        assert relation.project((Y, X)) == {(2, 1), (3, 1), (2, 4)}
        assert relation.project(()) == {()}
        assert self.rel(()).project(()) == set()

    def test_repeated_variables_filter_rows(self):
        instance = Instance(
            [
                Fact("R", ("a", "a", "b")),
                Fact("R", ("a", "b", "b")),
                Fact("R", ("c", "c", "c")),
                Fact("R", ("c", "k", "c")),
            ]
        )
        assert decoded(atom_relation(Atom("R", (X, X, Y)), instance)) == {
            ("a", "b"),
            ("c", "c"),
        }
        # Variables are ordered by name: (x, y) reads positions (1, 0).
        assert decoded(atom_relation(Atom("R", (Y, X, X)), instance)) == {
            ("b", "a"),
            ("c", "c"),
        }
        assert decoded(atom_relation(Atom("R", (X, X, X)), instance)) == {("c",)}
        assert decoded(atom_relation(Atom("R", (X, "k", X)), instance)) == {("c",)}

    def test_index_on(self):
        relation = self.rel()
        index = relation.index_on((X,))
        assert set(index[(1,)]) == {(1, 2), (1, 3)}
        assert set(index[(4,)]) == {(4, 2)}
        assert set(relation.index_on(())[()]) == {(1, 2), (1, 3), (4, 2)}
        assert self.rel(()).index_on(()) == {}

    def test_filter_by_keys(self):
        relation = self.rel()
        assert set(relation.filter_by_keys((X,), {(1,)})) == {(1, 2), (1, 3)}
        assert relation.filter_by_keys((X,), set()) == []
        assert set(relation.filter_by_keys((), {()})) == {(1, 2), (1, 3), (4, 2)}
        assert relation.filter_by_keys((), set()) == []

    @pytest.mark.parametrize("variables", [(X,), (X, Y), (Z, X, Y)])
    def test_row_kernels_match_a_reference(self, variables):
        relation = AtomRelation(
            Atom("R", (X, Y, Z)), (X, Y, Z), [(1, 2, 3), (1, 5, 6), (4, 2, 3), (1, 2, 9)]
        )
        positions = relation.positions(variables)
        rows = list(relation)
        keys = {tuple(row[p] for p in positions) for row in rows[:2]}
        expected_index: dict[tuple, list[tuple]] = {}
        for row in rows:
            expected_index.setdefault(tuple(row[p] for p in positions), []).append(row)
        expected_filter = [row for row in rows if tuple(row[p] for p in positions) in keys]
        assert relation.filter_by_keys(variables, keys) == expected_filter
        assert relation.index_on(variables) == expected_index
        assert relation.project(variables) == set(expected_index)

    def test_lookups_are_cached_until_rows_change(self):
        relation = self.rel()
        projection, index = relation.project((X,)), relation.index_on((Y,))
        assert relation.project((X,)) is projection
        assert relation.index_on((Y,)) is index
        relation.replace_tuples([(7, 8)])
        assert relation.project((X,)) == {(7,)}
        assert relation.index_on((Y,)) == {(8,): [(7, 8)]}
        relation.clear()
        assert relation.project((X,)) == set() and relation.index_on((Y,)) == {}

    def test_atom_relation_reads_current_facts_of_one_arity(self):
        instance = Instance([Fact("R", ("a", "b"))])
        assert len(atom_relation(Atom("R", (X, Y)), instance)) == 1
        instance.add(Fact("R", ("b", "c")))
        assert len(atom_relation(Atom("R", (X, Y)), instance)) == 2
        # Facts of another arity under the same symbol never match.
        instance.add(Fact("R", ("solo",)))
        assert decoded(atom_relation(Atom("R", (X,)), instance)) == {("solo",)}
        assert len(atom_relation(Atom("R", (X, Y)), instance)) == 2

    def test_atom_relation_rows_are_fact_iargs(self):
        fact = Fact("R", ("a", "b"))
        (row,) = atom_relation(Atom("R", (X, Y)), Instance([fact]))
        assert TERMS.decode_tuple(row) == ("a", "b")
        assert row is fact.iargs  # the fact's id tuple, not a copy

    def test_atom_relation_inside_batch(self):
        database = Database([Fact("R", ("a", "b"))])
        assert len(atom_relation(Atom("R", (X, Y)), database)) == 1
        with database.batch():
            database.add(Fact("R", ("c", "d")))
            assert len(atom_relation(Atom("R", (X, Y)), database)) == 2


class TestSemijoin:
    def test_semijoin_removes_dangling(self):
        left = atom_relation(Atom("R", (X, Y)), chain_instance())
        right = atom_relation(Atom("S", (Y, Z)), chain_instance())
        changed = semijoin(left, right)
        assert changed
        assert decoded(left.tuples) == {("a", "b")}

    def test_semijoin_without_shared_variables(self):
        left = atom_relation(Atom("R", (X, Y)), chain_instance())
        empty = atom_relation(Atom("Missing", (Z,)), chain_instance())
        assert semijoin(left, empty)
        assert left.is_empty()

    def test_full_reducer_gives_global_consistency(self):
        query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
        atoms = list(query.atoms)
        tree = build_join_tree(atoms)
        relations = {a: atom_relation(a, chain_instance()) for a in atoms}
        full_reducer(tree, relations)
        answers = evaluate(query, chain_instance())
        for atom, relation in relations.items():
            for row in relation.tuples:
                assignment = relation.assignment(row)
                assert any(
                    all(
                        answer[query.answer_variables.index(v)] == TERMS.decode(value)
                        for v, value in assignment.items()
                    )
                    for answer in answers
                )

    def test_full_reducer_empties_everything_when_join_is_empty(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("S", ("x", "y"))])
        query = parse_query("q(x, z) :- R(x, y), S(y, z)")
        atoms = list(query.atoms)
        tree = build_join_tree(atoms)
        relations = {a: atom_relation(a, instance) for a in atoms}
        full_reducer(tree, relations)
        assert all(rel.is_empty() for rel in relations.values())


class TestBooleanEvalAndSingleTest:
    def test_boolean_eval_true_and_false(self):
        query = parse_query("q() :- R(x, y), S(y, z), T(z, u)")
        assert boolean_eval(query, chain_instance())
        query_false = parse_query("q() :- R(x, y), T(y, z)")
        assert not boolean_eval(query_false, chain_instance())

    def test_boolean_eval_disconnected(self):
        query = parse_query("q() :- R(x, y), T(u, w)")
        assert boolean_eval(query, chain_instance())

    def test_boolean_eval_rejects_cyclic(self):
        query = parse_query("q() :- R(x, y), S(y, z), T(z, x)")
        with pytest.raises(NotAcyclicError):
            boolean_eval(query, chain_instance())

    def test_single_test_matches_evaluate(self):
        query = parse_query("q(x, z) :- R(x, y), S(y, z)")
        answers = evaluate(query, chain_instance())
        assert single_test(query, chain_instance(), ("a", "c"))
        assert ("a", "c") in answers
        assert not single_test(query, chain_instance(), ("a2", "c"))

    def test_single_test_wrong_arity(self):
        query = parse_query("q(x) :- R(x, y)")
        with pytest.raises(Exception):
            single_test(query, chain_instance(), ("a", "b"))

    def test_single_test_repeated_head_variables(self):
        query = parse_query("q(x, x) :- R(x, y)")
        assert single_test(query, chain_instance(), ("a", "a"))
        assert not single_test(query, chain_instance(), ("a", "a2"))


class TestBooleanQueryPlan:
    """The seeded reads: a component is read from its constants outward."""

    @staticmethod
    def fan_instance(width: int = 50) -> Instance:
        """``R(a_i, b_i)`` for every i, but ``S(b_0, c)`` only."""
        facts = [Fact("R", (f"a{i}", f"b{i}")) for i in range(width)]
        return Instance(facts + [Fact("S", ("b0", "c"))])

    def test_root_is_the_atom_with_the_most_constants(self):
        plan = BooleanQueryPlan(parse_query('q() :- R(x, y), S(y, "c")'))
        assert plan.evaluate(self.fan_instance())
        # S(b0, c), then R probed on y = b0: one row each, not a scan of R.
        assert plan.rows_read == 2
        unseeded = BooleanQueryPlan(parse_query("q() :- R(x, y), S(y, z)"))
        assert unseeded.evaluate(self.fan_instance())
        assert unseeded.rows_read > 50

    def test_ground_component_joined_only_through_a_constant(self):
        query = parse_query('q() :- HasOffice("p", "o"), InBuilding("o", "b")')
        assert len(query.connected_components()) == 1
        plan = BooleanQueryPlan(query)
        facts = [Fact("HasOffice", ("p", "o")), Fact("InBuilding", ("o", "b"))]
        assert plan.evaluate(Instance(facts))
        assert plan.rows_read == 2
        assert not plan.evaluate(Instance(facts[:1]))
        assert not plan.evaluate(Instance(facts[1:]))
        # A child sharing a constant but no variable with its parent.
        mixed = BooleanQueryPlan(parse_query('q() :- R(x, "c"), S("c", y)'))
        assert mixed.evaluate(Instance([Fact("R", ("a", "c")), Fact("S", ("c", "d"))]))
        assert not mixed.evaluate(Instance([Fact("R", ("a", "c")), Fact("S", ("d", "c"))]))

    def test_constant_absent_from_the_instance(self):
        instance = chain_instance()
        assert not boolean_eval(parse_query('q() :- R(x, "absent-root")'), instance)
        child = parse_query('q() :- R("a", y), S(y, z), T(z, "absent-child")')
        assert not boolean_eval(child, instance)
        assert boolean_eval(parse_query('q() :- R("a", y), S(y, z), T(z, "d")'), instance)

    def test_repeated_variable_in_a_seeded_read(self):
        query = parse_query('q() :- R("a", y), S(y, y)')
        loop = Instance([Fact("R", ("a", "b")), Fact("S", ("b", "b"))])
        no_loop = Instance([Fact("R", ("a", "b")), Fact("S", ("b", "c"))])
        assert boolean_eval(query, loop)
        assert not boolean_eval(query, no_loop)

    def test_constant_free_component_scans_its_root(self):
        query = parse_query('q() :- R(x, y), S(y, z), T("c", u)')
        assert len(query.connected_components()) == 2
        plan = BooleanQueryPlan(query)
        assert plan.evaluate(chain_instance())
        assert plan.rows_read >= len(chain_instance().relation("R"))
        assert not plan.evaluate(Instance([Fact("R", ("a", "b")), Fact("S", ("b", "c"))]))

    def test_one_plan_on_two_instances(self):
        plan = BooleanQueryPlan(parse_query('q() :- R("a", y), S(y, z)'))
        other = Instance([Fact("R", ("a", "x")), Fact("S", ("y", "z"))])
        assert plan.evaluate(chain_instance())
        assert not plan.evaluate(other)
        other.add(Fact("S", ("x", "z")))
        assert plan.evaluate(other)
        assert plan.evaluate(chain_instance())

    def test_database_variables_drop_null_rows(self):
        null = fresh_null()
        instance = Instance([Fact("R", ("a", null)), Fact("S", (null, "c"))])
        query = parse_query('q() :- R("a", y), S(y, z)')
        assert BooleanQueryPlan(query).evaluate(instance)
        assert BooleanQueryPlan(query, database_variables=[Z]).evaluate(instance)
        assert not BooleanQueryPlan(query, database_variables=[Y]).evaluate(instance)
        instance.add(Fact("R", ("a", "b")))
        assert not BooleanQueryPlan(query, database_variables=[Y]).evaluate(instance)
        instance.add(Fact("S", ("b", "d")))
        assert BooleanQueryPlan(query, database_variables=[Y]).evaluate(instance)


class TestFreeConnexDecomposition:
    def test_office_query_decomposition(self):
        query = parse_query("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)")
        decomposition = decompose_free_connex(query)
        for component in decomposition.components:
            assert set(component.answer_variables) <= component.root.variables()

    def test_components_partition_atoms(self):
        query = parse_query("q(x, y) :- R(x, a), S(a, x), T(y, b)")
        decomposition = decompose_free_connex(query)
        covered = [atom for c in decomposition.components for atom in c.atoms]
        assert sorted(map(repr, covered)) == sorted(map(repr, query.atoms))

    def test_components_share_only_answer_variables(self):
        query = parse_query("q(x, y) :- R(x, a), S(x, y), T(y, b)")
        decomposition = decompose_free_connex(query)
        for i, left in enumerate(decomposition.components):
            left_vars = {v for atom in left.atoms for v in atom.variables()}
            for right in decomposition.components[i + 1 :]:
                right_vars = {v for atom in right.atoms for v in atom.variables()}
                shared = left_vars & right_vars
                assert shared <= set(query.answer_variables)

    def test_not_free_connex_raises(self):
        query = parse_query("q(x, y) :- R(x, z), S(z, y)")
        with pytest.raises(NotFreeConnexError):
            decompose_free_connex(query)

    def test_boolean_query_decomposition(self):
        query = parse_query("q() :- R(x, y), S(y, z)")
        decomposition = decompose_free_connex(query)
        assert all(c.answer_variables == () for c in decomposition.components)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_boolean_eval_matches_reference_evaluator(seed):
    """Property: Yannakakis Boolean evaluation agrees with the backtracking
    evaluator on random acyclic queries, grounded at one random variable or
    not, and random instances."""
    rng = random.Random(seed)
    constants = ["a", "b", "c", "d", "e"]
    facts = []
    for _ in range(rng.randint(1, 12)):
        facts.append(Fact("R", (rng.choice(constants), rng.choice(constants))))
        facts.append(Fact("S", (rng.choice(constants), rng.choice(constants))))
    for _ in range(rng.randint(0, 5)):
        facts.append(Fact("A", (rng.choice(constants),)))
    instance = Instance(facts)
    queries = [
        "q() :- R(x, y), S(y, z)",
        "q() :- R(x, y), A(y)",
        "q() :- R(x, y), S(y, z), A(z)",
        "q() :- A(x), R(x, y)",
    ]
    for text in queries:
        query = parse_query(text)
        assert boolean_eval(query, instance) == bool(evaluate(query, instance))
        # Grounded, so the component is read from a constant outward.
        variable = rng.choice(sorted(query.variables(), key=lambda v: v.name))
        grounded = query.substitute({variable: rng.choice(constants)})
        assert boolean_eval(grounded, instance) == bool(evaluate(grounded, instance))
