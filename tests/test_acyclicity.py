"""Tests for hypergraphs, join trees and the acyclicity notions (Figure 1)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq import Atom, Variable, parse_query
from repro.cq.acyclicity import (
    bad_paths,
    classify,
    extended_query,
    figure1_examples,
    has_bad_path,
    is_acyclic,
    is_free_connex_acyclic,
    is_weakly_acyclic,
    join_tree,
)
from repro.cq.hypergraph import Hypergraph, atom_hypergraph, gyo_reduction, is_alpha_acyclic
from repro.cq.jointree import build_join_tree, guard_atom

X, Y, Z, U, W = (Variable(n) for n in ("x", "y", "z", "u", "w"))


class TestHypergraph:
    def test_path_is_acyclic(self):
        graph = Hypergraph.from_edge_sets([{1, 2}, {2, 3}, {3, 4}])
        assert is_alpha_acyclic(graph)

    def test_triangle_is_cyclic(self):
        graph = Hypergraph.from_edge_sets([{1, 2}, {2, 3}, {3, 1}])
        assert not is_alpha_acyclic(graph)

    def test_guarded_triangle_is_acyclic(self):
        graph = Hypergraph.from_edge_sets([{1, 2}, {2, 3}, {3, 1}, {1, 2, 3}])
        assert is_alpha_acyclic(graph)

    def test_square_is_cyclic(self):
        graph = Hypergraph.from_edge_sets([{1, 2}, {2, 3}, {3, 4}, {4, 1}])
        assert not is_alpha_acyclic(graph)

    def test_empty_and_single_edge(self):
        assert is_alpha_acyclic(Hypergraph.from_edge_sets([]))
        assert is_alpha_acyclic(Hypergraph.from_edge_sets([{1, 2, 3}]))

    def test_gyo_reports_ear_order(self):
        graph = Hypergraph.from_edge_sets([{1, 2}, {2, 3}])
        acyclic, ears = gyo_reduction(graph)
        assert acyclic
        assert len(ears) == 2

    def test_vertices(self):
        graph = Hypergraph.from_edge_sets([{1, 2}, {3}])
        assert graph.vertices() == {1, 2, 3}
        assert len(graph) == 2


class TestJoinTree:
    def test_join_tree_of_path(self):
        atoms = [Atom("R", (X, Y)), Atom("S", (Y, Z)), Atom("T", (Z, U))]
        tree = build_join_tree(atoms)
        assert tree is not None
        assert tree.is_valid()
        assert len(list(tree.edges())) == 2

    def test_join_tree_of_triangle_is_none(self):
        atoms = [Atom("R", (X, Y)), Atom("S", (Y, Z)), Atom("T", (Z, X))]
        assert build_join_tree(atoms) is None

    def test_single_atom_tree(self):
        tree = build_join_tree([Atom("R", (X, Y))])
        assert tree is not None and tree.root == Atom("R", (X, Y))

    def test_rooting_and_preorder(self):
        a, b, c = Atom("A", (X,)), Atom("R", (X, Y)), Atom("B", (Y,))
        tree = build_join_tree([a, b, c], root=b)
        assert tree.root == b
        order = tree.preorder()
        assert order[0] == b and set(order) == {a, b, c}
        assert tree.parent(b) is None
        assert tree.parent(a) == b

    def test_predecessor_variables(self):
        a, b = Atom("R", (X, Y)), Atom("S", (Y, Z))
        tree = build_join_tree([a, b], root=a)
        assert tree.predecessor_variables(b) == {Y}
        assert tree.predecessor_variables(a) == set()

    def test_subtree_atoms(self):
        a, b, c = Atom("R", (X, Y)), Atom("S", (Y, Z)), Atom("T", (Z, U))
        tree = build_join_tree([a, b, c], root=a)
        assert set(tree.subtree_atoms(b)) == {b, c}

    def test_disconnected_atoms_get_linked(self):
        a, b = Atom("A", (X,)), Atom("B", (Y,))
        tree = build_join_tree([a, b])
        assert tree is not None
        assert tree.is_valid()

    def test_guard_atom(self):
        guard = guard_atom((X, Y))
        assert guard.args == (X, Y)
        assert guard.relation == "__guard__"


class TestAcyclicityNotions:
    def test_figure1_classifications(self):
        expectations = {
            "free path": (True, True, True),
            "projected path": (True, False, True),
            "free triangle": (False, True, True),
            "triangle with quantified corner": (False, False, True),
            "Boolean triangle": (False, False, False),
        }
        examples = figure1_examples()
        assert [name for name, _query, _props in examples] == list(expectations)
        for name, _query, props in examples:
            expected = expectations[name]
            assert (
                props["acyclic"],
                props["free_connex_acyclic"],
                props["weakly_acyclic"],
            ) == expected, name

    def test_each_notion_implies_weak_acyclicity(self):
        for _name, query, props in figure1_examples():
            if props["acyclic"] or props["free_connex_acyclic"]:
                assert props["weakly_acyclic"]

    def test_office_query_is_acyclic_and_free_connex(self):
        query = parse_query("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)")
        assert is_acyclic(query)
        assert is_free_connex_acyclic(query)
        assert is_weakly_acyclic(query)

    def test_matrix_multiplication_query(self):
        query = parse_query("q(x, y) :- R(x, z), S(z, y)")
        assert is_acyclic(query)
        assert not is_free_connex_acyclic(query)

    def test_boolean_queries_acyclicity_coincides_with_weak(self):
        cyclic = parse_query("q() :- R(x, y), S(y, z), T(z, x)")
        path = parse_query("q() :- R(x, y), S(y, z)")
        assert is_weakly_acyclic(cyclic) == is_acyclic(cyclic) is False
        assert is_weakly_acyclic(path) == is_acyclic(path) is True

    def test_join_tree_exists_iff_acyclic(self):
        acyclic_query = parse_query("q(x) :- R(x, y), S(y, z)")
        cyclic_query = parse_query("q(x) :- R(x, y), S(y, z), T(z, x)")
        assert join_tree(acyclic_query) is not None
        assert join_tree(cyclic_query) is None

    def test_extended_query_adds_guard(self):
        query = parse_query("q(x, y) :- R(x, z), S(z, y)")
        extended = extended_query(query)
        assert len(extended.atoms) == len(query.atoms) + 1

    def test_classify_reports_all_fields(self):
        report = classify(parse_query("q(x) :- R(x, y)"))
        assert set(report) == {
            "acyclic",
            "free_connex_acyclic",
            "weakly_acyclic",
            "self_join_free",
            "connected",
            "full",
        }


class TestBadPaths:
    def test_mm_query_has_bad_path(self):
        query = parse_query("q(x, y) :- R(x, z), S(z, y)")
        paths = bad_paths(query)
        assert paths, "the projected path query must have a bad path"
        assert all(len(path) >= 3 for path in paths)
        assert has_bad_path(query)

    def test_free_connex_acyclic_query_has_no_bad_path(self):
        query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
        assert not has_bad_path(query)

    def test_bad_path_endpoints_are_answer_variables(self):
        query = parse_query("q(x, y) :- R(x, a), S(a, b), T(b, y)")
        for path in bad_paths(query):
            assert path[0] in query.answer_variables
            assert path[-1] in query.answer_variables

    def test_acyclic_query_bad_path_characterises_free_connex(self):
        # For acyclic queries: free-connex acyclic iff no bad path.
        queries = [
            "q(x, y) :- R(x, z), S(z, y)",
            "q(x, y, z) :- R(x, y), S(y, z)",
            "q(x, y) :- R(x, y), S(y, z)",
            "q(s, a, d) :- Advisor(s, a), WorksFor(a, d)",
            "q(x, y) :- R(x, a), S(a, b), T(b, y)",
        ]
        for text in queries:
            query = parse_query(text)
            assert is_acyclic(query)
            assert is_free_connex_acyclic(query) == (not has_bad_path(query)), text


def _random_acyclic_atoms(rng: random.Random, size: int) -> list[Atom]:
    """Generate atoms whose hypergraph is acyclic by growing a tree."""
    variables = [Variable(f"v{i}") for i in range(size + 1)]
    atoms = [Atom("R0", (variables[0], variables[1]))]
    for index in range(1, size):
        anchor = rng.choice(variables[: index + 1])
        atoms.append(Atom(f"R{index}", (anchor, variables[index + 1])))
    return atoms


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_tree_shaped_atom_sets_are_acyclic(size, seed):
    """Property: atom sets grown as trees are acyclic and have valid join trees."""
    rng = random.Random(seed)
    atoms = _random_acyclic_atoms(rng, size)
    assert is_alpha_acyclic(atom_hypergraph(atoms))
    tree = build_join_tree(atoms)
    assert tree is not None and tree.is_valid()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=10_000))
def test_gyo_and_join_tree_construction_agree(size, seed):
    """Property: GYO acyclicity and join-tree existence coincide."""
    rng = random.Random(seed)
    variables = [Variable(f"v{i}") for i in range(size)]
    atoms = []
    for index in range(size):
        width = rng.randint(1, 3)
        atoms.append(Atom(f"R{index}", tuple(rng.sample(variables, width))))
    acyclic = is_alpha_acyclic(atom_hypergraph(atoms))
    tree = build_join_tree(atoms)
    assert acyclic == (tree is not None)
