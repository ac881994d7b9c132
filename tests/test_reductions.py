"""Tests for the lower-bound reductions (triangles and Boolean matrices)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive_certain_answers
from repro.core import WILDCARD
from repro.core.testing import OMQSingleTester
from repro.reductions import (
    bmm_free_connex_omq,
    bmm_omq,
    boolean_matrix_multiply_naive,
    boolean_matrix_multiply_sparse,
    boolean_matrix_multiply_via_omq,
    graph_to_database,
    has_triangle_naive,
    has_triangle_via_omq,
    matrices_to_database,
    triangle_omq,
    triangle_partial_answer_omq,
)
from repro.reductions.triangle import vertices_on_triangles_via_omq
from repro.workloads import random_graph, random_sparse_matrix


class TestTriangleReduction:
    def test_omq_shapes(self):
        omq = triangle_omq()
        assert omq.is_guarded()
        assert omq.is_weakly_acyclic()
        assert not omq.is_acyclic()
        path_omq = triangle_partial_answer_omq()
        assert path_omq.is_acyclic()
        assert path_omq.is_free_connex_acyclic()

    def test_graph_encoding_is_symmetric(self):
        database = graph_to_database([("a", "b")])
        assert len(database) == 2

    def test_known_triangle(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        assert has_triangle_naive(edges)
        assert has_triangle_via_omq(edges)

    def test_known_triangle_free(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        assert not has_triangle_naive(edges)
        assert not has_triangle_via_omq(edges)

    def test_empty_graph(self):
        assert not has_triangle_via_omq([])

    def test_all_wildcard_is_always_a_partial_answer(self):
        edges = [("a", "b"), ("b", "c")]
        tester = OMQSingleTester(triangle_omq(), graph_to_database(edges))
        assert tester.test_partial((WILDCARD, WILDCARD, WILDCARD))

    def test_vertices_on_triangles(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        on_triangles = vertices_on_triangles_via_omq(edges)
        assert on_triangles == {"a", "b", "c"}

    def test_random_graphs_agree_with_naive(self):
        rng = random.Random(2)
        graphs = [
            random_graph(rng.randint(4, 9), rng.randint(3, 12), seed=trial)
            for trial in range(6)
        ]
        graphs.append(random_graph(30, 60, seed=7))
        for edges in graphs:
            assert has_triangle_via_omq(edges) == has_triangle_naive(edges)

    def test_avoid_triangles_generator(self):
        # Triangle-free, so the all-wildcard tuple is a minimal partial answer.
        for vertices, edge_count, seed in ((15, 25, 4), (20, 40, 20)):
            edges = random_graph(vertices, edge_count, seed=seed, avoid_triangles=True)
            assert not has_triangle_naive(edges)
            tester = OMQSingleTester(triangle_omq(), graph_to_database(edges))
            assert tester.test_minimal_partial((WILDCARD, WILDCARD, WILDCARD))


class TestBMMReduction:
    def test_omq_shapes(self):
        omq = bmm_omq()
        assert omq.is_acyclic()
        assert not omq.is_free_connex_acyclic()
        full = bmm_free_connex_omq()
        assert full.is_acyclic() and full.is_free_connex_acyclic()

    def test_small_product(self):
        m1 = [(0, 0), (0, 1), (1, 1)]
        m2 = [(0, 1), (1, 0)]
        expected = {(0, 1), (0, 0), (1, 0)}
        assert boolean_matrix_multiply_naive(m1, m2, 2) == expected
        assert boolean_matrix_multiply_sparse(m1, m2) == expected
        assert boolean_matrix_multiply_via_omq(m1, m2) == expected

    def test_empty_matrices(self):
        assert boolean_matrix_multiply_via_omq([], [(0, 0)]) == set()
        assert boolean_matrix_multiply_sparse([], []) == set()

    def test_database_encoding(self):
        database = matrices_to_database([(0, 1)], [(1, 2)])
        assert len(database) == 2
        assert database.relations() == {"R", "S"}

    def test_identity_matrix(self):
        identity = [(i, i) for i in range(4)]
        m = [(0, 1), (2, 3), (3, 0)]
        assert boolean_matrix_multiply_via_omq(identity, m) == set(m)
        assert boolean_matrix_multiply_via_omq(m, identity) == set(m)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_bmm_reduction_matches_baselines(dimension, seed):
    """Property: the OMQ route, the naive certain answers of the same OMQ,
    the sparse baseline and the dense baseline compute the same Boolean
    matrix product."""
    m1 = random_sparse_matrix(dimension, 0.4, seed=seed)
    m2 = random_sparse_matrix(dimension, 0.4, seed=seed + 1)
    dense = boolean_matrix_multiply_naive(m1, m2, dimension)
    sparse = boolean_matrix_multiply_sparse(m1, m2)
    via_omq = boolean_matrix_multiply_via_omq(m1, m2)
    naive = naive_certain_answers(bmm_omq(), matrices_to_database(m1, m2))
    assert dense == sparse == via_omq == naive


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_triangle_reduction_matches_naive_property(vertices, seed):
    """Property: the OMQ triangle test agrees with direct detection."""
    edges = random_graph(vertices, vertices + 2, seed=seed)
    assert has_triangle_via_omq(edges) == has_triangle_naive(edges)
