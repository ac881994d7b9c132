"""Tests for the workload generators."""

from repro.core import MinimalPartialAnswerEnumerator
from repro.workloads import (
    generate_office_database,
    generate_university_database,
    office_omq,
    random_graph,
    random_sparse_matrix,
    university_omq,
)
from repro.workloads.office import OfficeProfile
from repro.workloads.university import UniversityProfile


class TestOfficeWorkload:
    def test_omq_structure(self):
        omq = office_omq()
        assert omq.is_acyclic() and omq.is_free_connex_acyclic() and omq.is_eli()

    def test_database_scales_with_researchers(self):
        small = generate_office_database(10, seed=1)
        large = generate_office_database(100, seed=1)
        assert len(large) > len(small)
        omq = office_omq()
        omq.validate_database(small)

    def test_generation_is_deterministic(self):
        assert generate_office_database(20, seed=5).facts() == generate_office_database(
            20, seed=5
        ).facts()
        assert generate_office_database(20, seed=5).facts() != generate_office_database(
            20, seed=6
        ).facts()

    def test_profile_extremes(self):
        complete = generate_office_database(
            30, profile=OfficeProfile(1.0, 1.0), seed=2
        )
        sparse = generate_office_database(30, profile=OfficeProfile(0.0, 0.0), seed=2)
        assert len(complete) > len(sparse)
        omq = office_omq()
        # Fully complete databases have no wildcard answers.
        from repro.core import WILDCARD

        answers = list(MinimalPartialAnswerEnumerator(omq, complete))
        assert answers and all(WILDCARD not in a for a in answers)


class TestUniversityWorkload:
    def test_omq_structure(self):
        omq = university_omq()
        assert omq.is_acyclic() and omq.is_free_connex_acyclic() and omq.is_eli()

    def test_database_is_valid_and_scales(self):
        omq = university_omq()
        database = generate_university_database(50, seed=3)
        omq.validate_database(database)
        bigger = generate_university_database(200, seed=3)
        assert len(bigger) > len(database)

    def test_profile_controls_advisors(self):
        none = generate_university_database(
            40, profile=UniversityProfile(advisor_probability=0.0), seed=1
        )
        assert not any(f.relation == "HasAdvisor" for f in none)


class TestGraphAndMatrixGenerators:
    def test_random_graph_is_simple(self):
        edges = random_graph(10, 20, seed=1)
        assert len(edges) <= 20
        assert all(u != v for u, v in edges)
        assert len({frozenset(e) for e in edges}) == len(edges)

    def test_random_matrix_density(self):
        entries = random_sparse_matrix(10, 0.2, seed=1)
        assert len(entries) == 20
        assert all(0 <= i < 10 and 0 <= j < 10 for i, j in entries)

