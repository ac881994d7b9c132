"""Random sparse Boolean matrix workloads (BMM lower bound + registry OMQ).

:func:`random_sparse_matrix` feeds the Boolean-matrix-multiplication
lower-bound reduction's tests (``tests/test_reductions.py``).  :func:`matrix_omq` /
:func:`generate_matrix_database` package the same generator as a registry
workload over the *full* join ``q(i, k, j) ← M1(i, k) ∧ M2(k, j)`` — the
free-connex shape.  Projecting out ``k`` yields exactly the BMM query whose
constant-delay enumeration would imply subquadratic matrix multiplication
(the paper's Section 7 lower bound), so that variant is served only through
``strict=False`` engines.
"""

from __future__ import annotations

import random

from repro.core.omq import OMQ
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.data.facts import Fact
from repro.data.instance import Database
from repro.tgds.ontology import Ontology


def random_sparse_matrix(
    dimension: int, density: float, seed: int = 0
) -> list[tuple[int, int]]:
    """A random sparse Boolean matrix as a list of one-entries.

    ``density`` is the probability that any given entry is one; the expected
    number of entries is ``density * dimension**2``.
    """
    rng = random.Random(seed)
    target = max(1, int(density * dimension * dimension))
    entries: set[tuple[int, int]] = set()
    while len(entries) < target:
        entries.add((rng.randrange(dimension), rng.randrange(dimension)))
    return sorted(entries)


def matrix_ontology() -> Ontology:
    """The matrix workload has no TGDs (plain relational data)."""
    return Ontology((), name="matrix")


def matrix_query() -> ConjunctiveQuery:
    """The full matrix join (free-connex; the BMM projection is not)."""
    return parse_query("q(i, k, j) :- M1(i, k), M2(k, j)")


def matrix_omq() -> OMQ:
    """The full-join matrix OMQ over an empty ontology."""
    return OMQ.from_parts(matrix_ontology(), matrix_query(), name="Q_matrix")


def generate_matrix_database(dimension: int, seed: int = 0, density: float = 0.05) -> Database:
    """Two random sparse matrices as ``M1`` / ``M2`` binary relations."""
    facts = [Fact("M1", entry) for entry in random_sparse_matrix(dimension, density, seed=seed)]
    facts.extend(
        Fact("M2", entry)
        for entry in random_sparse_matrix(dimension, density, seed=seed + 1)
    )
    return Database(facts)
