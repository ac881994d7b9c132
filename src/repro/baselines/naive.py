"""Naive (materialise-everything) baselines.

These implementations follow the definitions directly: chase the database,
enumerate every homomorphism of the query, collapse nulls to wildcards, and
take ``≺``-minimal elements.  They are deliberately simple — they serve as
the ground truth for the test-suite and as the comparison point ("what a
non-constant-delay system would do") in the benchmarks.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.instance import Database
from repro.data.terms import is_null
from repro.cq.homomorphism import evaluate
from repro.core.omq import OMQ
from repro.core.wildcards import (
    collapse_nulls,
    collapse_nulls_multi,
    minimal_multi_tuples,
    minimal_partial_tuples,
)


def _chased_answers(omq: OMQ, database: Database) -> set[tuple]:
    """All answers of the CQ over the query-directed chase (nulls included)."""
    chased = omq.chase(database)
    return evaluate(omq.query, chased.instance)


def naive_certain_answers(omq: OMQ, database: Database) -> set[tuple]:
    """``Q(D)`` by materialising every homomorphism over the chase."""
    return {
        answer
        for answer in _chased_answers(omq, database)
        if not any(is_null(value) for value in answer)
    }


def naive_partial_answers(omq: OMQ, database: Database) -> set[tuple]:
    """All (not necessarily minimal) wildcard collapses of chase answers."""
    return {collapse_nulls(answer) for answer in _chased_answers(omq, database)}


def naive_minimal_partial_answers(omq: OMQ, database: Database) -> set[tuple]:
    """``Q(D)*``: minimal partial answers with a single wildcard."""
    return minimal_partial_tuples(naive_partial_answers(omq, database))


def naive_partial_answers_multi(omq: OMQ, database: Database) -> set[tuple]:
    """All (not necessarily minimal) multi-wildcard collapses of chase answers."""
    return {collapse_nulls_multi(answer) for answer in _chased_answers(omq, database)}


def naive_minimal_partial_answers_multi(omq: OMQ, database: Database) -> set[tuple]:
    """``Q(D)^W``: minimal partial answers with multi-wildcards."""
    return minimal_multi_tuples(naive_partial_answers_multi(omq, database))


def naive_single_test(omq: OMQ, database: Database, candidate: Sequence) -> bool:
    """Membership test by materialising ``Q(D)`` first."""
    return tuple(candidate) in naive_certain_answers(omq, database)
