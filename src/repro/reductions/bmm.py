"""Boolean matrix multiplication reductions (Theorem 4.4).

The acyclic but not free-connex acyclic query ``q(x, y) ← R(x, z), S(z, y)``
computes, over the database encoding of two Boolean matrices, exactly the
one-entries of their product.  Theorem 4.4 turns this into a conditional
lower bound: enumerating such OMQs with linear preprocessing and constant
delay would give sparse Boolean matrix multiplication in time linear in
input plus output.  The benchmarks use the construction to contrast the
projected (hard) query with its full free-connex variant
``q(x, z, y) ← R(x, z), S(z, y)`` which *is* enumerable in CD∘Lin.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.baselines.naive import naive_certain_answers
from repro.data.facts import Fact
from repro.data.instance import Database
from repro.cq.parser import parse_query
from repro.core.omq import OMQ
from repro.tgds.ontology import Ontology
from repro.tgds.parser import parse_ontology

Entry = tuple[int, int]


def matrices_to_database(
    m1: Iterable[Entry], m2: Iterable[Entry]
) -> Database:
    """Encode two sparse Boolean matrices (lists of one-entries) as facts."""
    facts = [Fact("R", (row, column)) for row, column in m1]
    facts += [Fact("S", (row, column)) for row, column in m2]
    return Database(facts)


def bmm_omq(with_ontology: bool = True) -> OMQ:
    """The acyclic, non-free-connex OMQ whose answers are the matrix product.

    With ``with_ontology`` a small ELI ontology is attached (it marks rows
    and columns), matching the paper's setting where the ontology may use
    symbols outside the data schema; it does not change the answer set.
    """
    if with_ontology:
        ontology = parse_ontology(
            "R(x, y) -> Row(x)\nS(x, y) -> Col(y)", name="bmm"
        )
    else:
        ontology = Ontology((), name="empty")
    query = parse_query("q(x, y) :- R(x, z), S(z, y)")
    return OMQ.from_parts(ontology, query, name="Q_bmm")


def bmm_free_connex_omq(with_ontology: bool = True) -> OMQ:
    """The full variant ``q(x, z, y)``: acyclic *and* free-connex acyclic."""
    if with_ontology:
        ontology = parse_ontology(
            "R(x, y) -> Row(x)\nS(x, y) -> Col(y)", name="bmm"
        )
    else:
        ontology = Ontology((), name="empty")
    query = parse_query("q(x, z, y) :- R(x, z), S(z, y)")
    return OMQ.from_parts(ontology, query, name="Q_bmm_full")


def boolean_matrix_multiply_naive(
    m1: Sequence[Entry], m2: Sequence[Entry], dimension: int
) -> set[Entry]:
    """Dense triple-loop Boolean matrix multiplication (the O(n^3) baseline)."""
    a = [[False] * dimension for _ in range(dimension)]
    b = [[False] * dimension for _ in range(dimension)]
    for row, column in m1:
        a[row][column] = True
    for row, column in m2:
        b[row][column] = True
    product: set[Entry] = set()
    for i in range(dimension):
        row_a = a[i]
        for j in range(dimension):
            for k in range(dimension):
                if row_a[k] and b[k][j]:
                    product.add((i, j))
                    break
    return product


def boolean_matrix_multiply_sparse(
    m1: Sequence[Entry], m2: Sequence[Entry]
) -> set[Entry]:
    """Sparse (adjacency-list) Boolean matrix multiplication baseline."""
    by_row: dict[int, set[int]] = {}
    for row, column in m1:
        by_row.setdefault(row, set()).add(column)
    by_middle: dict[int, set[int]] = {}
    for row, column in m2:
        by_middle.setdefault(row, set()).add(column)
    product: set[Entry] = set()
    for row, middles in by_row.items():
        for middle in middles:
            for column in by_middle.get(middle, ()):
                product.add((row, column))
    return product


def boolean_matrix_multiply_via_omq(
    m1: Sequence[Entry], m2: Sequence[Entry]
) -> set[Entry]:
    """The matrix product read off the OMQ ``Q_bmm`` (certain answers)."""
    database = matrices_to_database(m1, m2)
    omq = bmm_omq()
    return naive_certain_answers(omq, database)
